import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from schromag.baselines import auxiliary_ratio_trace
from schromag.cli import COMPARE_SAMPLES
from schromag.linalg import LinearSystem, direct_solve, full_svd
from schromag.mag import MagParams, build_spectral, horizon
from schromag.presets import compare_preset

from reference import (build_transformed, damped_flow, flow_state, flow_steady_state,
                       params_from_sigma, to_ode)

DIAG_A = np.diag([10.0, 0.1]).astype(complex)
DIAG_B = np.array([1.0, 1.0], dtype=complex)


def _spec(a, b):
    """The SpectralSystem the gradient and damped flows are built from; they
    read its basis only, so any valid momentum parameters do."""
    return build_spectral(a, b, MagParams(1.0, 1.0))


def _sampled(spec, flow, t_end, samples) -> tuple:
    """(times, states) of a flow built from `spec` at `samples` uniformly
    spaced times from 0 to t_end, as `compare` samples its flows: each
    state [V x; U y], or V x for the gradient flow (`flow_state`)."""
    times = np.linspace(0.0, t_end, samples)
    return times, flow_state(spec, flow.at(times))


def dense_flow(kind, a, b, gamma=None, params=None):
    """The dense (generator, drive) pair of each flow, the tests' reference."""
    n = a.shape[0]
    ah = a.conj().T
    if kind == "gradient":
        return -(ah @ a), ah @ b
    if kind == "damped":
        gen = np.zeros((2 * n, 2 * n), dtype=complex)
        gen[:n, n:], gen[n:, :n], gen[n:, n:] = -ah, a, -gamma * np.eye(n)
        return gen, np.concatenate([np.zeros(n), -b])
    return to_ode(build_transformed(a, b, params))


def dense_states(gen, drive, w0, times):
    """exp of the augmented homogeneous system, one expm per time."""
    d = gen.shape[0]
    aug = np.zeros((d + 1, d + 1), dtype=complex)
    aug[:d, :d], aug[:d, d] = gen, drive
    z0 = np.concatenate([w0, [1.0]])
    return [(expm(aug * t) @ z0)[:d] for t in times]


class TestGradientFlow:
    def test_identity(self):
        spec = _spec(np.eye(2), [1.0, 2.0])
        flow = spec.gradient
        assert np.allclose(flow.blocks, -1.0)
        assert np.allclose(flow_steady_state(spec, flow), [1.0, 2.0])

    def test_slowest_decay_rate(self):
        flow = _spec(DIAG_A, DIAG_B).gradient
        rates = -flow.blocks[:, 0, 0]
        assert min(rates) == pytest.approx(0.01, rel=1e-12)

    def test_steady_state_is_solution(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=4) + 0j
        spec = _spec(a, b)
        oracle = direct_solve(LinearSystem(a, b), full_svd(a)[1])
        assert np.allclose(flow_steady_state(spec, spec.gradient), oracle, atol=1e-9)

    def test_error_bound_pointwise(self):
        # ||du(t)|| <= exp(-sigma_min^2 t) ||du(0)||
        spec = _spec(DIAG_A, DIAG_B)
        flow = spec.gradient
        u_inf = flow_steady_state(spec, flow)
        times, states = _sampled(spec, flow, 3.0, 40)
        d0 = np.linalg.norm(u_inf)
        for t, u in zip(times, states):
            assert np.linalg.norm(u - u_inf) <= math.exp(-0.01 * t) * d0 * (1 + 1e-9)


class TestDamped:
    def test_steady_state_block_elimination(self):
        spec = _spec(DIAG_A, DIAG_B)
        w_inf = flow_steady_state(spec, spec.damped)
        oracle = direct_solve(LinearSystem(DIAG_A, DIAG_B), full_svd(DIAG_A)[1])
        assert np.allclose(w_inf[:2], oracle, atol=1e-10)
        assert np.max(np.abs(w_inf[2:])) <= 1e-10  # auxiliary block exactly zero

    def test_gamma_bound(self):
        # the damping is 1.9 sigma_min, inside 0 < gamma < 2 sigma_min; on
        # sigma_min = 0.1 it is 0.19, bit for bit 2 sigma_min_hat of fig1's bounds
        gamma = -_spec(DIAG_A, DIAG_B).damped.blocks[:, 1, 1]
        assert np.all(gamma == 0.19) and gamma[0] == 2 * (0.1 * 0.95)
        assert 0.0 < gamma[0] < 2 * 0.1

    def test_scalar_eigenvalues(self):
        flow = damped_flow(_spec(np.eye(1), [1.0]), 1.0)
        vals = np.linalg.eigvals(flow.blocks[0])
        expect = {(-1 + 1j * math.sqrt(3)) / 2, (-1 - 1j * math.sqrt(3)) / 2}
        for v in vals:
            assert min(abs(v - e) for e in expect) < 1e-12

    def test_error_bound_on_diagonal_system(self):
        # exp(-gamma t/2) is the decay rate of the u-block error; for a
        # rest start the 2x2 closed form per mode is
        #   du(t) = exp(-g t/2) (cos(om t) + g/(2 om) sin(om t)) du(0)
        # so the envelope carries the constant sqrt(1 + (g/(2 om))^2),
        # which diverges as gamma approaches critical damping.  Verify
        # both the closed form and the constant-carrying envelope.
        gamma = 0.19  # 1.9 sigma_min
        spec = _spec(DIAG_A, DIAG_B)
        flow = spec.damped
        w_inf = flow_steady_state(spec, flow)
        times, states = _sampled(spec, flow, 40.0, 100)
        sig = np.array([10.0, 0.1])
        om = np.sqrt(sig**2 - gamma**2 / 4.0)
        cmax = float(np.max(np.sqrt(1.0 + (gamma / (2 * om)) ** 2)))
        d0 = np.linalg.norm(w_inf[:2])
        for t, w in zip(times, states):
            closed = w_inf[:2] - w_inf[:2] * math.exp(-gamma * t / 2) * (
                np.cos(om * t) + gamma / (2 * om) * np.sin(om * t)
            )
            assert np.allclose(w[:2], closed, atol=1e-9)
            err = np.linalg.norm(w[:2] - w_inf[:2])
            assert err <= cmax * math.exp(-gamma * t / 2) * d0 * (1 + 1e-9)


class TestIntegrateFlow:
    """The flows sampled at uniformly spaced times, as `compare` samples them."""

    def test_zero_everything(self):
        spec = _spec(np.eye(2), np.zeros(2))
        _, states = _sampled(spec, spec.gradient, 1.0, 5)
        assert all(np.allclose(w, 0) for w in states)

    def test_decoupled_scalar_decay(self):
        spec = _spec(DIAG_A, DIAG_B)
        flow = spec.gradient
        u_inf = flow_steady_state(spec, flow)
        times, states = _sampled(spec, flow, 0.1, 11)
        for t, u in zip(times, states):
            # component 1 error decays as exp(-100 t), closed form
            expect = u_inf[0] * (1 - math.exp(-100.0 * t))
            assert u[0] == pytest.approx(expect, abs=1e-9)

    def test_damped_limit(self):
        spec = _spec(DIAG_A, DIAG_B)
        w_end = _sampled(spec, spec.damped, 400.0, 40)[1][-1]
        oracle = direct_solve(LinearSystem(DIAG_A, DIAG_B), full_svd(DIAG_A)[1])
        assert np.allclose(w_end[:2], oracle, atol=1e-8)
        assert np.max(np.abs(w_end[2:])) < 1e-8

    @pytest.mark.parametrize("kind", ["gradient", "damped", "mag-ode"])
    def test_starts_at_zero_and_end_ignores_sampling(self, kind):
        # `cli._run_method` takes a flow's answer from `FlowSystem.at(t_end)`
        a, b = _random_system(5, 6)
        spec = build_spectral(a, b)
        flow = getattr(spec, {"mag-ode": "ode"}.get(kind, kind))
        times, states = _sampled(spec, flow, 5.0, COMPARE_SAMPLES)
        assert times[0] == 0.0 and np.array_equal(states[0], np.zeros(states.shape[1]))
        end = flow_state(spec, flow.at(5.0))
        assert np.linalg.norm(end - states[-1]) <= 1e-13 * np.linalg.norm(states[-1])


class TestEvolutionTime:
    # a 1 x 1 system [sigma] u = [sigma]: x* = u* = 1, so the gradient flow
    # runs to delta itself
    @staticmethod
    def _time(kind, sigma_min, delta):
        return horizon(kind, build_spectral(np.diag([sigma_min]), [sigma_min]), delta)[1]

    def test_gradient_unit(self):
        assert self._time("gradient", 1.0, math.exp(-1.0)) == pytest.approx(1.0)

    def test_gradient_value(self):
        got = self._time("gradient", 0.1, 0.01)
        assert got == pytest.approx(math.log(100.0) / 0.01, rel=1e-12)

    def test_damped_value(self):
        got = self._time("damped", 0.1, 0.01)
        assert got == pytest.approx(math.log(100.0) / 0.1, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            self._time("verlet", 0.1, 0.01)

    def test_mag_is_not_a_flow_kind(self):
        # the momentum method runs for a step count, 4 ceil(kappa_hat ln(1/delta)),
        # not for a flow time
        steps = self._time("mag", 0.1, 0.01)
        assert isinstance(steps, int) and steps == 4 * math.ceil(math.log(100.0))


class TestAuxiliaryRatio:
    def test_constant_trajectory(self):
        ratio = auxiliary_ratio_trace(np.full(5, 2.0 + 0j), np.full(5, 3.0 + 0j))
        assert ratio.sign_changes == 0
        assert ratio.ratio_min == ratio.ratio_max == pytest.approx(1.5)

    def test_mag_ratio_settles_to_steady_value(self):
        params = compare_preset("fig1")[2]
        spec = build_spectral(DIAG_A, DIAG_B, params)
        _, states = _sampled(spec, spec.ode, 400.0, 200)
        ratio = auxiliary_ratio_trace(states[:, 0], states[:, 2])
        u_inf = direct_solve(LinearSystem(DIAG_A, DIAG_B), full_svd(DIAG_A)[1])
        expect = (
            math.sqrt(params.alpha * params.beta)
            * DIAG_B[0]
            / ((1 - params.beta) * u_inf[0])
        ).real
        assert ratio.ratios[-1] == pytest.approx(expect, rel=1e-6)

    def test_fig1_comparison_property(self):
        # both flows on the one spectral system of fig1's bounds, as `compare` runs them
        a, b, params, t_end = compare_preset("fig1")
        spec = build_spectral(a, b, params)
        _, mag_states = _sampled(spec, spec.ode, t_end, COMPARE_SAMPLES)
        _, damp_states = _sampled(spec, spec.damped, t_end, COMPARE_SAMPLES)
        r_mag = auxiliary_ratio_trace(mag_states[:, 0], mag_states[:, 2])
        r_damp = auxiliary_ratio_trace(damp_states[:, 0], damp_states[:, 2])
        # skip the initial transient (first 5% of the horizon)
        tail_start = int(0.05 * len(r_mag.ratios))
        tail = [r for r in r_mag.ratios[tail_start:] if not math.isnan(r)]
        changes = sum(1 for x, y in zip(tail, tail[1:]) if x * y < 0)
        assert changes == 0
        assert r_damp.sign_changes > changes
        assert r_damp.sign_changes >= 2

    def test_near_zero_denominators_become_gaps(self):
        ratio = auxiliary_ratio_trace(np.array([1.0, 0.0, -1.0], dtype=complex),
                                      np.ones(3, dtype=complex))
        assert math.isnan(ratio.ratios[1])
        assert ratio.sign_changes == 1


def _random_system(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a, b


def _assert_matches_dense(spec, flow, gen, drive, t_end):
    times, states = _sampled(spec, flow, t_end, 5)
    expect = dense_states(gen, drive, np.zeros(gen.shape[0]), times)
    scale = np.linalg.norm(flow_steady_state(spec, flow))
    assert np.linalg.norm(states[0]) <= 1e-13 * scale
    for got, want in zip(states, expect):
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), scale)


class TestAgainstDenseExpm:
    """The per-singular-value flows against the dense generators and
    scipy's expm of the augmented system, from the flows' start w = 0."""

    @given(st.integers(0, 10**6), st.integers(1, 6), st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_gradient(self, seed, n, t_end):
        a, b = _random_system(seed, n)
        s = np.linalg.svd(a, compute_uv=False)
        assume(s[-1] > 1e-2 * s[0])
        gen, drive = dense_flow("gradient", a, b)
        spec = _spec(a, b)
        _assert_matches_dense(spec, spec.gradient, gen, drive, t_end)

    @given(st.integers(0, 10**6), st.integers(1, 6), st.floats(0.1, 5.0),
           st.sampled_from([0.05, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]))
    @settings(max_examples=30, deadline=None)
    def test_damped(self, seed, n, t_end, frac):
        # frac -> 1 takes gamma to critical damping 2 sigma_min
        a, b = _random_system(seed, n)
        s = np.linalg.svd(a, compute_uv=False)
        assume(s[-1] > 1e-2 * s[0])
        gamma = 2.0 * float(s[-1]) * frac
        gen, drive = dense_flow("damped", a, b, gamma=gamma)
        spec = _spec(a, b)
        _assert_matches_dense(spec, damped_flow(spec, gamma), gen, drive, t_end)

    @given(st.integers(0, 10**6), st.integers(1, 6), st.floats(0.1, 5.0),
           st.sampled_from([1.0, 1.0, 1.2]))
    @example(seed=0, n=1, t_end=2.0, safety=1.0)
    @settings(max_examples=30, deadline=None)
    def test_mag_ode(self, seed, n, t_end, safety):
        # safety = 1 puts sigma_max^2 and sigma_min^2 on the bounds, where
        # the blocks are defective
        a, b = _random_system(seed, n)
        s = np.linalg.svd(a, compute_uv=False)
        assume(s[-1] > 1e-2 * s[0])
        params = params_from_sigma(s, safety)
        gen, drive = dense_flow("mag-ode", a, b, params=params)
        spec = build_spectral(a, b, params)
        _assert_matches_dense(spec, spec.ode, gen, drive, t_end)

    def test_scalar_mag_ode_block(self):
        # a scaled permutation with bounds (1, 1): alpha = 1, beta = 0, so
        # every block is -I and tau^2 - det is exactly zero
        a = 1j * np.eye(3)[[2, 0, 1]]
        b = np.array([1.0, -2.0j, 0.5])
        params = MagParams(1.0, 1.0)
        spec = build_spectral(a, b, params)
        assert np.array_equal(spec.ode.blocks, np.broadcast_to(-np.eye(2), (3, 2, 2)))
        gen, drive = dense_flow("mag-ode", a, b, params=params)
        _assert_matches_dense(spec, spec.ode, gen, drive, 2.0)
