import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from schromag import mag
from schromag.cli import _unit_rhs
from schromag.errors import ConvergenceError, InputError, SingularMatrixError, SpectrumBoundsError
from schromag.linalg import LinearSystem, direct_solve, full_svd
from schromag.mag import (
    MAX_ITERATION_ENTRIES,
    SPECTRAL_RADIUS_TOL,
    STATE_CHUNK,
    FlowSystem,
    MagParams,
    SpectralSystem,
    build_spectral,
    horizon,
    mag_iterate,
    solve_spectral,
    spectral_radius_check,
)
from schromag.presets import PDE_PRESET_NAMES, pde_preset

from reference import (build_transformed, damped_flow, params_from_matrix, relative_residuals,
                       relative_trace_from_steady, steady_state)

DIAG_A = np.diag([10.0, 0.1]).astype(complex)
DIAG_B = np.array([1.0, 1.0], dtype=complex)


def unitary_sandwich(rng, sig):
    """A random complex matrix with exactly the singular values sig."""
    n = sig.size
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q1 @ np.diag(sig) @ q2.conj().T


def random_system(rng, n, sig_lo=0.2, sig_hi=5.0):
    """Random complex A with singular values strictly inside [sig_lo, sig_hi]."""
    sig = rng.uniform(sig_lo * 1.02, sig_hi * 0.98, size=n)
    a = unitary_sandwich(rng, sig)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a, b, MagParams(sig_hi**2, sig_lo**2)


def iterate_kept(sys, delta, max_steps):
    """`mag_iterate` and every state it hands over, as one stack, w_0 first."""
    stacks = []
    trace = mag_iterate(sys, delta, max_steps, on_states=stacks.append)
    return trace, np.concatenate(stacks)


class TestDeriveParams:
    def test_degenerate_bounds_kill_momentum(self):
        p = MagParams(1.0, 1.0)
        assert (p.alpha, p.beta, p.kappa_hat) == (1.0, 0.0, 1.0)

    def test_kappa_100(self):
        p = MagParams(100.0, 0.01)
        assert p.kappa_hat == pytest.approx(100.0)
        assert p.alpha == pytest.approx(4.0 / 102.01, rel=1e-12)
        assert p.beta == pytest.approx((99.0 / 101.0) ** 2, rel=1e-12)

    def test_kappa_2(self):
        p = MagParams(4.0, 1.0)
        assert p.alpha == pytest.approx(4.0 / 9.0, rel=1e-14)
        assert p.beta == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_rejects_bad_bounds(self):
        for l_hat, mu_hat in ((1.0, 0.0), (1.0, -1.0), (1.0, 2.0), (0.0, 0.0)):
            with pytest.raises(ValueError):
                MagParams(l_hat, mu_hat)

    def test_out_of_range_params_rejected_under_optimize(self):
        # the range checks are real checks, so they survive python -O:
        # mu_hat > l_hat, an infinite bound, and beta rounding to 1.0
        code = (
            "from schromag.mag import MagParams\n"
            "for bounds, want in (((1.0, 2.0), 'need 0 < mu_hat <= l_hat'),\n"
            "                     ((float('inf'), 1.0), 'need 0 < mu_hat <= l_hat'),\n"
            "                     ((1e34, 1.0), 'need 0 <= beta < 1, got 1.0')):\n"
            "    try:\n"
            "        MagParams(*bounds)\n"
            "    except ValueError as exc:\n"
            "        if str(exc).startswith(want):\n"
            "            continue\n"
            "        raise SystemExit(f'{bounds}: {exc}')\n"
            "    raise SystemExit(f'{bounds} accepted')\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @given(st.floats(1e-3, 1e3), st.floats(1.0, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_invariant_ranges(self, mu_hat, ratio):
        p = MagParams(mu_hat * ratio, mu_hat)
        assert 0.0 <= p.beta < 1.0
        assert 0.0 < p.alpha <= (1.0 + 4e-16) / p.mu_hat


class TestBuildTransformed:
    def test_identity_collapses(self):
        p = MagParams(1.0, 1.0)
        sys = build_transformed(np.eye(2), [3.0, 4.0], p)
        assert np.allclose(sys.h, 0.0)
        assert np.allclose(sys.f, [3.0, 4.0, 0.0, 0.0])

    def test_momentum_block(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        assert np.allclose(sys.h[2:, 2:], p.beta * np.eye(2))

    def test_block_reconstruction(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        c = math.sqrt(p.alpha * p.beta)
        assert np.allclose(sys.h[:2, 2:], -c * DIAG_A.conj().T)
        assert np.array_equal(sys.h, sys.reconstruct_h())

    def test_hermitian_gap_formula(self):
        # lambda_max((H+H^H)/2 - I) = max(-alpha*sigma_min^2, -(1-beta))
        rng = np.random.default_rng(7)
        a, b, p = random_system(rng, 6)
        sys = build_transformed(a, b, p)
        sig_min = np.linalg.svd(a, compute_uv=False)[-1]
        expected = max(-p.alpha * sig_min**2, -(1.0 - p.beta))
        assert sys.hermitian_gap() == pytest.approx(expected, abs=1e-8)
        assert sys.hermitian_gap() < 0.0
        # bracketing bounds imply the declared-bound form of the gap
        assert sys.hermitian_gap() <= -min(p.alpha * p.mu_hat, 1 - p.beta) + 1e-8


class TestSteadyState:
    def test_identity_beta_zero(self):
        p = MagParams(1.0, 1.0)
        sys = build_transformed(np.eye(2), [1.0, 2.0], p)
        assert np.allclose(steady_state(sys), [1.0, 2.0, 0.0, 0.0])

    def test_second_block_is_scaled_rhs(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        w = steady_state(sys)
        c = math.sqrt(p.alpha * p.beta)
        assert np.allclose(w[2:], c * DIAG_B, atol=1e-9)

    def test_first_block_matches_direct_solve(self):
        rng = np.random.default_rng(3)
        a, b, p = random_system(rng, 5)
        sys = build_transformed(a, b, p)
        w = steady_state(sys)
        u = direct_solve(LinearSystem(a, b), full_svd(a)[1])
        assert np.linalg.norm(w[:5] / (1 - p.beta) - u) <= 1e-9 * np.linalg.norm(u)


def lambda_pm(sigma, p: MagParams) -> np.ndarray:
    """The eigenvalues lambda_+- of H's block at each singular value sigma,
    (len(sigma), 2): 1 + the eigenvalues of the momentum ODE's block."""
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    eye = np.eye(sigma.size)
    spec = SpectralSystem(sigma=sigma, u=eye, vh=eye, b_t=np.ones(sigma.size), params=p)
    return 1.0 + spec.ode.eigenvalues()


class TestLambdaPm:
    def test_unit_sigma_degenerate(self):
        p = MagParams(1.0, 1.0)
        assert np.array_equal(lambda_pm(1.0, p), [[0.0, 0.0]])

    def test_spectrum_edge_modulus(self):
        # at the spectrum edges the discriminant vanishes; rounding noise
        # under the square root costs ~sqrt(eps) in the modulus
        p = MagParams(4.0, 1.0)
        moduli = np.abs(lambda_pm(np.sqrt([1.0, 4.0]), p))
        assert np.allclose(moduli, math.sqrt(p.beta), rtol=0.0, atol=2e-8)

    @given(st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_interior_sigma_on_circle(self, frac):
        p = MagParams(25.0, 0.25)
        sigma2 = 0.25 + frac * (25.0 - 0.25)
        moduli = np.abs(lambda_pm(math.sqrt(sigma2), p))
        assert np.allclose(moduli, math.sqrt(p.beta), rtol=0.0, atol=1e-10)


class TestSpectralRadius:
    def test_identity_zero(self):
        spec = build_spectral(np.eye(2), [1.0, 1.0], MagParams(1.0, 1.0))
        assert spectral_radius_check(spec) == pytest.approx(0.0, abs=1e-12)

    def test_diag_value(self):
        # exact bounds make the eigenvalues defective, so the closed form
        # is sqrt(eps)-accurate here rather than eps-accurate
        spec = build_spectral(DIAG_A, DIAG_B, MagParams(100.0, 0.01))
        assert spectral_radius_check(spec) == pytest.approx(99.0 / 101.0, abs=1e-7)

    def test_violated_bounds_raise(self):
        # mu_hat above the true sigma_min^2 pushes the radius off sqrt(beta)
        with pytest.raises(SpectrumBoundsError):
            spectral_radius_check(build_spectral(DIAG_A, DIAG_B, MagParams(100.0, 1.0)))


class TestClosedFormAgainstDense:
    """Closed-form block spectra against dense factorizations of H and I - H."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.sampled_from(["exact", "wide", "l_hat low", "mu_hat high"]),
           st.floats(1e-3, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_radius_verdict_matches_dense_eig(self, seed, n, case, rel):
        rng = np.random.default_rng(seed)
        sig = rng.uniform(0.1, 10.0, size=n)
        a = unitary_sandwich(rng, sig)
        top, bottom = float(np.max(sig)) ** 2, float(np.min(sig)) ** 2
        if case == "exact":
            l_hat, mu_hat = top, bottom
        elif case == "wide":
            l_hat, mu_hat = top * (1 + rel), bottom * (1 - rel)
        elif case == "l_hat low":
            l_hat = top * (1 - rel)
            mu_hat = min(bottom, l_hat) * (1 - rel)
        else:
            mu_hat = bottom * (1 + rel)
            l_hat = max(top, mu_hat) * (1 + rel)
        p = MagParams(l_hat, mu_hat)
        sys = build_transformed(a, np.ones(n), p)

        rho_dense = float(np.max(np.abs(np.linalg.eig(sys.h)[0])))
        dense_accepts = abs(rho_dense - math.sqrt(p.beta)) <= SPECTRAL_RADIUS_TOL
        rho_closed = float(np.max(np.abs(lambda_pm(full_svd(a)[1], p))))
        try:
            spectral_radius_check(build_spectral(a, np.ones(n), p))
            closed_accepts = True
        except SpectrumBoundsError:
            closed_accepts = False

        assert closed_accepts == dense_accepts == (case in ("exact", "wide"))
        assert rho_closed == pytest.approx(rho_dense, abs=SPECTRAL_RADIUS_TOL)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.floats(1e-3, 1e3), st.floats(1.0, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_i_minus_h_singular_values_match_dense_svd(self, seed, n, mu_hat, ratio):
        rng = np.random.default_rng(seed)
        sig = np.exp(rng.uniform(math.log(1e-3), math.log(1e2), size=n))
        sys = build_transformed(unitary_sandwich(rng, sig), np.ones(n),
                                MagParams(mu_hat * ratio, mu_hat))
        dense = np.linalg.svd(np.eye(2 * n) - sys.h, compute_uv=False)
        # H - I has the singular values of I - H
        closed = np.sort(build_spectral(sys.a, sys.b, sys.params).ode.singular_values(), None)
        assert closed.shape == (2 * n,)
        assert np.allclose(closed, np.sort(dense), rtol=1e-10, atol=1e-12 * dense[0])


def random_flow(kind, sigma, mu_hat, ratio, frac, seed):
    """The momentum ODE under bounds (mu_hat ratio, mu_hat), bracketing or
    not, the damped flow at gamma = frac 2 sigma_min, or the gradient flow,
    on singular values sigma and a random b~, with a random state of it;
    identity singular vectors, as the flows read sigma and b~ alone."""
    rng = np.random.default_rng(seed)
    n = len(sigma)
    spec = SpectralSystem(sigma=np.sort(sigma)[::-1], u=np.eye(n), vh=np.eye(n),
                          b_t=rng.normal(size=n) + 1j * rng.normal(size=n),
                          params=MagParams(mu_hat * ratio, mu_hat))
    flow = {"mag-ode": lambda: spec.ode, "gradient": lambda: spec.gradient,
            "damped": lambda: damped_flow(spec, 2.0 * float(spec.sigma[-1]) * frac)}[kind]()
    shape = flow.drive.shape
    return flow, rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _flows(kinds):
    """(flow, state) of `random_flow` for the given kinds of flow."""
    return st.builds(random_flow, st.sampled_from(kinds),
                     st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=8),
                     st.floats(1e-4, 1e2), st.floats(1.0, 1e4), st.floats(0.01, 0.99),
                     st.integers(0, 2**32 - 1))


FLOWS = _flows(["mag-ode", "damped", "gradient"])
# the flows of 2x2 blocks: the gradient flow is only ever evaluated `at` a time
PAIR_FLOWS = _flows(["mag-ode", "damped"])


class TestFlowSystem:
    """A FlowSystem's closed forms against its blocks, block by block, for
    the momentum ODE and both comparison flows."""

    @given(PAIR_FLOWS)
    @settings(max_examples=60, deadline=None)
    def test_step_is_the_flow_plus_identity(self, drawn):
        # the unit Euler step w + M w + g: for the momentum ODE it is the
        # iteration's w -> H w + F, under any bounds
        flow, w = drawn
        m, g = flow.blocks, flow.drive
        expected = w + np.einsum("jkl,jl->jk", m, w) + g
        scale = np.max(np.abs(w)) * (1.0 + np.max(np.abs(m))) + np.max(np.abs(g))
        assert np.max(np.abs(flow.step(w) - expected)) <= 4 * np.finfo(float).eps * scale

    @given(PAIR_FLOWS)
    @settings(max_examples=60, deadline=None)
    def test_eigenvalues_match_dense_eig(self, drawn):
        # where a block is defective both sides are only sqrt(eps)-accurate
        flow, _ = drawn
        closed, dense = flow.eigenvalues(), np.linalg.eigvals(flow.blocks)
        assert closed.shape == dense.shape
        scale = np.max(np.abs(flow.blocks), axis=(1, 2))[:, None]
        assert np.all(np.abs(np.sort_complex(closed) - np.sort_complex(dense)) <= 1e-7 * scale)

    @given(FLOWS)
    @settings(max_examples=60, deadline=None)
    def test_singular_values_match_dense_svd(self, drawn):
        # the guard of `steady_pairs`; the dense small value is accurate
        # only to eps times the large one
        flow, _ = drawn
        dense = np.linalg.svd(flow.blocks, compute_uv=False)
        closed = -np.sort(-flow.singular_values(), axis=1)
        assert np.all(np.abs(closed - dense) <= 1e-10 * dense + 1e-15 * dense[:, :1])

    def test_steady_pairs_is_one_read_only_array_per_flow(self):
        # computed once per flow, for 2x2 and 1x1 blocks alike: every call
        # returns the same array, which no caller can write into
        rng = np.random.default_rng(5)
        spec = build_spectral(*random_system(rng, 6))
        for flow in (spec.ode, spec.gradient, spec.damped):
            w_inf = flow.steady_pairs()
            assert flow.steady_pairs() is w_inf
            assert w_inf.shape == flow.drive.shape and not w_inf.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                w_inf[0, 0] = 0.0
            assert np.array_equal(flow.at(0.0), np.zeros_like(w_inf))
        # a singular block keeps nothing: every call raises
        spec = build_spectral(np.diag([1.0, 1e-10]), np.ones(2), MagParams(4.0, 1.0))
        for _ in range(2):
            with pytest.raises(SingularMatrixError, match="cond ~ 1.778e"):
                spec.ode.steady_pairs()

    def test_ode_is_freed_without_the_collector(self):
        # a flow keeps no reference to its spectral system, so the system,
        # its cached `ode` and the dense U and V^H go as soon as the last
        # reference does: no cycle is left for the cyclic collector
        spec = build_spectral(*random_system(np.random.default_rng(7), 5))
        spec.ode.steady_pairs()
        refs = [weakref.ref(obj) for obj in (spec, spec.ode, spec.u, spec.vh)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del spec
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()


def propagate(blocks, v, t):
    """exp(M t) v by `FlowSystem.propagate`, for M with the diagonal blocks `blocks`."""
    blocks = np.asarray(blocks)
    return FlowSystem(blocks, np.zeros(blocks.shape[:2])).propagate(v, t)


class TestExpmApply:
    """`FlowSystem.propagate`, the closed-form exponential of a block-diagonal
    generator."""

    def test_zero_generator(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(propagate(np.zeros((2, 2, 2)), v, 7.5), v)

    def test_scalar_decay(self):
        out = propagate([[[-1.0]]], [[1.0]], 1.0)
        assert out[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_phase_rotation(self):
        # the real form of e^{i pi}: a rotation by pi
        out = propagate([[[0.0, -np.pi], [np.pi, 0.0]]], [[1.0, 0.0]], 1.0)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            propagate(np.zeros((1, 2, 2)), [[1.0, 2.0, 3.0]], 1.0)
        with pytest.raises(ValueError):
            propagate(np.zeros((1, 2, 2)), [[1.0, 2.0]], np.inf)

    @given(st.integers(2, 10), st.floats(0.1, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_group_law(self, n, t):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, 2, 2))
        v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        full = propagate(m, v, t)
        halves = propagate(m, propagate(m, v, t / 2), t / 2)
        assert np.linalg.norm(full - halves) <= 1e-9 * np.linalg.norm(full)

    @pytest.mark.parametrize("block", [
        [[-1.0, 1.0], [0.0, -1.0]],  # defective: tau^2 = det exactly
        [[-2.0, 0.0], [0.0, -2.0]],  # scalar
        [[0.0, 0.0], [0.0, 0.0]],
        [[-3.0, 1.0], [-0.25, -2.0]],  # defective, off-diagonal on both sides
        [[0.0, -5.0], [5.0, -0.1]],  # oscillating
        [[-1.0, 2.0], [3.0, -7.0]],  # real eigenvalues
    ])
    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 40.0])
    def test_matches_dense_expm(self, block, t):
        v = np.array([0.3 - 1.0j, 2.0 + 0.5j])
        got = propagate([block], [v], t)[0]
        expect = expm(np.array(block) * t) @ v
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)
        if t == 0.0:
            assert np.array_equal(got, v)

    def test_times_stack(self):
        m = np.array([[[0.0, -1.0], [1.0, -0.5]], [[-2.0, 0.0], [0.0, -1.0]]])
        v = np.array([[1.0, 0.0], [1.0, 1.0]])
        times = np.array([0.0, 0.5, 1.5])
        out = propagate(m, v, times)
        assert out.shape == (3, 2, 2)
        for k, t in enumerate(times):
            assert np.array_equal(out[k], propagate(m, v, t))

    def test_rejects_complex_blocks(self):
        with pytest.raises(ValueError):
            propagate([[[1j]]], [[1.0]], 1.0)


class TestIteration:
    def test_one_step_fixed_point(self):
        p = MagParams(1.0, 1.0)
        sys = build_transformed(np.eye(1), [1.0], p)
        trace = mag_iterate(sys, 0.5, 10)
        assert trace.steps == 1
        assert np.allclose(trace.w_final, steady_state(sys))

    def test_step_count_order(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        delta = 1e-6
        trace = mag_iterate(sys, delta, 10_000)
        lo = p.kappa_hat * math.log(1 / delta) / 4
        hi = 4 * p.kappa_hat * math.log(1 / delta)
        assert lo <= trace.steps <= hi
        assert trace.residuals[0] == 1.0
        assert all(r >= 0.0 for r in trace.residuals)

    def test_residual_envelope(self):
        # ln residual <= n ln rho + ln kappa_hat, evaluated pointwise;
        # bounds widened 2% so the map stays diagonalizable (the exact-edge
        # case is defective and picks up transient polynomial growth)
        p = MagParams((10.0 * 1.02) ** 2, (0.1 / 1.02) ** 2)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        trace = mag_iterate(sys, 1e-6, 10_000)
        rho = math.sqrt(p.beta)
        for n, r in enumerate(trace.residuals):
            assert r <= p.kappa_hat * rho**n * (1 + 1e-9)

    def test_envelope_tight_at_dominant_eigenvector(self):
        # slightly widened bounds keep the spectrum simple, so an error that
        # is an exact eigenvector contracts at exactly rho per step; the
        # drive F = -(I - H) v puts the steady state at -v, so the run from
        # rest starts at the error v
        a = np.diag([2.0, 1.0]).astype(complex)
        p = MagParams(4.2, 0.9)
        sys = build_transformed(a, np.array([1.0, 1.0 + 0j]), p)
        vals, vecs = np.linalg.eig(sys.h)
        idx = int(np.argmax(np.abs(vals)))
        rho = float(np.abs(vals[idx]))
        assert rho == pytest.approx(math.sqrt(p.beta), abs=1e-10)
        sys = dataclasses.replace(sys, f=-(np.eye(4) - sys.h) @ vecs[:, idx])
        assert np.allclose(steady_state(sys), -vecs[:, idx], rtol=0.0, atol=1e-14)
        trace = mag_iterate(sys, 1e-6, 10_000)
        for n, r in enumerate(trace.residuals[:100]):
            assert r == pytest.approx(rho**n, rel=1e-6)

    def test_nonconvergence_reported(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        with pytest.raises(ConvergenceError) as err:
            mag_iterate(sys, 1e-12, 5)
        assert err.value.residual is not None

    def test_scaling_linear_in_kappa(self):
        delta = 1e-6
        ratios = []
        for kappa in (10.0, 100.0, 1000.0):
            a = np.diag([kappa, 1.0]).astype(complex)
            p = MagParams(kappa**2, 1.0)
            sys = build_transformed(a, np.array([1.0, 1.0 + 0j]), p)
            trace = mag_iterate(sys, delta, 200_000)
            ratios.append(trace.steps / (kappa * math.log(1 / delta)))
        assert all(0.25 <= r <= 4.0 for r in ratios)
        assert max(ratios) / min(ratios) < 2.0


class TestConvergenceSteps:
    """mag's step count 4 ceil(kappa_hat ln(1/delta)), read from `horizon`."""

    @staticmethod
    def _spec(kappa_hat):
        # b = 0: the steady state is zero, so mag runs to delta itself
        return build_spectral(np.eye(1), np.zeros(1), MagParams(kappa_hat**2, 1.0))

    def test_unit(self):
        assert horizon("mag", self._spec(1.0), math.exp(-1.0)) == (math.exp(-1.0), 4 * 1)

    def test_documented_values(self):
        assert horizon("mag", self._spec(100.0), 0.01) == (0.01, 4 * 461)
        assert horizon("mag", self._spec(100.0), 1e-6) == (1e-6, 4 * 1382)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            MagParams(0.25, 1.0)  # kappa_hat = 0.5
        for method in ("mag", "schro", "gradient", "damped"):
            for delta in (0.0, 5e-324, 1e-320):
                with pytest.raises(InputError, match="out of reach"):
                    horizon(method, self._spec(10.0), delta)
        with pytest.raises(ValueError):
            horizon("verlet", self._spec(10.0), 0.1)


class TestHorizon:
    @pytest.mark.parametrize("name", PDE_PRESET_NAMES)
    def test_closed_forms_on_the_presets(self, name):
        # bit for bit, on the system a run of the preset factors
        problem, solver = pde_preset(name)
        delta, block = solver.delta, problem.solution_size
        b, _ = _unit_rhs(problem.system.b)
        spec = build_spectral(problem.system.a, b, problem=problem)
        k, s_min = spec.params.kappa_hat, float(spec.sigma[-1])
        w = spec.to_state(spec.ode.steady_pairs())
        d_mag = delta / max(float(np.linalg.norm(w)) / float(np.max(np.abs(w[:block]))), 1.0)
        x = spec.b_t / spec.sigma
        top = float(np.max(np.abs(spec.solution(x)[:block])))
        d_grad = delta / max(float(np.linalg.norm(x)) / top, 1.0)
        steps = 4 * math.ceil(k * math.log(1.0 / d_mag))
        assert horizon("mag", spec, delta, block) == (d_mag, steps)
        assert horizon("schro", spec, delta, block) == (
            delta, float(math.ceil((k + 1.0) / k * k * math.log(1.0 / delta))))
        assert horizon("gradient", spec, delta, block) == (d_grad,
                                                           math.log(1.0 / d_grad) / s_min**2)
        assert horizon("damped", spec, delta, block) == (delta, math.log(1.0 / delta) / s_min)
        # MAX_ITERATION_ENTRIES is 9.7 times fig6a's budget, the largest
        assert steps * 2 * spec.n <= 6946816 < MAX_ITERATION_ENTRIES / 9.6
        assert (steps * 2 * spec.n == 6946816) == (name == "fig6a")


class TestRelativeTrace:
    def test_uniform_steady_state_matches_absolute(self):
        # bounds ratio (1+sqrt2)^2 on A=I makes (1-beta) == sqrt(alpha*beta),
        # so all four steady-state components are equal and the relative
        # trace coincides with the absolute one
        r = 1.0 + math.sqrt(2.0)
        p = MagParams(r**2, 1.0 / r**2)
        assert (1.0 - p.beta) == pytest.approx(math.sqrt(p.alpha * p.beta), rel=1e-12)
        sys = build_transformed(np.eye(2), [1.0, 1.0], p)
        w_inf = steady_state(sys)
        assert np.allclose(w_inf, w_inf[0])
        trace, states = iterate_kept(sys, 1e-8, 5000)
        values, kappa2 = relative_trace_from_steady(w_inf, states)
        assert kappa2 == pytest.approx(1.0, rel=1e-9)
        assert values == pytest.approx(trace.residuals, rel=1e-6)

    def test_diag_kappa2_finite(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        w = steady_state(sys)
        _, states = iterate_kept(sys, 1e-6, 10_000)
        values, kappa2 = relative_trace_from_steady(w, states)
        assert values is not None
        assert math.isfinite(kappa2)
        assert kappa2 == pytest.approx(np.max(np.abs(w)) / np.min(np.abs(w)))

    def test_zero_component_flags_infinity(self):
        # auxiliary steady state of the damped dynamics is exactly zero
        w_inf = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex)
        values, kappa2 = relative_trace_from_steady(w_inf, [w_inf * 1.1])
        assert values is None
        assert math.isinf(kappa2)

    @staticmethod
    def _mapped_shapes(monkeypatch, preset):
        """The shapes `SpectralSystem.to_state` maps in a traced run of the
        preset, with the run's (iteration, kappa2, relative)."""
        problem, solver = pde_preset(preset)
        spec = build_spectral(problem.system.a, problem.system.b)
        mapped = []
        to_state = SpectralSystem.to_state

        def spy(self, w):
            mapped.append(np.shape(w))
            return to_state(self, w)

        monkeypatch.setattr(SpectralSystem, "to_state", spy)
        iteration, _, kappa2, relative = solve_spectral(
            spec, *horizon("mag", spec, solver.delta), trace=True)
        return spec.n, mapped, iteration, kappa2, relative

    def test_maps_the_steady_state_alone_where_no_trace_exists(self, monkeypatch):
        # fig6a's mapped steady state has a near-zero component, decided
        # before the first step: its run streams and maps no state
        n, mapped, iteration, kappa2, relative = self._mapped_shapes(monkeypatch, "fig6a")
        assert (kappa2, relative) == (math.inf, None)
        assert mapped == [(n, 2)]

    def test_maps_the_steady_state_once_for_a_trace(self, monkeypatch):
        # the step budget and kappa_2 share one mapped steady state; the
        # states are mapped a stack of at most STATE_CHUNK at a time
        n, mapped, iteration, kappa2, relative = self._mapped_shapes(monkeypatch, "fig3a")
        states = iteration.steps + 1
        assert math.isfinite(kappa2) and len(relative) == states
        sizes = [min(STATE_CHUNK, states - lo) for lo in range(0, states, STATE_CHUNK)]
        assert mapped == [(n, 2)] + [(size, n, 2) for size in sizes]


class TestStreamedStates:
    """The stacks of states `mag_iterate` hands over, at a chunk of 4, and
    the relative trace `solve_spectral` joins from them."""

    CHUNK = 4

    @pytest.fixture()
    def spec(self, monkeypatch):
        # a real A, as in every run the acceptance suite traces, and a
        # complex b: for a complex A a last stack of one state takes numpy's
        # vector-matrix product, which may round that state's map-back, and
        # so its trace entry, differently in the last bit
        monkeypatch.setattr(mag, "STATE_CHUNK", self.CHUNK)
        rng = np.random.default_rng(4)
        q1, q2 = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
        a = q1 @ np.diag([3.0, 2.0, 1.0]) @ q2.T
        return build_spectral(a, rng.normal(size=3) + 1j * rng.normal(size=3))

    @staticmethod
    def _states(spec):
        """The first states of a long run of `spec.ode` from w = 0, and its residuals."""
        trace, states = iterate_kept(spec.ode, 1e-12, 10_000)
        return states, trace.residuals

    @pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK])
    def test_relative_trace_is_the_whole_stack_oracle(self, spec, monkeypatch, count):
        states, residuals = self._states(spec)
        # the residual at count - 1 steps is below every earlier one, so this
        # delta stops the run there, at count states
        assert residuals[count - 1] < min(residuals[1:count - 1], default=math.inf)
        delta = float(np.nextafter(residuals[count - 1], np.inf))
        sizes, reduce = [], mag.relative_trace

        def spy(stack, *args):
            sizes.append(len(stack))
            return reduce(stack, *args)

        monkeypatch.setattr(mag, "relative_trace", spy)
        iteration, _, kappa2, relative = solve_spectral(spec, delta, 10_000, trace=True)
        assert iteration.steps + 1 == count and math.isfinite(kappa2)
        assert sizes == [min(self.CHUNK, count - lo) for lo in range(0, count, self.CHUNK)]
        oracle = relative_residuals(spec.mapped_steady, spec.to_state(states[:count]))
        assert relative.tolist() == oracle

    @pytest.mark.parametrize("max_steps", [2 * CHUNK - 2, 2 * CHUNK - 1, 2 * CHUNK])
    def test_convergence_error_drops_the_partial_stack(self, spec, max_steps):
        # max_steps + 1 states (2c - 1, 2c, 2c + 1): every full stack is
        # handed over before the error, the states after them are not
        states, _ = self._states(spec)
        stacks = []
        with pytest.raises(ConvergenceError):
            mag_iterate(spec.ode, 1e-12, max_steps, on_states=stacks.append)
        full = (max_steps + 1) // self.CHUNK
        assert [len(stack) for stack in stacks] == [self.CHUNK] * full
        assert np.array_equal(np.concatenate(stacks), states[: full * self.CHUNK])
        # a traced run raises it on, and returns no trace
        with pytest.raises(ConvergenceError):
            solve_spectral(spec, 1e-12, max_steps, trace=True)

    def test_converged_start_hands_over_w0(self, spec):
        # b = 0: the steady state is the rest state the run starts from
        rest = dataclasses.replace(spec, b_t=np.zeros_like(spec.b_t))
        stacks = []
        trace = mag_iterate(rest.ode, 0.5, 10, on_states=stacks.append)
        assert trace.steps == 0 and len(stacks) == 1
        assert np.array_equal(stacks[0], np.zeros((1, spec.n, 2)))


class TestAgainstOracle:
    @given(st.integers(2, 12))
    @settings(max_examples=15, deadline=None)
    def test_iteration_converges_to_direct_solve(self, n):
        rng = np.random.default_rng(77 + n)
        a, b, p = random_system(rng, n)
        sys = build_transformed(a, b, p)
        trace = mag_iterate(sys, 1e-10, 50_000)
        u = trace.w_final[:n] / (1.0 - p.beta)
        oracle = direct_solve(LinearSystem(a, b), full_svd(a)[1])
        assert np.linalg.norm(u - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_params_from_matrix_brackets(self):
        rng = np.random.default_rng(5)
        a, _, _ = random_system(rng, 6)
        p = params_from_matrix(a)
        s = np.linalg.svd(a, compute_uv=False)
        assert p.l_hat >= s[0] ** 2 * (1 - 1e-12)
        assert p.mu_hat <= s[-1] ** 2 * (1 + 1e-12)


class TestPairBasis:
    """The pair-basis iteration against the dense 2n x 2n reference."""

    @staticmethod
    def _both(a, b, p, delta, traced):
        # the CLI's termination rule, run on the dense map and on the pairs
        # (`solve_spectral`, with its relative trace where `traced`)
        dense = build_transformed(a, b, p)
        spec = build_spectral(a, b, p)
        stacks, length = [], horizon("mag", spec, delta)
        trace = mag_iterate(dense, *length, on_states=stacks.append if traced else None)
        rel_d = (relative_trace_from_steady(steady_state(dense), np.concatenate(stacks))
                 if traced else None)
        iteration, x, kappa2, relative = solve_spectral(spec, *length, traced)
        return ((trace, trace.w_final[: dense.n] / (1.0 - p.beta), rel_d),
                (iteration, spec.solution(x), (relative, kappa2)))

    def _check(self, a, b, p, delta, traced, u_rtol=1e-12):
        (t_d, u_d, rel_d), (t_p, u_p, rel_p) = self._both(a, b, p, delta, traced)
        assert t_p.steps == t_d.steps
        assert np.max(np.abs(u_p - u_d)) <= u_rtol * np.max(np.abs(u_d))
        assert np.allclose(t_p.residuals, t_d.residuals, rtol=0.0, atol=1e-9)
        if traced:
            (v_d, k_d), (v_p, k_p) = rel_d, rel_p
            assert k_p == pytest.approx(k_d, rel=1e-10)
            assert (v_p is None) == (v_d is None)
            if v_d is not None:
                assert np.allclose(v_p, v_d, rtol=0.0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(1e-10, 1e-2),
           st.floats(0.01, 1.0), st.floats(1.5, 100.0), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_complex_systems(self, seed, n, delta, sig_lo, ratio, traced):
        rng = np.random.default_rng(seed)
        a, b, p = random_system(rng, n, sig_lo, sig_lo * ratio)
        self._check(a, b, p, delta, traced)

    @pytest.mark.parametrize("name", PDE_PRESET_NAMES)
    def test_presets(self, name):
        problem, solver = pde_preset(name)
        a, b = problem.system.a, problem.system.b
        p = params_from_matrix(a)
        # the Robin runs fig3e/fig3f (5734/3936 steps) differ by 1.05e-12 /
        # 1.27e-12, the size of the dense path's own rounding there: against
        # the same iteration in long double it is off by 8.5e-13 / 8.3e-13
        self._check(a, b, p, solver.delta, traced=name in ("fig3a", "fig3c", "fig4a"),
                    u_rtol=2e-12)

    def test_steady_state_and_states_map_back(self):
        rng = np.random.default_rng(2)
        a, b, p = random_system(rng, 7)
        spec = build_spectral(a, b, p)
        dense = build_transformed(a, b, p)
        w_pair = spec.ode.steady_pairs()
        assert np.allclose(spec.to_state(w_pair), steady_state(dense), rtol=0.0, atol=1e-12)
        w = rng.normal(size=(3, 7, 2)) + 1j * rng.normal(size=(3, 7, 2))
        stepped = spec.to_state(np.array([spec.ode.step(state) for state in w]))
        assert np.allclose(stepped, (dense.h @ spec.to_state(w).T).T + dense.f,
                           rtol=0.0, atol=1e-12)

    def test_real_factors_map_as_complex_products(self):
        # a real A's factors multiply complex states through their real and
        # imaginary parts; the products are those of the complex factors
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        spec = build_spectral(a, b)
        assert np.isrealobj(spec.u) and np.isrealobj(spec.vh)
        u, vh = spec.u.astype(complex), spec.vh.astype(complex)
        assert np.allclose(spec.b_t, u.conj().T @ b, rtol=0.0, atol=1e-14)
        w = rng.normal(size=(4, 6, 2)) + 1j * rng.normal(size=(4, 6, 2))
        expected = np.concatenate([w[..., 0] @ vh.conj(), w[..., 1] @ u.T], axis=-1)
        for got, want in ((spec.to_state(w), expected), (spec.to_state(w[1]), expected[1]),
                          (spec.solution(w[..., 0]), expected[..., :6])):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0.0, atol=1e-14)

    def test_singular_steady_state_raises_under_optimize(self):
        # the condition checks of A and of I - H are real errors, so they
        # survive python -O; at sigma_min = 1e-10 A's condition (1e10) passes
        # and that of I - H's block at sigma_min (1.778e20) does not
        code = (
            "import numpy as np\n"
            "from schromag.errors import SingularMatrixError\n"
            "from schromag.mag import MagParams, build_spectral\n"
            "for small in (0.0, 1e-30):\n"
            "    try:\n"
            "        build_spectral(np.diag([1.0, small]), np.ones(2), MagParams(4.0, 1.0))\n"
            "    except SingularMatrixError:\n"
            "        continue\n"
            "    raise SystemExit(f'sigma_min={small} accepted')\n"
            "spec = build_spectral(np.diag([1.0, 1e-10]), np.ones(2), MagParams(4.0, 1.0))\n"
            "try:\n"
            "    spec.ode.steady_pairs()\n"
            "except SingularMatrixError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('I - H at sigma_min=1e-10 accepted')\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for small in (0.0, 1e-30):
            with pytest.raises(SingularMatrixError):
                build_spectral(np.diag([1.0, small]), np.ones(2), MagParams(4.0, 1.0))
        spec = build_spectral(np.diag([1.0, 1e-10]), np.ones(2), MagParams(4.0, 1.0))
        with pytest.raises(SingularMatrixError, match="cond ~ 1.778e"):
            spec.ode.steady_pairs()
