import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schromag.baselines import build_damped, build_gradient_flow
from schromag.errors import ConvergenceError, SingularMatrixError, SpectrumBoundsError
from schromag.linalg import LinearSystem, direct_solve, singular_values
from schromag.mag import (
    SPECTRAL_RADIUS_TOL,
    MagParams,
    SpectralSystem,
    build_spectral,
    convergence_steps,
    mag_iterate,
    relative_trace,
    relative_trace_from_steady,
    solution_error_factor,
    solve_spectral,
    spectral_radius_check,
)
from schromag.presets import PDE_PRESET_NAMES, pde_preset

from reference import build_transformed, params_from_matrix, steady_state

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
        u = direct_solve(LinearSystem(a, b))
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
        rho_closed = float(np.max(np.abs(lambda_pm(singular_values(a), p))))
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
    flow = {"mag-ode": lambda: spec.ode, "gradient": lambda: build_gradient_flow(spec),
            "damped": lambda: build_damped(spec, 2.0 * float(spec.sigma[-1]) * frac)}[kind]()
    shape = flow.drive.shape
    return flow, rng.normal(size=shape) + 1j * rng.normal(size=shape)


# (flow, state) of `random_flow`
FLOWS = st.builds(random_flow, st.sampled_from(["mag-ode", "damped", "gradient"]),
                  st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=8), st.floats(1e-4, 1e2),
                  st.floats(1.0, 1e4), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))


class TestFlowSystem:
    """A FlowSystem's closed forms against its blocks, block by block, for
    the momentum ODE and both comparison flows."""

    @given(FLOWS)
    @settings(max_examples=60, deadline=None)
    def test_step_is_the_flow_plus_identity(self, drawn):
        # the unit Euler step w + M w + g: for the momentum ODE it is the
        # iteration's w -> H w + F, under any bounds
        flow, w = drawn
        m, g = flow.blocks, flow.drive
        expected = w + np.einsum("jkl,jl->jk", m, w) + g
        scale = np.max(np.abs(w)) * (1.0 + np.max(np.abs(m))) + np.max(np.abs(g))
        assert np.max(np.abs(flow.step(w) - expected)) <= 4 * np.finfo(float).eps * scale

    @given(FLOWS)
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


class TestIteration:
    def test_one_step_fixed_point(self):
        p = MagParams(1.0, 1.0)
        sys = build_transformed(np.eye(1), [1.0], p)
        trace = mag_iterate(sys, np.zeros(2), 0.5, 10, w_inf=steady_state(sys))
        assert trace.steps == 1
        assert np.allclose(trace.w_final, steady_state(sys))

    def test_step_count_order(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        delta = 1e-6
        trace = mag_iterate(sys, np.zeros(4), delta, 10_000, w_inf=steady_state(sys))
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
        trace = mag_iterate(sys, np.zeros(4), 1e-6, 10_000, w_inf=steady_state(sys))
        rho = math.sqrt(p.beta)
        for n, r in enumerate(trace.residuals):
            assert r <= p.kappa_hat * rho**n * (1 + 1e-9)

    def test_envelope_tight_at_dominant_eigenvector(self):
        # slightly widened bounds keep the spectrum simple, so iterating
        # from an exact eigenvector contracts at exactly rho per step
        a = np.diag([2.0, 1.0]).astype(complex)
        p = MagParams(4.2, 0.9)
        sys = build_transformed(a, np.array([1.0, 1.0 + 0j]), p)
        vals, vecs = np.linalg.eig(sys.h)
        idx = int(np.argmax(np.abs(vals)))
        rho = float(np.abs(vals[idx]))
        assert rho == pytest.approx(math.sqrt(p.beta), abs=1e-10)
        w_inf = steady_state(sys)
        trace = mag_iterate(sys, w_inf + vecs[:, idx], 1e-6, 10_000, w_inf=w_inf)
        for n, r in enumerate(trace.residuals[:100]):
            assert r == pytest.approx(rho**n, rel=1e-6)

    def test_nonconvergence_reported(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        with pytest.raises(ConvergenceError) as err:
            mag_iterate(sys, np.zeros(4), 1e-12, 5, w_inf=steady_state(sys))
        assert err.value.residual is not None

    def test_scaling_linear_in_kappa(self):
        delta = 1e-6
        ratios = []
        for kappa in (10.0, 100.0, 1000.0):
            a = np.diag([kappa, 1.0]).astype(complex)
            p = MagParams(kappa**2, 1.0)
            sys = build_transformed(a, np.array([1.0, 1.0 + 0j]), p)
            trace = mag_iterate(sys, np.zeros(4), delta, 200_000, w_inf=steady_state(sys))
            ratios.append(trace.steps / (kappa * math.log(1 / delta)))
        assert all(0.25 <= r <= 4.0 for r in ratios)
        assert max(ratios) / min(ratios) < 2.0


class TestConvergenceSteps:
    def test_unit(self):
        assert convergence_steps(1.0, math.exp(-1.0)) == 1

    def test_documented_values(self):
        assert convergence_steps(100.0, 0.01) == 461
        assert convergence_steps(100.0, 1e-6) == 1382

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            convergence_steps(0.5, 0.1)
        with pytest.raises(ValueError):
            convergence_steps(10.0, 1.5)


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
        trace = mag_iterate(sys, np.zeros(4), 1e-8, 5000, w_inf=w_inf)
        values, kappa2 = relative_trace_from_steady(w_inf, trace.states)
        assert kappa2 == pytest.approx(1.0, rel=1e-9)
        assert values == pytest.approx(trace.residuals, rel=1e-6)

    def test_diag_kappa2_finite(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        w = steady_state(sys)
        trace = mag_iterate(sys, np.zeros(4), 1e-6, 10_000, w_inf=w)
        values, kappa2 = relative_trace_from_steady(w, trace.states)
        assert values is not None
        assert math.isfinite(kappa2)
        assert kappa2 == pytest.approx(np.max(np.abs(w)) / np.min(np.abs(w)))

    def test_zero_component_flags_infinity(self):
        # auxiliary steady state of the damped dynamics is exactly zero
        w_inf = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex)
        values, kappa2 = relative_trace_from_steady(w_inf, [w_inf * 1.1])
        assert values is None
        assert math.isinf(kappa2)

    def test_maps_the_steady_state_alone_where_no_trace_exists(self, monkeypatch):
        # fig6a's mapped steady state has a near-zero component, so no
        # recorded state is mapped
        problem, solver = pde_preset("fig6a")
        spec = build_spectral(problem.system.a, problem.system.b)
        trace, w_inf, _ = solve_spectral(spec, solver.delta, keep_states=True)
        mapped = []
        to_state = SpectralSystem.to_state

        def spy(self, w):
            mapped.append(np.shape(w))
            return to_state(self, w)

        monkeypatch.setattr(SpectralSystem, "to_state", spy)
        assert relative_trace(trace, w_inf, spec) == (None, math.inf)
        assert mapped == [(spec.n, 2)]


class TestAgainstOracle:
    @given(st.integers(2, 12))
    @settings(max_examples=15, deadline=None)
    def test_iteration_converges_to_direct_solve(self, n):
        rng = np.random.default_rng(77 + n)
        a, b, p = random_system(rng, n)
        sys = build_transformed(a, b, p)
        trace = mag_iterate(sys, np.zeros(2 * n), 1e-10, 50_000, w_inf=steady_state(sys))
        u = trace.w_final[:n] / (1.0 - p.beta)
        oracle = direct_solve(LinearSystem(a, b))
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
    def _both(a, b, p, delta, keep_states):
        # the CLI's termination rule, run on the dense map and on the pairs
        dense = build_transformed(a, b, p)
        spec = build_spectral(a, b, p)
        out = []
        for sys, w_inf in ((dense, steady_state(dense)), (spec.ode, spec.ode.steady_pairs())):
            state = w_inf if sys is dense else spec.to_state(w_inf)
            delta_run = delta / solution_error_factor(state)
            trace = mag_iterate(sys, np.zeros_like(w_inf), delta_run,
                                4 * convergence_steps(p.kappa_hat, delta_run),
                                w_inf=w_inf, keep_states=keep_states)
            rel = None
            if keep_states:
                rel = (relative_trace_from_steady(w_inf, trace.states) if sys is dense
                       else relative_trace(trace, w_inf, spec))
            if sys is dense:
                out.append((trace, trace.w_final[: dense.n] / (1.0 - p.beta), rel))
            else:
                out.append((trace, spec.solution(trace.w_final[:, 0] / (1.0 - p.beta)), rel))
        return out

    def _check(self, a, b, p, delta, keep_states, u_rtol=1e-12):
        (t_d, u_d, rel_d), (t_p, u_p, rel_p) = self._both(a, b, p, delta, keep_states)
        assert t_p.steps == t_d.steps
        assert np.max(np.abs(u_p - u_d)) <= u_rtol * np.max(np.abs(u_d))
        assert np.allclose(t_p.residuals, t_d.residuals, rtol=0.0, atol=1e-9)
        if keep_states:
            (v_d, k_d), (v_p, k_p) = rel_d, rel_p
            assert k_p == pytest.approx(k_d, rel=1e-10)
            assert (v_p is None) == (v_d is None)
            if v_d is not None:
                assert np.allclose(v_p, v_d, rtol=0.0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(1e-10, 1e-2),
           st.floats(0.01, 1.0), st.floats(1.5, 100.0), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_complex_systems(self, seed, n, delta, sig_lo, ratio, keep_states):
        rng = np.random.default_rng(seed)
        a, b, p = random_system(rng, n, sig_lo, sig_lo * ratio)
        self._check(a, b, p, delta, keep_states)

    @pytest.mark.parametrize("name", PDE_PRESET_NAMES)
    def test_presets(self, name):
        problem, solver = pde_preset(name)
        a, b = problem.system.a, problem.system.b
        p = params_from_matrix(a)
        # the Robin runs fig3e/fig3f (5734/3936 steps) differ by 1.05e-12 /
        # 1.27e-12, the size of the dense path's own rounding there: against
        # the same iteration in long double it is off by 8.5e-13 / 8.3e-13
        self._check(a, b, p, solver.delta, keep_states=name in ("fig3a", "fig3c", "fig4a"),
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
