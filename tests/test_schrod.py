import itertools
import math
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from schromag import schrod
from schromag.errors import InputError, SingularMatrixError
from schromag.linalg import LinearSystem, direct_solve
from schromag.mag import MagParams, build_spectral
from schromag.schrod import (
    build_pair_system,
    default_forcing_scale,
    envelope,
    envelope_tail,
    evolve_structured,
    pipeline,
    readout_weights,
    recovery_index,
    required_runway,
)

from reference import (HermitianSplit, HomogenizedSystem, apply_pair_modes, build_grid,
                       build_transformed, evolve, homogenize, p_threshold, pair_column,
                       params_from_matrix, recover_integral, recover_single_point,
                       single_point_weights, spectral_from_factors, split, steady_state,
                       to_ode)

DIAG_A = np.diag([10.0, 0.1]).astype(complex)
DIAG_B = np.array([1.0, 1.0], dtype=complex)
DIAG_ORACLE = np.array([0.1, 10.0], dtype=complex)  # DIAG_A^{-1} DIAG_B


def _residual(u, oracle):
    """Max-norm error of u relative to the oracle, as the CLI reports it."""
    return float(np.max(np.abs(u - oracle)) / np.max(np.abs(oracle)))


def _pairs(sys, gamma_f):
    """build_pair_system on the pair basis of a dense transformed system."""
    return build_pair_system(build_spectral(sys.a, sys.b, sys.params), gamma_f)


def _evolve_state(pairs, *args):
    """evolve_structured with its coefficients mapped to the state [V w1; U w2]."""
    vec, rows = evolve_structured(pairs, *args)
    return pairs.spec.to_state(vec), rows


def _pipeline_u(spec, *args, **kwargs):
    """pipeline with its coefficients mapped to u = V x, as the CLI maps them."""
    x, report, snapshot = pipeline(spec, *args, **kwargs)
    return spec.solution(x), report, snapshot


def scalar_setup(rate=-1.0, drive=0.0, gamma_f=1.0, w0=1.0):
    hs = homogenize(np.array([[rate + 0j]]), np.array([drive + 0j]), gamma_f,
                    w0=np.array([w0 + 0j]))
    return hs, split(hs)


class TestToOde:
    def test_identity_system(self):
        p = MagParams(1.0, 1.0)
        sys = build_transformed(np.eye(2), [1.0, 2.0], p)
        gen, drive = to_ode(sys)
        assert np.allclose(gen, -np.eye(4))
        assert np.allclose(drive, [1.0, 2.0, 0.0, 0.0])

    def test_same_fixed_point(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        gen, drive = to_ode(sys)
        w_ode = direct_solve(LinearSystem(-gen, drive))
        assert np.allclose(w_ode, steady_state(sys), atol=1e-9)

    def test_generator_is_stable(self):
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        gen, _ = to_ode(sys)
        assert np.max(np.linalg.eigvals(gen).real) < 0.0


class TestHomogenize:
    def test_zero_drive_decouples(self):
        for gf in (0.5, 2.0):
            hs, _ = scalar_setup(rate=-1.0, drive=0.0, gamma_f=gf)
            out = expm(hs.h_homo * 1.5) @ hs.w0_homo
            assert out[0] == pytest.approx(math.exp(-1.5), rel=1e-10)

    def test_scalar_closed_form(self):
        # du/dt = -u + 1 from u(0)=0 has u(t) = 1 - exp(-t)
        hs, _ = scalar_setup(rate=-1.0, drive=1.0, gamma_f=1.0, w0=0.0)
        for t in (0.5, 1.0, 3.0):
            out = expm(hs.h_homo * t) @ hs.w0_homo
            assert out[0] == pytest.approx(1.0 - math.exp(-t), rel=1e-10)

    def test_forcing_block_constant(self):
        hs, _ = scalar_setup(rate=-0.3, drive=0.7, gamma_f=0.25)
        for t in (0.0, 2.0, 10.0):
            out = expm(hs.h_homo * t) @ hs.w0_homo
            assert out[1] == pytest.approx(0.7 / 0.25, rel=1e-12)

    def test_block_structure(self):
        hs, _ = scalar_setup(rate=-1.0, drive=1.0, gamma_f=0.5)
        assert np.allclose(hs.h_homo[1:, :], 0.0)
        assert hs.h_homo[0, 1] == pytest.approx(0.5)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            homogenize(np.eye(1), [1.0], 0.0)


class TestSplit:
    def test_hermitian_input(self):
        m = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        hs = homogenize(m, np.zeros(2), 1.0)
        sp = split(hs)
        assert np.allclose(sp.h1, sp.h1.conj().T, atol=1e-12)
        assert np.allclose(sp.h2, sp.h2.conj().T, atol=1e-12)
        assert np.allclose(sp.reconstruct(), hs.h_homo, atol=1e-12)

    def test_hermitian_input_kills_h2(self):

        m = np.array([[2.0, 1.0 + 0j], [1.0, -3.0]])
        hs = HomogenizedSystem(h_homo=m, gamma_f=1.0, w0_homo=np.zeros(2, dtype=complex))
        sp = split(hs)
        assert np.allclose(sp.h2, 0.0, atol=1e-15)
        assert np.allclose(sp.h1, m, atol=1e-15)

    def test_anti_hermitian_input_kills_h1(self):

        m = np.array([[1j, 2.0], [-2.0, -0.5j]])
        hs = HomogenizedSystem(h_homo=m, gamma_f=1.0, w0_homo=np.zeros(2, dtype=complex))
        sp = split(hs)
        assert np.allclose(sp.h1, 0.0, atol=1e-15)
        assert np.allclose(1j * sp.h2, m, atol=1e-15)

    def test_eigenvalue_pairing(self):
        # h1 of the homogenized momentum system has per-mode eigenvalues
        # (s_j +- sqrt(s_j^2 + gamma_f^2)) / 2 for s_j in eig(sym(H - I))
        p = MagParams(100.0, 0.01)
        sys = build_transformed(DIAG_A, DIAG_B, p)
        gen, drive = to_ode(sys)
        gamma_f = 0.25
        sp = split(homogenize(gen, drive, gamma_f))
        s_j = np.linalg.eigvalsh((gen + gen.conj().T) / 2)
        expect = np.concatenate(
            [(s_j + np.sqrt(s_j**2 + gamma_f**2)) / 2,
             (s_j - np.sqrt(s_j**2 + gamma_f**2)) / 2]
        )
        got = np.linalg.eigvalsh(sp.h1)
        assert np.allclose(np.sort(got), np.sort(expect), atol=1e-10)


class TestPThreshold:
    def test_negative_semidefinite(self):
        h1 = np.diag([-1.0, -0.5]).astype(complex)
        for t in (0.0, 1.0, 100.0):
            assert p_threshold(h1, t) == 0.0

    def test_positive_rate(self):
        h1 = np.diag([0.01, -1.0]).astype(complex)
        assert p_threshold(h1, 100.0) == pytest.approx(1.0)

    def test_zero_time(self):
        h1 = np.diag([5.0]).astype(complex)
        assert p_threshold(h1, 0.0) == 0.0


class TestBuildGrid:
    def test_documented_example(self):
        h1 = np.diag([-1.0]).astype(complex)
        grid = build_grid(h1, 1.0, 64, tail_tol=math.exp(-10.0))
        assert grid.p_left == pytest.approx(-10.0)
        assert grid.p_right == pytest.approx(2.0)
        assert grid.dp == pytest.approx(0.1875)

    def test_threshold_margin(self):
        h1 = np.diag([0.05]).astype(complex)
        grid = build_grid(h1, 100.0, 64, tail_tol=math.exp(-10.0))
        assert grid.p_right == pytest.approx(7.0)

    def test_rejects_bad_n_p(self):
        h1 = np.diag([-1.0]).astype(complex)
        with pytest.raises(InputError):
            build_grid(h1, 1.0, 48, tail_tol=math.exp(-10.0))
        with pytest.raises(InputError):
            build_grid(h1, 1.0, 8, tail_tol=math.exp(-10.0))  # dp too large

    def test_explicit_left_edge(self):
        h1 = np.diag([-1.0]).astype(complex)
        grid = build_grid(h1, 1.0, 4096, p_left=-1000.0)
        assert grid.p_left == -1000.0
        assert grid.points[0] == -1000.0

    def test_derived_grid_is_eight_on_a_narrow_domain(self):
        # [-1, 2) is narrower than 8 MAX_DP: the smallest grid
        grid = schrod.build_grid_from_rate(0.0, 1.0, None, -1.0)
        assert (grid.n_p, grid.p_right - grid.p_left, grid.dp) == (8, 3.0, 3.0 / 8)
        assert grid.p_right - grid.p_left < 8 * schrod.MAX_DP

    @pytest.mark.parametrize("k", range(3, 23))
    def test_derived_grid_on_power_of_two_widths(self, k):
        # a width of exactly 2^k MAX_DP takes 2^k points at dp = MAX_DP,
        # and half of them is refused, naming 2^k
        width = schrod.MAX_DP * 2**k
        p_left = schrod.RIGHT_MARGIN - width
        grid = schrod.build_grid_from_rate(0.0, 1.0, None, p_left)
        assert (grid.n_p, grid.dp) == (2**k, schrod.MAX_DP)
        if k > 3:
            with pytest.raises(InputError, match=f"; use n_p >= {2**k}$"):
                schrod.build_grid_from_rate(0.0, 1.0, 2 ** (k - 1), p_left)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-12, max_value=schrod.MAX_NP * schrod.MAX_DP - 2.0))
    def test_derived_grid_is_the_coarsest_that_passes(self, length):
        grid = schrod.build_grid_from_rate(0.0, 1.0, None, -length)
        width = grid.p_right - grid.p_left
        assert grid.dp <= schrod.MAX_DP
        assert schrod.build_grid_from_rate(0.0, 1.0, grid.n_p, -length).dp == grid.dp
        if grid.n_p > 8:
            assert width / (grid.n_p // 2) > schrod.MAX_DP
            with pytest.raises(InputError, match=f"; use n_p >= {grid.n_p}$"):
                schrod.build_grid_from_rate(0.0, 1.0, grid.n_p // 2, -length)

    def test_presets_derive_their_grids(self):
        # at delta = 1e-3 each preset's run, on the CLI's spectral system,
        # takes the coarsest grid MAX_DP allows on its domain
        from schromag.presets import PDE_PRESET_NAMES, pde_preset

        derived = {}
        for name in PDE_PRESET_NAMES:
            problem, solver = pde_preset(name)
            spec = build_spectral(problem.system.a, problem.system.b, problem=problem)
            derived[name] = schrod.plan(spec, solver.delta)[-1].n_p
        assert derived == {
            "fig3a": 256, "fig3b": 256, "fig3c": 256, "fig5a": 256, "fig5b": 256,
            "fig4a": 2048, "fig6a": 2048, "fig5c": 8192, "fig6d": 8192,
            "fig3d": 16384, "fig4d": 16384, "fig5d": 32768, "fig3e": 65536, "fig3f": 65536,
        }


class TestEnvelope:
    """psi(p) = e^{-p} on p >= 0, its C^8 extension e^{2p} T_8(-3p) on p < 0."""

    def test_formula(self):
        p = np.linspace(-40.0, 40.0, 801)
        left = np.minimum(p, 0.0)
        taylor = sum((-3.0 * left) ** j / math.factorial(j) for j in range(9))
        expect = np.where(p >= 0.0, np.exp(-np.abs(p)), np.exp(2.0 * left) * taylor)
        assert np.allclose(envelope(p), expect, rtol=1e-15, atol=0.0)
        assert np.array_equal(envelope(p[p >= 0.0]), np.exp(-p[p >= 0.0]))

    def test_in_place_matches_the_where_formula(self):
        # each side in place and on its own points is the two-branch formula
        # bit for bit, across 0, into the subnormals and on a scalar
        def formula(points):
            p = np.asarray(points, dtype=float)
            left = np.minimum(p, 0.0)
            x = -3.0 * left
            horner = x * (1.0 / math.factorial(8))
            for j in range(7, 0, -1):
                horner = (horner + 1.0 / math.factorial(j)) * x
            return np.where(p >= 0.0, np.exp(-np.maximum(p, 0.0)),
                            (horner + 1.0) * np.exp(left) * np.exp(left))

        p = np.concatenate([np.linspace(-400.0, 40.0, 10001), [0.0, -0.0, 5e-324, -5e-324],
                            np.random.default_rng(3).standard_normal(1000) * 1e-3])
        assert envelope(p).tobytes() == formula(p).tobytes()
        peak = schrod._PEAK_P
        assert envelope(peak).shape == () and envelope(peak).tobytes() == formula(peak).tobytes()
        assert schrod.ENVELOPE_MAX == float(formula(peak))

    def test_c8_at_zero(self):
        # psi(-h) = e^{-2h} T_8(3h) = e^{h} - e^{-2h} (3h^9/9! + ...), so
        # derivatives 0..8 match e^{-p} at 0 and the ninth does not
        assert envelope(0.0) == 1.0
        for h in np.linspace(0.05, 0.2, 7):
            gap = float(envelope(-h)) - math.exp(h)
            assert gap == pytest.approx(-((3.0 * h) ** 9) / math.factorial(9), rel=2.0 * h)

    def test_maximum(self):
        p = np.linspace(-6.0, 0.0, 600001)
        assert schrod.ENVELOPE_MAX == pytest.approx(float(np.max(envelope(p))), rel=1e-10)
        assert schrod.ENVELOPE_MAX == pytest.approx(9.332, abs=1e-3)
        assert schrod._PEAK_P == pytest.approx(-3.298, abs=1e-3)

    @pytest.mark.parametrize("tail_tol", [0.5, math.exp(-10.0), 1e-12, math.exp(-30.0), 1e-300])
    def test_tail_length(self, tail_tol):
        length = envelope_tail(tail_tol)
        assert float(envelope(-length)) == pytest.approx(tail_tol, rel=1e-13)
        assert length > -schrod._PEAK_P  # left of the maximum
        beyond = envelope(np.linspace(-length - 50.0, -length, 101))
        assert np.all(beyond <= tail_tol * (1 + 1e-13))

    def test_default_tail_length(self):
        assert envelope_tail(schrod.DEFAULT_TAIL_TOL) == pytest.approx(15.02631, abs=1e-5)
        with pytest.raises(InputError):
            envelope_tail(1.0)

    def test_readout_exact_at_time_zero(self):
        # the grid values at t = 0 are psi(p_k) w0 and sum_k w_k e^{-p_k} = 1,
        # so both readouts return the initial state to rounding, on the dense
        # path and on the streamed snapshot
        hs, sp = scalar_setup(rate=-1.0, drive=0.5, gamma_f=0.5, w0=0.3)
        for n_p in (64, 128, 1024):
            grid = build_grid(sp.h1, 1.0, n_p)
            state = evolve(sp, grid, hs.w0_homo, 0.0)
            for recover in (recover_integral, recover_single_point):
                assert np.allclose(recover(state, sp.h1), hs.w0_homo[:1], rtol=0.0, atol=1e-14)
        sys = build_transformed(np.diag([2.0, 0.7]), np.array([1.0, -0.5]),
                                MagParams(9.0, 0.25))
        pairs = _pairs(sys, 0.05)
        grid = build_grid(np.diag([-1.0 + 0j]), 1.0, 256)
        w0 = np.concatenate([np.zeros(2 * sys.n), sys.f / 0.05])
        _, rows = evolve_structured(pairs, grid, 0.0, np.zeros(grid.n_p), 1)
        atol = 1e-14 * np.max(np.abs(w0))
        assert np.allclose(rows, envelope(grid.points)[:, None] * w0, rtol=0.0, atol=atol)


class TestEvolve:
    def test_time_zero_is_warped_data(self):
        hs, sp = scalar_setup()
        grid = build_grid(sp.h1, 1.0, 128)
        state = evolve(sp, grid, hs.w0_homo, 0.0)
        field = state.field()
        expect = envelope(grid.points)[:, None] * hs.w0_homo[None, :]
        assert np.allclose(field, expect, rtol=0.0, atol=1e-14)

    def test_zero_generator_constant(self):
        # literal 1x1 zero homogenized system: the field cannot move

        sp = HermitianSplit(h1=np.zeros((1, 1), dtype=complex),
                            h2=np.zeros((1, 1), dtype=complex))
        grid = build_grid(sp.h1, 5.0, 64)
        w0 = np.array([1.0 + 0j])
        s0 = evolve(sp, grid, w0, 0.0)
        s1 = evolve(sp, grid, w0, 5.0)
        assert np.allclose(s0.field()[:, 0], s1.field()[:, 0], atol=1e-12)

    def test_norm_preserved(self):
        hs, sp = scalar_setup(rate=-1.0, drive=0.5, gamma_f=0.5, w0=0.2)
        grid = build_grid(sp.h1, 6.0, 256)
        norms = [
            evolve(sp, grid, hs.w0_homo, t).fourier_norm() for t in (0.0, 1.0, 3.0, 6.0)
        ]
        for n in norms[1:]:
            assert n == pytest.approx(norms[0], rel=1e-9)

    def test_scalar_decay_oracle(self):
        hs, sp = scalar_setup(rate=-1.0)
        errs = []
        for n_p in (32, 64, 128, 256):
            grid = build_grid(sp.h1, 1.0, n_p)
            state = evolve(sp, grid, hs.w0_homo, 1.0)
            rec = recover_single_point(state, sp.h1)
            errs.append(abs(rec[0] - math.exp(-1.0)))
        assert errs[2] < 1e-2
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.1  # allow 10% jitter, require overall descent
        assert errs[-1] < errs[0]

    def test_phase_rotation_oracle(self):
        # pins the sign of the anti-hermitian part in the mode generator
        hs, sp = scalar_setup(rate=0.0)
        hs = homogenize(np.array([[1j]]), np.zeros(1), 1.0, w0=np.array([1.0 + 0j]))
        sp = split(hs)
        grid = build_grid(sp.h1, 1.0, 128)
        state = evolve(sp, grid, hs.w0_homo, 1.0)
        rec = recover_single_point(state, sp.h1)
        assert rec[0] == pytest.approx(np.exp(1j), abs=2e-3)


class TestRecovery:
    def test_t0_identity_exact(self):
        hs, sp = scalar_setup(rate=-1.0, drive=0.5, gamma_f=0.5, w0=0.3)
        grid = build_grid(sp.h1, 1.0, 128)
        state = evolve(sp, grid, hs.w0_homo, 0.0)
        field = state.field()
        for k in range(grid.n_p):
            if grid.points[k] > 0:
                rec = math.exp(grid.points[k]) * field[k]
                assert np.allclose(rec, hs.w0_homo, atol=1e-12)

    def test_integral_t0_quadrature_accuracy(self):
        hs, sp = scalar_setup(rate=-1.0, drive=0.5, gamma_f=0.5, w0=0.3)
        grid = build_grid(sp.h1, 1.0, 128)
        state = evolve(sp, grid, hs.w0_homo, 0.0)
        rec = recover_integral(state, sp.h1)
        assert np.allclose(rec, hs.w0_homo[:1], atol=1e-3)

    def test_integral_close_to_single_point(self):
        hs, sp = scalar_setup(rate=-1.0)
        grid = build_grid(sp.h1, 1.0, 256)
        state = evolve(sp, grid, hs.w0_homo, 1.0)
        a = recover_single_point(state, sp.h1)[0]
        b = recover_integral(state, sp.h1)[0]
        assert abs(a - b) < 1e-2

    def test_integral_averages_noise(self):
        rng = np.random.default_rng(0)
        hs, sp = scalar_setup(rate=-1.0)
        grid = build_grid(sp.h1, 1.0, 256)
        state = evolve(sp, grid, hs.w0_homo, 1.0)
        exact = math.exp(-1.0)
        sp_err = int_err = 0.0
        trials = 32
        for _ in range(trials):
            noisy = evolve(sp, grid, hs.w0_homo, 1.0)
            noise = 1e-3 * rng.uniform(-1.0, 1.0, size=noisy.modes.shape)
            noisy.modes = np.fft.fft(np.fft.ifft(noisy.modes, axis=0) + noise, axis=0)
            sp_err += abs(recover_single_point(noisy, sp.h1)[0] - exact)
            int_err += abs(recover_integral(noisy, sp.h1)[0] - exact)
        assert int_err < sp_err

    def test_no_admissible_point_raises(self):
        hs, sp = scalar_setup(rate=-1.0)
        grid = build_grid(sp.h1, 1.0, 128)
        with pytest.raises(InputError):
            recovery_index(grid, p_diamond=grid.p_right + 1.0)

    def test_below_threshold_recovery_degrades(self):
        # on a system with a positive h1 eigenvalue, reading below the
        # threshold must be at least 10x worse than reading above it

        rate = 0.02
        t_end = 100.0
        sp = HermitianSplit(h1=np.array([[rate + 0j]]), h2=np.zeros((1, 1), dtype=complex))
        grid = build_grid(sp.h1, t_end, 4096, tail_tol=math.exp(-10.0))
        state = evolve(sp, grid, np.array([1.0 + 0j]), t_end)
        field = state.field()
        exact = math.exp(rate * t_end)
        k_good = recovery_index(grid, rate * t_end)
        good = abs(math.exp(grid.points[k_good]) * field[k_good, 0] - exact)
        k_bad = int(np.searchsorted(grid.points, rate * t_end * 0.25))
        bad = abs(math.exp(grid.points[k_bad]) * field[k_bad, 0] - exact)
        assert bad > 10.0 * good


class TestStructuredEvolution:
    def _setup(self, n=6, seed=3, gamma_f=None):
        rng = np.random.default_rng(seed)
        sig = rng.uniform(0.5, 3.0, size=n)
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        a = q1 @ np.diag(sig) @ q2.conj().T
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        p = MagParams(9.5, 0.2)
        sys = build_transformed(a, b, p)
        if gamma_f is None:
            gamma_f = default_forcing_scale(p)
        return sys, gamma_f

    def test_matches_dense_path(self):
        # every field row of the streamed pass against the dense path;
        # by Parseval this also pins the Fourier-space norm
        sys, gamma_f = self._setup()
        gen, drive = to_ode(sys)
        hs = homogenize(gen, drive, gamma_f)
        sp = split(hs)
        t = 7.0
        grid = build_grid(sp.h1, t, 512, tail_tol=math.exp(-30.0))
        dense = evolve(sp, grid, hs.w0_homo, t)
        pairs = _pairs(sys, gamma_f)
        _, rows = evolve_structured(pairs, grid, t, np.zeros(grid.n_p), 1)
        assert rows.shape == (grid.n_p, 4 * sys.n)
        assert np.allclose(rows, dense.field(), atol=1e-10)

    def test_pair_weights_detect_sparse_excitation(self):
        # forcing aligned with one singular direction leaves every other
        # pair empty, so the runway ignores their speeds
        n = 8
        diag = np.diag(np.linspace(0.5, 4.0, n)).astype(complex)
        p = MagParams(16.5, 0.2)
        b = np.zeros(n, dtype=complex)
        b[0] = 1.0  # hits only sigma = 4 after the svd ordering
        sys = build_transformed(diag, b, p)
        pairs = _pairs(sys, 0.01)
        weights = pairs.pair_weights()
        assert np.count_nonzero(weights > 1e-12 * weights.sum()) == 1
        runway_all = float(np.max(pairs.advection_speeds())) * 10.0
        assert required_runway(pairs, 10.0) <= runway_all + 1e-12

    def test_runway_reads_weights_times_envelope_peak(self):
        # the fast group (sigma = 4) carries a fraction f of the solution
        # scale; its left-moving content peaks at ENVELOPE_MAX f, so a budget
        # just below ENVELOPE_MAX f keeps it and one just above exempts it
        p = MagParams(16.5, 0.2)
        sys = build_transformed(np.diag([4.0, 0.5]), np.array([1e-3, 1.0]), p)
        pairs = _pairs(sys, default_forcing_scale(p))
        fast, slow = np.argmax(pairs.sigma[pairs.reps]), np.argmin(pairs.sigma[pairs.reps])
        frac = pairs.group_weights()[fast] / pairs.solution_scale()
        speeds = pairs.advection_speeds()[pairs.reps]
        t = 10.0
        peak = schrod.ENVELOPE_MAX * frac
        assert required_runway(pairs, t, 0.99 * peak) == pytest.approx(speeds[fast] * t)
        assert required_runway(pairs, t, 1.01 * peak) == pytest.approx(speeds[slow] * t)

    def test_lambda_max_matches_dense(self):
        sys, gamma_f = self._setup(seed=5)
        gen, drive = to_ode(sys)
        sp = split(homogenize(gen, drive, gamma_f))
        pairs = _pairs(sys, gamma_f)
        dense_lam = float(np.max(np.linalg.eigvalsh(sp.h1)))
        assert pairs.lambda_max_h1() == pytest.approx(dense_lam, abs=1e-12)

    def test_advection_speeds_match_dense_blocks(self):
        # the pair basis diag(V, U, V, U) splits the dense h1 into one 4x4
        # block per pair, on the slots (j, n+j, 2n+j, 3n+j)
        for seed in (5, 11):
            sys, gamma_f = self._setup(seed=seed)
            gen, drive = to_ode(sys)
            sp = split(homogenize(gen, drive, gamma_f))
            pairs = _pairs(sys, gamma_f)
            q = np.zeros((4 * sys.n, 4 * sys.n), dtype=complex)
            for k, basis in enumerate((pairs.spec.vh.conj().T, pairs.spec.u) * 2):
                q[k * sys.n:(k + 1) * sys.n, k * sys.n:(k + 1) * sys.n] = basis
            h1_pair = q.conj().T @ sp.h1 @ q
            for j in range(sys.n):
                idx = j + sys.n * np.arange(4)
                block = h1_pair[np.ix_(idx, idx)]
                dense = float(np.max(np.abs(np.linalg.eigvalsh(block))))
                assert pairs.advection_speeds()[j] == pytest.approx(dense, abs=1e-12)

    def test_singular_matrix_rejected(self):
        p = MagParams(4.0, 1.0)
        sys = build_transformed(np.diag([1.0, 0.0]), np.ones(2), p)
        with pytest.raises(SingularMatrixError):
            _pairs(sys, default_forcing_scale(p))

    def test_steady_pair_is_the_rotated_steady_state(self):
        for seed in (3, 7):
            sys, gamma_f = self._setup(seed=seed)
            pairs = _pairs(sys, gamma_f)
            n = sys.n
            w_inf = steady_state(sys)
            vh, uh = pairs.spec.vh, pairs.spec.u.conj().T
            rotated = np.stack([vh @ w_inf[:n], uh @ w_inf[n:],
                                vh @ sys.f[:n] / gamma_f, uh @ sys.f[n:] / gamma_f], axis=1)
            assert np.allclose(pairs.steady_pair, rotated, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(rotated)))
            # the state block starts at zero, the forcing block at its steady value
            assert np.array_equal(pairs.w0_pair[:, [0, 1, 3]], np.zeros((n, 3)))
            assert np.array_equal(pairs.w0_pair[:, 2], pairs.steady_pair[:, 2])


class TestPairKernel:
    """The closed-form forcing column against the dense propagator of a pair."""

    @staticmethod
    def _pair(sigma, kappa):
        # a 1x1 system is one pair with trivial bases, so its dense
        # homogenized split is that pair's 4x4 block
        p = MagParams(kappa**2, 1.0)
        sys = build_transformed(np.array([[sigma + 0j]]), np.array([1.0 + 0j]), p)
        gamma_f = default_forcing_scale(p)
        gen, drive = to_ode(sys)
        return _pairs(sys, gamma_f), split(homogenize(gen, drive, gamma_f))

    @given(st.floats(0.1, 5.0), st.one_of(st.just(1.0), st.floats(1.0, 30.0)),
           st.lists(st.floats(-20.0, 20.0), max_size=5), st.floats(0.0, 100.0),
           st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_expm_column(self, sigma, kappa, thetas, t, seed):
        # theta = 0 is always included: with kappa_hat = 1 (beta = 0, so
        # cw = 0) it is the point where K_w is a multiple of I2 (r = 0)
        pairs, sp = self._pair(sigma, kappa)
        thetas = np.array([0.0, *thetas])
        rng = np.random.default_rng(seed)
        x = rng.normal(size=thetas.size) + 1j * rng.normal(size=thetas.size)
        got = pair_column(pairs, np.array([0]), thetas, t)[:, 0]
        # the state-block-only evaluation is the same arithmetic, cut short
        top = pair_column(pairs, np.array([0]), thetas, t, slots=2)[:, 0]
        assert np.array_equal(top, got[:, :2])
        for th, xk, col in zip(thetas, x, got):
            expect = expm(-1j * (th * sp.h1 - sp.h2) * t)[:, 2] * xk
            assert np.allclose(xk * col, expect, rtol=0.0, atol=1e-10 * abs(xk))

    def test_exact_at_time_zero(self):
        for kappa in (1.0, 3.0):
            p = MagParams(kappa**2, 1.0)
            sys = build_transformed(np.diag([1.0, 0.5, 2.0]), np.ones(3), p)
            pairs = _pairs(sys, default_forcing_scale(p))
            thetas = np.array([0.0, 0.7, -3.0, 40.0])
            rng = np.random.default_rng(0)
            x = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
            out = pair_column(pairs, np.arange(3), thetas, 0.0) * x[..., None]
            expect = np.zeros((4, 3, 4), dtype=complex)
            expect[..., 2] = x
            assert np.array_equal(out, expect)


    @given(st.floats(0.1, 5.0), st.one_of(st.just(1.0), st.floats(1.0, 1e4)),
           st.lists(st.floats(-1e4, 1e4), max_size=5), st.floats(1e-3, 0.5),
           st.one_of(st.just(0.0), st.floats(0.0, 1e4)))
    @settings(max_examples=60, deadline=None)
    def test_matches_complex_exponential_oracle(self, sigma, kappa, thetas, dp, t):
        # theta = 0 (at kappa_hat = 1 the point where r = 0) and the Nyquist
        # theta -pi/dp of a grid of step dp are always included
        pairs, _ = self._pair(sigma, kappa)
        thetas = np.array([0.0, -math.pi / dp, *thetas])
        for slots in (2, 4):
            got = pair_column(pairs, np.array([0]), thetas, t, slots)
            expect = apply_pair_modes(pairs, np.array([0]), thetas, t, slots)
            assert np.max(np.abs(got - expect)) <= 1e-13


class TestHalfAngle:
    """cos 2x and sin 2x from one tangent, against numpy's own cos and sin."""

    def test_matches_doubled_angle(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, 200_000) * 10.0 ** rng.uniform(-6.0, 12.0, 200_000)
        cos2, sin2 = schrod._half_angle_cos_sin(x)
        assert np.max(np.abs(cos2 - np.cos(2.0 * x))) <= 4.5e-16
        assert np.max(np.abs(sin2 - np.sin(2.0 * x))) <= 4.5e-16

    def test_exact_at_zero_finite_at_half_pi(self):
        cos2, sin2 = schrod._half_angle_cos_sin(np.array([0.0, -0.0]))
        assert np.array_equal(cos2, [1.0, 1.0]) and np.array_equal(sin2, [0.0, 0.0])
        # tan of the double nearest pi/2 is 1.6e16: its square stays finite
        x = np.array([math.pi / 2, -math.pi / 2])
        cos2, sin2 = schrod._half_angle_cos_sin(x)
        assert np.all(np.isfinite(cos2)) and np.all(np.isfinite(sin2))
        assert np.max(np.abs(cos2 - np.cos(2.0 * x))) <= 4.5e-16
        assert np.max(np.abs(sin2 - np.sin(2.0 * x))) <= 4.5e-16


class TestStreamedReadout:
    """The streamed pair-space pass against dense evolve on the same grid."""

    @staticmethod
    def _problem(n, seed):
        rng = np.random.default_rng(seed)
        sig = rng.uniform(0.5, 3.0, size=n)
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        a = q1 @ np.diag(sig) @ q2.conj().T
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        p = MagParams(9.5, 0.2)
        return build_transformed(a, b, p), default_forcing_scale(p)

    @given(st.integers(1, 4), st.integers(0, 2**16), st.floats(0.0, 8.0),
           st.sampled_from([128, 256, 512]))
    @settings(max_examples=25, deadline=None)
    def test_readout_and_snapshot_match_dense(self, n, seed, t, n_p):
        sys, gamma_f = self._problem(n, seed)
        gen, drive = to_ode(sys)
        hs = homogenize(gen, drive, gamma_f)
        sp = split(hs)
        grid = build_grid(sp.h1, t, n_p)
        state = evolve(sp, grid, hs.w0_homo, t)
        pairs = _pairs(sys, gamma_f)
        atol = 1e-10 * float(np.linalg.norm(hs.w0_homo))
        p_diamond = p_threshold(sp.h1, t)
        advect = float(np.max(np.abs(np.linalg.eigvalsh(sp.h1)))) * t
        for weights, oracle in ((readout_weights(grid, p_diamond, advect)[0], recover_integral),
                                (single_point_weights(grid, p_diamond), recover_single_point)):
            vec, rows = _evolve_state(pairs, grid, t, weights)
            assert rows is None
            assert np.allclose(vec, oracle(state, sp.h1), rtol=0.0, atol=atol)
        field = state.field()
        # 256 entries make chunks of 4-16 modes: smaller than some folds
        # and larger than others
        for entries in (schrod._CHUNK_ENTRIES, 256):
            with mock.patch.object(schrod, "_CHUNK_ENTRIES", entries):
                for stride in (1, 2, 8, 32):
                    vec, rows = _evolve_state(pairs, grid, t, weights, stride)
                    assert rows.shape == (n_p // stride, 4 * n)
                    assert np.allclose(rows, field[::stride], rtol=0.0, atol=atol)
                assert np.allclose(vec, recover_single_point(state, sp.h1),
                                   rtol=0.0, atol=atol)

    @given(st.lists(st.sampled_from([0.5, 0.8, 1.3, 2.0, 3.0]), min_size=1, max_size=5),
           st.booleans(), st.integers(0, 2**16), st.floats(0.0, 8.0),
           st.sampled_from([128, 256, 512]))
    @settings(max_examples=25, deadline=None)
    def test_repeated_singular_values_match_dense(self, sig, perturb, seed, t, n_p):
        # pairs that share sigma are evolved once and scaled by their own
        # forcing; ties broken by ~1e-15 relative still share one group
        rng = np.random.default_rng(seed)
        n = len(sig)
        sig = np.array(sig)
        if perturb:
            sig = sig * (1.0 + 1e-15 * rng.integers(-3, 4, size=n))
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        p = MagParams(9.5, 0.2)
        sys = build_transformed(q1 @ np.diag(sig) @ q2.conj().T, b, p)
        gamma_f = default_forcing_scale(p)
        pairs = _pairs(sys, gamma_f)
        assert pairs.reps.size == np.unique(np.round(sig, 6)).size
        gen, drive = to_ode(sys)
        hs = homogenize(gen, drive, gamma_f)
        sp = split(hs)
        grid = build_grid(sp.h1, t, n_p)
        state = evolve(sp, grid, hs.w0_homo, t)
        atol = 1e-10 * float(np.linalg.norm(hs.w0_homo))
        p_diamond = p_threshold(sp.h1, t)
        advect = float(np.max(np.abs(np.linalg.eigvalsh(sp.h1)))) * t
        field = state.field()
        for weights, oracle in ((readout_weights(grid, p_diamond, advect)[0], recover_integral),
                                (single_point_weights(grid, p_diamond), recover_single_point)):
            expect = oracle(state, sp.h1)
            for entries in (schrod._CHUNK_ENTRIES, 256):
                with mock.patch.object(schrod, "_CHUNK_ENTRIES", entries):
                    vec, rows = _evolve_state(pairs, grid, t, weights)
                    assert rows is None
                    assert np.allclose(vec, expect, rtol=0.0, atol=atol)
                    for stride in (1, 8, 32):
                        vec, rows = _evolve_state(pairs, grid, t, weights, stride)
                        assert np.allclose(vec, expect, rtol=0.0, atol=atol)
                        assert rows.shape == (n_p // stride, 4 * n)
                        assert np.allclose(rows, field[::stride], rtol=0.0, atol=atol)

    @given(st.lists(st.sampled_from([0.5, 0.8, 1.3, 2.0, 3.0]), min_size=2, max_size=6),
           st.integers(0, 2**16), st.floats(0.0, 8.0), st.sampled_from([128, 256, 512]))
    @settings(max_examples=25, deadline=None)
    def test_pruned_groups_match_dense(self, sig, seed, t, n_p):
        # a rhs in the span of some singular vectors leaves only rounding
        # noise on the others; the groups made of noise alone are dropped
        # and the streamed pass still matches the dense one on every pair
        rng = np.random.default_rng(seed)
        n = len(sig)
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        keep = rng.permutation(n)[: rng.integers(1, n)]
        b = q1[:, keep] @ (rng.normal(size=keep.size) + 1j * rng.normal(size=keep.size))
        p = MagParams(9.5, 0.2)
        sys = build_transformed(q1 @ np.diag(sig) @ q2.conj().T, b, p)
        gamma_f = default_forcing_scale(p)
        pairs = _pairs(sys, gamma_f)
        eps_floor = n * np.finfo(float).eps
        assert pairs.pruned_weight() <= eps_floor
        kept = pairs.group_weights() > 1e3 * eps_floor * pairs.solution_scale()
        assert set(np.flatnonzero(kept)) <= set(pairs.evolved.tolist())
        gen, drive = to_ode(sys)
        hs = homogenize(gen, drive, gamma_f)
        sp = split(hs)
        grid = build_grid(sp.h1, t, n_p)
        state = evolve(sp, grid, hs.w0_homo, t)
        atol = 1e-10 * float(np.linalg.norm(hs.w0_homo))
        p_diamond = p_threshold(sp.h1, t)
        advect = float(np.max(np.abs(np.linalg.eigvalsh(sp.h1)))) * t
        field = state.field()
        for weights, oracle in ((readout_weights(grid, p_diamond, advect)[0], recover_integral),
                                (single_point_weights(grid, p_diamond), recover_single_point)):
            for stride in (0, 1, 8):
                vec, rows = _evolve_state(pairs, grid, t, weights, stride)
                assert np.allclose(vec, oracle(state, sp.h1), rtol=0.0, atol=atol)
                if stride:
                    assert np.allclose(rows, field[::stride], rtol=0.0, atol=atol)

    def test_sigma_groups(self):
        sigma = np.array([3.0, 2.0, 2.0 * (1 + 1e-15), 1.0, 2.0 * (1 - 2e-15), 1.0 + 1e-9])
        reps, group = schrod.sigma_groups(sigma)
        # sorted: 1 | 1+1e-9 | 2(1-2e-15), 2, 2(1+1e-15) | 3; each group's
        # representative is its smallest sigma
        assert reps.tolist() == [3, 5, 4, 0]
        assert group.tolist() == [3, 2, 2, 0, 2, 1]
        empty_reps, empty_group = schrod.sigma_groups(np.array([]))
        assert empty_reps.size == 0 and empty_group.size == 0

    def test_zero_forcing_groups_are_not_evolved(self):
        # every pair is grouped; a group that no forcing reaches weighs
        # exactly 0 and falls under the rounding floor, whatever the rhs
        p = MagParams(9.0, 0.5)
        eye = np.eye(3)
        for b in ([1.0, 0.0, 1.0], [0.0, 0.0, 0.0]):
            spec = spectral_from_factors(np.array(b, dtype=complex), p,
                                         (eye, np.array([3.0, 2.0, 1.0]), eye))
            pairs = build_pair_system(spec, default_forcing_scale(p))
            assert pairs.reps.size == 3
            assert sorted(pairs.reps[pairs.evolved].tolist()) == np.flatnonzero(b).tolist()
            assert pairs.pruned_weight() == 0.0

    def test_integral_weights_are_the_trapezoid_rule(self):
        # trapezoid weights on one window, normalized on the grid so the pure
        # e^{-p} profile reads back exactly: sum_k w_k e^{-p_k} = 1
        hs, sp = scalar_setup(rate=-1.0)
        for n_p, p_diamond, advect in ((256, 0.0, 3.0), (256, 0.0, 0.0), (1024, 1.5, 4.0),
                                       (64, 0.0, 0.0)):
            grid = build_grid(sp.h1, 1.0, n_p, p_left=-12.0, right_margin=8.0)
            w, k_star = readout_weights(grid, p_diamond, advect)
            window = np.flatnonzero(w)
            assert window[0] == k_star
            assert np.array_equal(window, np.arange(window[0], window[-1] + 1))
            shape = np.ones(window.size)
            shape[[0, -1]] = 0.5
            assert np.allclose(w[window] / w[window[1]], shape, rtol=1e-15, atol=0.0)
            total = w[window] @ np.exp(-grid.points[window])
            assert total == pytest.approx(1.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n_p", [256, 512, 4096])
    def test_window_end_is_decided_in_integers(self, n_p):
        # with n_p - 1 - k* = 4q the quarter mark is the grid point k* + q; the
        # window ends on the last point strictly below it, k* + q - 1, and a
        # 1-ulp move of the right margin moves no point in or out of it
        q = n_p // 16
        k_star = n_p - 1 - 4 * q
        for p_left, margin in itertools.product((-12.0, -17.3, -30.7), np.linspace(8.0, 40.0, 17)):
            weights = []
            for m in (np.nextafter(margin, 0.0), margin, np.nextafter(margin, np.inf)):
                grid = schrod.build_grid_from_rate(0.0, 1.0, n_p, p_left, m)
                # the threshold mid-cell, so that k* is the same on all three grids
                p_diamond = p_left + (k_star - 1.5) * (m - p_left) / n_p
                w, k = readout_weights(grid, p_diamond, advect=1e6)
                assert k == k_star
                window = np.flatnonzero(w)
                assert (window[0], window[-1]) == (k_star, k_star + q - 1), (p_left, m)
                weights.append(w)
            for w in weights:
                assert np.allclose(w, weights[1], rtol=1e-12, atol=0.0)


def _preset_pairs(name, b=None):
    """The CLI's pair system for a preset (or its matrix with rhs b)."""
    from schromag.presets import pde_preset

    problem, solver = pde_preset(name)
    spec = build_spectral(problem.system.a, problem.system.b if b is None else b)
    return build_pair_system(spec, default_forcing_scale(spec.params))


class TestPruning:
    """Sigma groups whose total weight is at the SVD's rounding floor,
    n eps of the solution scale, are not evolved."""

    def test_drops_whole_groups_only(self):
        # sigma = 2 is one group of a 1e-20 pair (its representative) and a
        # heavy one; sigma = 1 is a 1e-20 group of its own.  The light group
        # is dropped, the light member of the heavy group is read out at
        # its own scale.
        p = MagParams(9.0, 0.5)
        a = np.diag([2.0, 2.0, 1.0, 3.0]).astype(complex)
        b = np.array([1e-20, 1.0, 1e-20, 1.0], dtype=complex)
        eye = np.eye(4)
        order = [3, 0, 1, 2]  # descending sigma
        spec = spectral_from_factors(b, p, (eye[:, order], np.diag(a).real[order], eye[order]))
        pairs = build_pair_system(spec, default_forcing_scale(p))
        assert (pairs.reps.size, pairs.evolved.size) == (3, 2)
        assert 0.0 < pairs.pruned_weight() <= 4 * np.finfo(float).eps
        t = 20.0
        rate = pairs.lambda_max_h1()
        grid = schrod.build_grid_from_rate(rate, t, 4096, p_left=-60.0)
        weights = single_point_weights(grid, max(rate * t, 0.0))
        vec, rows = _evolve_state(pairs, grid, t, weights, 64)
        # entries 0 and 1 share a group: the same r(sigma), scaled by forcings
        # 1e-20 and 1, in the state block and in every slot of the snapshot
        assert vec[0] / vec[1] == pytest.approx(1e-20, rel=1e-9)
        for k in range(4):
            assert np.allclose(rows[:, 4 * k], 1e-20 * rows[:, 4 * k + 1], rtol=1e-9, atol=0.0)
        assert np.any(rows[:, 4 * 2] != 0.0)
        # entry 2 is the dropped group
        assert vec[2] == 0.0 and vec[4 + 2] == 0.0
        assert np.all(rows[:, [2, 6, 10, 14]] == 0.0)

    def test_presets(self):
        from schromag.presets import PDE_PRESET_NAMES

        evolved = {}
        for name in PDE_PRESET_NAMES:
            pairs = _preset_pairs(name)
            assert pairs.pruned_weight() <= pairs.sigma.size * np.finfo(float).eps, name
            evolved[name] = pairs.evolved.size
        assert (evolved["fig3a"], evolved["fig6a"], evolved["fig4a"]) == (5, 33, 17)

    def test_nothing_pruned_on_a_random_rhs(self):
        n = _preset_pairs("fig4a").sigma.size
        rng = np.random.default_rng(0)
        pairs = _preset_pairs("fig4a", rng.normal(size=n) + 1j * rng.normal(size=n))
        assert pairs.evolved.size == pairs.reps.size
        assert pairs.pruned_weight() == 0.0

    def test_grid_is_basis_invariant(self):
        # a unitary rotation of U and V inside each repeated sigma is the
        # same A; the grid reads group norms, so it does not see the basis
        sig = np.array([3.0, 3.0, 3.0, 1.5, 1.5, 0.8, 0.8])
        n = sig.size
        for seed in range(3):
            rng = np.random.default_rng(seed)
            q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            rot = np.zeros((n, n), dtype=complex)
            for lo, hi in ((0, 3), (3, 5), (5, 7)):
                z = rng.normal(size=(hi - lo,) * 2) + 1j * rng.normal(size=(hi - lo,) * 2)
                rot[lo:hi, lo:hi] = np.linalg.qr(z)[0]
            a = q1 @ np.diag(sig) @ q2.conj().T
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            p = MagParams(9.0, 0.64)
            runs = [_pipeline_u(spectral_from_factors(b, p, f), 1e-2, 1024)
                    for f in ((q1, sig, q2.conj().T),
                              (q1 @ rot, sig, rot.conj().T @ q2.conj().T))]
            (u1, r1, _), (u2, r2, _) = runs
            assert (r1.p_left, r1.k_star) == (r2.p_left, r2.k_star)
            assert r1.p_right == pytest.approx(r2.p_right, rel=1e-14, abs=0.0)
            assert np.max(np.abs(u1 - u2)) <= 1e-12 * np.max(np.abs(u1))

    def test_snapshot_memory(self):
        # the snapshot is four (m x groups) @ (groups x n) products into the
        # (m, 4n) rows: no (m, pairs, 4) gather or (m, 4, n) staging copy
        from schromag.presets import pde_preset

        problem, solver = pde_preset("fig4a")
        a, b = problem.system.a, problem.system.b
        spec = build_spectral(a, b)
        tracemalloc.start()
        try:
            _, report, (_, rows) = pipeline(spec, solver.delta, 16384, snapshot_rows=1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (1024, 4 * a.shape[0])
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.0f} MiB"


class TestPipeline:
    def test_identity_one_step(self):
        p = MagParams(1.0, 1.0)
        spec = build_spectral(np.eye(1), np.array([1.0 + 0j]), p)
        u, _, snapshot = _pipeline_u(spec, 0.1, 128)
        assert snapshot is None
        assert u[0] == pytest.approx(1.0, abs=1e-2)
        assert _residual(u, np.array([1.0 + 0j])) < 1e-2

    def test_diag_documented_accuracy(self):
        p = MagParams(100.0, 0.01)
        u, _, _ = _pipeline_u(build_spectral(DIAG_A, DIAG_B, p), 1e-3, 32768)
        assert np.max(np.abs(u - [0.1, 10.0])) / 10.0 < 2e-3
        assert _residual(u, DIAG_ORACLE) < 2e-3

    def test_report_fields(self):
        p = MagParams(100.0, 0.01)
        _, report, _ = pipeline(build_spectral(DIAG_A, DIAG_B, p), 1e-2, 16384)
        d = asdict(report)
        for key in ("t_end", "n_p", "p_left", "p_right", "p_diamond",
                    "k_star", "recovery_method"):
            assert key in d
        assert d["envelope_tail"] == envelope_tail(schrod.DEFAULT_TAIL_TOL)
        assert d["p_left"] == -(d["runway"] + d["envelope_tail"])
        # checking against a reference solution is the caller's business
        assert "residual_vs_oracle" not in d
        assert "live_pairs" not in d and d["sigma_groups"] == 2

    def test_fig6a_groups_repeated_singular_values(self):
        # the 2d biharmonic spectrum repeats: the 256 axis sums lambda_a +
        # lambda_b take 129 distinct values, each giving two sigma, and the
        # CLI's closed-form SVD groups into those 258 as the dense SVD does.
        # 60 pairs of the closed-form basis carry forcing above rounding, and
        # the rounding floor keeps the groups they fall in
        from schromag.presets import pde_preset

        problem, solver = pde_preset("fig6a")
        spec = build_spectral(problem.system.a, problem.system.b, problem=problem)
        dense = build_spectral(problem.system.a, problem.system.b)
        for system in (spec, dense):
            assert schrod.sigma_groups(system.sigma)[0].size == 258
        forced = np.abs(spec.b_t)
        heavy = np.flatnonzero(forced > 1e-12 * forced.max())
        assert heavy.size == 60
        oracle = direct_solve(problem.system, spec.sigma)
        u, report, _ = _pipeline_u(spec, solver.delta)
        assert asdict(report)["sigma_groups"] == 258
        pairs = build_pair_system(spec, default_forcing_scale(spec.params))
        assert set(pairs.group[heavy].tolist()) <= set(pairs.evolved.tolist())
        assert _residual(u, oracle) < max(solver.delta, 1e-2)

    def test_presets_meet_delta(self):
        # every preset meets a tenth of its delta on its derived grid on the
        # block the CLI writes; the widest Robin grids reach 1e-5 at twice it
        from schromag.presets import PDE_PRESET_NAMES, pde_preset

        for name in PDE_PRESET_NAMES:
            problem, solver = pde_preset(name)
            block = problem.solution_size
            spec = build_spectral(problem.system.a, problem.system.b)
            oracle = direct_solve(problem.system, spec.sigma)[:block]
            u, report, _ = _pipeline_u(spec, solver.delta, block=block)
            assert _residual(u[:block], oracle) <= solver.delta / 10, name
            if name in ("fig3e", "fig3f"):
                u, _, _ = _pipeline_u(spec, solver.delta, 2 * report.n_p, block=block)
                assert _residual(u[:block], oracle) <= 1e-5, name

    def test_matches_iteration_terminal_state(self):
        # cross-method check on the small zero-boundary Helmholtz preset
        from schromag.mag import convergence_steps, mag_iterate
        from schromag.presets import pde_preset

        problem = pde_preset("fig3a")[0]
        a, b = problem.system.a, problem.system.b
        params = params_from_matrix(a)
        sys = build_transformed(a, b, params)
        trace = mag_iterate(
            sys, np.zeros(2 * sys.n), 1e-3,
            4 * convergence_steps(params.kappa_hat, 1e-3),
            w_inf=steady_state(sys), keep_states=False,
        )
        u_iter = trace.w_final[: sys.n] / (1.0 - params.beta)
        u_pipe, _, _ = _pipeline_u(build_spectral(a, b, params), 1e-3)
        scale = np.max(np.abs(u_iter))
        assert np.max(np.abs(u_pipe - u_iter)) / scale < 1e-2

    def test_fig4a_memory_stays_one_chunk(self):
        # the streamed pass holds one chunk of modes, never the whole
        # (n_p, pairs, 4) field (16384 x 256 x 4 complex = 256 MiB here)
        from schromag.presets import pde_preset

        problem, solver = pde_preset("fig4a")
        a, b = problem.system.a, problem.system.b
        spec = build_spectral(a, b, params_from_matrix(a))
        oracle = direct_solve(problem.system)
        tracemalloc.start()
        try:
            u, _, _ = _pipeline_u(spec, solver.delta, 16384)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _residual(u, oracle) < max(solver.delta, 1e-2)
        assert peak < 200 * 2**20, f"peak {peak / 2**20:.0f} MiB"

    def test_wide_grid_memory(self):
        # fig3e on a 131072-point grid: the p-grid keeps its points alone (the
        # wavenumbers are made per chunk), the weights and each spectrum go
        # after their last use and only half of each spectrum is kept
        from schromag.presets import pde_preset

        problem, solver = pde_preset("fig3e")
        spec = build_spectral(problem.system.a, problem.system.b, problem=problem)
        tracemalloc.start()
        try:
            pipeline(spec, solver.delta, 131072)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7.5e6, f"peak {peak / 1e6:.2f} MB"

    def test_consistency_with_ode_oracle(self):
        # recovered trajectory tracks expm on the (generator, drive) ODE
        # with error decreasing as n_p doubles
        p = MagParams(4.0, 0.25)
        a = np.diag([1.8, 0.6]).astype(complex)
        b = np.array([1.0, -0.5], dtype=complex)
        sys = build_transformed(a, b, p)
        gen, drive = to_ode(sys)
        gamma_f = default_forcing_scale(p)
        hs = homogenize(gen, drive, gamma_f)
        sp = split(hs)
        t = 4.0
        d = gen.shape[0]
        aug = np.zeros((d + 1, d + 1), dtype=complex)
        aug[:d, :d] = gen
        aug[:d, d] = drive
        exact = (expm(aug * t) @ np.concatenate([np.zeros(d), [1.0]]))[:d]
        errs = []
        for n_p in (32, 64, 128, 256):
            grid = build_grid(sp.h1, t, n_p)
            state = evolve(sp, grid, hs.w0_homo, t)
            rec = recover_single_point(state, sp.h1)
            errs.append(np.max(np.abs(rec - exact)))
        for a_, b_ in zip(errs, errs[1:]):
            assert b_ <= a_ * 1.1
        assert errs[-1] < errs[0]
