import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schromag import pde
from schromag.errors import InputError, SingularMatrixError
from schromag.linalg import direct_solve, full_svd
from schromag.mag import build_spectral
from schromag.pde import (
    MIXED,
    ROBIN,
    ZERO,
    laplacian_1d,
    make_problem,
)
from schromag.presets import PDE_PRESET_NAMES, pde_preset
from schromag.schrod import plan

from reference import sine_mode_oracle, two_stage_oracle


class TestMakeProblem:
    @pytest.mark.parametrize(
        "family", ["helmholtz1d", "helmholtz2d", "biharmonic1d", "biharmonic2d"]
    )
    def test_rejects_small_n_and_bad_boundary(self, family):
        forcing = "sine23" if family.endswith("1d") else "sine23_diag"
        foreign = (MIXED, 2.0) if family.startswith("helmholtz") else (ROBIN, 2j)
        with pytest.raises(ValueError):
            make_problem(family, 2, 1.0, forcing, (ZERO,))
        with pytest.raises(InputError, match="unknown family"):
            make_problem(family[:-2] + "3d", 5, 1.0, forcing, (ZERO,))
        for boundary in (foreign, ("neumann",)):
            with pytest.raises(InputError, match=f"unknown boundary .* for {family}$"):
                make_problem(family, 5, 1.0, forcing, boundary)


class TestHelmholtz1d:
    def test_zero_bc_matrix(self):
        sys = make_problem("helmholtz1d", 3, 0.0, "sine23", (ZERO,)).system
        assert np.allclose(sys.a, laplacian_1d(3))
        h = 0.25
        xs = h * np.arange(1, 4)
        f = 2 * np.sin(2 * np.pi * xs) + 3 * np.sin(3 * np.pi * xs)
        assert np.allclose(sys.b, h * h * f)

    def test_wavenumber_shifts_diagonal(self):
        sys = make_problem("helmholtz1d", 3, 2.0, "sine23", (ZERO,)).system
        assert np.allclose(np.diag(sys.a), -1.75)

    def test_robin_corner_unit_coefficient(self):
        sys = make_problem("helmholtz1d", 5, 2.0, "cos2", (ROBIN, 1.0)).system
        h = 1.0 / 6.0
        assert sys.a[0, 0] == pytest.approx(-(1 + 2 * h))
        assert sys.a[0, 1] == 1.0
        assert sys.a[1, 0] == 1.0
        assert sys.b[0] == 0.0
        assert sys.n == 6

    def test_robin_complex_coefficient(self):
        sys = make_problem("helmholtz1d", 16, 2.0, "cos2", (ROBIN, 2j)).system
        h = 1.0 / 17.0
        assert sys.a[0, 0] == pytest.approx(-(1 + 4j * h))

    def test_symmetry_zero_bc(self):
        sys = make_problem("helmholtz1d", 8, 2.0, "sine23", (ZERO,)).system
        assert np.max(np.abs(sys.a - sys.a.T)) < 1e-14

    def test_sine_mode_oracle_agreement(self):
        for n, k in ((16, 2.0), (32, 2.0), (32, 4.0)):
            sys = make_problem("helmholtz1d", n, k, "sine23", (ZERO,)).system
            got = direct_solve(sys, full_svd(sys.a)[1])
            expect = sine_mode_oracle(n, k, {2: 2.0, 3: 3.0})
            assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_mesh_refinement_second_order(self):
        # error against the continuum closed form shrinks ~h^2; with
        # h = 1/(n+1) the n -> 2n ratio sits near ((2n+1)/(n+1))^2 ~ 3.8
        k = 2.0

        def continuum_error(n):
            sys = make_problem("helmholtz1d", n, k, "sine23", (ZERO,)).system
            u = direct_solve(sys, full_svd(sys.a)[1])
            xs = np.arange(1, n + 1) / (n + 1)
            exact = 2 * np.sin(2 * np.pi * xs) / (k**2 - 4 * np.pi**2) + 3 * np.sin(
                3 * np.pi * xs
            ) / (k**2 - 9 * np.pi**2)
            return np.max(np.abs(u - exact))

        e16, e32, e64 = (continuum_error(n) for n in (16, 32, 64))
        assert 2.5 <= e16 / e32 <= 5.5
        assert 2.5 <= e32 / e64 <= 5.5


class TestHelmholtz2d:
    def test_zero_bc_diagonal(self):
        sys = make_problem("helmholtz2d", 3, 0.0, "sine23_diag", (ZERO,)).system
        assert np.allclose(np.diag(sys.a), -4.0)

    def test_k_shift(self):
        sys = make_problem("helmholtz2d", 3, 1.0, "sine23_diag", (ZERO,)).system
        h = 0.25
        assert np.allclose(np.diag(sys.a), -4.0 + h * h)

    def test_zero_forcing_zero_solution(self, monkeypatch):
        monkeypatch.setitem(pde.FORCINGS, "zero2d", lambda x, y: 0.0 * x)
        sys = make_problem("helmholtz2d", 4, 1.0, "zero2d", (ZERO,)).system
        assert np.allclose(direct_solve(sys, full_svd(sys.a)[1]), 0.0)

    def test_brute_force_assembly(self):
        n = 3
        sys = make_problem("helmholtz2d", n, 0.0, "sine23_diag", (ZERO,)).system
        brute = np.zeros((9, 9))
        for j in range(n):
            for i in range(n):
                r = i + n * j
                brute[r, r] = -4
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n and 0 <= jj < n:
                        brute[r, ii + n * jj] = 1
        assert np.allclose(sys.a, brute)

    def test_forcing_layout_x_fast(self, monkeypatch):
        n = 3
        monkeypatch.setitem(pde.FORCINGS, "ramp2d", lambda x, y: x + 10 * y)
        sys = make_problem("helmholtz2d", n, 0.0, "ramp2d", (ZERO,)).system
        h = 0.25
        # index i + n*j holds f(x_{i+1}, y_{j+1})
        assert sys.b[1] == pytest.approx(h * h * (2 * h + 10 * h))
        assert sys.b[n] == pytest.approx(h * h * (h + 20 * h))

    def test_robin_extension(self):
        n = 4
        sys = make_problem("helmholtz2d", n, 1.0, "cos2_diag", (ROBIN, 2j)).system
        assert sys.n == (n + 1) ** 2
        h = 1.0 / (n + 1)
        # pure corner node (x0, y0): two 1d corner contributions, no k^2
        assert sys.a[0, 0] == pytest.approx(2 * -(1 + 4j * h))
        # interior node keeps the five-point diagonal plus k^2 h^2
        interior = (n + 1) + 1
        assert sys.a[interior, interior] == pytest.approx(-4 + h * h)
        assert sys.b[0] == 0.0


class TestBiharmonic1d:
    def test_zero_forcing(self, monkeypatch):
        monkeypatch.setitem(pde.FORCINGS, "zero1d", lambda x: 0.0 * x)
        sys = make_problem("biharmonic1d", 4, 0.0, "zero1d", (ZERO,)).system
        assert np.allclose(direct_solve(sys, full_svd(sys.a)[1]), 0.0)

    def test_block_layout(self):
        n = 4
        sys = make_problem("biharmonic1d", n, 0.0, "sine23", (ZERO,)).system
        h = 0.2
        assert np.allclose(sys.a[:n, n:], -h * h * np.eye(n))
        assert np.allclose(sys.a[n:, :n], 0.0)
        assert np.allclose(sys.a[:n, :n], sys.a[n:, n:])

    def test_two_stage_elimination_oracle(self):
        problem = make_problem("biharmonic1d", 16, 0.0, "sine23", (ZERO,))
        got = direct_solve(problem.system, full_svd(problem.system.a)[1])
        expect = two_stage_oracle(problem)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_mixed_boundary_rhs_adjustment(self):
        n = 8
        zero = make_problem("biharmonic1d", n, 0.0, "cos2", (ZERO,)).system
        mixed = make_problem("biharmonic1d", n, 0.0, "cos2", (MIXED, 2.0)).system
        diff = mixed.b - zero.b
        assert diff[n] == pytest.approx(-2.0)
        assert np.count_nonzero(diff) == 1

    def test_mixed_boundary_consistency(self):
        # ghost value v(0) = 2 moved to the rhs must equal solving the
        # v-system with the ghost column applied explicitly
        n = 8
        h = 1.0 / (n + 1)
        mixed = make_problem("biharmonic1d", n, 0.0, "cos2", (MIXED, 2.0)).system
        w = direct_solve(mixed, full_svd(mixed.a)[1])
        lap = laplacian_1d(n)
        xs = h * np.arange(1, n + 1)
        f = 2 * np.cos(2 * np.pi * xs)
        rhs_v = h * h * f.astype(complex)
        rhs_v[0] -= 2.0
        v = np.linalg.solve(lap, rhs_v)
        u = np.linalg.solve(lap, h * h * v)
        assert np.allclose(w[:n], u, atol=1e-10)


class TestBiharmonic2d:
    def test_zero_forcing(self, monkeypatch):
        monkeypatch.setitem(pde.FORCINGS, "zero2d", lambda x, y: 0.0 * x)
        sys = make_problem("biharmonic2d", 3, 0.0, "zero2d", (ZERO,)).system
        assert np.allclose(direct_solve(sys, full_svd(sys.a)[1]), 0.0)

    def test_diagonal_blocks_match_helmholtz(self):
        n = 4
        bi = make_problem("biharmonic2d", n, 0.0, "sine23_diag", (ZERO,)).system
        he = make_problem("helmholtz2d", n, 0.0, "sine23_diag", (ZERO,)).system
        nn = n * n
        assert np.allclose(bi.a[:nn, :nn], he.a)
        assert np.allclose(bi.a[nn:, nn:], he.a)

    def test_two_stage_elimination_oracle(self):
        problem = make_problem("biharmonic2d", 8, 0.0, "sine23_diag", (ZERO,))
        got = direct_solve(problem.system, full_svd(problem.system.a)[1])
        expect = two_stage_oracle(problem)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_mixed_boundary_edge_adjustment(self):
        n = 4
        zero = make_problem("biharmonic2d", n, 0.0, "cos2_diag", (ZERO,)).system
        mixed = make_problem("biharmonic2d", n, 0.0, "cos2_diag", (MIXED, 2.0)).system
        diff = mixed.b - zero.b
        nn = n * n
        hits = np.flatnonzero(diff)
        assert list(hits) == [nn + n * j for j in range(n)]
        assert np.allclose(diff[hits], -2.0)


class TestPresets:
    def test_catalogue_contents(self):
        problem, _ = pde_preset("fig3a")
        assert (problem.family, problem.n, problem.k) == ("helmholtz1d", 16, 2.0)
        assert problem.boundary == (ZERO,)

        problem, _ = pde_preset("fig3d")
        assert problem.boundary == (ROBIN, 2j)
        assert problem.forcing == "cos2"

        problem, _ = pde_preset("fig5c")
        assert (problem.family, problem.n) == ("biharmonic1d", 16)
        assert problem.boundary == (MIXED, 2.0)

    def test_unknown_preset(self):
        with pytest.raises(InputError):
            pde_preset("fig9z")

    def test_all_presets_assemble_and_solve(self):
        for name in PDE_PRESET_NAMES:
            problem, solver = pde_preset(name)
            u = direct_solve(problem.system, full_svd(problem.system.a)[1])
            assert np.all(np.isfinite(u.real))
            assert 0.0 < solver.delta < 1.0
            # the grid a schro run derives, the n_p of its report
            spec = build_spectral(problem.system.a, problem.system.b, problem=problem)
            assert plan(spec, solver.delta)[0].n_p >= 8

    def test_nodes_align_with_solution(self):
        # the forcing block of b holds h^2 f at the written nodes, 0 at a
        # Robin node, and the boundary value subtracted on the mixed x=0 edge
        for name in PDE_PRESET_NAMES:
            problem, _ = pde_preset(name)
            xs, ys = problem.nodes
            assert xs.shape[0] == problem.dim
            if problem.family.endswith("2d"):
                assert ys.shape[0] == problem.dim
            else:
                assert ys is None
            b, h = problem.system.b, problem.h
            if problem.family.startswith("biharmonic"):
                half = problem.dim // 2
                assert np.array_equal(xs[:half], xs[half:])
                assert np.all(b[:half] == 0.0)
                b, xs = b[half:], xs[half:]
                if ys is not None:
                    assert np.array_equal(ys[:half], ys[half:])
                    ys = ys[half:]
            f = pde.FORCINGS[problem.forcing]
            expect = h * h * (f(xs) if ys is None else f(xs, ys))
            if problem.boundary[0] == ROBIN:
                robin = xs == 0.0 if ys is None else (xs == 0.0) | (ys == 0.0)
                interior = problem.n if ys is None else problem.n**2
                assert np.count_nonzero(robin) == problem.dim - interior
                expect[robin] = 0.0
            if problem.boundary[0] == MIXED:
                expect[xs == h] -= problem.boundary[1]
            np.testing.assert_allclose(b, expect, rtol=0.0, atol=1e-14, err_msg=name)


class TestClosedFormFactors:
    """`PdeProblem.svd`, the closed-form SVD, against the dense SVD of the
    assembled A."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(pde.FAMILIES)), n=st.integers(3, 12),
           k=st.floats(0.0, 30.0), other=st.booleans(), value=st.floats(-3.0, 3.0))
    def test_matches_dense_svd(self, family, n, k, other, value):
        dim, boundary = pde.FAMILIES[family]
        forcing = "cos2" if dim == 1 else "cos2_diag"
        problem = make_problem(family, n, k, forcing,
                               (boundary, 2j if boundary == ROBIN else value)
                               if other else (ZERO,))
        if other and boundary == ROBIN:
            assert problem.svd() is None
            return
        u, s, vh = problem.svd()
        a = problem.system.a
        assert np.isrealobj(u) and np.isrealobj(vh) and np.all(np.diff(s) <= 0.0)
        # the dense SVD is accurate to about eps sigma_max in every value
        assert np.max(np.abs(s - full_svd(a)[1])) <= 1e-13 * s[0]
        assert np.max(np.abs((u * s) @ vh - a)) <= 1e-13 * s[0]
        eye = np.eye(s.size)
        assert np.max(np.abs(u.T @ u - eye)) <= 1e-13
        assert np.max(np.abs(vh @ vh.T - eye)) <= 1e-13
        # lambda_a + lambda_b = lambda_b + lambda_a to the bit: in 2d at most
        # n(n+1)/2 distinct eigenvalues, each giving one sigma (two biharmonic)
        per_value = 1 if family.startswith("helmholtz") else 2
        assert np.unique(s).size <= per_value * (n if dim == 1 else n * (n + 1) // 2)

    @pytest.mark.parametrize("family, n", [("helmholtz2d", 32), ("biharmonic2d", 16)])
    def test_factors_are_built_in_order(self, family, n):
        # the rows of u^T and vh are built in the order of s, and the 2d
        # eigenvectors kron(q, q) never whole: the peak is the two factors
        # and little more, with no copy of either
        problem = make_problem(family, n, 1.0, "sine23_diag", (ZERO,))
        tracemalloc.start()
        try:
            u, _, vh = problem.svd()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (u.nbytes + vh.nbytes), f"{peak / (u.nbytes + vh.nbytes):.2f}x"

    def test_singular_shift_refused(self):
        # k h = 2 sin(pi h/2) puts lambda_1 + k^2 h^2 at rounding level: the
        # factors keep build_spectral's condition check
        n = 8
        k = 2.0 * (n + 1) * np.sin(np.pi / (2 * (n + 1)))
        problem = make_problem("helmholtz1d", n, k, "sine2", (ZERO,))
        assert problem.svd()[1][-1] < 1e-14
        with pytest.raises(SingularMatrixError):
            build_spectral(problem.system.a, problem.system.b, problem=problem)
