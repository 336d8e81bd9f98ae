import numpy as np
import pytest

from schromag.errors import InputError
from schromag.linalg import direct_solve
from schromag.pde import (
    MIXED,
    ROBIN,
    ZERO,
    biharmonic_1d,
    biharmonic_2d,
    helmholtz_1d,
    helmholtz_2d,
    laplacian_1d,
    make_problem,
    sine_mode_oracle,
    two_stage_oracle,
)
from schromag.presets import PDE_PRESET_NAMES, pde_preset


class TestHelmholtz1d:
    def test_zero_bc_matrix(self):
        sys = helmholtz_1d(3, 0.0, "sine23")
        assert np.allclose(sys.a, laplacian_1d(3))
        h = 0.25
        xs = h * np.arange(1, 4)
        f = 2 * np.sin(2 * np.pi * xs) + 3 * np.sin(3 * np.pi * xs)
        assert np.allclose(sys.b, h * h * f)

    def test_wavenumber_shifts_diagonal(self):
        sys = helmholtz_1d(3, 2.0, "sine23")
        assert np.allclose(np.diag(sys.a), -1.75)

    def test_robin_corner_unit_coefficient(self):
        sys = helmholtz_1d(5, 2.0, "cos2", (ROBIN, 1.0))
        h = 1.0 / 6.0
        assert sys.a[0, 0] == pytest.approx(-(1 + 2 * h))
        assert sys.a[0, 1] == 1.0
        assert sys.a[1, 0] == 1.0
        assert sys.b[0] == 0.0
        assert sys.n == 6

    def test_robin_complex_coefficient(self):
        sys = helmholtz_1d(16, 2.0, "cos2", (ROBIN, 2j))
        h = 1.0 / 17.0
        assert sys.a[0, 0] == pytest.approx(-(1 + 4j * h))

    def test_symmetry_zero_bc(self):
        sys = helmholtz_1d(8, 2.0, "sine23")
        assert np.max(np.abs(sys.a - sys.a.T)) < 1e-14

    def test_sine_mode_oracle_agreement(self):
        for n, k in ((16, 2.0), (32, 2.0), (32, 4.0)):
            sys = helmholtz_1d(n, k, "sine23")
            got = direct_solve(sys)
            expect = sine_mode_oracle(n, k, {2: 2.0, 3: 3.0})
            assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_mesh_refinement_second_order(self):
        # error against the continuum closed form shrinks ~h^2; with
        # h = 1/(n+1) the n -> 2n ratio sits near ((2n+1)/(n+1))^2 ~ 3.8
        k = 2.0

        def continuum_error(n):
            sys = helmholtz_1d(n, k, "sine23")
            u = direct_solve(sys)
            xs = np.arange(1, n + 1) / (n + 1)
            exact = 2 * np.sin(2 * np.pi * xs) / (k**2 - 4 * np.pi**2) + 3 * np.sin(
                3 * np.pi * xs
            ) / (k**2 - 9 * np.pi**2)
            return np.max(np.abs(u - exact))

        e16, e32, e64 = (continuum_error(n) for n in (16, 32, 64))
        assert 2.5 <= e16 / e32 <= 5.5
        assert 2.5 <= e32 / e64 <= 5.5

    def test_rejects_small_n_and_bad_boundary(self):
        with pytest.raises(ValueError):
            helmholtz_1d(2, 1.0, "sine23")
        with pytest.raises(InputError):
            helmholtz_1d(5, 1.0, "sine23", ("neumann",))


class TestHelmholtz2d:
    def test_zero_bc_diagonal(self):
        sys = helmholtz_2d(3, 0.0, "sine23_diag")
        assert np.allclose(np.diag(sys.a), -4.0)

    def test_k_shift(self):
        sys = helmholtz_2d(3, 1.0, "sine23_diag")
        h = 0.25
        assert np.allclose(np.diag(sys.a), -4.0 + h * h)

    def test_zero_forcing_zero_solution(self):
        sys = helmholtz_2d(4, 1.0, lambda x, y: 0.0 * x)
        assert np.allclose(direct_solve(sys), 0.0)

    def test_brute_force_assembly(self):
        n = 3
        sys = helmholtz_2d(n, 0.0, "sine23_diag")
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

    def test_forcing_layout_x_fast(self):
        n = 3
        sys = helmholtz_2d(n, 0.0, lambda x, y: x + 10 * y)
        h = 0.25
        # index i + n*j holds f(x_{i+1}, y_{j+1})
        assert sys.b[1] == pytest.approx(h * h * (2 * h + 10 * h))
        assert sys.b[n] == pytest.approx(h * h * (h + 20 * h))

    def test_robin_extension(self):
        n = 4
        sys = helmholtz_2d(n, 1.0, "cos2_diag", (ROBIN, 2j))
        assert sys.n == (n + 1) ** 2
        h = 1.0 / (n + 1)
        # pure corner node (x0, y0): two 1d corner contributions, no k^2
        assert sys.a[0, 0] == pytest.approx(2 * -(1 + 4j * h))
        # interior node keeps the five-point diagonal plus k^2 h^2
        interior = (n + 1) + 1
        assert sys.a[interior, interior] == pytest.approx(-4 + h * h)
        assert sys.b[0] == 0.0


class TestBiharmonic1d:
    def test_zero_forcing(self):
        sys = biharmonic_1d(4, lambda x: 0.0 * x)
        assert np.allclose(direct_solve(sys), 0.0)

    def test_block_layout(self):
        n = 4
        sys = biharmonic_1d(n, "sine23")
        h = 0.2
        assert np.allclose(sys.a[:n, n:], -h * h * np.eye(n))
        assert np.allclose(sys.a[n:, :n], 0.0)
        assert np.allclose(sys.a[:n, :n], sys.a[n:, n:])

    def test_two_stage_elimination_oracle(self):
        problem = make_problem("biharmonic1d", 16, 0.0, "sine23", (ZERO,))
        got = direct_solve(problem.system)
        expect = two_stage_oracle(problem)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_mixed_boundary_rhs_adjustment(self):
        n = 8
        zero = biharmonic_1d(n, "cos2")
        mixed = biharmonic_1d(n, "cos2", (MIXED, 2.0))
        diff = mixed.b - zero.b
        assert diff[n] == pytest.approx(-2.0)
        assert np.count_nonzero(diff) == 1

    def test_mixed_boundary_consistency(self):
        # ghost value v(0) = 2 moved to the rhs must equal solving the
        # v-system with the ghost column applied explicitly
        n = 8
        h = 1.0 / (n + 1)
        mixed = biharmonic_1d(n, "cos2", (MIXED, 2.0))
        w = direct_solve(mixed)
        lap = laplacian_1d(n)
        xs = h * np.arange(1, n + 1)
        f = 2 * np.cos(2 * np.pi * xs)
        rhs_v = h * h * f.astype(complex)
        rhs_v[0] -= 2.0
        v = np.linalg.solve(lap, rhs_v)
        u = np.linalg.solve(lap, h * h * v)
        assert np.allclose(w[:n], u, atol=1e-10)


class TestBiharmonic2d:
    def test_zero_forcing(self):
        sys = biharmonic_2d(3, lambda x, y: 0.0 * x)
        assert np.allclose(direct_solve(sys), 0.0)

    def test_diagonal_blocks_match_helmholtz(self):
        n = 4
        bi = biharmonic_2d(n, "sine23_diag")
        he = helmholtz_2d(n, 0.0, "sine23_diag")
        nn = n * n
        assert np.allclose(bi.a[:nn, :nn], he.a)
        assert np.allclose(bi.a[nn:, nn:], he.a)

    def test_two_stage_elimination_oracle(self):
        problem = make_problem("biharmonic2d", 8, 0.0, "sine23_diag", (ZERO,))
        got = direct_solve(problem.system)
        expect = two_stage_oracle(problem)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_mixed_boundary_edge_adjustment(self):
        n = 4
        zero = biharmonic_2d(n, "cos2_diag")
        mixed = biharmonic_2d(n, "cos2_diag", (MIXED, 2.0))
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
            u = direct_solve(problem.system)
            assert np.all(np.isfinite(u.real))
            assert 0.0 < solver.delta < 1.0
            assert solver.n_p >= 8

    def test_nodes_align_with_solution(self):
        for name in ("fig3a", "fig3d", "fig4a", "fig5a", "fig6a"):
            problem, _ = pde_preset(name)
            xs, ys = problem.nodes()
            assert xs.shape[0] == problem.dim
            if problem.family.endswith("2d"):
                assert ys.shape[0] == problem.dim
