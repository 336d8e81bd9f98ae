import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from schromag.errors import SingularMatrixError
from schromag.linalg import (
    LinearSystem,
    as_cmatrix,
    as_cvector,
    block_expm_apply,
    direct_solve,
    full_svd,
)
from schromag.mag import MagParams

from reference import build_transformed


def laplacian(n):
    return -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_cmatrix([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            as_cvector([1.0, np.inf])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            as_cmatrix([1, 2, 3])
        with pytest.raises(ValueError):
            as_cvector([[1], [2]])

    def test_system_dimension_check(self):
        with pytest.raises(ValueError):
            LinearSystem(np.eye(3), [1.0, 2.0])


class TestExpmApply:
    """The closed-form exponential of a block-diagonal generator."""

    def test_zero_generator(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(block_expm_apply(np.zeros((2, 2, 2)), v, 7.5), v)

    def test_scalar_decay(self):
        out = block_expm_apply([[[-1.0]]], [[1.0]], 1.0)
        assert out[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_phase_rotation(self):
        # the real form of e^{i pi}: a rotation by pi
        out = block_expm_apply([[[0.0, -np.pi], [np.pi, 0.0]]], [[1.0, 0.0]], 1.0)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            block_expm_apply(np.zeros((1, 2, 2)), [[1.0, 2.0, 3.0]], 1.0)
        with pytest.raises(ValueError):
            block_expm_apply(np.zeros((1, 2, 2)), [[1.0, 2.0]], np.inf)

    @given(st.integers(2, 10), st.floats(0.1, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_group_law(self, n, t):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, 2, 2))
        v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        full = block_expm_apply(m, v, t)
        halves = block_expm_apply(m, block_expm_apply(m, v, t / 2), t / 2)
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
        got = block_expm_apply([block], [v], t)[0]
        expect = expm(np.array(block) * t) @ v
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)
        if t == 0.0:
            assert np.array_equal(got, v)

    def test_times_stack(self):
        m = np.array([[[0.0, -1.0], [1.0, -0.5]], [[-2.0, 0.0], [0.0, -1.0]]])
        v = np.array([[1.0, 0.0], [1.0, 1.0]])
        times = np.array([0.0, 0.5, 1.5])
        out = block_expm_apply(m, v, times)
        assert out.shape == (3, 2, 2)
        for k, t in enumerate(times):
            assert np.array_equal(out[k], block_expm_apply(m, v, t))

    def test_rejects_complex_blocks(self):
        with pytest.raises(ValueError):
            block_expm_apply([[[1j]]], [[1.0]], 1.0)


class TestDirectSolve:
    def test_identity(self):
        out = direct_solve(LinearSystem(np.eye(2), [1.0, 2.0]), full_svd(np.eye(2))[1])
        assert np.allclose(out, [1.0, 2.0])

    def test_diagonal(self):
        a = np.diag([10.0, 0.1])
        out = direct_solve(LinearSystem(a, [1.0, 1.0]), full_svd(a)[1])
        assert np.allclose(out, [0.1, 10.0])

    def test_tridiagonal_hand_elimination(self):
        a = laplacian(3)
        out = direct_solve(LinearSystem(a, [1.0, 1.0, 1.0]), full_svd(a)[1])
        assert np.allclose(out, [-1.5, -2.0, -1.5])

    def test_singular_reported_with_condition(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError) as err:
            direct_solve(LinearSystem(a, [1.0, 1.0]), full_svd(a)[1])
        assert err.value.condition > 1e14

    @given(st.integers(2, 64))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        a = random_matrix(rng, n) + 3.0 * np.sqrt(n) * np.eye(n)
        x = as_cvector(rng.normal(size=n) + 1j * rng.normal(size=n))
        got = direct_solve(LinearSystem(a, a @ x), full_svd(a)[1])
        assert np.linalg.norm(got - x) <= 1e-9 * np.linalg.norm(x)


class TestEigSvd:
    def test_transformed_spectrum_on_momentum_circle(self):
        # at exact bounds the discriminant vanishes at both spectrum edges
        # and every eigenvalue modulus collapses to sqrt(beta)
        params = MagParams(100.0, 0.01)
        sys = build_transformed(np.diag([10.0, 0.1]), [1.0, 1.0], params)
        mods = np.abs(np.linalg.eig(sys.h)[0])
        assert np.allclose(mods, np.sqrt(params.beta), atol=1e-8)
