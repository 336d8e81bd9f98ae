import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schromag.errors import SingularMatrixError
from schromag.linalg import (
    LinearSystem,
    as_cmatrix,
    as_cvector,
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
