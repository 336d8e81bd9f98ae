"""Dense complex linear algebra substrate.

Everything downstream works on validated complex128 arrays: matrices are
2-d row-major, vectors 1-d.  Real input is embedded with zero imaginary
part so a single code path serves both the real and the Robin-boundary
(genuinely complex) problems.  Storage is dense throughout; sparsity only
ever enters as a nonzeros-per-row count for the cost estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularMatrixError

EIG_RESIDUAL_TOL = 1e-10
SOLVE_RESIDUAL_TOL = 1e-10
MAX_CONDITION = 1.0 / (100.0 * np.finfo(float).eps)


def as_cmatrix(a) -> np.ndarray:
    """Validate and return a as a complex128 matrix (copies if needed)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def as_cvector(v) -> np.ndarray:
    m = np.asarray(v, dtype=np.complex128)
    if m.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("vector entries must be finite")
    return m


def require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class LinearSystem:
    """The problem A u = b."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_cmatrix(self.a))
        object.__setattr__(self, "b", as_cvector(self.b))
        if self.a.shape[0] != self.b.shape[0]:
            raise ValueError(
                f"matrix rows {self.a.shape[0]} != rhs length {self.b.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray
    vectors: np.ndarray  # columns are eigenvectors


@dataclass(frozen=True)
class SvdResult:
    u: np.ndarray
    sigma: np.ndarray  # descending
    vh: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.vh


def kron(a, b) -> np.ndarray:
    """Kronecker product of two validated matrices."""
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def expm_apply(m, v, t: float) -> np.ndarray:
    """Return exp(m*t) @ v.

    Pade scaling-and-squaring underneath; accurate to ~1e-13 relative at
    the scales used here, well inside the 1e-10 contract.
    """
    m = require_square(as_cmatrix(m))
    v = as_cvector(v)
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"shape mismatch: {m.shape} vs {v.shape}")
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    import scipy.linalg  # deferred: only expm needs scipy, and it costs ~0.3 s to import

    return scipy.linalg.expm(m * t) @ v


def singular_values(a) -> np.ndarray:
    """Singular values of a, descending, without singular vectors.

    A caller that needs several spectral quantities of one matrix (the
    MAG bounds, the radius guard, the steady-state and oracle checks)
    computes this once and passes it on, so the matrix is factored once.
    """
    return np.linalg.svd(as_cmatrix(a), compute_uv=False)


def condition_check(sigma) -> tuple[float, float]:
    """(sigma_max, cond); SingularMatrixError if cond exceeds MAX_CONDITION."""
    sigma = np.asarray(sigma, dtype=float)
    s_max, s_min = float(np.max(sigma)), float(np.min(sigma))
    cond = np.inf if s_min == 0.0 else s_max / s_min
    if cond > MAX_CONDITION:
        raise SingularMatrixError(
            f"matrix is singular to working tolerance (cond ~ {cond:.3e})",
            condition=cond,
        )
    return s_max, cond


def direct_solve(sys: LinearSystem, sigma=None) -> np.ndarray:
    """Ground-truth solve of A u = b with residual verification.

    The condition and ||A||_2 checks come from `sigma`, the singular
    values of A in any order, when the caller already has them (for a
    structured matrix they may be known in closed form); otherwise A is
    factored here.
    """
    a = require_square(sys.a)
    s_max, cond = condition_check(singular_values(a) if sigma is None else sigma)
    u = np.linalg.solve(a, sys.b)
    resid = np.linalg.norm(a @ u - sys.b)
    bound = SOLVE_RESIDUAL_TOL * (s_max * np.linalg.norm(u) + np.linalg.norm(sys.b))
    if resid > bound:
        raise SingularMatrixError(
            f"solve residual {resid:.3e} exceeds bound {bound:.3e} (cond ~ {cond:.3e})",
            condition=cond,
        )
    return u


def eig(m) -> EigenResult:
    """Eigendecomposition with a per-pair residual check."""
    m = require_square(as_cmatrix(m))
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    scale = np.linalg.norm(m, 2)
    if scale > 0:
        resid = np.linalg.norm(m @ vectors - vectors * values, axis=0)
        norms = np.linalg.norm(vectors, axis=0)
        worst = float(np.max(resid / (scale * norms)))
        if worst > EIG_RESIDUAL_TOL:
            raise ConvergenceError(
                f"eigenpair residual {worst:.3e} exceeds {EIG_RESIDUAL_TOL:.1e}",
                residual=worst,
            )
    return EigenResult(values=values, vectors=vectors)


def svd(m) -> SvdResult:
    """SVD with a reconstruction check (1e-10 relative)."""
    m = as_cmatrix(m)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"svd did not converge: {exc}") from exc
    res = SvdResult(u=u[:, : s.size], sigma=s, vh=vh[: s.size, :])
    scale = s[0] if s.size and s[0] > 0 else 1.0
    err = np.linalg.norm(res.reconstruct() - m, 2) / scale
    if err > 1e-10:
        raise ConvergenceError(f"svd reconstruction error {err:.3e}", residual=err)
    return res


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def skew_part_over_i(m: np.ndarray) -> np.ndarray:
    """The Hermitian matrix h2 with m = hermitian_part(m) + 1j*h2."""
    return (m - m.conj().T) / 2.0j


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))
