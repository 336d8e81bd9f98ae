"""Dense complex linear algebra substrate.

Everything downstream works on validated complex128 arrays: matrices are
2-d row-major, vectors 1-d.  Real input is embedded with zero imaginary
part so a single code path serves both the real and the Robin-boundary
(genuinely complex) problems; `full_svd` and `direct_solve` factor a
matrix with zero imaginary part in real arithmetic.  `svd` takes A's SVD
in closed form from the PDE problem A was assembled from where it has one
(`pde.PdeProblem.svd`), and by the dense `full_svd` otherwise.  Storage
is dense throughout; sparsity only ever enters as a nonzeros-per-row
count for the cost estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SingularMatrixError

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
        raise InputError(f"expected a square matrix, got shape {m.shape}")
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
            raise InputError(
                f"matrix rows {self.a.shape[0]} != rhs length {self.b.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.a.shape[1]


def block_expm_apply(blocks, v, t) -> np.ndarray:
    """exp(M t) v for a block-diagonal real M, in closed form per block.

    `blocks` is the (n, k, k) stack of the diagonal blocks of M (k = 1 or
    2) and `v` the (n, k) matching pieces of the vector.  A 2x2 block with
    tau = tr/2 and eigenvalues tau +- d (d^2 = tau^2 - det) has

        exp(M t) = e^{tau t} (C I + S (M - tau I)),

    C = cosh(d t), S = sinh(d t)/d for d^2 > 0 and C = cos(w t),
    S = sin(w t)/w for d^2 = -w^2 < 0.  The real branch is evaluated as
    e^{(tau+d) t} (1 + q/2) and -e^{(tau+d) t} q/(2d), q = expm1(-2 d t): no
    factor exceeds 1 when the eigenvalues have nonpositive real parts, and
    S keeps its accuracy as d -> 0.  At d = 0 (a defective or scalar
    block) S = t.  A scalar t gives (n, k), an array of times
    (len(t), n, k).
    """
    blocks = np.asarray(blocks)
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] not in (1, 2) or blocks.shape != v.shape + v.shape[1:]:
        raise ValueError(f"shape mismatch: blocks {blocks.shape} vs vector pieces {v.shape}")
    if not np.isrealobj(blocks):
        raise ValueError("blocks must be real")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    t = t[..., None]
    if v.shape[1] == 1:
        return np.exp(blocks[:, 0, 0] * t)[..., None] * v
    tau = (blocks[:, 0, 0] + blocks[:, 1, 1]) / 2.0
    half_gap = (blocks[:, 0, 0] - blocks[:, 1, 1]) / 2.0
    disc = half_gap**2 + blocks[:, 0, 1] * blocks[:, 1, 0]  # tau^2 - det
    root = np.sqrt(np.abs(disc))
    real = disc > 0.0
    d = np.where(real, root, 0.0)
    lead = np.exp((tau + d) * t)  # e^{tau t} where the roots are complex
    q = np.expm1(-2.0 * d * t)
    c = lead * np.where(real, 1.0 + q / 2.0, np.cos(root * t))
    s = lead * np.where(root == 0.0, t, np.where(real, -q / 2.0, np.sin(root * t))
                        / np.where(root == 0.0, 1.0, root))
    shifted = np.stack([half_gap * v[:, 0] + blocks[:, 0, 1] * v[:, 1],
                        blocks[:, 1, 0] * v[:, 0] - half_gap * v[:, 1]], axis=-1)
    return c[..., None] * v + s[..., None] * shifted


def _real_if_real(a):
    return a.real if np.iscomplexobj(a) and not np.any(a.imag) else a


def full_svd(a) -> tuple:
    """The full SVD (u, s, vh) of the array a; with a zero imaginary part it
    is factored in real arithmetic, about twice as fast, into real u, vh."""
    return np.linalg.svd(_real_if_real(a))


def svd(a, problem=None) -> tuple:
    """A's SVD (u, s descending, vh): in closed form where `problem`, the
    `pde.PdeProblem` A was assembled from, has it (`PdeProblem.svd`), else
    by `full_svd`.  The one place that decides where A's SVD comes from."""
    closed = None if problem is None else problem.svd()
    return full_svd(a) if closed is None else closed


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


def direct_solve(sys: LinearSystem, sigma) -> np.ndarray:
    """Ground-truth solve of A u = b by dense LU, with residual verification.

    A with zero imaginary part is solved by one real LU, with the real and
    imaginary parts of b as two right-hand sides.  The condition and
    ||A||_2 checks come from `sigma`, the singular values of A in any
    order, which the caller already has (the run's SVD, dense or
    closed-form, from `svd`).
    """
    a = _real_if_real(require_square(sys.a))
    s_max, cond = condition_check(sigma)
    if np.iscomplexobj(a):
        u = np.linalg.solve(a, sys.b)
        resid = np.linalg.norm(a @ u - sys.b)
    else:
        rhs = np.stack([sys.b.real, sys.b.imag], axis=1)
        parts = np.linalg.solve(a, rhs)
        u = parts[:, 0] + 1j * parts[:, 1]
        resid = np.linalg.norm(a @ parts - rhs)  # the Frobenius norm is the complex 2-norm
    bound = SOLVE_RESIDUAL_TOL * (s_max * np.linalg.norm(u) + np.linalg.norm(sys.b))
    if resid > bound:
        raise SingularMatrixError(
            f"solve residual {resid:.3e} exceeds bound {bound:.3e} (cond ~ {cond:.3e})",
            condition=cond,
        )
    return u

