"""Finite-difference test problems: Helmholtz and biharmonic, 1d and 2d.

Every family is assembled by `make_problem` from one axis.  The axis is
the second-difference stencil tridiag(1, -2, 1) on the n interior nodes,
h = 1/(n+1); a Robin boundary prepends the x=0 node with corner entry
-(1+2hc) and unit coupling.  The 2d operator is the Kronecker sum of the
axis with itself, unknowns stacked x fastest.  Every node carries the
forcing h^2 f and, for Helmholtz, k^2 h^2 on its diagonal, except a
Robin node, which carries neither.  Biharmonic places the operator L
twice in [[L, -h^2 I], [0, L]] [u; v] = [0; h^2 f]; its mixed boundary
prescribes u'' at x=0, which moves to the rhs of the v rows on the x=0
edge.  Accuracy claims are always relative to the assembled matrix,
which the tests' oracles (`tests/reference.py`) solve too.

Without a Robin node the axis is real symmetric with the sine
eigenpairs, so `PdeProblem.svd` gives A's full SVD in closed form, on
call, with no dense factorization of A: the Kronecker sum has eigenvalues
lambda_a + lambda_b on kron(q_a, q_b), Helmholtz is diagonal in that
basis, and biharmonic splits into one 2x2 block per eigenvalue.  A Robin
axis is complex symmetric and not normal; its A is factored densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import LinearSystem

ZERO = "zero"
ROBIN = "robin"
MIXED = "mixed"  # biharmonic second-derivative boundary value at x=0

FORCINGS = {
    "sine23": lambda x: 2.0 * np.sin(2 * np.pi * x) + 3.0 * np.sin(3 * np.pi * x),
    "cos2": lambda x: 2.0 * np.cos(2 * np.pi * x),
    "sine2": lambda x: 2.0 * np.sin(2 * np.pi * x),
    "sine23_diag": lambda x, y: 2.0 * np.sin(2 * np.pi * (x + y))
    + 3.0 * np.sin(3 * np.pi * (x + y)),
    "cos2_diag": lambda x, y: 2.0 * np.cos(2 * np.pi * (x + y)),
}

# family -> (dimension, the one boundary it takes besides ZERO)
FAMILIES = {
    "helmholtz1d": (1, ROBIN),
    "helmholtz2d": (2, ROBIN),
    "biharmonic1d": (1, MIXED),
    "biharmonic2d": (2, MIXED),
}


def forcing_fn(forcing: str):
    try:
        return FORCINGS[forcing]
    except KeyError:
        raise InputError(f"unknown forcing preset {forcing!r}") from None


def laplacian_1d(n: int) -> np.ndarray:
    """Second-derivative difference matrix tridiag(1, -2, 1)."""
    m = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    return m.astype(np.complex128)


def _axis(n: int, boundary: tuple):
    """(stencil, node coordinates, mask of the nodes carrying k^2 and forcing)."""
    h = 1.0 / (n + 1)
    if boundary[0] != ROBIN:
        return laplacian_1d(n), h * np.arange(1, n + 1), np.ones(n, dtype=bool)
    stencil = np.zeros((n + 1, n + 1), dtype=np.complex128)
    stencil[0, 0] = -(1.0 + 2.0 * h * boundary[1])
    stencil[0, 1] = stencil[1, 0] = 1.0
    stencil[1:, 1:] = laplacian_1d(n)
    mask = np.ones(n + 1, dtype=bool)
    mask[0] = False
    return stencil, h * np.arange(0, n + 1), mask


def _axis_eigenpairs(n: int) -> tuple:
    """(lambda, q) of tridiag(1, -2, 1) on n points: lambda_j =
    -4 sin^2(j pi / (2(n+1))) and the orthonormal eigenvectors
    q[i-1, j-1] = sqrt(2/(n+1)) sin(i j pi/(n+1)), i, j = 1..n."""
    j = np.arange(1, n + 1)
    lam = -4.0 * np.sin(j * (np.pi / (2 * (n + 1)))) ** 2
    # i j reduced modulo the period 2(n+1), so every argument stays below 2 pi
    q = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) % (2 * (n + 1)) * (np.pi / (n + 1)))
    return lam, q


@dataclass(frozen=True)
class PdeProblem:
    family: str
    n: int
    k: float
    boundary: tuple
    forcing: str
    h: float
    system: LinearSystem
    nodes: tuple  # (xs, ys) coordinates of the unknowns, ys None in 1d

    @property
    def dim(self) -> int:
        return self.system.n

    @property
    def solution_size(self) -> int:
        """The number of u unknowns, which lead the unknowns (biharmonic
        systems also carry v = lap u)."""
        return self.dim // 2 if self.family.startswith("biharmonic") else self.dim

    def svd(self):
        """A's full SVD (u, s, vh) in closed form, real, s descending; None
        where the axis has a Robin node.  In the basis of the axis
        eigenpairs (`_axis_eigenpairs`; in 2d lambda_a + lambda_b on
        kron(q_a, q_b)) A is one block per eigenvalue, [lambda + k^2 h^2]
        for Helmholtz and [[lambda, -h^2], [0, lambda]] for biharmonic,
        factored by one batched SVD of the blocks; the 2d mirror pairs give
        bit-equal blocks, so bit-equal s.  The rows of u^T and vh are built
        in the order of s, each from its block's factor and eigenvector, so
        neither is copied into that order afterwards and the 2d eigenvectors
        kron(q, q) are never built whole."""
        if self.boundary[0] == ROBIN:
            return None
        lam, q = _axis_eigenpairs(self.n)
        two_d = FAMILIES[self.family][0] == 2
        if two_d:  # the Kronecker sum
            lam = (lam[:, None] + lam).ravel()
        if self.family.startswith("helmholtz"):
            blocks = (lam + (self.k * self.h) ** 2)[:, None, None]
        else:
            blocks = lam[:, None, None] * np.eye(2) + np.array([[0.0, -self.h**2], [0.0, 0.0]])
        bu, s, bvh = np.linalg.svd(blocks)
        s = s.ravel()
        order = np.argsort(-s, kind="stable")
        m, r = lam.size, blocks.shape[-1]
        eig = order // r  # the eigenpair j of each row (j, c), in the order of s
        qt, n = q.T, self.n  # row j of qt: axis eigenvector j
        # row (j, c) of vh is [bvh[j, c, a] q_j for a < r], with q_j the
        # eigenvector j; u^T the same from bu[j, a, c]
        ut, vh = (np.empty((r * m, r, m)) for _ in range(2))
        for f, out in ((bu.transpose(0, 2, 1), ut), (bvh, vh)):
            coef = f.reshape(r * m, r)[order]
            for a in range(r):
                rows = out[:, a]
                if two_d:  # kron(q, q)[:, j], a product of two axis eigenvectors
                    np.multiply(qt[eig // n][:, :, None], qt[eig % n][:, None, :],
                                out=rows.reshape(r * m, n, n))
                else:
                    np.take(qt, eig, axis=0, out=rows)
                rows *= coef[:, a, None]
        return ut.reshape(r * m, r * m).T, s[order], vh.reshape(r * m, r * m)


def make_problem(family: str, n: int, k: float, forcing: str, boundary) -> PdeProblem:
    try:
        dim, other = FAMILIES[family]
    except KeyError:
        raise InputError(f"unknown family {family!r}") from None
    if n < 3:
        raise InputError(f"need n >= 3 interior points, got {n}")
    if boundary[0] not in (ZERO, other):
        raise InputError(f"unknown boundary {boundary!r} for {family}")
    h = 1.0 / (n + 1)
    f = forcing_fn(forcing)
    op, xs, mask = _axis(n, boundary)
    ys = None
    if dim == 2:
        eye = np.eye(xs.size)
        op = np.kron(eye, op) + np.kron(op, eye)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")  # x fastest after F-ravel
        xs, ys = gx.ravel(order="F"), gy.ravel(order="F")
        mask = np.kron(mask, mask)
    rhs = (h * h * (f(xs) if ys is None else f(xs, ys))).astype(np.complex128)
    rhs[~mask] = 0.0  # assigned: a product with mask gives -0.0 for negative f
    if family.startswith("helmholtz"):
        system = LinearSystem(op + (k * h) ** 2 * np.diag(mask), rhs)
    else:
        m = xs.size
        a = np.zeros((2 * m, 2 * m), dtype=np.complex128)
        a[:m, :m] = a[m:, m:] = op
        a[:m, m:] = -h * h * np.eye(m)
        b = np.concatenate([np.zeros(m, dtype=np.complex128), rhs])
        if boundary[0] == MIXED:
            b[m::n] -= boundary[1]  # v rows of the x=0 edge, 1d and 2d
        system = LinearSystem(a, b)
        xs = np.concatenate([xs, xs])
        ys = None if ys is None else np.concatenate([ys, ys])
    return PdeProblem(family, n, k, boundary, forcing, h, system, (xs, ys))
