"""Finite-difference test problems: Helmholtz and biharmonic, 1d and 2d.

Conventions: n counts interior unknowns per dimension, h = 1/(n+1),
forcing is sampled at interior nodes, 2d vectors stack columns of the
node grid (x index fastest).  The Robin extension prepends the boundary
node with corner entry -(1+2hc) and unit coupling; accuracy claims are
always relative to the assembled matrix, which the oracles solve too.
"""

from __future__ import annotations

import math
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


def forcing_fn(forcing):
    if callable(forcing):
        return forcing
    try:
        return FORCINGS[forcing]
    except KeyError:
        raise InputError(f"unknown forcing preset {forcing!r}") from None


def laplacian_1d(n: int) -> np.ndarray:
    """Second-derivative difference matrix tridiag(1, -2, 1)."""
    m = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    return m.astype(np.complex128)


def _check_n(n: int):
    if n < 3:
        raise ValueError(f"need n >= 3 interior points, got {n}")


def helmholtz_1d(n: int, k: float, forcing, boundary=(ZERO,)) -> LinearSystem:
    """(L_h + k^2 h^2 I) u = h^2 f, optionally Robin-extended at x=0."""
    _check_n(n)
    h = 1.0 / (n + 1)
    xs = h * np.arange(1, n + 1)
    f = forcing_fn(forcing)(xs)
    a = laplacian_1d(n) + (k * h) ** 2 * np.eye(n)
    b = h * h * np.asarray(f, dtype=np.complex128)
    if boundary[0] == ZERO:
        return LinearSystem(a, b)
    if boundary[0] == ROBIN:
        c = boundary[1]
        ext = np.zeros((n + 1, n + 1), dtype=np.complex128)
        ext[0, 0] = -(1.0 + 2.0 * h * c)
        ext[0, 1] = 1.0
        ext[1, 0] = 1.0
        ext[1:, 1:] = a
        return LinearSystem(ext, np.concatenate([[0.0], b]))
    raise InputError(f"unknown boundary {boundary!r} for helmholtz1d")


def _robin_stencil_1d(n: int, c) -> np.ndarray:
    """Extended pure-Laplacian stencil used by the 2d Robin assembly."""
    h = 1.0 / (n + 1)
    ext = np.zeros((n + 1, n + 1), dtype=np.complex128)
    ext[0, 0] = -(1.0 + 2.0 * h * c)
    ext[0, 1] = 1.0
    ext[1, 0] = 1.0
    ext[1:, 1:] = laplacian_1d(n)
    return ext


def helmholtz_2d(n: int, k: float, forcing, boundary=(ZERO,)) -> LinearSystem:
    """Five-point Laplacian plus k^2 h^2 on the interior diagonal."""
    _check_n(n)
    h = 1.0 / (n + 1)
    f = forcing_fn(forcing)
    if boundary[0] == ZERO:
        xs = h * np.arange(1, n + 1)
        lap = laplacian_1d(n)
        eye = np.eye(n)
        a = np.kron(eye, lap) + np.kron(lap, eye) + (k * h) ** 2 * np.eye(n * n)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")  # x fastest after F-ravel
        b = h * h * f(gx, gy).ravel(order="F").astype(np.complex128)
        return LinearSystem(a, b)
    if boundary[0] == ROBIN:
        c = boundary[1]
        stencil = _robin_stencil_1d(n, c)
        eye = np.eye(n + 1)
        mask = np.ones(n + 1)
        mask[0] = 0.0  # boundary node carries no k^2 term, matching 1d
        a = (
            np.kron(eye, stencil)
            + np.kron(stencil, eye)
            + (k * h) ** 2 * np.diag(np.kron(mask, mask))
        )
        xs = h * np.arange(0, n + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        vals = h * h * f(gx, gy)
        vals[0, :] = 0.0
        vals[:, 0] = 0.0
        return LinearSystem(a, vals.ravel(order="F").astype(np.complex128))
    raise InputError(f"unknown boundary {boundary!r} for helmholtz2d")


def biharmonic_1d(n: int, forcing, boundary=(ZERO,)) -> LinearSystem:
    """Coupled form [[L_h, -h^2 I], [0, L_h]] [u; v] = [0; h^2 f].

    The mixed variant prescribes u''(0), which lands on the rhs of the
    first v equation (ascending node order).
    """
    _check_n(n)
    h = 1.0 / (n + 1)
    xs = h * np.arange(1, n + 1)
    f = forcing_fn(forcing)(xs)
    lap = laplacian_1d(n)
    a = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    a[:n, :n] = lap
    a[:n, n:] = -h * h * np.eye(n)
    a[n:, n:] = lap
    b = np.zeros(2 * n, dtype=np.complex128)
    b[n:] = h * h * np.asarray(f)
    if boundary[0] == MIXED:
        b[n] -= boundary[1]
    elif boundary[0] != ZERO:
        raise InputError(f"unknown boundary {boundary!r} for biharmonic1d")
    return LinearSystem(a, b)


def biharmonic_2d(n: int, forcing, boundary=(ZERO,)) -> LinearSystem:
    """Block Kronecker form with -h^2 coupling between u and v = lap(u)."""
    _check_n(n)
    h = 1.0 / (n + 1)
    xs = h * np.arange(1, n + 1)
    lap = laplacian_1d(n)
    eye = np.eye(n)
    m2 = np.kron(eye, lap) + np.kron(lap, eye)
    nn = n * n
    a = np.zeros((2 * nn, 2 * nn), dtype=np.complex128)
    a[:nn, :nn] = m2
    a[:nn, nn:] = -h * h * np.eye(nn)
    a[nn:, nn:] = m2
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    b = np.zeros(2 * nn, dtype=np.complex128)
    b[nn:] = h * h * forcing_fn(forcing)(gx, gy).ravel(order="F")
    if boundary[0] == MIXED:
        # v ghost value on the x=0 edge enters the v rows of nodes (1, j)
        for j in range(n):
            b[nn + n * j] -= boundary[1]
    elif boundary[0] != ZERO:
        raise InputError(f"unknown boundary {boundary!r} for biharmonic2d")
    return LinearSystem(a, b)


FAMILIES = {
    "helmholtz1d": helmholtz_1d,
    "helmholtz2d": helmholtz_2d,
    "biharmonic1d": biharmonic_1d,
    "biharmonic2d": biharmonic_2d,
}


@dataclass(frozen=True)
class PdeProblem:
    family: str
    n: int
    k: float
    boundary: tuple
    forcing: str
    h: float
    system: LinearSystem

    @property
    def dim(self) -> int:
        return self.system.n

    def nodes(self):
        """(xs, ys) coordinates of the unknowns, ys None in 1d."""
        h = self.h
        if self.family == "helmholtz1d":
            start = 0 if self.boundary[0] == ROBIN else 1
            return h * np.arange(start, self.n + 1), None
        if self.family == "biharmonic1d":
            xs = h * np.arange(1, self.n + 1)
            return np.concatenate([xs, xs]), None
        if self.family == "helmholtz2d":
            start = 0 if self.boundary[0] == ROBIN else 1
            ax = h * np.arange(start, self.n + 1)
            gx, gy = np.meshgrid(ax, ax, indexing="ij")
            return gx.ravel(order="F"), gy.ravel(order="F")
        ax = h * np.arange(1, self.n + 1)
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        xs = gx.ravel(order="F")
        ys = gy.ravel(order="F")
        return np.concatenate([xs, xs]), np.concatenate([ys, ys])

    def solution_block(self, w: np.ndarray) -> np.ndarray:
        """The u unknowns (biharmonic systems also carry v = lap u)."""
        if self.family.startswith("biharmonic"):
            return w[: self.dim // 2]
        return w


def make_problem(family: str, n: int, k: float, forcing, boundary) -> PdeProblem:
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise InputError(f"unknown family {family!r}") from None
    if family.startswith("helmholtz"):
        system = builder(n, k, forcing, boundary)
    else:
        system = builder(n, forcing, boundary)
    return PdeProblem(
        family=family,
        n=n,
        k=k,
        boundary=boundary,
        forcing=forcing if isinstance(forcing, str) else "custom",
        h=1.0 / (n + 1),
        system=system,
    )


def two_stage_oracle(problem: PdeProblem) -> np.ndarray:
    """Biharmonic check: solve L v = h^2 f, then L u = h^2 v, zero boundary."""
    if not problem.family.startswith("biharmonic"):
        raise ValueError("two-stage oracle applies to biharmonic systems")
    if problem.boundary[0] != ZERO:
        raise ValueError("two-stage oracle assumes the zero boundary")
    sysm = problem.system
    half = problem.dim // 2
    lap = sysm.a[half:, half:]
    v = np.linalg.solve(lap, sysm.b[half:])
    u = np.linalg.solve(lap, problem.h**2 * v)
    return np.concatenate([u, v])


def sine_mode_oracle(n: int, k: float, coeffs: dict) -> np.ndarray:
    """Zero-boundary 1d Helmholtz solution for forcing sum_m c_m sin(m pi x).

    sin(m pi x) sampled at the interior nodes is an eigenvector of the
    assembled matrix, so the discrete solution is the coefficient-wise
    rescaling by the discrete eigenvalue of L_h + k^2 h^2.
    """
    h = 1.0 / (n + 1)
    xs = h * np.arange(1, n + 1)
    u = np.zeros(n, dtype=np.complex128)
    for m, c in coeffs.items():
        lam = -4.0 * math.sin(m * math.pi * h / 2.0) ** 2 + (k * h) ** 2
        u += c * h * h * np.sin(m * np.pi * xs) / lam
    return u
