"""Dense reference realization of the momentum chain, for the tests.

The package runs the chain one-step map -> ODE -> homogenization ->
Hermitian split -> warped phase -> readout only on the per-singular-value
core (`mag.SpectralSystem`, `schrod.PairSystem`).  This module keeps the
dense version of every link as the oracle the tests compare that core
against: the 2n x 2n map (H, F) and its LU steady state, the homogenized
4n x 4n generator, its split and the slicing of the split into n x n
blocks, and the per-mode evolution by Hermitian eigendecomposition with
both readouts (the single-point one only here).  It also holds the check
of a block-encoding state-preparation pair against its coefficients.  No
module of the package imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from schromag.blockenc import StatePrepPair
from schromag.errors import EncodingError, InputError
from schromag.linalg import (LinearSystem, as_cmatrix, as_cvector, direct_solve,
                             require_square, singular_values)
from schromag.mag import MagParams, i_minus_h_singular_values, params_from_sigma
from schromag.schrod import (_CHUNK_ENTRIES, DEFAULT_TAIL_TOL, RIGHT_MARGIN, PGrid,
                             _check_forcing_scale, build_grid_from_rate, envelope,
                             readout_weights, recovery_index)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def skew_part_over_i(m: np.ndarray) -> np.ndarray:
    """The Hermitian matrix h2 with m = hermitian_part(m) + 1j*h2."""
    return (m - m.conj().T) / 2.0j


def params_from_matrix(a, safety: float = 1.0) -> MagParams:
    """Bounds taken from the actual singular values of a, widened by `safety`."""
    return params_from_sigma(singular_values(a), safety)


@dataclass(frozen=True)
class TransformedSystem:
    """The pair (H, F) of the transformed one-step map, plus provenance."""

    h: np.ndarray
    f: np.ndarray
    n: int
    params: MagParams
    a: np.ndarray
    b: np.ndarray

    def reconstruct_h(self) -> np.ndarray:
        """Rebuild H from the stored A and parameters (invariant check)."""
        return _h_blocks(self.a, self.params)

    def step(self, w: np.ndarray) -> np.ndarray:
        return self.h @ w + self.f

    def hermitian_gap(self) -> float:
        """Largest eigenvalue of (H + H^H)/2 - I; negative for valid builds."""
        m = hermitian_part(self.h) - np.eye(2 * self.n)
        return float(np.max(np.linalg.eigvalsh(m)))


def _h_blocks(a: np.ndarray, p: MagParams) -> np.ndarray:
    n = a.shape[0]
    ah = a.conj().T
    c = math.sqrt(p.alpha * p.beta)
    h = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    h[:n, :n] = np.eye(n) - p.alpha * (ah @ a)
    h[:n, n:] = -c * ah
    h[n:, :n] = c * a
    h[n:, n:] = p.beta * np.eye(n)
    return h


def build_transformed(a, b, params: MagParams) -> TransformedSystem:
    a = require_square(as_cmatrix(a))
    b = as_cvector(b)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"rhs length {b.shape[0]} != matrix dimension {n}")
    h = _h_blocks(a, params)
    f = np.zeros(2 * n, dtype=np.complex128)
    f[:n] = params.alpha * (a.conj().T @ b)
    return TransformedSystem(h=h, f=f, n=n, params=params, a=a, b=b)


def steady_state(sys: TransformedSystem) -> np.ndarray:
    """Fixed point (I - H)^{-1} F by one LU solve of the 2n x 2n system, the
    dense reference of `SpectralSystem.steady_state`.  First block equals
    (1-beta) times the least-squares solution; for invertible square A
    the second block equals sqrt(alpha*beta) b.
    """
    m = np.eye(2 * sys.n) - sys.h
    sigma = i_minus_h_singular_values(sys.params, singular_values(sys.a))
    return direct_solve(LinearSystem(m, sys.f), sigma)


def to_ode(sys: TransformedSystem) -> tuple[np.ndarray, np.ndarray]:
    """Continuous form of the one-step map with unit step: (H - I, F)."""
    return sys.h - np.eye(2 * sys.n), sys.f.copy()


@dataclass(frozen=True)
class HomogenizedSystem:
    h_homo: np.ndarray
    gamma_f: float
    w0_homo: np.ndarray


def homogenize(generator, drive, gamma_f: float, w0=None) -> HomogenizedSystem:
    """Absorb the constant drive into extra state: [[G, gamma_f I], [0, 0]].

    The appended block starts at drive/gamma_f and stays constant, so the
    top block reproduces the inhomogeneous ODE exactly.
    """
    generator = require_square(as_cmatrix(generator))
    drive = as_cvector(drive)
    m = generator.shape[0]
    if drive.shape[0] != m:
        raise ValueError("drive dimension mismatch")
    _check_forcing_scale(gamma_f)
    if w0 is None:
        w0 = np.zeros(m, dtype=np.complex128)
    w0 = as_cvector(w0)
    if w0.shape[0] != m:
        raise ValueError("w0 dimension mismatch")
    h_homo = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    h_homo[:m, :m] = generator
    h_homo[:m, m:] = gamma_f * np.eye(m)
    return HomogenizedSystem(
        h_homo=h_homo,
        gamma_f=gamma_f,
        w0_homo=np.concatenate([w0, drive / gamma_f]),
    )


@dataclass(frozen=True)
class HermitianSplit:
    h1: np.ndarray
    h2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.h1 + 1j * self.h2


def split(hs: HomogenizedSystem) -> HermitianSplit:
    return HermitianSplit(h1=hermitian_part(hs.h_homo), h2=skew_part_over_i(hs.h_homo))


def p_threshold(h1, t: float) -> float:
    """Readout threshold max(lambda_max(h1) * t, 0)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam = float(np.max(np.linalg.eigvalsh(as_cmatrix(h1))))
    return max(lam * t, 0.0)


def build_grid(h1, t_end: float, n_p: int, tail_tol: float = DEFAULT_TAIL_TOL,
               p_left: float | None = None,
               right_margin: float = RIGHT_MARGIN) -> PGrid:
    """build_grid_from_rate with the rate lambda_max(h1) of a dense split.

    p_left = ln(tail_tol) unless given explicitly: a short domain, where
    psi(p_left) is (1 + 2L + 2L^2) tail_tol for L = -p_left (221 tail_tol
    at the default).
    """
    if p_left is None:
        if not (0.0 < tail_tol < 1.0):
            raise InputError("tail_tol must be in (0,1)")
        p_left = math.log(tail_tol)
    rate = float(np.max(np.linalg.eigvalsh(as_cmatrix(h1))))
    return build_grid_from_rate(rate, t_end, n_p, p_left, right_margin)


@dataclass
class SchrodState:
    """Fourier-space field: modes[l] is the 2m-vector of mode l at `time`."""

    grid: PGrid
    modes: np.ndarray  # (n_p, 2m)
    time: float

    def fourier_norm(self) -> float:
        return float(np.linalg.norm(self.modes))

    def field(self) -> np.ndarray:
        return np.fft.ifft(self.modes, axis=0)


def warped_initial_field(grid: PGrid, w0_homo: np.ndarray) -> np.ndarray:
    return envelope(grid.points)[:, None] * w0_homo[None, :]


def evolve(hs: HermitianSplit, grid: PGrid, w0_homo, t: float) -> SchrodState:
    """Evolve every Fourier mode by exp(-1j*(theta*h1 - h2)*t).

    Exact per-mode via Hermitian eigendecomposition, batched over modes;
    the Fourier-space norm is preserved up to eigensolver rounding.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    w0_homo = as_cvector(w0_homo)
    d = w0_homo.shape[0]
    if hs.h1.shape[0] != d:
        raise ValueError("state dimension mismatch with split")
    modes = np.fft.fft(warped_initial_field(grid, w0_homo), axis=0)
    if t > 0:
        chunk = max(1, _CHUNK_ENTRIES // (d * d))
        for lo in range(0, grid.n_p, chunk):
            hi = min(lo + chunk, grid.n_p)
            th = grid.thetas[lo:hi]
            k = th[:, None, None] * hs.h1[None] - hs.h2[None]
            w, v = np.linalg.eigh(k)
            coef = np.einsum("kji,kj->ki", v.conj(), modes[lo:hi])
            coef *= np.exp(-1j * w * t)
            modes[lo:hi] = np.einsum("kij,kj->ki", v, coef)
    return SchrodState(grid=grid, modes=modes, time=t)


def _top_block(vec: np.ndarray) -> np.ndarray:
    return vec[: vec.shape[0] // 2]


def single_point_weights(grid: PGrid, p_diamond: float) -> np.ndarray:
    """The single-point readout as grid weights: e^{p_k*} on the first
    admissible point k* (`recovery_index`), zero elsewhere."""
    k_star = recovery_index(grid, p_diamond)
    w = np.zeros(grid.n_p)
    w[k_star] = math.exp(grid.points[k_star])
    return w


def recover_single_point(state, h1) -> np.ndarray:
    """e^{p_k*} field(t, p_k*), state block, at the first admissible point."""
    w = single_point_weights(state.grid, p_threshold(h1, state.time))
    return _top_block(w @ state.field())


def recover_integral(state, h1) -> np.ndarray:
    """Trapezoid readout e^{p*} int_{p*}^{P} field dq, state block."""
    advect = float(np.max(np.abs(np.linalg.eigvalsh(as_cmatrix(h1))))) * state.time
    w, _ = readout_weights(state.grid, p_threshold(h1, state.time), advect)
    return _top_block(w @ state.field())


@dataclass(frozen=True)
class HomoBlocks:
    """n x n blocks of the split homogenized generator, zero blocks dropped."""

    h1_blocks: dict
    h2_blocks: dict
    n: int


def decompose_homo(hsplit, n: int) -> HomoBlocks:
    """Slice h1 (and h2) of a 4n-dimensional split into labeled blocks.

    Reassembly of the returned blocks reproduces the inputs exactly.
    Hermiticity forces the (i,j) and (j,i) blocks to be mutual adjoints,
    so antisymmetric couplings can only ever appear in h2.
    """
    h1 = as_cmatrix(hsplit.h1)
    h2 = as_cmatrix(hsplit.h2)
    if h1.shape[0] != 4 * n:
        raise ValueError(f"dimension {h1.shape[0]} is not 4*{n}")

    def blocks_of(mat):
        out = {}
        for i in range(4):
            for j in range(4):
                blk = mat[i * n : (i + 1) * n, j * n : (j + 1) * n]
                if np.any(blk != 0):
                    out[(i, j)] = blk.copy()
        return out

    return HomoBlocks(h1_blocks=blocks_of(h1), h2_blocks=blocks_of(h2), n=n)


def reassemble_blocks(blocks: dict, n: int) -> np.ndarray:
    m = np.zeros((4 * n, 4 * n), dtype=np.complex128)
    for (i, j), blk in blocks.items():
        m[i * n : (i + 1) * n, j * n : (j + 1) * n] = blk
    return m


def verify_state_prep(pair: StatePrepPair, y) -> float:
    """||beta conj(c) d - y||_1 over the first columns c, d of the pair;
    EncodingError beyond its claim, or where past len(y) the overlaps are
    not zero."""
    y = np.asarray(y, dtype=float)
    c = pair.p_l[:, 0]
    d = pair.p_r[:, 0]
    overlaps = pair.beta * np.conj(c) * d
    measured = float(np.sum(np.abs(overlaps[: y.size] - y)))
    tail = float(np.max(np.abs(overlaps[y.size :]), initial=0.0))
    if measured > pair.eps + 1e-12 or tail > 1e-12:
        raise EncodingError(
            f"state-preparation pair off by {measured:.3e} (tail {tail:.3e})",
            measured=measured,
            claimed=pair.eps,
        )
    return measured
