"""Dense reference realization of the momentum chain, for the tests.

The package runs the chain one-step map -> ODE -> homogenization ->
Hermitian split -> warped phase -> readout only on the per-singular-value
core (`mag.SpectralSystem`, `schrod.PairSystem`).  This module keeps the
dense version of every link as the oracle the tests compare that core
against: the 2n x 2n map (H, F) and its LU steady state, the steady state of
a comparison flow as a state vector, the damped flow at any damping rate,
the homogenized 4n x 4n generator, its split and the slicing of the split
into n x n blocks, and the per-mode evolution by Hermitian
eigendecomposition with both readouts (the single-point one only here), and
the pair kernel's forcing column by complex exponentials, with the complex
column the package's kernel makes (`pair_column`) to compare.  It also holds
the check of a block-encoding state-preparation pair against its
coefficients, the closed-form PDE solutions the assembled systems are
checked against, and the per-element writers of the field snapshot ('%.16e'
of each value) and of every other text file `io` writes (repr of each
value), the oracles of `floatrepr.format_rows` and of `io.write_rows` and
the writers made from it, which format columns.  No module of the package
imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from schromag.baselines import build_damped
from schromag.blockenc import StatePrepPair
from schromag.errors import EncodingError, InputError
from schromag.linalg import (LinearSystem, as_cmatrix, as_cvector, direct_solve, full_svd,
                             require_square)
from schromag.mag import MagParams, SpectralSystem, _steady_kappa2
from schromag.pde import ZERO, PdeProblem
from schromag.schrod import (_CHUNK_ENTRIES, DEFAULT_TAIL_TOL, RIGHT_MARGIN, PairSystem,
                             PGrid, _apply_pair_modes, build_grid_from_rate, envelope,
                             pair_coupling, readout_weights, recovery_index)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def skew_part_over_i(m: np.ndarray) -> np.ndarray:
    """The Hermitian matrix h2 with m = hermitian_part(m) + 1j*h2."""
    return (m - m.conj().T) / 2.0j


def params_from_sigma(sigma, safety: float = 1.0) -> MagParams:
    """Bounds taken from singular values (descending), widened by `safety`."""
    return MagParams((safety * sigma[0]) ** 2, (sigma[-1] / safety) ** 2)


def params_from_matrix(a, safety: float = 1.0) -> MagParams:
    """Bounds taken from the actual singular values of a, widened by `safety`."""
    return params_from_sigma(full_svd(a)[1], safety)


def spectral_from_factors(b, params: MagParams, factors) -> SpectralSystem:
    """The map in the basis of given factors (u, s, vh) of A, for tests that
    pick the basis inside a repeated singular value themselves;
    `mag.build_spectral` always factors A and picks its own."""
    u, s, vh = factors
    return SpectralSystem(sigma=s, u=u, vh=vh, b_t=u.conj().T @ as_cvector(b), params=params)


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
    dense reference of `SpectralSystem.ode.steady_pairs`, checked for
    singularity by the dense SVD of I - H.  First block equals (1-beta)
    times the least-squares solution; for invertible square A the second
    block equals sqrt(alpha*beta) b.
    """
    m = np.eye(2 * sys.n) - sys.h
    return direct_solve(LinearSystem(m, sys.f), full_svd(m)[1])


def relative_residuals(w_inf: np.ndarray, states) -> list:
    """||(w_n - w_inf) / w_inf|| over its value at n = 0, for each row w_n
    of `states`: one array expression over the whole stack, the reference
    of `mag.solve_spectral`'s relative trace, which reduces the states a
    chunk at a time."""
    err = np.subtract(np.reshape(states, (-1, w_inf.size)), w_inf)
    err /= w_inf
    hats = np.sqrt(np.einsum("ij,ij->i", err.real, err.real)
                   + np.einsum("ij,ij->i", err.imag, err.imag))
    denom = hats[0] if hats.size and hats[0] > 0 else 1.0
    return (hats / denom).tolist()


def relative_trace_from_steady(w_inf: np.ndarray, states) -> tuple[list | None, float]:
    """Componentwise-normalized residual trace of dense states and
    kappa_2(w_inf), the reference of `mag.solve_spectral`'s kappa_2 and
    relative trace: no values and an infinite kappa_2 where a component of
    w_inf sits near zero.  `states` is a sequence of states or their
    (steps, 2n) stack."""
    w_inf = as_cvector(w_inf)
    kappa2 = _steady_kappa2(w_inf)
    if kappa2 == math.inf:
        return None, kappa2
    return relative_residuals(w_inf, states), kappa2


def to_ode(sys: TransformedSystem) -> tuple[np.ndarray, np.ndarray]:
    """Continuous form of the one-step map with unit step: (H - I, F)."""
    return sys.h - np.eye(2 * sys.n), sys.f.copy()


def flow_state(spec: SpectralSystem, w) -> np.ndarray:
    """The state vector [V x; U y] of an (n, 2) state [x_j, y_j] of a
    `mag.FlowSystem` built from `spec`, or V x of the gradient flow's
    (n, 1) state x_j; of each state of a stack too."""
    w = np.asarray(w)
    return spec.solution(w[..., 0]) if w.shape[-1] == 1 else spec.to_state(w)


def flow_steady_state(spec: SpectralSystem, flow) -> np.ndarray:
    """The steady state -M^{-1} g of a `mag.FlowSystem` built from `spec`
    as a state vector (`flow_state`)."""
    return flow_state(spec, flow.steady_pairs())


def damped_flow(spec: SpectralSystem, gamma: float):
    """`baselines.build_damped(spec)` with the damping rate gamma in place
    of the package's GAMMA_PER_SIGMA_MIN sigma_min."""
    flow = build_damped(spec)
    blocks = flow.blocks.copy()
    blocks[:, 1, 1] = -gamma
    return replace(flow, blocks=blocks)


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
    if not (math.isfinite(gamma_f) and gamma_f > 0.0):
        raise ValueError(f"gamma_f must be finite and positive, got {gamma_f}")
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
    psi(p_left) is e^{-2.5L} T_17(4.5L) tail_tol for L = -p_left (783
    tail_tol at the default).
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
            th = grid.thetas(lo, hi)
            k = th[:, None, None] * hs.h1[None] - hs.h2[None]
            w, v = np.linalg.eigh(k)
            coef = np.einsum("kji,kj->ki", v.conj(), modes[lo:hi])
            coef *= np.exp(-1j * w * t)
            modes[lo:hi] = np.einsum("kij,kj->ki", v, coef)
    return SchrodState(grid=grid, modes=modes, time=t)


def apply_pair_modes(pairs: PairSystem, reps, thetas, t: float, slots: int = 4) -> np.ndarray:
    """exp(-iK(theta)t) [0, 0, 1, 0] for every (mode, pair in reps), by
    complex exponentials: the closed form `schrod._apply_pair_modes`
    evaluates from half-angle tangents, kept as its oracle.

    Per pair, K = [[K_w, c I2], [conj(c) I2, 0]] with the scalar coupling
    c = gamma_f (theta + i)/2 and K_w = [[th*d1, -i cw], [i cw, th*d2]].
    Every block commutes with K_w, so exp(-iKt) = G(K_w) with the 2x2
    closed form
        G(mu) = e^{-i mu t/2} (cos(rho t) - i sin(rho t)/rho [[mu/2, c], [conj(c), -mu/2]]),
    rho = sqrt(mu^2/4 + |c|^2) >= gamma_f/2.  With K_w = mean I + r N,
    N^2 = I (N := 0 at r = 0), G(K_w) = S + D N where S, D are the half
    sum and half difference of G(mean + r) and G(mean - r).  The result
    is exact at t = 0 (S = 1, D = 0) and never divides by zero.  The
    column depends on the pair through sigma alone.  Returns
    (modes, pairs, slots): slots = 2 gives the state block only.
    """
    th = np.asarray(thetas)[:, None]
    m = pairs.spec.ode.blocks[reps]  # the pairs' blocks [[d1, -cw], [cw, d2]]
    a, d, cw = th * m[:, 0, 0], th * m[:, 1, 1], m[:, 1, 0]
    c = pairs.gamma_f * (th + 1j) / 2.0
    c2 = np.abs(c) ** 2
    mean = (a + d) / 2.0
    half_gap = (a - d) / 2.0
    r = np.hypot(half_gap, cw)
    # N e1 = [n0, i n1]; r = 0 only where half_gap = cw = 0, so N e1 = 0 there
    r_safe = np.where(r > 0.0, r, 1.0)
    n0 = half_gap / r_safe
    i_n1 = 1j * (cw / r_safe)
    bottom = slots == 4

    def column(mu):
        # the forcing column of G(mu) without its factors: (G12/(-i c), G22);
        # G22 only when the bottom block is asked for
        rho = np.sqrt(mu**2 / 4.0 + c2)
        phase = np.exp(-0.5j * t * mu)
        sinc = np.sin(rho * t) / rho
        g22 = phase * (np.cos(rho * t) + 0.5j * mu * sinc) if bottom else None
        return phase * sinc, g22

    # (S + D N) e1 from 2S = G(mu_+) + G(mu_-) and 2D = G(mu_+) - G(mu_-);
    # the 1/2 is folded into `coupled` and the bottom block's 0.5
    top_p, bot_p = column(mean + r)
    top_m, bot_m = column(mean - r)
    coupled = -0.5j * c
    out = np.empty(top_p.shape + (slots,), dtype=np.complex128)
    out[..., 0] = coupled * (top_p + top_m + (top_p - top_m) * n0)
    out[..., 1] = coupled * (top_p - top_m) * i_n1
    if bottom:
        out[..., 2] = 0.5 * (bot_p + bot_m + (bot_p - bot_m) * n0)
        out[..., 3] = 0.5 * (bot_p - bot_m) * i_n1
    return out


def pair_column(pairs: PairSystem, reps, thetas, t: float, slots: int = 4) -> np.ndarray:
    """exp(-iK(theta)t) [0, 0, 1, 0] for every (mode, pair in reps), as
    complex (modes, pairs, slots), from the package's kernel: the real
    planes of `schrod._apply_pair_modes` with the state slots'
    `schrod.pair_coupling` applied, the form `apply_pair_modes` gives."""
    planes = _apply_pair_modes(pairs, reps, thetas, t, slots)
    col = planes[:, 0] + 1j * planes[:, 1]
    col[:2] *= pair_coupling(pairs.gamma_f, thetas)[:, None]
    return np.moveaxis(col, 0, -1)


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
    w = readout_weights(state.grid, recovery_index(state.grid, p_threshold(h1, state.time)),
                        advect)
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
    EncodingError beyond 1e-12 (the pair is exact up to rounding), or
    where past len(y) the overlaps are not zero."""
    y = np.asarray(y, dtype=float)
    c = pair.p_l[:, 0]
    d = pair.p_r[:, 0]
    overlaps = pair.beta * np.conj(c) * d
    measured = float(np.sum(np.abs(overlaps[: y.size] - y)))
    tail = float(np.max(np.abs(overlaps[y.size :]), initial=0.0))
    if measured > 1e-12 or tail > 1e-12:
        raise EncodingError(
            f"state-preparation pair off by {measured:.3e} (tail {tail:.3e})",
            measured=measured,
            claimed=0.0,
        )
    return measured


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


def sci_rows(table) -> str:
    """Each row of a float table as ",".join('%.16e' % v for v in row) + newline.
    CPython's '%' formatting is correctly rounded, so this is exact."""
    rows = np.asarray(table).tolist()
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in rows)


def write_field_snapshot_csv(path, points, field) -> None:
    """The field snapshot through one '%.16e' per value, 32 rows at a time."""
    field = np.ascontiguousarray(field, dtype=np.complex128)
    points = np.asarray(points, dtype=np.float64)
    header = ["p"]
    for c in range(field.shape[1]):
        header += [f"comp{c}_re", f"comp{c}_im"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, points.size, 32):
            hi = lo + 32
            fh.write(sci_rows(np.column_stack([points[lo:hi], field[lo:hi].view(np.float64)])))


def _fmt(x) -> str:
    return repr(float(x))


def _write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_matrix_coo(path, m) -> None:
    """`io.write_matrix_coo` through one repr call per value."""
    m = as_cmatrix(m)
    idx = np.argwhere(m != 0)
    lines = [f"{m.shape[0]} {m.shape[1]} {len(idx)}"]
    for i, j in idx:
        lines.append(f"{i} {j} {_fmt(m[i, j].real)} {_fmt(m[i, j].imag)}")
    _write_lines(path, lines)


def write_vector(path, v) -> None:
    """`io.write_vector` through one repr call per value."""
    _write_lines(path, [f"{_fmt(e.real)} {_fmt(e.imag)}" for e in as_cvector(v)])


def write_trace_csv(path, residuals, relative_residuals=None) -> None:
    """`io.write_trace_csv` through one repr call per value."""
    lines = ["step,residual,relative_residual"]
    for k, r in enumerate(residuals):
        rel = "" if relative_residuals is None else _fmt(relative_residuals[k])
        lines.append(f"{k},{_fmt(r)},{rel}")
    _write_lines(path, lines)


def write_trajectory_csv(path, times, solved, aux, ratios) -> None:
    """`io.write_trajectory_csv` through one repr call per value."""
    lines = ["time,solved_re,solved_im,aux_re,aux_im,ratio"]
    for t, s, a, r in zip(times, solved, aux, ratios):
        rcol = "" if (r is None or math.isnan(r)) else _fmt(r)
        lines.append(
            f"{_fmt(t)},{_fmt(s.real)},{_fmt(s.imag)},{_fmt(a.real)},{_fmt(a.imag)},{rcol}"
        )
    _write_lines(path, lines)


def write_solution_csv(path, u, xs, ys=None) -> None:
    """`io.write_solution_csv` through one repr call per value."""
    u = as_cvector(u)
    lines = ["node_index,x,u_re,u_im" if ys is None else "node_index,x,y,u_re,u_im"]
    for k in range(u.size):
        nodes = [xs[k]] if ys is None else [xs[k], ys[k]]
        lines.append(",".join([str(k), *map(_fmt, [*nodes, u[k].real, u[k].imag])]))
    _write_lines(path, lines)


def write_rows(path, header, columns, sep=",") -> None:
    """`io.write_rows` one cell at a time: repr of each value (a numpy
    scalar as its Python value), a str as it is, None empty."""
    def cell(v):
        v = v.item() if isinstance(v, np.generic) else v
        return "" if v is None else v if isinstance(v, str) else repr(v)

    lines = [] if header is None else [header]
    lines += [sep.join(map(cell, row)) for row in zip(*columns)]
    _write_lines(path, lines)
