"""Warped-phase (Hamiltonian) realization of the transformed iteration.

Route: one-step map -> continuous ODE dw/dt = (H - I) w + F
(`mag.SpectralSystem.ode`) -> homogenized block system ->
Hermitian/anti-Hermitian split -> auxiliary dimension p
carrying the envelope psi(p) (`envelope`: e^{-p} for p >= 0, a C^2
extension for p < 0) -> Fourier modes, each evolving under its own
Hermitian generator -> readout of e^{p} times the field beyond the
threshold p_diamond.

The readout only looks at p > p_diamond >= 0, so the initial profile has
to equal e^{-p} only there; on p < 0 it is free.  The kink of e^{-|p|}
at 0 would leave Fourier coefficients that decay like theta^{-2}; the C^2
extension makes them decay like theta^{-4}, and the integral readout is
normalized on the grid, so the pure profile reads back exactly.

Mode ell evolves by exp(-1j*(theta_ell*h1 - h2)*t).  The sign is pinned
by two identities that the tests enforce: at t=0 the readout returns the
initial state exactly, and on a scalar decay (and a pure phase-rotation)
system the readout tracks the closed-form solution.

The end-to-end `pipeline` starts the momentum state at w = 0 and works in
the basis of singular pairs of A, where each pair's homogenized block is
4x4 and starts on its forcing slot, at forcing_j = f_j/gamma_f.  Only that
column of each propagator is evolved, in closed form (`_apply_pair_modes`),
and for unit forcing it depends on the pair through sigma alone.  The
closed form runs in real arithmetic: each cos/sin pair it needs, of the
phase mu t/2 and of rho t at both eigenvalues mu of the pair's 2x2 block,
comes from one np.tan of the half angle, cos 2x = (1 - tan^2 x)/(1 + tan^2 x)
and sin 2x = 2 tan x/(1 + tan^2 x), so a column costs four tangents (the
complex-exponential form, the tests' oracle, makes at least six calls of
sin, cos and exp(i x), each dearer than a tangent).  So the whole
emulation is a singular-value transfer function: pair j's state block
reads out as its coefficients [x_j, y_j] = forcing_j * r(sigma_j), an
(n, 2) state of `SpectralSystem.ode` whose x the caller maps to u = V x,
with r(sigma) a 2-vector fixed by the
parameters, the grid and t, evaluated once per group of equal singular
values (`sigma_groups`) above the rounding floor (`PairSystem.evolved`);
only the snapshot maps groups to [V x; U y].  The dense per-mode evolution of
the whole homogenized generator and the single-point readout are the
tests' oracle (`tests/reference.py`).

The periodic p-domain must outrun left-travelling wave content for the
whole evolution: anything that wraps re-enters from the right and
corrupts the readout region.  Grid construction therefore accepts the
left tail as a parameter, and the end-to-end driver sizes it from the
advection speeds of the spectral components that actually carry weight.

The integral readout is a fixed linear functional of the field: a weight
vector w over the grid points (`readout_weights`).  Because the field is the
inverse FFT of the modes, sum_k w_k field_k = sum_l c_l mode_l with
c = ifft(w), so `evolve_structured` streams the modes chunk by chunk,
accumulates that sum and drops each chunk; the (n_p, pairs, 4) field is
never built.  The sum keeps only the real part it uses, and the coupling
gamma_f (1 - i theta)/4 of the state slots is folded into c once, so each
chunk adds two real mat-vecs per slot.  The unit-forcing field is real,
so only the modes with theta >= 0 (and the Nyquist mode) are evaluated.
Strided snapshot rows come out of the same pass: with m = n_p / stride,
field[j*stride] = (m/n_p) ifft_m(F)[j] where F folds the modes modulo m.
Memory is one chunk of modes (_CHUNK_ENTRIES / 16 (mode, group) entries
per slot, as real and imaginary planes) with its temporaries, plus the
(4, m, groups) fold and the (m, 4n) rows that one (m x groups) @
(groups x n) product per slot maps it into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mag as mag_mod
from .errors import InputError

DEFAULT_TAIL_TOL = math.exp(-10.0)
RIGHT_MARGIN = 2.0
MAX_DP = 0.5
# 32 times the largest preset grid (131072); a larger n_p is a usage error
# before the grid is allocated
MAX_NP = 1 << 22
ACTIVE_PAIR_BUDGET = 1e-3
# a chunk's real planes and temporaries stay below the complex kernel's at
# 1 << 20, at no loss of speed
_CHUNK_ENTRIES = 1 << 18
# gap, relative to sigma_max, below which two singular values are evolved as
# one; every figure preset groups the same for any value in [1e-14, 1e-10]
SIGMA_GROUP_RTOL = 1e-12


def envelope(points) -> np.ndarray:
    """The warped-phase initial profile psi(p): e^{-p} for p >= 0 and
    e^{p} (1 - 2p + 2p^2) for p < 0, which matches its value, slope and
    curvature at 0."""
    p = np.asarray(points, dtype=float)
    # np.where evaluates both branches: clamp each to its own side
    left = np.minimum(p, 0.0)
    return np.where(p >= 0.0, np.exp(-np.maximum(p, 0.0)),
                    np.exp(left) * (1.0 + 2.0 * left * (left - 1.0)))


# psi'(p) = e^{p} (2p^2 + 2p - 1) vanishes on p < 0 at -(1 + sqrt 3)/2
ENVELOPE_MAX = float(envelope(-(1.0 + math.sqrt(3.0)) / 2.0))  # about 1.904


def envelope_tail(tail_tol: float) -> float:
    """The L > 0 with psi(-L) = tail_tol, left of the envelope's maximum
    (L = 16.34 for the default e^{-10})."""
    if not (0.0 < tail_tol < 1.0):
        raise InputError("tail_tol must be in (0,1)")
    # Newton on the increasing, convex L - ln(1 + 2L + 2L^2) = ln(1/tail_tol),
    # from a start left of the root (psi(-2) > 1), so it never overshoots left
    target = -math.log(tail_tol)
    length = max(target, 2.0)
    for _ in range(100):
        quad = 1.0 + 2.0 * length * (length + 1.0)
        step = (length - math.log(quad) - target) / (1.0 - (2.0 + 4.0 * length) / quad)
        length -= step
        if abs(step) <= 1e-15 * length:
            break
    return length


def default_forcing_scale(params: mag_mod.MagParams) -> float:
    """Default coupling for the homogenized forcing block.

    Small enough that the positive bump it induces in the Hermitian part
    keeps the readout threshold near zero over the full evolution time.
    """
    return 0.1 * min(params.alpha * params.mu_hat, 1.0 - params.beta)


def _check_forcing_scale(gamma_f: float) -> None:
    if not (math.isfinite(gamma_f) and gamma_f > 0.0):
        raise InputError(f"gamma_f must be finite and positive, got {gamma_f}")


@dataclass(frozen=True)
class PGrid:
    p_left: float
    p_right: float
    n_p: int
    points: np.ndarray
    dp: float
    thetas: np.ndarray  # 2*pi*l/(p_right-p_left), fft ordering


def build_grid_from_rate(rate: float, t_end: float, n_p: int, p_left: float,
                         right_margin: float = RIGHT_MARGIN) -> PGrid:
    """Uniform periodic grid on [p_left, p_right), rate = lambda_max(h1).

    `pipeline` passes p_left = -(runway + envelope_tail(tail_tol)), past
    which psi is below tail_tol (long evolutions need a runway far beyond
    what the envelope tail alone would suggest).  p_right sits at least a
    fixed margin beyond the readout threshold max(rate * t_end, 0).  Large
    state components want a larger right margin: the envelope must decay
    below noise at the periodic seam, or the jump there radiates into the
    readout zone.
    """
    if t_end < 0:
        raise ValueError("t must be nonnegative")
    if n_p < 8 or (n_p & (n_p - 1)) != 0:
        raise InputError(f"n_p must be a power of two >= 8, got {n_p}")
    if n_p > MAX_NP:
        raise InputError(f"n_p={n_p} exceeds the largest grid {MAX_NP}")
    if p_left >= 0.0:
        raise InputError("p_left must be negative")
    p_right = max(rate * t_end, 0.0) + max(right_margin, RIGHT_MARGIN)
    dp = (p_right - p_left) / n_p
    if dp > MAX_DP:
        need = 1 << math.ceil(math.log2((p_right - p_left) / MAX_DP))
        raise InputError(
            f"n_p={n_p} leaves dp={dp:.3f} > {MAX_DP} on [{p_left:.2f}, {p_right:.2f}]; "
            f"use n_p >= {need}"
        )
    points = p_left + dp * np.arange(n_p)
    thetas = 2.0 * np.pi * np.fft.fftfreq(n_p, d=dp)
    return PGrid(p_left=p_left, p_right=p_right, n_p=n_p, points=points, dp=dp,
                 thetas=thetas)


def recovery_index(grid: PGrid, p_diamond: float) -> int:
    """Smallest grid index strictly beyond the threshold plus one grid step."""
    k = int(np.searchsorted(grid.points, p_diamond + grid.dp, side="right"))
    if k >= grid.n_p:
        raise InputError(
            f"no grid point beyond p_diamond={p_diamond:.4f}+margin; increase p_right"
        )
    return k


def readout_weights(grid: PGrid, p_diamond: float, advect: float) -> tuple[np.ndarray, int]:
    """The integral readout as weights over the grid points: sum_k w[k] field(t, p_k).

    The trapezoid rule for e^{p*} int_{p*}^{P} field dq from the first
    admissible point k* (`recovery_index`), normalized on the grid,
    sum_k w[k] e^{-p_k} = 1, so the pure e^{-q} profile is read back
    exactly.  Returns (w, k*).
    """
    k_star = recovery_index(grid, p_diamond)
    w = np.zeros(grid.n_p)
    # the top slice of the domain has been overwritten by wrapped
    # left-tail data after an advection distance ~ ||h1|| * t; keep
    # the quadrature inside the trustworthy zone (at least a quarter
    # of the available range) and normalize for its actual width: end on
    # the last point strictly below the cap or the quarter mark k* + (n_p -
    # 1 - k*)/4, in integers, as that mark is a grid point when 4 | n_p - 1 - k*
    k_end = grid.n_p - 1
    if advect > 0.0:
        k_cap = int(np.searchsorted(grid.points, grid.points[-1] - advect)) - 1
        k_end = max(k_cap, k_star + (grid.n_p - 2 - k_star) // 4, k_star + 1)
    window = slice(k_star, k_end + 1)
    w[window] = 1.0
    w[k_star] = w[k_end] = 0.5
    w[window] /= w[window] @ np.exp(-grid.points[window])
    return w, k_star


# ---------------------------------------------------------------------------
# Structure-exploiting evolution for transformed momentum systems.
#
# With A = U Sigma V^H the one-step map block-diagonalizes into independent
# 2x2 blocks per singular value, and the homogenized system into 4x4 blocks,
# all sharing the unitary basis diag(V, U, V, U).  Every run starts the
# momentum state at w = 0, so pair j starts at [0, 0, forcing_j, 0] and
# only the forcing column of each block's propagator is ever needed; it has
# a closed form in three scalars per pair, the entries d1, cw, d2 of its
# block of the momentum ODE `SpectralSystem.ode` (whose drive is the forcing),
# all functions of sigma_j, so the readout is the transfer function
#     readout_j = forcing_j * r(sigma_j),  r(sigma) = sum_l c_l e_l col_l(sigma)
# (state block only): col is evaluated for unit forcing once per (mode,
# group of equal sigma), contracted over modes, and scaled by each pair's
# forcing at the end.  Tests check equality with the dense path of
# `tests/reference.py`.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairSystem:
    """Per-singular-value homogenized blocks, as scalars.

    Pair j's 4x4 generator is [[d1_j, -cw_j, gamma_f, 0], [cw_j, d2_j, 0,
    gamma_f], [0, 0, 0, 0], [0, 0, 0, 0]], with [[d1_j, -cw_j], [cw_j, d2_j]]
    pair j's block of the momentum ODE `spec.ode`.
    """

    sigma: np.ndarray
    spec: mag_mod.SpectralSystem  # the momentum map, whose basis the slots are in
    w0_pair: np.ndarray  # (npairs, 4): [0, 0, f_j/gamma_f, 0]
    steady_pair: np.ndarray  # (npairs, 4): spec.ode.steady_pairs(), f_j/gamma_f, 0
    gamma_f: float
    live: np.ndarray  # indices of the pairs with nonzero forcing
    reps: np.ndarray  # one live pair per group of equal sigma (`sigma_groups`)
    group: np.ndarray  # group of each live pair, an index into reps

    # h1 splits into [[d, gamma_f/2], [gamma_f/2, 0]] for d in {d1_j, d2_j},
    # with eigenvalues (d +- hypot(d, gamma_f))/2

    def lambda_max_h1(self) -> float:
        d = self.spec.ode.blocks.diagonal(axis1=1, axis2=2)
        return float(np.max(d + np.hypot(d, self.gamma_f)) / 2.0)

    def advection_speeds(self) -> np.ndarray:
        d = self.spec.ode.blocks.diagonal(axis1=1, axis2=2)
        return np.max(np.abs(d) + np.hypot(d, self.gamma_f), axis=1) / 2.0

    def pair_weights(self) -> np.ndarray:
        """Travelling content per pair: its state-block transient plus
        steady mass, which are equal as the state block starts at zero.
        The forcing block is static (its h1 directions have speeds
        ~ gamma_f^2) and does not enter."""
        return 2.0 * np.linalg.norm(self.steady_pair[:, :2], axis=1)

    def group_norms(self) -> np.ndarray:
        """(groups, 4): the 2-norm of each slot of the steady state over each
        sigma group, whatever the basis inside a repeated sigma."""
        sq = np.zeros((self.reps.size, 4))
        np.add.at(sq, self.group, np.abs(self.steady_pair[self.live]) ** 2)
        return np.sqrt(sq)

    def group_weights(self) -> np.ndarray:
        """2 ||steady state block of the group||_2, `pair_weights` per group."""
        return 2.0 * np.linalg.norm(self.group_norms()[:, :2], axis=1)

    @cached_property
    def evolved(self) -> np.ndarray:
        """The groups evolved, indices into reps: the lightest are dropped,
        whole, while their total `group_weights` stays within n eps of the
        solution scale: the rounding noise of U^H b on directions b misses."""
        weights = self.group_weights()
        order = np.argsort(weights, kind="stable")
        floor = self.sigma.size * np.finfo(float).eps * self.solution_scale()
        return np.sort(order[np.searchsorted(np.cumsum(weights[order]), floor, side="right"):])

    def pruned_weight(self) -> float:
        """`group_weights` of the groups not evolved, over solution_scale()."""
        dropped = np.delete(self.group_weights(), self.evolved)
        return float(np.sum(dropped)) / max(self.solution_scale(), 1e-300)

    def solution_scale(self) -> float:
        """Norm of the steady state block, the denominator of relative
        readout errors."""
        return float(np.linalg.norm(self.steady_pair[:, :2]))


def sigma_groups(sigma: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the live pairs by singular value.

    After sorting, a new group starts wherever the gap to the previous
    value exceeds SIGMA_GROUP_RTOL * sigma_max.  Returns the index of each
    group's representative pair and, for each live pair, its group.
    """
    order = np.argsort(sigma[live], kind="stable")
    sig = sigma[live][order]
    scale = sig[-1] if sig.size else 0.0
    starts = np.concatenate([[True], np.diff(sig) > SIGMA_GROUP_RTOL * scale])[: sig.size]
    group = np.empty(live.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return live[order[starts]], group


def build_pair_system(spec: mag_mod.SpectralSystem, gamma_f: float) -> PairSystem:
    """The homogenized pair blocks of the momentum map `spec`
    (`mag.build_spectral`), in its singular basis.  Raises
    SingularMatrixError where its steady state does not exist, InputError
    unless gamma_f is finite and positive."""
    _check_forcing_scale(gamma_f)
    forcing = spec.ode.drive / gamma_f  # [f_j/gamma_f, 0]
    live = np.flatnonzero(forcing[:, 0])
    reps, group = sigma_groups(spec.sigma, live)
    return PairSystem(
        sigma=spec.sigma, spec=spec, w0_pair=np.hstack([np.zeros_like(forcing), forcing]),
        # kernel of each block: [(I - Htilde)^{-1} f; f/gamma_f]
        steady_pair=np.hstack([spec.ode.steady_pairs(), forcing]), gamma_f=gamma_f,
        live=live, reps=reps, group=group,
    )


def evolve_structured(pairs: PairSystem, grid: PGrid, t: float, weights,
                      stride: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """Stream the pair-space Fourier modes at time t through the readout.

    Mode l of pair j is forcing_j e_l col_l(sigma_j), with e = fft(envelope)
    and col the unit-forcing column of `pair_column`, evaluated once per
    evolved group of equal singular values.  In the pair basis h1 is real
    and h2 imaginary, so mode -l is the conjugate of mode l: modes
    0..n_p/2-1 are evaluated, the inner ones counted twice, and real parts
    taken; the Nyquist mode n_p/2 has no partner on the grid and is added
    as it is.  Each chunk of modes is contracted with c * e (c = ifft of the
    readout weights) and, for stride > 0, folded times e into F[l mod m],
    m = n_p // stride, then dropped.  The state slots' coupling
    (`pair_coupling`) is folded into those per-mode factors once, so the
    chunks stay in the real planes of `_apply_pair_modes` and the readout,
    which keeps only its real part, is two real mat-vecs per slot.
    Returns the (n, 2) coefficients [x_j, y_j] of the state block [V x; U y]
    of sum_k weights[k] field(t, p_k) and, for stride > 0, the (m, 4n) rows
    field(t, p_{j*stride}) = (m/n_p) ifft_m(F)[j] (else None), mapped back
    through sum_{j in g} forcing_j [V e_j; U e_j] per group g.
    """
    n_p, half, n = grid.n_p, grid.n_p // 2, pairs.sigma.size
    env = np.fft.fft(envelope(grid.points))[: half + 1]
    env[1:half] *= 2.0
    coef = np.fft.ifft(np.asarray(weights, dtype=float))[: half + 1] * env
    kappa = pair_coupling(pairs.gamma_f, grid.thetas[: half + 1])
    coupled = coef * kappa
    m = n_p // stride if stride else 0
    slots = 4 if m else 2
    reps = pairs.reps[pairs.evolved]
    readout = np.zeros((2, reps.size))
    if m:
        # the factor each slot of mode l enters the fold with
        scale = np.stack([env * kappa, env * kappa, env, env])[:, :, None]
        folded = np.zeros((4, m, reps.size), dtype=np.complex128)
    # powers of two, so a chunk is a whole number of folds or fits in one
    chunk = 1 << int(math.log2(max(1, _CHUNK_ENTRIES // (16 * max(reps.size, 1)))))
    for lo in range(0, half, chunk):
        hi = min(lo + chunk, half)
        planes = _apply_pair_modes(pairs, reps, grid.thetas[lo:hi], t, slots)
        readout += coupled.real[lo:hi] @ planes[:2, 0] - coupled.imag[lo:hi] @ planes[:2, 1]
        if m:
            width = min(hi - lo, m)
            r = lo % m
            modes = np.empty(planes[:, 0].shape, dtype=np.complex128)
            modes.real, modes.imag = planes[:, 0], planes[:, 1]
            modes *= scale[:, lo:hi]
            folded[:, r : r + width] += modes.reshape(4, (hi - lo) // width, width,
                                                      reps.size).sum(axis=1)
    nyquist = pair_column(pairs, reps, grid.thetas[half : half + 1], t, slots)[0]
    forcing = np.zeros((pairs.reps.size, n), dtype=np.complex128)
    forcing[pairs.group, pairs.live] = pairs.w0_pair[pairs.live, 2]
    coefficients = (readout + coef[half] * nyquist[:, :2].T) @ forcing[pairs.evolved]
    rows = None
    if m:
        # (groups, 2, n): sum_{j in g} forcing_j V e_j and sum_{j in g} forcing_j U e_j
        both = np.repeat(forcing[pairs.evolved, :, None], 2, axis=-1)  # [f_j, f_j] per pair
        basis = pairs.spec.to_state(both).reshape(-1, 2, n)
        # the Nyquist mode's phase at p_{j*stride} is (-1)^(j*stride)
        sign = (-1.0) ** (stride * np.arange(m))[:, None]
        rows_group = (np.fft.ifft(folded, axis=1).real * (m / n_p)
                      + sign * (env[half] / n_p) * nyquist.T[:, None, :])
        rows = np.empty((m, 4, n), dtype=np.complex128)
        for k in range(4):  # slots (0, 1) and (2, 3) are each a state [V x; U y]
            np.matmul(rows_group[k], basis[:, k % 2], out=rows[:, k])
        rows = rows.reshape(m, 4 * n)
    return coefficients.T, rows


def _half_angle_cos_sin(x) -> tuple[np.ndarray, np.ndarray]:
    """(cos 2x, sin 2x) from one tangent: with u = tan x, cos 2x =
    (1 - u^2)/(1 + u^2) and sin 2x = 2u/(1 + u^2).  Exactly (1, 0) at
    x = 0; finite everywhere, as no double is an odd multiple of pi/2."""
    u = np.tan(x)
    u2 = u * u
    inv = 1.0 / (1.0 + u2)
    return (1.0 - u2) * inv, (u + u) * inv


def pair_coupling(gamma_f: float, thetas) -> np.ndarray:
    """-i c/2 = gamma_f (1 - i theta)/4 per mode: the factor, common to
    every pair, that the state slots of `_apply_pair_modes` leave out."""
    return 0.25 * gamma_f * (1.0 - 1j * np.asarray(thetas))


def pair_column(pairs: PairSystem, reps, thetas, t: float, slots: int = 4) -> np.ndarray:
    """exp(-iK(theta)t) [0, 0, 1, 0] for every (mode, pair in reps), as
    complex (modes, pairs, slots): the planes of `_apply_pair_modes` with
    the state slots' `pair_coupling` applied."""
    planes = _apply_pair_modes(pairs, reps, thetas, t, slots)
    col = planes[:, 0] + 1j * planes[:, 1]
    col[:2] *= pair_coupling(pairs.gamma_f, thetas)[:, None]
    return np.moveaxis(col, 0, -1)


def _apply_pair_modes(pairs: PairSystem, reps, thetas, t: float, slots: int = 4) -> np.ndarray:
    """exp(-iK(theta)t) [0, 0, 1, 0] for every (mode, pair in reps), in
    real arithmetic, the state slots without their coupling.

    Per pair, K = [[K_w, c I2], [conj(c) I2, 0]] with the scalar coupling
    c = gamma_f (theta + i)/2 and K_w = [[th*d1, -i cw], [i cw, th*d2]].
    Every block commutes with K_w, so exp(-iKt) = G(K_w) with the 2x2
    closed form
        G(mu) = e^{-i mu t/2} (cos(rho t) - i sin(rho t)/rho [[mu/2, c], [conj(c), -mu/2]]),
    rho = sqrt(mu^2/4 + |c|^2) >= gamma_f/2.  With K_w = mean I + r N,
    N^2 = I (N := 0 at r = 0), G(K_w) = S + D N where S, D are the half
    sum and half difference of G(mean + r) and G(mean - r).  Both
    cos/sin pairs of each G(mu), of mu t/2 and of rho t, come from one
    np.tan of the half angle (`_half_angle_cos_sin`; halving is exact in
    floating point), so four tangents make a column.  The result is exact at
    t = 0 (S = 1, D = 0) and never divides by zero.  The column depends
    on the pair through sigma alone.  Returns the real (slots, 2, modes,
    pairs) planes [slot][real, imaginary part]: slots = 2 gives the state
    block only, and the state slots leave out the factor -i c/2 that
    `pair_coupling` gives per mode (`pair_column` applies it).
    """
    th = np.asarray(thetas)[:, None]
    m = pairs.spec.ode.blocks[reps]  # the pairs' blocks [[d1, -cw], [cw, d2]]
    a, d, cw = th * m[:, 0, 0], th * m[:, 1, 1], m[:, 1, 0]
    # |c|^2 as the complex coupling gives it: rho t is a large angle, and
    # its last bits decide the phase
    c2 = np.abs(pairs.gamma_f * (th + 1j) / 2.0) ** 2
    mean = (a + d) / 2.0
    half_gap = (a - d) / 2.0
    r = np.hypot(half_gap, cw)
    # N e1 = [n0, i n1]; r = 0 only where half_gap = cw = 0, so N e1 = 0 there
    r_safe = np.where(r > 0.0, r, 1.0)
    n0 = half_gap / r_safe
    n1 = cw / r_safe
    bottom = slots == 4

    def column(mu):
        # G12/(-i c) = p - i q and, for the bottom block, G22 = g + i h
        rho = np.sqrt(mu * mu / 4.0 + c2)
        cos_mu, sin_mu = _half_angle_cos_sin((0.25 * t) * mu)
        cos_rho, sin_rho = _half_angle_cos_sin(rho * (0.5 * t))
        sinc = sin_rho / rho
        p, q = cos_mu * sinc, sin_mu * sinc
        if not bottom:
            return p, q, None, None
        half_mu = 0.5 * mu * sinc
        return p, q, cos_mu * cos_rho + sin_mu * half_mu, cos_mu * half_mu - sin_mu * cos_rho

    # (S + D N) e1 from 2S = G(mu_+) + G(mu_-) and 2D = G(mu_+) - G(mu_-);
    # the 1/2 is folded into the coupling and the bottom block's 0.5
    p_p, q_p, g_p, h_p = column(mean + r)
    p_m, q_m, g_m, h_m = column(mean - r)
    out = np.empty((slots, 2) + p_p.shape)
    dp, dq = p_p - p_m, q_p - q_m
    out[0, 0] = p_p + p_m + dp * n0
    out[0, 1] = -(q_p + q_m + dq * n0)
    out[1, 0] = n1 * dq
    out[1, 1] = n1 * dp
    if bottom:
        dg, dh = g_p - g_m, h_p - h_m
        out[2, 0] = 0.5 * (g_p + g_m + dg * n0)
        out[2, 1] = 0.5 * (h_p + h_m + dh * n0)
        out[3, 0] = -0.5 * n1 * dh
        out[3, 1] = 0.5 * n1 * dg
    return out


def required_runway(pairs: PairSystem, t_end: float,
                    budget: float = ACTIVE_PAIR_BUDGET) -> float:
    """Leftward travel of the weight-carrying spectral content over t_end.

    Content that wraps around the periodic domain resurfaces at the
    readout point at full amplitude, so the domain must outrun it.  A
    group carries its `group_weights` times ENVELOPE_MAX, the envelope's
    peak on p < 0.  The fastest evolved groups are exempted greedily while
    their total stays below `budget` of the solution scale; smooth
    forcings excite only slow pairs and get runways of a few ln(1/delta).
    """
    weights = pairs.group_weights()[pairs.evolved] * ENVELOPE_MAX
    if weights.size == 0 or float(np.sum(weights)) == 0.0:
        return 0.0
    allowance = budget * max(pairs.solution_scale(), 1e-300)
    speeds = pairs.advection_speeds()[pairs.reps[pairs.evolved]]
    order = np.argsort(speeds)[::-1]
    dropped = 0.0
    for j in order:
        if dropped + weights[j] > allowance:
            return float(speeds[j]) * t_end
        dropped += weights[j]
    return 0.0


@dataclass
class PipelineReport:
    t_end: float
    n_p: int
    p_left: float
    p_right: float
    p_diamond: float
    k_star: int
    recovery_method: str
    gamma_f: float
    live_pairs: int  # singular pairs with nonzero forcing
    sigma_groups: int  # distinct singular values among them
    evolved_groups: int  # the groups above the rounding floor, each evolved once
    pruned_weight: float  # weight of the other groups, over the solution scale


def pipeline(spec: mag_mod.SpectralSystem, delta: float, n_p: int, *,
             gamma_f: float | None = None, snapshot_rows: int = 0):
    """End-to-end solve of A u = b through the Hamiltonian realization, in
    the basis of the run's `spec` (`mag.build_spectral`).

    Evolves to t_end = kappa_hat * ln(1/delta), reads the field back out
    past the threshold with the integral readout and unscales the first
    block by (1 - beta).  Returns (x, report, snapshot), u = V x: with
    snapshot_rows > 0 the snapshot is (points, rows), the final warped
    field on every (n_p // snapshot_rows)-th grid point from the same
    evolution pass, else None.  Raises InputError for a kappa_hat beyond
    the momentum iteration's `mag.step_budget`.  Checking u against a
    reference solution is left to the caller.
    """
    params = spec.params
    # the kappa_hat the momentum iteration refuses is refused here too
    mag_mod.step_budget(spec, delta)
    if gamma_f is None:
        gamma_f = default_forcing_scale(params)
    # kappa*ln(1/delta) leaves a residual ~delta at kappa=1 but ~delta^2
    # for large kappa; the (kappa+1)/kappa factor makes it ~delta^2
    # uniformly, comfortably below the discretization floor
    safety = (params.kappa_hat + 1.0) / params.kappa_hat
    t_end = float(mag_mod.convergence_steps(params.kappa_hat, delta, safety=safety))

    pairs = build_pair_system(spec, gamma_f)
    runway = required_runway(pairs, t_end)
    p_left = -(runway + envelope_tail(DEFAULT_TAIL_TOL))
    # decay the envelope below noise at the periodic seam: the largest
    # state component (usually the forcing block at scale ||F||/gamma_f)
    # must fall to ~1e-10 of the solution scale by p_right (per sigma group)
    norms = pairs.group_norms()[pairs.evolved]
    top = float(max(np.max(norms, initial=0.0), 1e-300))
    wref = float(max(np.max(norms[:, :2], initial=0.0), 1e-300))
    right_margin = max(RIGHT_MARGIN, math.log(top / (1e-10 * wref)))

    rate = pairs.lambda_max_h1()
    grid = build_grid_from_rate(rate, t_end, n_p, p_left, right_margin)
    p_diamond = max(rate * t_end, 0.0)
    advect = float(np.max(pairs.advection_speeds())) * t_end
    weights, k_star = readout_weights(grid, p_diamond, advect)
    stride = max(1, n_p // snapshot_rows) if snapshot_rows > 0 else 0
    w_rec, rows = evolve_structured(pairs, grid, t_end, weights, stride)
    report = PipelineReport(
        t_end=t_end, n_p=n_p, p_left=grid.p_left, p_right=grid.p_right,
        p_diamond=p_diamond, k_star=k_star, recovery_method="integral", gamma_f=gamma_f,
        live_pairs=int(pairs.live.size), sigma_groups=int(pairs.reps.size),
        evolved_groups=int(pairs.evolved.size), pruned_weight=pairs.pruned_weight(),
    )
    snapshot = (grid.points[::stride], rows) if stride else None
    return w_rec[:, 0] / (1.0 - params.beta), report, snapshot
