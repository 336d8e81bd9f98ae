"""Warped-phase (Hamiltonian) realization of the transformed iteration.

Route: one-step map -> continuous ODE dw/dt = (H - I) w + F
(`mag.SpectralSystem.ode`) -> homogenized block system ->
Hermitian/anti-Hermitian split -> auxiliary dimension p
carrying the envelope psi(p) (`envelope`: e^{-p} for p >= 0, a C^17
extension for p < 0) -> Fourier modes, each evolving under its own
Hermitian generator -> readout of e^{p} times the field beyond the
threshold p_diamond.

The readout only looks at p > p_diamond >= 0, so the initial profile has
to equal e^{-p} only there; on p < 0 it is free.  The kink of e^{-|p|}
at 0 would leave Fourier coefficients that decay like theta^{-2}; the C^17
extension e^{3.5p} T_17(-4.5p) makes them decay like theta^{-19}, so on
each figure preset's grid the truncation error sits below delta/100,
under the time truncation's.  The integral readout is normalized on the
grid, so the pure profile reads back exactly.

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
(groups x n) product per slot maps it into.  Of the grid's n_p-long
arrays only the points are kept: the wavenumbers are made per chunk
(`PGrid.thetas`), and each spectrum is the half a real FFT gives (rfft).
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
MAX_NP = 1 << 22  # 64 x fig3e's grid at delta 1e-3; a larger n_p is refused unallocated
ACTIVE_PAIR_BUDGET = 1e-3
# a chunk's real planes and temporaries stay below the complex kernel's at
# 1 << 20, at no loss of speed
_CHUNK_ENTRIES = 1 << 18
# gap, relative to sigma_max, below which two singular values are evolved as
# one; every figure preset groups the same for any value in [1e-14, 1e-10]
SIGMA_GROUP_RTOL = 1e-12


# T_17, the degree-17 Taylor polynomial of e^x, lowest degree first
_TAYLOR = tuple(1.0 / math.factorial(j) for j in range(18))


def envelope(points) -> np.ndarray:
    """The warped-phase initial profile psi(p): e^{-p} for p >= 0 and
    e^{3.5p} T_17(-4.5p) for p < 0, which is e^{-p} (1 + O(p^18)), so psi is
    C^17 at 0.  Each side is evaluated only on its own points: on p < 0 as
    e^{1.75p} (e^{1.75p} T_17(-4.5p)) (`_taylor`), so that no factor is
    subnormal where psi is not."""
    p = np.asarray(points, dtype=float)
    left = p < 0.0
    out = np.exp(-p, out=np.empty_like(p), where=~left)
    rise = np.exp(1.75 * p[left])
    out[left] = rise * (rise * _taylor(-4.5 * p[left]))
    return out


def _taylor(x):
    """T_17(x) by Horner, from x / 17! up, in one new array for an array x."""
    acc = x * _TAYLOR[17]
    for coef in _TAYLOR[16:0:-1]:
        acc += coef
        acc *= x
    acc += 1.0
    return acc


def _bracketed_root(f, lo: float, hi: float) -> float:
    """The root of f on [lo, hi], where f(lo) > 0 >= f(hi), by bisection
    down to adjacent doubles; of the two, the one where |f| is smaller."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo if abs(f(lo)) < abs(f(hi)) else hi


# psi'(p) = e^{3.5p} (4.5 x^17/17! - T_17(x)) at x = -4.5p changes sign once
# on p < 0, at x = 18.8; the profile peaks there
_PEAK_P = -_bracketed_root(lambda x: _taylor(x) - 4.5 * _TAYLOR[17] * x**17, 1.0, 60.0) / 4.5
ENVELOPE_MAX = float(envelope(_PEAK_P))  # about 25.81


def envelope_tail(tail_tol: float) -> float:
    """The L > 0 with psi(-L) = tail_tol, left of the envelope's maximum
    (L = 13.23 for the default e^{-10}): a bracketed root of the decreasing
    e^{-1.75L} (e^{-1.75L} T_17(4.5L)) - tail_tol between the peak and
    L = 1000, where psi is below every positive double."""
    if not (0.0 < tail_tol < 1.0):
        raise InputError("tail_tol must be in (0,1)")
    return _bracketed_root(
        lambda length: (math.exp(-1.75 * length)
                        * (math.exp(-1.75 * length) * _taylor(4.5 * length)) - tail_tol),
        -_PEAK_P, 1000.0)


def default_forcing_scale(params: mag_mod.MagParams) -> float:
    """Default coupling for the homogenized forcing block.

    Small enough that the positive bump it induces in the Hermitian part
    keeps the readout threshold near zero over the full evolution time.
    """
    return 0.1 * min(params.alpha * params.mu_hat, 1.0 - params.beta)


@dataclass(frozen=True)
class PGrid:
    p_left: float
    p_right: float
    n_p: int
    points: np.ndarray
    dp: float

    def thetas(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The wavenumbers 2 pi l/(p_right - p_left) of modes lo..hi-1 in fft
        ordering, all n_p by default: 2 pi fftfreq(n_p, dp)[lo:hi] bit for
        bit, built in one array on each call, so no caller holds all n_p."""
        thetas = np.arange(lo, self.n_p if hi is None else hi, dtype=float)
        # fftfreq's negative half, exact in floating point
        thetas[max(self.n_p // 2 - lo, 0) :] -= self.n_p
        thetas *= 1.0 / (self.n_p * self.dp)
        thetas *= 2.0 * np.pi
        return thetas


def build_grid_from_rate(rate: float, t_end: float, n_p: int | None, p_left: float,
                         right_margin: float = RIGHT_MARGIN) -> PGrid:
    """Uniform periodic grid on [p_left, p_right), rate = lambda_max(h1), of
    n_p points, by default the coarsest power of two >= 8 with dp <= MAX_DP.

    `pipeline` passes p_left = -(runway + envelope_tail(tail_tol)), past
    which psi is below tail_tol (long evolutions need a runway far beyond
    what the envelope tail alone would suggest).  p_right sits at least a
    fixed margin beyond the readout threshold max(rate * t_end, 0).  Large
    state components want a larger right margin: the envelope must decay
    below noise at the periodic seam, or the jump there radiates into the
    readout zone.  An n_p that leaves dp > MAX_DP is refused, naming that grid.
    """
    if t_end < 0:
        raise ValueError("t must be nonnegative")
    if n_p is not None and (n_p < 8 or (n_p & (n_p - 1)) != 0):
        raise InputError(f"n_p must be a power of two >= 8, got {n_p}")
    if n_p is not None and n_p > MAX_NP:
        raise InputError(f"n_p={n_p} exceeds the largest grid {MAX_NP}")
    if p_left >= 0.0:
        raise InputError("p_left must be negative")
    p_right = max(rate * t_end, 0.0) + max(right_margin, RIGHT_MARGIN)
    width = p_right - p_left
    # the coarsest grid MAX_DP allows (2 MAX_NP if none): need * MAX_DP is exact
    need = 8
    while need <= MAX_NP and need * MAX_DP < width:
        need *= 2
    n_p = min(need, MAX_NP) if n_p is None else n_p
    dp = width / n_p
    if dp > MAX_DP:
        raise InputError(
            f"n_p={n_p} leaves dp={dp:.3g} > {MAX_DP} on [{p_left:.4g}, {p_right:.4g}]; "
            + (f"use n_p >= {need}" if need <= MAX_NP else f"no n_p <= {MAX_NP} will do")
        )
    points = np.arange(n_p, dtype=float)  # p_left + dp k, built in its one array
    points *= dp
    points += p_left
    return PGrid(p_left=p_left, p_right=p_right, n_p=n_p, points=points, dp=dp)


def recovery_index(grid: PGrid, p_diamond: float) -> int:
    """Smallest grid index strictly beyond the threshold plus one grid step."""
    k = int(np.searchsorted(grid.points, p_diamond + grid.dp, side="right"))
    if k >= grid.n_p:
        raise InputError(
            f"no grid point beyond p_diamond={p_diamond:.4f}+margin; increase p_right"
        )
    return k


def readout_weights(grid: PGrid, k_star: int, advect: float) -> np.ndarray:
    """The integral readout as weights over the grid points: sum_k w[k] field(t, p_k).

    The trapezoid rule for e^{p*} int_{p*}^{P} field dq from the first
    admissible point k_star (`recovery_index`), normalized on the grid,
    sum_k w[k] e^{-p_k} = 1, so the pure e^{-q} profile is read back
    exactly.
    """
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
    return w


# ---------------------------------------------------------------------------
# Structure-exploiting evolution in the basis diag(V, U, V, U) of A's SVD
# A = U Sigma V^H, which splits the homogenized system into one 4x4 block per
# singular value (the module docstring has the transfer function it gives).
# Tests check equality with the dense path of `tests/reference.py`.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairSystem:
    """Per-singular-value homogenized blocks, as scalars.

    Pair j's 4x4 generator is [[d1_j, -cw_j, gamma_f, 0], [cw_j, d2_j, 0,
    gamma_f], [0, 0, 0, 0], [0, 0, 0, 0]], with [[d1_j, -cw_j], [cw_j, d2_j]]
    pair j's block of the momentum ODE `spec.ode`.  Its steady state is
    [spec.ode.steady_pairs()_j, forcing_j, 0]; it starts at [0, 0, forcing_j, 0].
    """

    spec: mag_mod.SpectralSystem  # the momentum map, whose basis the slots are in
    gamma_f: float
    reps: np.ndarray  # one pair per group of equal sigma (`sigma_groups`)
    group: np.ndarray  # group of each pair, an index into reps

    @property
    def forcing(self) -> np.ndarray:
        """f_j/gamma_f, pair j's forcing slot, from the drive of `spec.ode`."""
        return self.spec.ode.drive[:, 0] / self.gamma_f

    @property
    def sigma(self) -> np.ndarray:
        """spec.sigma as a read-only view, which the bench's traced run reads."""
        sigma = self.spec.sigma.view()
        sigma.flags.writeable = False
        return sigma

    @property
    def w0_pair(self) -> np.ndarray:
        """(npairs, 4): the initial states [0, 0, forcing_j, 0], read-only, on call."""
        w0 = np.zeros((self.spec.n, 4), dtype=np.complex128)
        w0[:, 2] = self.forcing
        w0.flags.writeable = False
        return w0

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
        return 2.0 * np.linalg.norm(self.spec.ode.steady_pairs(), axis=1)

    def group_norms(self) -> np.ndarray:
        """(groups, 4): the 2-norm of each slot of the steady state over each
        sigma group, whatever the basis inside a repeated sigma."""
        sq = np.zeros((self.reps.size, 4))
        np.add.at(sq[:, :2], self.group, np.abs(self.spec.ode.steady_pairs()) ** 2)
        np.add.at(sq[:, 2], self.group, np.abs(self.forcing) ** 2)
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
        floor = self.spec.n * np.finfo(float).eps * self.solution_scale()
        return np.sort(order[np.searchsorted(np.cumsum(weights[order]), floor, side="right"):])

    def pruned_weight(self) -> float:
        """`group_weights` of the groups not evolved, over solution_scale()."""
        dropped = np.delete(self.group_weights(), self.evolved)
        return float(np.sum(dropped)) / max(self.solution_scale(), 1e-300)

    def solution_scale(self) -> float:
        """Norm of the steady state block, the denominator of relative
        readout errors."""
        return float(np.linalg.norm(self.spec.ode.steady_pairs()))


def sigma_groups(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the pairs by singular value.

    After sorting, a new group starts wherever the gap to the previous
    value exceeds SIGMA_GROUP_RTOL * sigma_max.  Returns the index of each
    group's representative pair and, for each pair, its group.
    """
    order = np.argsort(sigma, kind="stable")
    sig = sigma[order]
    scale = sig[-1] if sig.size else 0.0
    starts = np.concatenate([[True], np.diff(sig) > SIGMA_GROUP_RTOL * scale])[: sig.size]
    group = np.empty(sigma.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def build_pair_system(spec: mag_mod.SpectralSystem) -> PairSystem:
    """The homogenized pair blocks of the momentum map `spec`
    (`mag.build_spectral`), in its singular basis, at the forcing scale
    `default_forcing_scale`.  Its steady state, `spec.ode.steady_pairs()`,
    raises SingularMatrixError where it does not exist."""
    return PairSystem(spec, default_forcing_scale(spec.params), *sigma_groups(spec.sigma))


def evolve_structured(pairs: PairSystem, grid: PGrid, t: float, weights,
                      stride: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """Stream the pair-space Fourier modes at time t through the readout.

    Mode l of pair j is forcing_j e_l col_l(sigma_j), with e = fft(envelope)
    and col the unit-forcing column of `_apply_pair_modes` with its state
    slots' `pair_coupling`, evaluated once per evolved group of equal
    singular values.  In the pair basis h1 is real and h2 imaginary, so
    mode -l is the conjugate of mode l: modes 0..n_p/2-1 are evaluated, the
    inner ones counted twice, and real parts taken; the Nyquist mode n_p/2
    has no partner on the grid and is added as it is, from the same real
    planes and coupling.  Each chunk of modes is contracted with c e, c =
    ifft(weights), and, for stride > 0, folded times e into F[l mod m],
    m = n_p // stride, then dropped.  The state slots' coupling
    (`pair_coupling`) is folded into those per-mode factors once, so the
    chunks stay in the real planes of `_apply_pair_modes` and the readout,
    which keeps only its real part, is two real mat-vecs per slot.
    Returns the (n, 2) coefficients [x_j, y_j] of the state block [V x; U y]
    of sum_k weights[k] field(t, p_k) and, for stride > 0, the (m, 4n) rows
    field(t, p_{j*stride}) = (m/n_p) ifft_m(F)[j] (else None), mapped back
    through sum_{j in g} forcing_j [V e_j; U e_j] per group g.  Each spectrum
    keeps the half the pass reads, from a real FFT: e = rfft(envelope) and,
    as the weights are real, c = conj(rfft(weights))/n_p, each n_p/2 + 1
    entries; a caller that passes the one reference to the weights has them
    freed after their transform, as `pipeline` does.
    """
    n_p, half, n = grid.n_p, grid.n_p // 2, pairs.spec.n
    m = n_p // stride if stride else 0
    slots = 4 if m else 2
    reps = pairs.reps[pairs.evolved]
    coupled = np.fft.rfft(weights)  # ifft(w)[: half + 1] = conj(rfft(w))/n_p for a real w
    del weights
    np.conjugate(coupled, out=coupled)
    coupled /= n_p
    env = np.fft.rfft(envelope(grid.points))
    env[1:half] *= 2.0
    coupled *= env  # the readout's c e
    kappa = pair_coupling(pairs.gamma_f, grid.thetas(0, half + 1))
    # past here only the Nyquist entries of c e and kappa are read, and of e
    # without a fold
    nyquist_coef, nyquist_kappa, nyquist_env = coupled[half], kappa[half], env[half]
    coupled *= kappa
    readout = np.zeros((2, reps.size))
    if m:
        # the factor each slot of mode l enters the fold with: e kappa, e kappa, e, e
        env_kappa = env * kappa
        folded = np.zeros((4, m, reps.size), dtype=np.complex128)
    else:
        del env
    del kappa
    # powers of two, so a chunk is a whole number of folds or fits in one
    chunk = 1 << int(math.log2(max(1, _CHUNK_ENTRIES // (16 * max(reps.size, 1)))))
    for lo in range(0, half, chunk):
        hi = min(lo + chunk, half)
        planes = _apply_pair_modes(pairs, reps, grid.thetas(lo, hi), t, slots)
        readout += coupled.real[lo:hi] @ planes[:2, 0] - coupled.imag[lo:hi] @ planes[:2, 1]
        if m:
            width = min(hi - lo, m)
            r = lo % m
            modes = np.empty(planes[:, 0].shape, dtype=np.complex128)
            modes.real, modes.imag = planes[:, 0], planes[:, 1]
            modes[:2] *= env_kappa[lo:hi, None]
            modes[2:] *= env[lo:hi, None]
            folded[:, r : r + width] += modes.reshape(4, (hi - lo) // width, width,
                                                      reps.size).sum(axis=1)
    planes = _apply_pair_modes(pairs, reps, grid.thetas(half, half + 1), t, slots)[:, :, 0]
    nyquist = planes[:, 0] + 1j * planes[:, 1]  # (slots, groups)
    nyquist[:2] *= nyquist_kappa
    forcing = np.zeros((pairs.reps.size, n), dtype=np.complex128)
    forcing[pairs.group, np.arange(n)] = pairs.forcing
    coefficients = (readout + nyquist_coef * nyquist[:2]) @ forcing[pairs.evolved]
    rows = None
    if m:
        # (groups, 2, n): sum_{j in g} forcing_j V e_j and sum_{j in g} forcing_j U e_j
        both = np.repeat(forcing[pairs.evolved, :, None], 2, axis=-1)  # [f_j, f_j] per pair
        basis = pairs.spec.to_state(both).reshape(-1, 2, n)
        # the Nyquist mode's phase at p_{j*stride} is (-1)^(j*stride)
        sign = (-1.0) ** (stride * np.arange(m))[:, None]
        rows_group = (np.fft.ifft(folded, axis=1).real * (m / n_p)
                      + sign * (nyquist_env / n_p) * nyquist[:, None, :])
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
    every pair, that the state slots of `_apply_pair_modes` leave out:
    0.25 gamma_f (1 - 1j theta), each operation in place."""
    kappa = np.multiply(1j, thetas, out=np.empty(np.shape(thetas), dtype=np.complex128))
    np.subtract(1.0, kappa, out=kappa)
    return np.multiply(0.25 * gamma_f, kappa, out=kappa)


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
    `pair_coupling` gives per mode (`evolve_structured` applies it).
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
    p_left: float  # -(runway + envelope_tail)
    runway: float  # `required_runway`
    envelope_tail: float  # `envelope_tail` at DEFAULT_TAIL_TOL
    p_right: float
    p_diamond: float
    k_star: int
    recovery_method: str
    gamma_f: float
    sigma_groups: int  # distinct singular values
    evolved_groups: int  # the groups above the rounding floor, each evolved once
    pruned_weight: float  # weight of the other groups, over the solution scale


def plan(spec: mag_mod.SpectralSystem, delta: float, n_p: int | None = None) -> tuple:
    """(report, pairs, grid): the run's whole `PipelineReport`, settled
    before the evolution, the pair system at the forcing scale
    `default_forcing_scale`, and the grid (`build_grid_from_rate`), which
    `cli.cmd_complexity` prices."""
    t_end = mag_mod.horizon("schro", spec, delta)[1]
    pairs = build_pair_system(spec)
    runway = required_runway(pairs, t_end)
    tail = envelope_tail(DEFAULT_TAIL_TOL)
    # decay the envelope below noise at the periodic seam: the largest
    # state component (usually the forcing block at scale ||F||/gamma_f)
    # must fall to ~1e-10 of the solution scale by p_right (per sigma group)
    norms = pairs.group_norms()[pairs.evolved]
    top = float(max(np.max(norms, initial=0.0), 1e-300))
    wref = float(max(np.max(norms[:, :2], initial=0.0), 1e-300))
    right_margin = max(RIGHT_MARGIN, math.log(top / (1e-10 * wref)))
    rate = pairs.lambda_max_h1()
    grid = build_grid_from_rate(rate, t_end, n_p, -(runway + tail), right_margin)
    p_diamond = max(rate * t_end, 0.0)
    report = PipelineReport(
        t_end=t_end, n_p=grid.n_p, p_left=grid.p_left, runway=runway, envelope_tail=tail,
        p_right=grid.p_right, p_diamond=p_diamond, k_star=recovery_index(grid, p_diamond),
        recovery_method="integral", gamma_f=pairs.gamma_f, sigma_groups=int(pairs.reps.size),
        evolved_groups=int(pairs.evolved.size), pruned_weight=pairs.pruned_weight(),
    )
    return report, pairs, grid


def pipeline(spec: mag_mod.SpectralSystem, delta: float, n_p: int | None = None, *,
             snapshot_rows: int = 0, block: int | None = None):
    """End-to-end solve of A u = b through the Hamiltonian realization, in
    the basis of the run's `spec` (`mag.build_spectral`).

    Evolves to t_end, schro's `mag.horizon`, on the grid of `plan`, reads
    the field back out past the threshold with the integral readout and
    unscales the first block by (1 - beta).  Returns (x, report, snapshot),
    u = V x: with snapshot_rows > 0 the snapshot is (points, rows), the
    final warped field on every (n_p // snapshot_rows)-th grid point from
    the same evolution pass, else None.  InputError where mag's `horizon`
    to delta on the first `block` entries of u is refused.  Checking u
    against a reference solution is left to the caller.
    """
    # the delta and kappa_hat the momentum iteration refuses are refused here too
    mag_mod.horizon("mag", spec, delta, block)
    report, pairs, grid = plan(spec, delta, n_p)
    advect = float(np.max(pairs.advection_speeds())) * report.t_end
    stride = max(1, grid.n_p // snapshot_rows) if snapshot_rows > 0 else 0
    # evolve_structured holds the weights' one reference and drops it after use
    w_rec, rows = evolve_structured(pairs, grid, report.t_end,
                                    readout_weights(grid, report.k_star, advect), stride)
    snapshot = (grid.points[::stride], rows) if stride else None
    return w_rec[:, 0] / (1.0 - spec.params.beta), report, snapshot
