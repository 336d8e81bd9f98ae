"""Momentum-accelerated gradient solver for A u = b.

The heavy-ball recursion

    u_{n+1} = u_n + alpha (A^H b - A^H A u_n) + beta (u_n - u_{n-1})

is run in transformed 2n-dimensional variables w_n = [(1-beta) u_n;
sqrt(alpha*beta) A u_{n-1}], whose one-step map w -> H w + F has a
negative-definite Hermitian part gap and spectral radius sqrt(beta) when
the declared bounds bracket the spectrum of A^H A.  Conjugate transpose
replaces plain transpose so the complex Robin problems go through the
same path; the two coincide for real data.

With A = U Sigma V^H, the basis diag(V, U) splits H, and I - H with it,
into one 2x2 block [[1 - alpha s^2, -c s], [c s, beta]] per singular
value s (c = sqrt(alpha*beta)), and F into [alpha s b~; 0] with b~ = U^H b.
A run factors A once (`build_spectral`, through `linalg.svd`: in closed
form for a PDE problem without a Robin node, else by a dense SVD; it
refuses a singular A, and takes the bounds from A's own spectrum unless
given) into a `SpectralSystem`,
whose `ode`, the map's ODE dw/dt = (H - I) w + F as one `FlowSystem` with
block [[-alpha s^2, -c s], [c s, beta - 1]] and drive per s, every
realization reads: the iteration steps it on (n, 2) states, and its closed
forms per block give the steady state and the spectra of the radius guard
and the I - H check.  No 2n x 2n matrix is built (`tests/reference.py`).

The same system holds the flows the paper compares against, `gradient`
and `damped`.  A method is one flow run by one realization for the
length `horizon` sets: mag steps `ode` (`solve_spectral`), schro evolves
it as a Hamiltonian (`schrod.pipeline`), gradient and damped take their
flow's closed form `FlowSystem.at`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, InputError, SpectrumBoundsError
from .linalg import as_cmatrix, as_cvector, condition_check, require_square, svd

# where sigma^2 sits on a declared bound the 2x2 block is defective and its
# eigenvalue moduli are only sqrt(eps)-accurate (closed form and dense eig
# alike), so the radius check tolerates ~1e-7 there; genuine bound
# violations move the radius by orders of magnitude more
SPECTRAL_RADIUS_TOL = 1e-6
# 9.7 times the largest preset step budget (fig6a, 6946816 entries); a run
# whose budget needs more is a usage error before it iterates
MAX_ITERATION_ENTRIES = 1 << 26
# the most consecutive states `mag_iterate` hands its `on_states` at once
STATE_CHUNK = 1024
# the damping rate of every damped run, just below critical damping 2 sigma_min
GAMMA_PER_SIGMA_MIN = 1.9


@dataclass(frozen=True)
class MagParams:
    """Optimal-rate step size alpha and momentum beta for bounds of A^H A:
    l_hat bounds sigma_max^2 from above, mu_hat (> 0) sigma_min^2 from
    below, and kappa_hat = sqrt(l_hat/mu_hat).  Bounds that give no such
    alpha and beta (`--lhat/--muhat`, or a spectrum's own) raise InputError."""

    l_hat: float
    mu_hat: float

    def __post_init__(self):
        if not (0.0 < self.mu_hat <= self.l_hat) or not math.isfinite(self.l_hat):
            raise InputError(
                f"need 0 < mu_hat <= l_hat, got ({self.l_hat}, {self.mu_hat})"
            )
        if not math.isfinite(self.kappa_hat):
            raise InputError(f"kappa_hat = sqrt(l_hat/mu_hat) overflows, got "
                             f"({self.l_hat}, {self.mu_hat})")
        if not (0.0 <= self.beta < 1.0):
            raise InputError(f"need 0 <= beta < 1, got {self.beta}")
        # equality alpha == 1/mu_hat at l_hat == mu_hat, up to rounding
        if not (0.0 < self.alpha <= (1.0 + 4e-16) / self.mu_hat):
            raise InputError(f"need 0 < alpha <= 1/mu_hat, got {self.alpha}")

    @cached_property
    def kappa_hat(self) -> float:
        return math.sqrt(self.l_hat / self.mu_hat)

    @cached_property
    def alpha(self) -> float:
        # 0.0, which the bounds check refuses, where the square overflows
        try:
            return 4.0 / (math.sqrt(self.l_hat) + math.sqrt(self.mu_hat)) ** 2
        except OverflowError:
            return 0.0

    @cached_property
    def beta(self) -> float:
        return ((self.kappa_hat - 1.0) / (self.kappa_hat + 1.0)) ** 2


@dataclass(frozen=True)
class FlowSystem:
    """dw/dt = M w + g as one k x k block of M and k-vector of g per
    singular value of a run's `SpectralSystem`; a state is (n, k), in that
    system's basis.  A flow is only its blocks and drive: it keeps no
    reference to the system it was built from."""

    blocks: np.ndarray  # (n, k, k)
    drive: np.ndarray  # (n, k)

    @cached_property
    def _step_entries(self) -> tuple:
        # (1 + m_ii, m_ij) for row i of each 2x2 block and j != i, as (n, 2)
        # arrays; 1 + m_00 of the momentum ODE is 1 - alpha s^2 bit for bit
        m = self.blocks
        return 1.0 + m.diagonal(axis1=1, axis2=2), m[:, [0, 1], [1, 0]]

    def step(self, w: np.ndarray) -> np.ndarray:
        """The unit Euler step w + M w + g of an (n, 2) state, entry by entry:
        row i is (1 + m_ii) w_i + m_ij w_j + g_i."""
        unit, cross = self._step_entries
        out = unit * w
        out += cross * w[:, ::-1]
        out += self.drive
        return out

    @cached_property
    def _spectrum(self) -> tuple:
        # (tau, half_gap, disc) of each 2x2 block, whose eigenvalues are tau +- sqrt(disc)
        m = self.blocks
        tau = (m[:, 0, 0] + m[:, 1, 1]) / 2.0
        half_gap = (m[:, 0, 0] - m[:, 1, 1]) / 2.0
        return tau, half_gap, half_gap**2 + m[:, 0, 1] * m[:, 1, 0]

    def eigenvalues(self) -> np.ndarray:
        """Each 2x2 block's eigenvalues tau +- sqrt(tau^2 - det), (n, 2) complex."""
        tau, _, disc = self._spectrum
        root = np.sqrt(disc.astype(np.complex128))
        return np.stack([tau + root, tau - root], axis=-1)

    def singular_values(self) -> np.ndarray:
        """The singular values of each block, (n, k), unordered.  A real 2x2
        block [[a, b], [c, d]] has (hypot(a+d, c-b) +- hypot(a-d, b+c))/2;
        the smaller is taken as |det| / larger, which avoids the cancellation."""
        m = self.blocks
        if m.shape[1] == 1:
            return np.abs(m[:, 0])
        a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
        large = (np.hypot(a + d, c - b) + np.hypot(a - d, b + c)) / 2.0
        return np.stack([large, np.abs(a * d - b * c) / large], axis=-1)

    def steady_pairs(self) -> np.ndarray:
        """-M^{-1} g per block, (n, k), one read-only array per flow;
        SingularMatrixError, on every call, where a block, on its own as it
        is solved, is singular to working tolerance (`singular_values`);
        across blocks the spread is larger: kappa(A)^2 for the gradient flow."""
        return self._steady

    @cached_property
    def _steady(self) -> np.ndarray:
        sv = self.singular_values()
        small, large = sv.min(axis=1), sv.max(axis=1)
        inverse_cond = np.divide(small, large, out=np.zeros_like(small), where=large > 0)
        condition_check(sv[np.argmin(inverse_cond)])
        m, g = self.blocks, self.drive
        if g.shape[1] == 1:
            w_inf = -g / m[:, 0]
        else:
            det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
            w_inf = np.stack([m[:, 0, 1] * g[:, 1] - m[:, 1, 1] * g[:, 0],
                              m[:, 1, 0] * g[:, 0] - m[:, 0, 0] * g[:, 1]], axis=-1) / det[:, None]
        w_inf.flags.writeable = False
        return w_inf

    def propagate(self, v, t) -> np.ndarray:
        """exp(M t) v for the (n, k) pieces v of a vector, in closed form per
        block; real blocks only.  A 2x2 block with eigenvalues tau +- d
        (`_spectrum`, d^2 = disc) has

            exp(M t) = e^{tau t} (C I + S (M - tau I)),

        C = cosh(d t), S = sinh(d t)/d for d^2 > 0 and C = cos(w t),
        S = sin(w t)/w for d^2 = -w^2 < 0.  The real branch is evaluated as
        e^{(tau+d) t} (1 + q/2) and -e^{(tau+d) t} q/(2d), q = expm1(-2 d t): no
        factor exceeds 1 when the eigenvalues have nonpositive real parts, and
        S keeps its accuracy as d -> 0.  At d = 0 (a defective or scalar
        block) S = t.  A scalar t gives (n, k), an array of times
        (len(t), n, k).
        """
        m = self.blocks
        v = np.asarray(v, dtype=np.complex128)
        if v.ndim != 2 or v.shape[1] not in (1, 2) or m.shape != v.shape + v.shape[1:]:
            raise ValueError(f"shape mismatch: blocks {m.shape} vs vector pieces {v.shape}")
        if not np.isrealobj(m):
            raise ValueError("blocks must be real")
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("time must be finite")
        t = t[..., None]
        if v.shape[1] == 1:
            return np.exp(m[:, 0, 0] * t)[..., None] * v
        tau, half_gap, disc = self._spectrum
        root = np.sqrt(np.abs(disc))
        real = disc > 0.0
        d = np.where(real, root, 0.0)
        lead = np.exp((tau + d) * t)  # e^{tau t} where the roots are complex
        q = np.expm1(-2.0 * d * t)
        c = lead * np.where(real, 1.0 + q / 2.0, np.cos(root * t))
        s = lead * np.where(root == 0.0, t, np.where(real, -q / 2.0, np.sin(root * t))
                            / np.where(root == 0.0, 1.0, root))
        shifted = np.stack([half_gap * v[:, 0] + m[:, 0, 1] * v[:, 1],
                            m[:, 1, 0] * v[:, 0] - half_gap * v[:, 1]], axis=-1)
        return c[..., None] * v + s[..., None] * shifted

    def at(self, t) -> np.ndarray:
        """The (n, k) state from w = 0 at time t; (len(t), n, k) at an array of times."""
        w_inf = self.steady_pairs()
        return w_inf + self.propagate(-w_inf, t)


@dataclass(frozen=True)
class SpectralSystem:
    """The one-step map in the basis of A's SVD; its (n, 2) states [x_j, y_j]
    stand for the states [V x; U y] of the dense map w -> H w + F."""

    sigma: np.ndarray  # descending
    u: np.ndarray
    vh: np.ndarray
    b_t: np.ndarray  # U^H b
    params: MagParams

    @property
    def n(self) -> int:
        return self.sigma.size

    @cached_property
    def ode(self) -> FlowSystem:
        """The map's ODE dw/dt = (H - I) w + F: per singular value s the
        block [[-alpha s^2, -c s], [c s, beta - 1]] and drive [alpha s b~; 0],
        which every realization of the map reads."""
        p, s = self.params, self.sigma
        cs, f = math.sqrt(p.alpha * p.beta) * s, p.alpha * s * self.b_t
        entries = [-p.alpha * s**2, -cs, cs, np.full_like(s, p.beta - 1.0)]  # row-major
        return FlowSystem(blocks=np.stack(entries, axis=-1).reshape(-1, 2, 2),
                          drive=np.stack([f, np.zeros_like(f)], axis=-1))

    @cached_property
    def gradient(self) -> FlowSystem:
        """The gradient flow du/dt = A^H b - A^H A u: per singular value s
        the 1 x 1 block -s^2 and drive s b~; its steady state is the
        least-squares solution."""
        s = self.sigma
        return FlowSystem(blocks=-(s**2)[:, None, None], drive=(s * self.b_t)[:, None])

    @cached_property
    def damped(self) -> FlowSystem:
        """Second-order damped dynamics in first-order form on w = [u; v]:
        per singular value s the block [[0, -s], [s, -gamma]] and drive
        [0; -b~], damped at gamma = GAMMA_PER_SIGMA_MIN sigma_min.  The
        auxiliary block of the steady state is exactly zero, which is what
        breaks the relative convergence of this method."""
        s, b_t = self.sigma, self.b_t
        blocks = np.zeros((s.size, 2, 2))
        gamma = GAMMA_PER_SIGMA_MIN * float(s[-1])
        blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1] = -s, s, -gamma
        return FlowSystem(blocks=blocks, drive=np.stack([np.zeros_like(b_t), -b_t], axis=-1))

    @cached_property
    def mapped_steady(self) -> np.ndarray:
        """The steady state of `ode` mapped to [V x; U y], once per system."""
        return self.to_state(self.ode.steady_pairs())

    def to_state(self, w) -> np.ndarray:
        """[V x; U y] of an (n, 2) state [x_j, y_j], or of each state of an
        (..., n, 2) stack."""
        w, n = np.asarray(w), self.n
        out = np.empty(w.shape[:-2] + (2 * n,), dtype=np.complex128)
        _times(w[..., 0], self.vh, out[..., :n])
        _times(w[..., 1], self.u.T, out[..., n:], conj=False)
        return out

    def solution(self, x) -> np.ndarray:
        """u = V x from the coefficients x of a method's answer, or of each row."""
        x = np.asarray(x)
        return _times(x, self.vh, np.empty(x.shape, dtype=np.complex128))


def _times(w, f, out, conj: bool = True) -> np.ndarray:
    """out = w @ conj(f) (w @ f unless `conj`).  A real f multiplies the
    real and imaginary parts of w stacked as one real matrix, instead of
    being cast to complex on every call."""
    if np.iscomplexobj(f):
        return np.matmul(np.ascontiguousarray(w), f.conj() if conj else f, out=out)
    rows = np.reshape(w, (-1, f.shape[0]))
    parts = np.concatenate([rows.real, rows.imag]) @ f
    out.real, out.imag = (part.reshape(out.shape) for part in np.split(parts, 2))
    return out


def build_spectral(a, b, params: MagParams | None = None, problem=None) -> SpectralSystem:
    """The map in the basis of A's full SVD, for the bounds `params`, by
    default A's own (sigma_max^2, sigma_min^2).  The SVD is `linalg.svd`'s:
    closed-form where `problem`, the `pde.PdeProblem` A was assembled
    from, has it, else dense.  The one place that turns (A, b) into
    singular values, vectors and U^H b; SingularMatrixError where A is
    singular to working tolerance, InputError where sigma_max^2 overflows
    or sigma_min^2 is subnormal."""
    a, b = require_square(as_cmatrix(a)), as_cvector(b)
    if b.shape[0] != a.shape[0]:
        raise InputError(f"rhs length {b.shape[0]} != matrix dimension {a.shape[0]}")
    u, s, vh = svd(a, problem)
    condition_check(s)
    if not math.isfinite(float(s[0]) * float(s[0])):  # the blocks and bounds hold sigma^2
        raise InputError(f"sigma_max^2 overflows: sigma_max = {s[0]:.3e}")
    if float(s[-1]) * float(s[-1]) < np.finfo(float).tiny:  # sigma^2 would have lost digits
        raise InputError(f"sigma_min^2 is subnormal: sigma_min = {s[-1]:.3e}")
    if params is None:
        params = MagParams(s[0] ** 2, s[-1] ** 2)
    b_t = _times(b, u, np.empty(s.size, dtype=np.complex128))  # b conj(U) = U^H b
    return SpectralSystem(sigma=s, u=u, vh=vh, b_t=b_t, params=params)


@dataclass
class IterationTrace:
    steps: int
    residuals: list  # ||Delta w_n|| / ||Delta w_0||
    w_final: np.ndarray = field(default=None, repr=False)


def mag_iterate(sys, delta: float, max_steps: int, on_states=None) -> IterationTrace:
    """Run w <- sys.step(w), the map w -> H w + F, from rest (w_0 = 0, the
    heavy ball's u_0 = u_{-1} = 0) until the error contracts below delta.

    `sys` is the momentum ODE `SpectralSystem.ode`, whose states are
    (n, 2), or any system with a `step` and a `steady_pairs()` w_inf of
    the state's shape.  Termination measures ||w_n - w_inf|| / ||w_inf||
    (a unitary change of basis leaves it unchanged).
    No state is kept: `on_states`, if given, is called with the states
    w_0, w_1, ... in order, as stacks of 1 to STATE_CHUNK consecutive
    states that the caller may drop.  A run that ends in ConvergenceError
    has handed over every full stack, and drops the states after them.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0,1), got {delta}")
    w_inf = sys.steady_pairs()
    w = np.zeros(np.shape(w_inf), dtype=np.complex128)
    denom = np.linalg.norm(w_inf)
    residuals, chunk = [1.0], [] if on_states is None else [w]
    while denom > 0.0 and not residuals[-1] < delta:
        if len(residuals) > max_steps:
            raise ConvergenceError(
                f"no convergence to {delta:g} within {max_steps} steps "
                f"(final residual {residuals[-1]:.3e})",
                residual=residuals[-1],
            )
        w = sys.step(w)
        residuals.append(float(np.linalg.norm(w - w_inf) / denom))
        if on_states is not None:
            chunk.append(w)
            if len(chunk) == STATE_CHUNK:
                on_states(np.array(chunk))
                chunk = []
    if chunk:
        on_states(np.array(chunk))
    return IterationTrace(steps=len(residuals) - 1, residuals=residuals, w_final=w)


def horizon(method: str, spec: SpectralSystem, delta: float, block: int | None = None) -> tuple:
    """(delta_run, horizon) of `method` on `spec` for a max-norm relative
    error delta on the first `block` entries of u, the part a run writes
    (all of u by default); the one place a run's length is set, once per
    run by `cli._run_method`, which hands it to the realization.  mag and
    the gradient flow run to delta_run = delta / max(||w||_2 / max|u block
    of w|, 1) of their steady state w ([V x; U y], and x* = b~/sigma), the
    most by which that error exceeds the state residual ||w_t - w|| / ||w||:
      mag       4 ceil(kappa_hat ln(1/delta_run)) steps of the map
      gradient  ln(1/delta_run)/sigma_min^2: |u(t) - u*| <= e^{-sigma_min^2 t} ||x*||_2
      schro     ceil(((kappa_hat + 1)/kappa_hat) kappa_hat ln(1/delta)) in the
                momentum ODE's time; on the figure presets' grids the
                discretization error sits below delta/100, so this time
                truncation is most of schro's error
      damped    ln(1/delta)/sigma_min, the paper's, which can miss delta
    InputError where delta_run is not > 0 or 1/delta_run is not a finite
    double, where mag's steps of 2n entries exceed MAX_ITERATION_ENTRIES,
    a kappa_hat no realization of the map is run for, and where a time overflows."""
    delta_run = delta
    if method in ("mag", "gradient"):
        w = spec.mapped_steady if method == "mag" else spec.b_t / spec.sigma
        u = w[: spec.n] if method == "mag" else spec.solution(w)
        top = float(np.max(np.abs(u[:block])))
        if top > 0.0:
            delta_run /= max(float(np.linalg.norm(w)) / top, 1.0)
    if not (delta_run > 0.0 and math.isfinite(1.0 / delta_run)):
        raise InputError(f"delta={delta:.3g} is out of reach: {method} would run to a residual "
                         f"of {delta_run:.3g}, whose ln(1/residual) is not finite")
    log_term, kappa_hat = math.log(1.0 / delta_run), spec.params.kappa_hat
    if method == "mag":
        steps = 4 * math.ceil(kappa_hat * log_term)
        if steps * 2 * spec.n > MAX_ITERATION_ENTRIES:
            raise InputError(f"kappa_hat={kappa_hat:.3g} allows {steps} steps of "
                             f"{2 * spec.n} entries, beyond the budget of {MAX_ITERATION_ENTRIES}")
        return delta_run, steps
    if method == "schro":
        length = float(math.ceil((kappa_hat + 1.0) / kappa_hat * kappa_hat * log_term))
    elif method == "gradient":
        length = log_term / float(spec.sigma[-1]) ** 2
    elif method == "damped":
        length = log_term / float(spec.sigma[-1])
    else:
        raise ValueError(f"unknown method {method!r}")
    if not math.isfinite(length):
        raise InputError(f"{method}'s run time overflows: sigma_min = {spec.sigma[-1]:.3e}")
    return delta_run, length


def solve_spectral(spec: SpectralSystem, delta_run: float, max_steps: int,
                   trace: bool = False) -> tuple:
    """Step `spec.ode` from w = 0 until the state residual is below
    delta_run, within max_steps: mag's `horizon`, the pair that bounds the
    max-norm relative u error of a run.  Returns (iteration, x/(1 - beta),
    kappa2, relative) for the final state [x_j, y_j], u = V x/(1 - beta).  With
    `trace`, kappa2 is kappa_2 of `spec.mapped_steady`, whose components
    a relative trace divides its errors by: inf where one sits near zero,
    so that no such trace is well posed (the failure mode of the damped
    dynamics, whose auxiliary steady state vanishes).  It is known before
    the first step, so the states are streamed only where it is finite,
    each stack into its `relative_trace`, and the joined norms are
    divided by the first; relative is None elsewhere, and kappa2 inf
    without `trace`.  For a real A that is the whole stack's trace bit for
    bit; for a complex A a last stack of one state is mapped by numpy's
    vector-matrix product, which may differ from the stack's in the last bit."""
    kappa2 = _steady_kappa2(spec.mapped_steady) if trace else math.inf
    norms, on_states = [], None
    if kappa2 < math.inf:
        def on_states(states):
            norms.append(relative_trace(states, spec))
    iteration = mag_iterate(spec.ode, delta_run, max_steps, on_states=on_states)
    relative = None
    if norms:  # over the value at w_0 = 0, sqrt(2n)
        relative = np.concatenate(norms)
        relative /= relative[0]
    return iteration, iteration.w_final[:, 0] / (1.0 - spec.params.beta), kappa2, relative


def spectral_radius_check(spec: SpectralSystem) -> float:
    """rho(H) = max |1 + lambda| over the eigenvalues lambda of the blocks
    of H - I, `spec.ode`.

    The radius is sqrt(beta) exactly when every sigma_j^2 lies in
    [mu_hat, l_hat], and larger otherwise.  Raises SpectrumBoundsError
    unless it equals sqrt(beta) within SPECTRAL_RADIUS_TOL (1e-6); bounds
    so far below the spectrum that a block overflows give an inf or nan
    radius, which fails the check too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rho = float(np.max(np.abs(1.0 + spec.ode.eigenvalues())))
    expected = math.sqrt(spec.params.beta)
    if not abs(rho - expected) <= SPECTRAL_RADIUS_TOL:
        raise SpectrumBoundsError(
            f"spectral radius {rho:.12f} != sqrt(beta) {expected:.12f}; "
            "declared bounds do not bracket the spectrum of A^H A"
        )
    return rho


NEAR_ZERO_FACTOR = 1e-12


def _steady_kappa2(w_inf: np.ndarray) -> float:
    """max|w_inf| / min|w_inf|, or inf where a component of w_inf is within
    NEAR_ZERO_FACTOR ||w_inf|| of zero."""
    mags = np.abs(w_inf)
    if np.min(mags) <= NEAR_ZERO_FACTOR * np.linalg.norm(w_inf):
        return math.inf
    return float(np.max(mags) / np.min(mags))


def relative_trace(states, system: SpectralSystem) -> np.ndarray:
    """||(w - w_inf) / w_inf|| for each state of `states`, a stack of
    (n, 2) states of `system`, mapped back to [V w1; U w2] first, against
    its mapped steady state w_inf (`SpectralSystem.mapped_steady`),
    whose kappa_2 the caller has found finite: one stack's part of a
    componentwise-relative residual trace, before its division by the
    value at n = 0."""
    w_inf = system.mapped_steady
    err = system.to_state(states)
    err -= w_inf
    err /= w_inf
    return np.sqrt(np.einsum("ij,ij->i", err.real, err.real)
                   + np.einsum("ij,ij->i", err.imag, err.imag))
