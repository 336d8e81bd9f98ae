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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, InputError, SpectrumBoundsError
from .linalg import as_cmatrix, as_cvector, block_expm_apply, condition_check, require_square, svd

# where sigma^2 sits on a declared bound the 2x2 block is defective and its
# eigenvalue moduli are only sqrt(eps)-accurate (closed form and dense eig
# alike), so the radius check tolerates ~1e-7 there; genuine bound
# violations move the radius by orders of magnitude more
SPECTRAL_RADIUS_TOL = 1e-6
# 13 times the largest preset step budget (fig6d, 5.1e6) and 1 GiB of kept
# states; a run whose budget needs more is a usage error before it iterates
MAX_ITERATION_ENTRIES = 1 << 26


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
        return 4.0 / (math.sqrt(self.l_hat) + math.sqrt(self.mu_hat)) ** 2

    @cached_property
    def beta(self) -> float:
        return ((self.kappa_hat - 1.0) / (self.kappa_hat + 1.0)) ** 2


@dataclass(frozen=True)
class FlowSystem:
    """dw/dt = M w + g as one k x k block of M and k-vector of g per
    singular value of the run's `spec`; a state is (n, k), in that basis."""

    blocks: np.ndarray  # (n, k, k)
    drive: np.ndarray  # (n, k)
    spec: SpectralSystem

    @cached_property
    def _step_entries(self) -> tuple:
        # (1 + m_ii, m_ij) for row i of each block and j != i (zero at k = 1), as
        # (n, k) arrays; 1 + m_00 of the momentum ODE is 1 - alpha s^2 bit for bit
        m = self.blocks
        cross = m[:, [0, 1], [1, 0]] if m.shape[1] == 2 else np.zeros(m.shape[:2])
        return 1.0 + m.diagonal(axis1=1, axis2=2), cross

    def step(self, w: np.ndarray) -> np.ndarray:
        """The unit Euler step w + M w + g of an (n, k) state, entry by entry:
        row i is (1 + m_ii) w_i + m_ij w_j + g_i."""
        unit, cross = self._step_entries
        out = unit * w
        out += cross * w[:, ::-1]
        out += self.drive
        return out

    def eigenvalues(self) -> np.ndarray:
        """Each block's eigenvalues tau +- sqrt(tau^2 - det), (n, k) complex."""
        m = self.blocks
        if m.shape[1] == 1:
            return m[:, 0].astype(np.complex128)
        tau = (m[:, 0, 0] + m[:, 1, 1]) / 2.0
        disc = ((m[:, 0, 0] - m[:, 1, 1]) / 2.0) ** 2 + m[:, 0, 1] * m[:, 1, 0]
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
        """-M^{-1} g per block, (n, k); SingularMatrixError where a block, on its
        own as it is solved, is singular to working tolerance (`singular_values`);
        across blocks the spread is larger: kappa(A)^2 for the gradient flow."""
        sv = self.singular_values()
        small, large = sv.min(axis=1), sv.max(axis=1)
        inverse_cond = np.divide(small, large, out=np.zeros_like(small), where=large > 0)
        condition_check(sv[np.argmin(inverse_cond)])
        m, g = self.blocks, self.drive
        if g.shape[1] == 1:
            return -g / m[:, 0]
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        return np.stack([m[:, 0, 1] * g[:, 1] - m[:, 1, 1] * g[:, 0],
                         m[:, 1, 0] * g[:, 0] - m[:, 0, 0] * g[:, 1]], axis=-1) / det[:, None]

    def at(self, t) -> np.ndarray:
        """The (n, k) state from w = 0 at time t; (len(t), n, k) at an array of times."""
        w_inf = self.steady_pairs()
        return w_inf + block_expm_apply(self.blocks, -w_inf, t)


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
                          drive=np.stack([f, np.zeros_like(f)], axis=-1), spec=self)

    def to_state(self, w) -> np.ndarray:
        """[V x; U y] of an (n, 2) state [x_j, y_j], or of each state of an
        (..., n, 2) stack; an (n, 1) state, the gradient flow's, maps to V x."""
        w, n = np.asarray(w), self.n
        out = np.empty(w.shape[:-2] + (w.shape[-1] * n,), dtype=np.complex128)
        _times(w[..., 0], self.vh, out[..., :n])
        if w.shape[-1] > 1:
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
    singular to working tolerance, InputError where sigma_max^2 overflows."""
    a, b = require_square(as_cmatrix(a)), as_cvector(b)
    if b.shape[0] != a.shape[0]:
        raise InputError(f"rhs length {b.shape[0]} != matrix dimension {a.shape[0]}")
    u, s, vh = svd(a, problem)
    condition_check(s)
    if not math.isfinite(float(s[0]) * float(s[0])):  # the blocks and bounds hold sigma^2
        raise InputError(f"sigma_max^2 overflows: sigma_max = {s[0]:.3e}")
    if params is None:
        params = MagParams(s[0] ** 2, s[-1] ** 2)
    b_t = _times(b, u, np.empty(s.size, dtype=np.complex128))  # b conj(U) = U^H b
    return SpectralSystem(sigma=s, u=u, vh=vh, b_t=b_t, params=params)


@dataclass
class IterationTrace:
    steps: int
    states: list  # w_n per step when recorded, else []
    residuals: list  # ||Delta w_n|| / ||Delta w_0||
    w_final: np.ndarray = field(default=None, repr=False)


def mag_iterate(
    sys,
    w0,
    delta: float,
    max_steps: int,
    *,
    w_inf: np.ndarray,
    keep_states: bool = True,
) -> IterationTrace:
    """Run w <- sys.step(w), the map w -> H w + F, until the error contracts
    below delta.

    `sys` is the momentum ODE `SpectralSystem.ode`, whose states are
    (n, 2), or any system with a `step` on states shaped like w_inf.
    Termination measures ||w_n - w_inf|| / ||w_0 - w_inf|| against the
    steady state w_inf (a unitary change of basis leaves it unchanged).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0,1), got {delta}")
    w = np.array(w0, dtype=np.complex128)
    if w.shape != np.shape(w_inf) or not np.all(np.isfinite(w)):
        raise ValueError(f"w0 must be finite and shaped like the steady state {np.shape(w_inf)}")

    denom = np.linalg.norm(w - w_inf)
    if denom == 0.0:
        return IterationTrace(0, [w.copy()] if keep_states else [], [1.0], w_final=w)
    states = [w.copy()] if keep_states else []
    residuals = [1.0]
    for _ in range(max_steps):
        w = sys.step(w)
        residuals.append(float(np.linalg.norm(w - w_inf) / denom))
        if keep_states:
            states.append(w)
        if residuals[-1] < delta:
            return IterationTrace(
                steps=len(residuals) - 1,
                states=states,
                residuals=residuals,
                w_final=w,
            )
    raise ConvergenceError(
        f"no convergence to {delta:g} within {max_steps} steps "
        f"(final residual {residuals[-1]:.3e})",
        residual=residuals[-1],
    )


def solution_error_factor(w_inf: np.ndarray, block: int | None = None) -> float:
    """Bound on (max-norm relative u error) / (transformed-state residual).

    The termination criterion contracts ||w - w_inf|| / ||w_inf||; after
    unscaling the first block the max-norm error relative to u picks up
    at most ||w_inf||_2 / max|w_inf(u block)|, or over the first `block`
    entries of u, the part a run writes (`pde.PdeProblem.solution_size`).
    """
    u_inf = w_inf[: w_inf.size // 2]
    top = float(np.max(np.abs(u_inf[:block])))
    if top == 0.0:
        return 1.0
    return max(float(np.linalg.norm(w_inf)) / top, 1.0)


def step_budget(spec: SpectralSystem, delta: float, block: int | None = None) -> tuple:
    """(w_inf, w_state, delta_run, max_steps) for a run to max-norm relative
    u error delta, on the first `block` entries of u if given: the steady
    state of `spec.ode` and the state [V w1; U w2] it maps to, the state
    residual delta_run that guarantees delta (`solution_error_factor`) and
    4 times the steps that reach it.
    InputError where max_steps states of 2n entries exceed
    MAX_ITERATION_ENTRIES, a kappa_hat that no realization of the map is
    run for: `solve_spectral` and `schrod.pipeline` both check it."""
    w_inf = spec.ode.steady_pairs()
    w_state = spec.to_state(w_inf)
    delta_run = delta / solution_error_factor(w_state, block)
    max_steps = 4 * convergence_steps(spec.params.kappa_hat, delta_run)
    if max_steps * 2 * spec.n > MAX_ITERATION_ENTRIES:
        raise InputError(f"kappa_hat={spec.params.kappa_hat:.3g} allows {max_steps} steps of "
                         f"{2 * spec.n} entries, beyond the budget of {MAX_ITERATION_ENTRIES}")
    return w_inf, w_state, delta_run, max_steps


def solve_spectral(spec: SpectralSystem, delta: float, trace: bool = False,
                   block: int | None = None) -> tuple:
    """Step `spec.ode` from w = 0 until the max-norm relative u error, on
    the first `block` entries of u if given, is below delta (`step_budget`);
    returns (iteration, x/(1 - beta), kappa2, relative) for the final state
    [x_j, y_j], u = V x/(1 - beta).  With `trace`, kappa2 is kappa_2 of the
    mapped steady state, whose components a relative trace divides its
    errors by: inf where one sits near zero, so that no such trace is well
    posed (the failure mode of the damped dynamics, whose auxiliary steady
    state vanishes).  It is known before the first step, so the states are
    kept only where it is finite, for their `relative_trace`; relative is
    None elsewhere, and kappa2 inf without `trace`."""
    w_inf, w_state, delta_run, max_steps = step_budget(spec, delta, block)
    kappa2 = _steady_kappa2(w_state) if trace else math.inf
    iteration = mag_iterate(spec.ode, np.zeros((spec.n, 2)), delta_run, max_steps,
                            w_inf=w_inf, keep_states=kappa2 < math.inf)
    relative = relative_trace(iteration, w_state, spec) if kappa2 < math.inf else None
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


def convergence_steps(kappa_hat: float, delta: float, safety: float = 1.0) -> int:
    """Sufficient step count ceil(safety * kappa_hat * ln(1/delta))."""
    if kappa_hat < 1.0:
        raise ValueError("kappa_hat must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0,1)")
    return math.ceil(safety * kappa_hat * math.log(1.0 / delta))


NEAR_ZERO_FACTOR = 1e-12


def _steady_kappa2(w_inf: np.ndarray) -> float:
    """max|w_inf| / min|w_inf|, or inf where a component of w_inf is within
    NEAR_ZERO_FACTOR ||w_inf|| of zero."""
    mags = np.abs(w_inf)
    if np.min(mags) <= NEAR_ZERO_FACTOR * np.linalg.norm(w_inf):
        return math.inf
    return float(np.max(mags) / np.min(mags))


def _relative_residuals(w_inf: np.ndarray, states) -> list:
    """||(w_n - w_inf) / w_inf|| over its value at n = 0, for each row w_n
    of `states`: one array expression over the rows."""
    err = np.subtract(np.reshape(states, (-1, w_inf.size)), w_inf)
    err /= w_inf
    hats = np.sqrt(np.einsum("ij,ij->i", err.real, err.real)
                   + np.einsum("ij,ij->i", err.imag, err.imag))
    denom = hats[0] if hats.size and hats[0] > 0 else 1.0
    return (hats / denom).tolist()


def relative_trace(trace: IterationTrace, w_state: np.ndarray, system: SpectralSystem) -> list:
    """The componentwise-relative residual trace (`_relative_residuals`) of
    a run of `system` recorded with its states, those mapped back to
    [V w1; U w2] first, against its mapped steady state w_state
    (`step_budget`), whose kappa_2 the caller has found finite."""
    if not trace.states:
        raise ValueError("trace was recorded without states; rerun with keep_states=True")
    return _relative_residuals(w_state, system.to_state(np.array(trace.states)))
