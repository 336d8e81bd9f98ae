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
A run factors A once and iterates in that basis (`SpectralSystem`):
elementwise steps, the closed-form steady state [(1-beta) b~/s; c b~],
and closed-form spectra for the radius guard and the I - H checks.  No
2n x 2n matrix is built; the dense H lives in the tests' reference module
(`tests/reference.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, SpectrumBoundsError
from .linalg import as_cmatrix, as_cvector, condition_check, full_svd, require_square

# where sigma^2 sits on a declared bound the 2x2 block is defective and its
# eigenvalue moduli are only sqrt(eps)-accurate (closed form and dense eig
# alike), so the radius check tolerates ~1e-7 there; genuine bound
# violations move the radius by orders of magnitude more
SPECTRAL_RADIUS_TOL = 1e-6


@dataclass(frozen=True)
class MagParams:
    """Step size / momentum derived from spectrum bounds of A^H A.

    l_hat bounds sigma_max^2 from above, mu_hat bounds sigma_min^2 from
    below (strictly positive).  kappa_hat = sqrt(l_hat/mu_hat).
    """

    l_hat: float
    mu_hat: float
    alpha: float
    beta: float
    kappa_hat: float

    def __post_init__(self):
        if not (0.0 < self.mu_hat <= self.l_hat):
            raise ValueError(
                f"need 0 < mu_hat <= l_hat, got ({self.l_hat}, {self.mu_hat})"
            )
        if self.alpha != 4.0 / (math.sqrt(self.l_hat) + math.sqrt(self.mu_hat)) ** 2:
            raise ValueError(f"alpha={self.alpha} is not 4/(sqrt(l_hat)+sqrt(mu_hat))^2")
        if self.beta != ((self.kappa_hat - 1.0) / (self.kappa_hat + 1.0)) ** 2:
            raise ValueError(f"beta={self.beta} is not ((kappa_hat-1)/(kappa_hat+1))^2")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"need 0 <= beta < 1, got {self.beta}")
        # equality alpha == 1/mu_hat at l_hat == mu_hat, up to rounding
        if not (0.0 < self.alpha <= (1.0 + 4e-16) / self.mu_hat):
            raise ValueError(f"need 0 < alpha <= 1/mu_hat, got {self.alpha}")


def derive_params(l_hat: float, mu_hat: float) -> MagParams:
    """Optimal-rate step size and momentum for bounds (l_hat, mu_hat)."""
    if not (0.0 < mu_hat <= l_hat) or not (math.isfinite(l_hat) and math.isfinite(mu_hat)):
        raise ValueError(f"need 0 < mu_hat <= l_hat, got ({l_hat}, {mu_hat})")
    kappa_hat = math.sqrt(l_hat / mu_hat)
    alpha = 4.0 / (math.sqrt(l_hat) + math.sqrt(mu_hat)) ** 2
    beta = ((kappa_hat - 1.0) / (kappa_hat + 1.0)) ** 2
    return MagParams(l_hat=l_hat, mu_hat=mu_hat, alpha=alpha, beta=beta, kappa_hat=kappa_hat)


def params_from_sigma(sigma, safety: float = 1.0) -> MagParams:
    """Bounds taken from singular values (descending), widened by `safety`."""
    return derive_params((safety * sigma[0]) ** 2, (sigma[-1] / safety) ** 2)


@dataclass(frozen=True)
class SpectralSystem:
    """The one-step map on w = [w1; w2], one entry per block and singular
    value; w is the state [V w1; U w2] of the dense map w -> H w + F."""

    sigma: np.ndarray  # descending
    u: np.ndarray
    vh: np.ndarray
    b_t: np.ndarray  # U^H b
    params: MagParams

    @property
    def n(self) -> int:
        return self.sigma.size

    @cached_property
    def _blocks(self) -> tuple:  # 1 - alpha s^2, c s, alpha s b~
        p, s = self.params, self.sigma
        return 1.0 - p.alpha * s**2, math.sqrt(p.alpha * p.beta) * s, p.alpha * s * self.b_t

    def step(self, w: np.ndarray) -> np.ndarray:
        diag, cs, f = self._blocks
        w1, w2 = w[: self.n], w[self.n :]
        return np.concatenate([diag * w1 - cs * w2 + f, cs * w1 + self.params.beta * w2])

    def steady_state(self) -> np.ndarray:
        """[(1-beta) b~/sigma; c b~]; SingularMatrixError where I - H is
        singular to working tolerance (`i_minus_h_singular_values`)."""
        p = self.params
        condition_check(i_minus_h_singular_values(p, self.sigma))
        return np.concatenate([(1.0 - p.beta) * self.b_t / self.sigma,
                               math.sqrt(p.alpha * p.beta) * self.b_t])

    def to_state(self, w) -> np.ndarray:
        """[V w1; U w2] of one state, or of each row of a stack of them."""
        w, n = np.asarray(w), self.n
        out = np.empty(w.shape, dtype=np.complex128)
        np.matmul(w[..., :n], self.vh.conj(), out=out[..., :n])
        np.matmul(w[..., n:], self.u.T, out=out[..., n:])
        return out


def build_spectral(a, b, params: MagParams, factors=None) -> SpectralSystem:
    """The map in the basis of A's full SVD: `factors` (u, s, vh) when the
    caller already has it, otherwise A is factored here.  The one place
    that turns (A, b) into singular values, vectors and U^H b."""
    a, b = require_square(as_cmatrix(a)), as_cvector(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} != matrix dimension {a.shape[0]}")
    u, s, vh = full_svd(a) if factors is None else factors
    return SpectralSystem(sigma=s, u=u, vh=vh, b_t=u.conj().T @ b, params=params)


def i_minus_h_singular_values(p: MagParams, sigma) -> np.ndarray:
    """Singular values of I - H from the singular values sigma of A.

    I - H splits into the blocks [[a s^2, c s], [-c s, 1-beta]] with
    a = alpha, c = sqrt(alpha*beta), s = sigma_j.  A real 2x2 block
    [[x, q], [-q, y]] has singular values (hypot(x+y, 2q) +- |x-y|)/2;
    the smaller is taken as det / larger = (xy + q^2) / larger, which
    avoids the cancellation.  Returns the 2n values, unordered.
    """
    sigma = np.asarray(sigma, dtype=float)
    x = p.alpha * sigma**2
    q = math.sqrt(p.alpha * p.beta) * sigma
    y = 1.0 - p.beta
    large = (np.hypot(x + y, 2.0 * q) + np.abs(x - y)) / 2.0
    return np.concatenate([large, (x * y + q * q) / large])


@dataclass
class IterationTrace:
    steps: int
    states: list  # w_n per step when recorded, else []
    residuals: list  # ||Delta w_n|| / ||Delta w_0||
    w_final: np.ndarray = field(default=None, repr=False)


def mag_iterate(
    sys: SpectralSystem,
    w0,
    delta: float,
    max_steps: int,
    *,
    w_inf: np.ndarray,
    keep_states: bool = True,
) -> IterationTrace:
    """Run w <- H w + F until the error contracts below delta.

    Termination measures ||w_n - w_inf|| / ||w_0 - w_inf|| against the
    steady state w_inf (a unitary change of basis leaves it unchanged).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0,1), got {delta}")
    w = as_cvector(w0).copy()
    if w.shape[0] != 2 * sys.n:
        raise ValueError(f"w0 must have dimension {2 * sys.n}")

    denom = np.linalg.norm(w - w_inf)
    if denom == 0.0:
        return IterationTrace(0, [w.copy()] if keep_states else [], [1.0], w_final=w)
    states = [w.copy()] if keep_states else []
    residuals = [1.0]
    for _ in range(max_steps):
        w = sys.step(w)
        residuals.append(float(np.linalg.norm(w - w_inf) / denom))
        if keep_states:
            states.append(w.copy())
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


def solution_from_state(sys: SpectralSystem, w: np.ndarray) -> np.ndarray:
    """Extract u from a transformed state: first block over (1 - beta)."""
    return w[: sys.n] / (1.0 - sys.params.beta)


def solution_error_factor(w_inf: np.ndarray) -> float:
    """Bound on (max-norm relative u error) / (transformed-state residual).

    The termination criterion contracts ||w - w_inf|| / ||w_inf||; after
    unscaling the first block the max-norm error relative to u picks up
    at most ||w_inf||_2 / max|w_inf(u block)|.
    """
    top = float(np.max(np.abs(w_inf[: w_inf.size // 2])))
    if top == 0.0:
        return 1.0
    return max(float(np.linalg.norm(w_inf)) / top, 1.0)


def solve_spectral(spec: SpectralSystem, delta: float, keep_states: bool = False) -> tuple:
    """Iterate from w = 0 until the max-norm relative u error is below
    delta (`solution_error_factor`); returns (trace, w_inf, u)."""
    w_inf = spec.steady_state()
    delta_run = delta / solution_error_factor(spec.to_state(w_inf))
    max_steps = 4 * convergence_steps(spec.params.kappa_hat, delta_run)
    trace = mag_iterate(spec, np.zeros(2 * spec.n), delta_run, max_steps,
                        w_inf=w_inf, keep_states=keep_states)
    return trace, w_inf, solution_from_state(spec, spec.to_state(trace.w_final))


def lambda_pm(sigma, p: MagParams) -> tuple:
    """Both one-step eigenvalues attached to a singular value sigma.

    They are the eigenvalues of the block [[1 - alpha s^2, -c s], [c s,
    beta]] of H (trace 1 + beta - alpha s^2, determinant beta).  An array
    of singular values gives two arrays, elementwise.
    """
    if np.any(np.asarray(sigma) < 0):
        raise ValueError("sigma must be nonnegative")
    trace = 1.0 + p.beta - p.alpha * sigma**2
    root = np.sqrt(np.asarray(trace * trace - 4.0 * p.beta, dtype=np.complex128))
    return (trace + root) / 2.0, (trace - root) / 2.0


def spectral_radius_check(p: MagParams, sigma) -> float:
    """rho(H) = max_j |lambda_pm(sigma_j)|, given the singular values of A.

    The radius is sqrt(beta) exactly when every sigma_j^2 lies in
    [mu_hat, l_hat], and larger otherwise.  Raises SpectrumBoundsError
    unless it equals sqrt(beta) within SPECTRAL_RADIUS_TOL (1e-6).
    """
    lam_plus, lam_minus = lambda_pm(np.asarray(sigma, dtype=float), p)
    rho = float(np.max(np.maximum(np.abs(lam_plus), np.abs(lam_minus))))
    expected = math.sqrt(p.beta)
    if abs(rho - expected) > SPECTRAL_RADIUS_TOL:
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


def relative_trace_from_steady(w_inf: np.ndarray, states) -> tuple[list | None, float]:
    """Componentwise-normalized residual trace and kappa_2(w_inf).

    Errors are divided by the matching steady-state component, so the
    trace is only well posed when no component of w_inf sits near zero;
    in that case kappa_2 is reported as infinite and no values are
    produced (this is exactly the failure mode of the damped dynamics,
    whose auxiliary steady state vanishes).  `states` is a sequence of
    states or their (steps, 2n) stack; the trace is one array expression
    over its rows.
    """
    w_inf = as_cvector(w_inf)
    mags = np.abs(w_inf)
    threshold = NEAR_ZERO_FACTOR * np.linalg.norm(w_inf)
    if np.min(mags) <= threshold:
        return None, math.inf
    kappa2 = float(np.max(mags) / np.min(mags))
    err = np.subtract(np.reshape(states, (-1, w_inf.size)), w_inf)
    err /= w_inf
    hats = np.sqrt(np.einsum("ij,ij->i", err.real, err.real)
                   + np.einsum("ij,ij->i", err.imag, err.imag))
    denom = hats[0] if hats.size and hats[0] > 0 else 1.0
    return (hats / denom).tolist(), kappa2


def relative_trace(trace: IterationTrace, w_inf: np.ndarray,
                   system: SpectralSystem) -> tuple[list | None, float]:
    """relative_trace_from_steady on a recorded `system` run, its states
    and w_inf mapped back to [V w1; U w2] first."""
    if not trace.states:
        raise ValueError("trace was recorded without states; rerun with keep_states=True")
    return relative_trace_from_steady(system.to_state(w_inf),
                                      system.to_state(np.array(trace.states)))
