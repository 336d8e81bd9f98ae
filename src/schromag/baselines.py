"""Comparison dynamics: gradient flow, damped second-order dynamics and
the momentum iteration's ODE form.

Each is a constant-coefficient ODE dw/dt = M w + g.  With A = U Sigma V^H
and b~ = U^H b, the basis diag(V, U) splits it into one block and drive
per singular value s (c = sqrt(alpha*beta)):

  gradient, du/dt = A^H b - A^H A u:
      -s^2, drive s b~
  damped, u' = -A^H v and v' = A u - gamma v - b on w = [u; v]:
      [[0, -s], [s, -gamma]], drive [0; -b~]
  mag-ODE, the momentum map's (H - I, F) (`mag.SpectralSystem`):
      [[-alpha s^2, -c s], [c s, beta - 1]], drive [alpha s b~; 0]

Every builder reads sigma, U, V and b~ from the run's one
`mag.SpectralSystem` (`mag.build_spectral`).  A state is held as one k-vector [x_j, y_j] per
singular value, for [V x; U y] (V x alone for the gradient flow).  Each
sample is the closed form w_inf + exp(M t)(w0 - w_inf) at its own time
(`linalg.block_expm_apply`), with w_inf = -M^{-1} g from the 2x2
adjugate, so method comparisons carry no time-stepping error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_cvector, block_expm_apply
from .mag import SpectralSystem


@dataclass(frozen=True)
class FlowSystem:
    """dw/dt = M w + g as one k x k block of M and k-vector of g per
    singular value of A = U Sigma V^H (u, vh its factors)."""

    blocks: np.ndarray  # (n, k, k)
    drive: np.ndarray  # (n, k)
    u: np.ndarray
    vh: np.ndarray

    @property
    def dim(self) -> int:
        return self.drive.size

    def steady_pairs(self) -> np.ndarray:
        """-M^{-1} g per block, (n, k)."""
        m, g = self.blocks, self.drive
        if g.shape[1] == 1:
            return -g / m[:, 0]
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        return np.stack([m[:, 0, 1] * g[:, 1] - m[:, 1, 1] * g[:, 0],
                         m[:, 1, 0] * g[:, 0] - m[:, 0, 0] * g[:, 1]], axis=-1) / det[:, None]

    def steady_state(self) -> np.ndarray:
        return self.to_state(self.steady_pairs())

    def to_state(self, pairs) -> np.ndarray:
        """[V x; U y] of (..., n, k) pair states, one product per block."""
        bases = (self.vh.conj(), self.u.T)
        return np.concatenate([pairs[..., j] @ bases[j] for j in range(pairs.shape[-1])],
                              axis=-1)

    def from_state(self, w: np.ndarray) -> np.ndarray:
        """The (n, k) pair state of a state vector, the inverse of `to_state`."""
        n = self.drive.shape[0]
        bases = (self.vh, self.u.conj().T)
        return np.stack([bases[j] @ w[j * n : (j + 1) * n] for j in range(self.drive.shape[1])],
                        axis=-1)


def build_gradient_flow(spec: SpectralSystem) -> FlowSystem:
    """du/dt = A^H b - A^H A u; steady state is the least-squares solution."""
    s = spec.sigma
    return FlowSystem(blocks=-(s**2)[:, None, None], drive=(s * spec.b_t)[:, None],
                      u=spec.u, vh=spec.vh)


def build_damped(spec: SpectralSystem, gamma: float) -> FlowSystem:
    """Second-order damped dynamics in first-order form on w = [u; v].

    Requires 0 < gamma < 2 sigma_min(A).  The auxiliary block of the
    steady state is exactly zero, which is what breaks the relative
    convergence of this method.
    """
    s, b_t = spec.sigma, spec.b_t
    sigma_min = float(s[-1])
    if not (0.0 < gamma < 2.0 * sigma_min):
        raise ValueError(
            f"gamma must satisfy 0 < gamma < 2*sigma_min = {2 * sigma_min:.6g}, got {gamma}"
        )
    blocks = np.zeros((s.size, 2, 2))
    blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1] = -s, s, -gamma
    drive = np.stack([np.zeros_like(b_t), -b_t], axis=-1)
    return FlowSystem(blocks=blocks, drive=drive, u=spec.u, vh=spec.vh)


def build_mag_ode(spec: SpectralSystem) -> FlowSystem:
    """The momentum map's ODE dw/dt = (H - I) w + F in the basis of `spec`."""
    p, s = spec.params, spec.sigma
    cs = math.sqrt(p.alpha * p.beta) * s
    blocks = np.empty((s.size, 2, 2))
    blocks[:, 0, 0], blocks[:, 0, 1] = -p.alpha * s**2, -cs
    blocks[:, 1, 0], blocks[:, 1, 1] = cs, p.beta - 1.0
    drive = np.stack([p.alpha * s * spec.b_t, np.zeros_like(spec.b_t)], axis=-1)
    return FlowSystem(blocks=blocks, drive=drive, u=spec.u, vh=spec.vh)


def integrate_flow(sys: FlowSystem, w0, t_end: float, samples: int):
    """Exact flow states at uniformly spaced times, including t=0.

    Every sample is evaluated in closed form at its own time, so the end
    state does not depend on the number of samples.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    w0 = as_cvector(w0)
    if w0.shape[0] != sys.dim:
        raise ValueError(f"w0 must have dimension {sys.dim}")
    times = np.linspace(0.0, t_end, samples)
    w_inf = sys.steady_pairs()
    pairs = w_inf + block_expm_apply(sys.blocks, sys.from_state(w0) - w_inf, times)
    return list(zip(times.tolist(), sys.to_state(pairs)))


def evolution_time(kind: str, sigma_min: float, delta: float) -> float:
    """Theoretical time to contract the error below delta.

    gradient: ln(1/delta)/sigma_min^2, damped: ln(1/delta)/sigma_min.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0,1)")
    if sigma_min <= 0:
        raise ValueError("sigma_min must be positive")
    log_term = math.log(1.0 / delta)
    if kind == "gradient":
        return log_term / sigma_min**2
    if kind == "damped":
        return log_term / sigma_min
    raise ValueError(f"unknown method kind {kind!r}")


RATIO_DENOM_TOL = 1e-12


@dataclass
class RatioTrace:
    times: list
    ratios: list  # real part of aux/solved, nan at gap samples
    sign_changes: int
    ratio_min: float
    ratio_max: float


def auxiliary_ratio_trace(trajectory, solved_index: int, aux_index: int) -> RatioTrace:
    """Ratio auxiliary/solved along a trajectory of (time, state) pairs.

    Samples whose solved component is below threshold are recorded as
    gaps (nan), never as infinities, and are skipped when counting sign
    changes of the real part.
    """
    times, ratios = [], []
    scale = max(
        (abs(w[solved_index]) for _, w in trajectory),
        default=0.0,
    )
    threshold = RATIO_DENOM_TOL * max(scale, 1.0)
    for t, w in trajectory:
        times.append(t)
        denom = w[solved_index]
        if abs(denom) <= threshold:
            ratios.append(math.nan)
        else:
            ratios.append(float((w[aux_index] / denom).real))
    finite = [r for r in ratios if not math.isnan(r)]
    changes = 0
    for prev, cur in zip(finite, finite[1:]):
        if prev * cur < 0.0:
            changes += 1
    return RatioTrace(
        times=times,
        ratios=ratios,
        sign_changes=changes,
        ratio_min=min(finite) if finite else math.nan,
        ratio_max=max(finite) if finite else math.nan,
    )
