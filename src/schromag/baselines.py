"""Comparison dynamics: gradient flow and the damped second-order system.

Both are posed as first-order constant-coefficient ODEs dw/dt = G w + g
and integrated exactly through the matrix exponential of the augmented
homogeneous system, so method comparisons carry no time-stepping error.
The momentum iteration's ODE form (one-step map minus identity) runs
through the same integrator for the auxiliary-variable comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LinearSystem, as_cmatrix, as_cvector, direct_solve, require_square

FLOW_KINDS = ("gradient", "damped", "mag-ode")


@dataclass(frozen=True)
class FlowSystem:
    generator: np.ndarray
    drive: np.ndarray
    kind: str
    meta: dict

    def __post_init__(self):
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def steady_state(self) -> np.ndarray:
        return direct_solve(LinearSystem(-self.generator, self.drive))


def build_gradient_flow(a, b) -> FlowSystem:
    """du/dt = A^H b - A^H A u; steady state is the least-squares solution."""
    a = require_square(as_cmatrix(a))
    b = as_cvector(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError("dimension mismatch")
    ah = a.conj().T
    return FlowSystem(generator=-(ah @ a), drive=ah @ b, kind="gradient", meta={})


def build_damped(a, b, gamma: float, sigma_min: float) -> FlowSystem:
    """Second-order damped dynamics in first-order form on w = [u; v].

    Requires 0 < gamma < 2 sigma_min(A), with sigma_min, the smallest
    singular value of A, from the caller.  The auxiliary block of the
    steady state is exactly zero, which is what breaks the relative
    convergence of this method.
    """
    a = require_square(as_cmatrix(a))
    b = as_cvector(b)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError("dimension mismatch")
    if not (0.0 < gamma < 2.0 * sigma_min):
        raise ValueError(
            f"gamma must satisfy 0 < gamma < 2*sigma_min = {2 * sigma_min:.6g}, got {gamma}"
        )
    j = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    j[:n, n:] = -a.conj().T
    j[n:, :n] = a
    j[n:, n:] = -gamma * np.eye(n)
    g = np.zeros(2 * n, dtype=np.complex128)
    g[n:] = -b
    return FlowSystem(generator=j, drive=g, kind="damped", meta={"gamma": gamma})


def integrate_flow(sys: FlowSystem, w0, t_end: float, samples: int):
    """Exact flow states at uniformly spaced times, including t=0.

    Augments the drive into one extra constant coordinate and applies the
    matrix exponential, so each sample is exact up to expm rounding.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    w0 = as_cvector(w0)
    d = sys.dim
    if w0.shape[0] != d:
        raise ValueError(f"w0 must have dimension {d}")
    aug = np.zeros((d + 1, d + 1), dtype=np.complex128)
    aug[:d, :d] = sys.generator
    aug[:d, d] = sys.drive
    z0 = np.concatenate([w0, [1.0]])
    times = np.linspace(0.0, t_end, samples)
    dt = times[1] - times[0]
    import scipy.linalg  # deferred: only expm needs scipy, and it costs ~0.3 s to import

    step = scipy.linalg.expm(aug * dt)
    out = []
    z = z0
    for t in times:
        out.append((float(t), z[:d].copy()))
        z = step @ z
    return out


def evolution_time(kind: str, spectrum, delta: float, constant: float = 1.0) -> float:
    """Theoretical time to contract the error below delta.

    gradient: ln(1/delta)/sigma_min^2, damped: ln(1/delta)/sigma_min,
    mag: kappa * ln(1/delta) iteration steps read as unit-step time.
    `spectrum` is (sigma_min, sigma_max) estimates.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0,1)")
    sigma_min, sigma_max = spectrum
    if sigma_min <= 0:
        raise ValueError("sigma_min must be positive")
    log_term = math.log(1.0 / delta)
    if kind == "gradient":
        return constant * log_term / sigma_min**2
    if kind == "damped":
        return constant * log_term / sigma_min
    if kind in ("mag", "mag-ode"):
        return constant * log_term * (sigma_max / sigma_min)
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
