"""Comparison dynamics: gradient flow, damped second-order dynamics and
the momentum iteration's ODE form.

Each is a constant-coefficient ODE dw/dt = M w + g, a `mag.FlowSystem`.
With A = U Sigma V^H and b~ = U^H b, the basis diag(V, U) splits it into
one block and drive per singular value s (c = sqrt(alpha*beta)):

  gradient, du/dt = A^H b - A^H A u:
      -s^2, drive s b~
  damped, u' = -A^H v and v' = A u - gamma v - b on w = [u; v]:
      [[0, -s], [s, -gamma]], drive [0; -b~]
  mag-ODE, the momentum map's (H - I, F), `mag.SpectralSystem.ode`:
      [[-alpha s^2, -c s], [c s, beta - 1]], drive [alpha s b~; 0]

Every flow reads sigma and b~ from the run's one `mag.SpectralSystem`
(`mag.build_spectral`) and keeps it: a flow lives in that basis, and its
state is (n, k), one k-vector [x_j, y_j] per singular value.  Every flow
starts at w = 0, and `FlowSystem.at(t)` is its closed form
w_inf - exp(M t) w_inf (`linalg.block_expm_apply`), w_inf = -M^{-1} g
from the 2x2 adjugate behind the FlowSystem's singularity guard, so
method comparisons carry no time-stepping error.  A solve's answer is the
x of `at(t_end)`; `integrate_flow` maps samples of a flow of 2x2 blocks
to [V x; U y] through `SpectralSystem.to_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .mag import FlowSystem, SpectralSystem


def build_gradient_flow(spec: SpectralSystem) -> FlowSystem:
    """du/dt = A^H b - A^H A u; steady state is the least-squares solution."""
    s = spec.sigma
    return FlowSystem(blocks=-(s**2)[:, None, None], drive=(s * spec.b_t)[:, None], spec=spec)


# the damping rate of every run but compare fig1's, just below critical
# damping 2 sigma_min
GAMMA_PER_SIGMA_MIN = 1.9


def build_damped(spec: SpectralSystem, gamma: float | None = None) -> FlowSystem:
    """Second-order damped dynamics in first-order form on w = [u; v].

    gamma defaults to GAMMA_PER_SIGMA_MIN sigma_min(A); a given one must
    satisfy 0 < gamma < 2 sigma_min(A), else InputError.  The auxiliary
    block of the steady state is exactly zero, which is what breaks the
    relative convergence of this method.
    """
    s, b_t = spec.sigma, spec.b_t
    sigma_min = float(s[-1])
    gamma = GAMMA_PER_SIGMA_MIN * sigma_min if gamma is None else gamma
    if not (0.0 < gamma < 2.0 * sigma_min):
        raise InputError(
            f"gamma must satisfy 0 < gamma < 2*sigma_min = {2 * sigma_min:.6g}, got {gamma}"
        )
    blocks = np.zeros((s.size, 2, 2))
    blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1] = -s, s, -gamma
    drive = np.stack([np.zeros_like(b_t), -b_t], axis=-1)
    return FlowSystem(blocks=blocks, drive=drive, spec=spec)


def integrate_flow(sys: FlowSystem, t_end: float, samples: int) -> tuple:
    """(times, states): `at` `samples` uniformly spaced times from 0 to
    t_end, one state [V x; U y] per row, of a flow of 2x2 blocks (the
    damped flow or the momentum ODE)."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    times = np.linspace(0.0, t_end, samples)
    return times, sys.spec.to_state(sys.at(times))


RATIO_DENOM_TOL = 1e-12


@dataclass
class RatioTrace:
    ratios: list  # real part of aux/solved, nan at gap samples
    sign_changes: int
    ratio_min: float
    ratio_max: float


def auxiliary_ratio_trace(solved, aux) -> RatioTrace:
    """Ratio aux/solved along two state columns of a flow.

    Samples whose solved component is at most RATIO_DENOM_TOL of its
    largest modulus are recorded as gaps (nan), never as infinities, and
    are skipped when counting sign changes of the real part.  The floor is
    relative, so the trace does not depend on the scale of b; a zero
    solved column is all gaps.
    """
    modulus = np.abs(solved)
    gap = modulus <= RATIO_DENOM_TOL * float(modulus.max())
    ratios = np.where(gap, math.nan, (aux / np.where(gap, 1.0, solved)).real)
    finite = ratios[~gap]
    return RatioTrace(
        ratios=ratios.tolist(),
        sign_changes=int(np.count_nonzero(finite[1:] * finite[:-1] < 0.0)),
        ratio_min=float(finite.min()) if finite.size else math.nan,
        ratio_max=float(finite.max()) if finite.size else math.nan,
    )
