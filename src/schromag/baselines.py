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
(`mag.build_spectral`) and keeps only its blocks and drive: its state is
(n, k), one k-vector [x_j, y_j] per singular value, in that system's
basis.  Every flow starts at w = 0, and `FlowSystem.at(t)` is its closed
form w_inf - exp(M t) w_inf (`linalg.block_expm_apply`), w_inf = -M^{-1} g
from the 2x2 adjugate behind the FlowSystem's singularity guard, so
method comparisons carry no time-stepping error.  A solve's answer is the
x of `at(t_end)`; `SpectralSystem.to_state` maps the (n, 2) states of a
flow of 2x2 blocks to [V x; U y].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mag import FlowSystem, SpectralSystem


def build_gradient_flow(spec: SpectralSystem) -> FlowSystem:
    """du/dt = A^H b - A^H A u; steady state is the least-squares solution."""
    s = spec.sigma
    return FlowSystem(blocks=-(s**2)[:, None, None], drive=(s * spec.b_t)[:, None])


# the damping rate of every run, just below critical damping 2 sigma_min
GAMMA_PER_SIGMA_MIN = 1.9


def build_damped(spec: SpectralSystem) -> FlowSystem:
    """Second-order damped dynamics in first-order form on w = [u; v],
    damped at gamma = GAMMA_PER_SIGMA_MIN sigma_min(A).  The auxiliary
    block of the steady state is exactly zero, which is what breaks the
    relative convergence of this method.
    """
    s, b_t = spec.sigma, spec.b_t
    blocks = np.zeros((s.size, 2, 2))
    blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1] = -s, s, -GAMMA_PER_SIGMA_MIN * float(s[-1])
    drive = np.stack([np.zeros_like(b_t), -b_t], axis=-1)
    return FlowSystem(blocks=blocks, drive=drive)


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
