"""`compare`'s measure of the auxiliary-variable claim: the ratio of a
flow's auxiliary component to its solved one along a sampled trajectory.

The flows themselves, the momentum ODE and the damped and gradient
dynamics, are members of the run's one `mag.SpectralSystem` (`ode`,
`damped`, `gradient`); `compare` samples the first two and hands this
module two state columns of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
