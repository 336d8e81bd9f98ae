"""Momentum-accelerated gradient linear solver and its Hamiltonian form.

Submodules: linalg (dense complex substrate), mag (the solver), baselines
(gradient flow / damped dynamics / momentum ODE, per singular value),
schrod (warped-phase Hamiltonian realization, per singular value),
blockenc (block-encoding algebra), pde (`make_problem` assembles every
test problem), complexity (cost estimators), presets (figure catalogue),
cli.  Every link of the chain runs on the one SVD of a run:
`mag.build_spectral` factors A into the `mag.SpectralSystem` whose bounds
and per-singular-value `blocks` every method reads.  The dense 2n x 2n
realization the tests check it against is `tests/reference.py`, outside
the package.
"""

from .baselines import (
    FlowSystem,
    auxiliary_ratio_trace,
    build_damped,
    build_gradient_flow,
    build_mag_ode,
    evolution_time,
    integrate_flow,
)
from .blockenc import (
    BlockEncoding,
    StatePrepPair,
    build_state_prep_pair,
    compose_product,
    compose_sum,
    compose_tensor,
    dilate,
    verify,
)
from .complexity import (
    ComplexityReport,
    SystemSummary,
    chi,
    gates,
    method_complexity,
    queries,
    repetitions,
)
from .linalg import (
    LinearSystem,
    as_cmatrix,
    as_cvector,
    block_expm_apply,
    direct_solve,
)
from .mag import (
    IterationTrace,
    MagParams,
    convergence_steps,
    lambda_pm,
    mag_iterate,
    relative_trace,
    spectral_radius_check,
)
from .pde import PdeProblem, make_problem
from .presets import pde_preset
from .schrod import PGrid, pipeline

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
