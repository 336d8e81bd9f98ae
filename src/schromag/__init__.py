"""Momentum-accelerated gradient linear solver and its Hamiltonian form.

Submodules: linalg (dense complex substrate), mag (the solver), baselines
(gradient flow / damped dynamics / momentum ODE, per singular value),
schrod (warped-phase Hamiltonian realization), blockenc (block-encoding
algebra), pde (test problems), complexity (cost estimators), presets
(figure catalogue), cli.
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
    compose,
    decompose_homo,
    dilate,
    verify,
)
from .complexity import (
    ComplexityReport,
    SystemSummary,
    chi,
    eta0,
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
    TransformedSystem,
    build_transformed,
    convergence_steps,
    derive_params,
    lambda_pm,
    mag_iterate,
    params_from_matrix,
    relative_trace,
    spectral_radius_check,
    steady_state,
)
from .pde import PdeProblem, biharmonic_1d, biharmonic_2d, helmholtz_1d, helmholtz_2d, preset
from .schrod import (
    HermitianSplit,
    HomogenizedSystem,
    PGrid,
    SchrodState,
    build_grid,
    evolve,
    homogenize,
    p_threshold,
    pipeline,
    recover_integral,
    recover_single_point,
    split,
    to_ode,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
