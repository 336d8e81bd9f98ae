"""Momentum-accelerated gradient linear solver and its Hamiltonian form.

Submodules: linalg (dense complex substrate), mag (the solver, its ODE
and the gradient and damped flows), baselines (compare's auxiliary ratio),
schrod (warped-phase Hamiltonian realization, per singular value),
blockenc (block-encoding algebra), pde (`make_problem` assembles every
test problem), complexity (cost estimators), presets (figure catalogue),
cli.  Every link of the chain runs on the one SVD of a run:
`mag.build_spectral` factors A into the `mag.SpectralSystem` whose bounds
and three flows (`ode`, `damped` and `gradient`, one block per singular
value) the methods run.  The dense 2n x 2n realization the tests check it
against is `tests/reference.py`, outside the package.

The public names are resolved on first use (PEP 562): `import schromag`
loads no submodule, and `schromag.pipeline` imports `schrod` the first
time it is read.  A command then compiles and loads only the modules it
runs; `from schromag import *` still binds every name of `__all__`.
"""

# each submodule and the names it exports from the package
_SUBMODULE_EXPORTS = {
    "baselines": ("auxiliary_ratio_trace",),
    "blockenc": ("BlockEncoding", "StatePrepPair", "build_state_prep_pair", "compose_product",
                 "compose_sum", "compose_tensor", "dilate", "verify"),
    "complexity": ("ComplexityReport", "SystemSummary", "chi", "gates", "method_complexity",
                   "queries", "repetitions"),
    "errors": (),
    "linalg": ("LinearSystem", "as_cmatrix", "as_cvector", "block_expm_apply", "direct_solve"),
    "mag": ("FlowSystem", "IterationTrace", "MagParams", "horizon", "mag_iterate",
            "relative_trace", "spectral_radius_check"),
    "pde": ("PdeProblem", "make_problem"),
    "presets": ("pde_preset",),
    "schrod": ("PGrid", "pipeline"),
}
# public name -> the submodule that defines it; a submodule maps to itself
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items()
            for name in (module, *names)}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
