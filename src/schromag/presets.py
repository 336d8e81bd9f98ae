"""Catalogue of figure presets: PDE problems plus solver configuration.

Each entry reproduces the data behind one benchmark panel.  The solver
setting delta lives here, so a preset run is fully determined by its
name; the auxiliary grid follows from the run (`schrod.plan`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mag
from .errors import InputError
from .pde import MIXED, ROBIN, ZERO, PdeProblem, make_problem


@dataclass(frozen=True)
class SolverConfig:
    delta: float = 1e-3


# family, n, k, forcing, boundary
_PDE_TABLE = {
    "fig3a": ("helmholtz1d", 16, 2.0, "sine23", (ZERO,)),
    "fig3b": ("helmholtz1d", 32, 2.0, "sine23", (ZERO,)),
    "fig3c": ("helmholtz1d", 32, 4.0, "sine23", (ZERO,)),
    "fig3d": ("helmholtz1d", 16, 2.0, "cos2", (ROBIN, 2j)),
    "fig3e": ("helmholtz1d", 32, 2.0, "cos2", (ROBIN, 2j)),
    "fig3f": ("helmholtz1d", 32, 4.0, "cos2", (ROBIN, 2j)),
    "fig4a": ("helmholtz2d", 16, 1.0, "sine23_diag", (ZERO,)),
    "fig4d": ("helmholtz2d", 16, 1.0, "cos2_diag", (ROBIN, 2j)),
    "fig5a": ("biharmonic1d", 16, 0.0, "sine23", (ZERO,)),
    "fig5b": ("biharmonic1d", 32, 0.0, "sine23", (ZERO,)),
    "fig5c": ("biharmonic1d", 16, 0.0, "cos2", (MIXED, 2.0)),
    "fig5d": ("biharmonic1d", 32, 0.0, "cos2", (MIXED, 2.0)),
    "fig6a": ("biharmonic2d", 16, 0.0, "sine23_diag", (ZERO,)),
    "fig6d": ("biharmonic2d", 16, 0.0, "cos2_diag", (MIXED, 2.0)),
}

PDE_PRESET_NAMES = tuple(sorted(_PDE_TABLE))


def pde_preset(name: str) -> tuple[PdeProblem, SolverConfig]:
    try:
        family, n, k, forcing, boundary = _PDE_TABLE[name]
    except KeyError:
        raise InputError(
            f"unknown preset {name!r}; available: {', '.join(PDE_PRESET_NAMES)}"
        ) from None
    return make_problem(family, n, k, forcing, boundary), SolverConfig()


def compare_preset(name: str) -> tuple:
    """The inputs of `compare --preset name`, in one of two shapes:

      fig1  (a, b, bounds, t_end): a run of `compare` on files, with the
            preset's `mag.MagParams` bounds and flow horizon t_end
      fig2  (problem, deltas): the `PdeProblem` whose mag and damped
            solutions are checked against its direct solve at each delta
    """
    if name == "fig1":
        # Bounds must bracket the true singular values {0.1, 10}.  The
        # quoted setting sigma_max_hat = 5*1.05, sigma_min_hat = 5*0.95
        # cannot bracket that spectrum, so the bracketing reading
        # (10*1.05, 0.1*0.95) is used; the literal values stay recorded
        # in this comment for reference.
        sig_max_hat = 10.0 * 1.05
        sig_min_hat = 0.1 * 0.95
        a = np.diag([10.0, 0.1]).astype(np.complex128)
        b = np.array([1.0, 1.0], dtype=np.complex128)
        return a, b, mag.MagParams(sig_max_hat**2, sig_min_hat**2), 60.0
    if name == "fig2":
        # 1d Poisson reading: u''(x) = f(x), f = 2 sin(2 pi x), n = 16,
        # zero boundary, accuracy targets n^{-1/2} .. n^{-2}.
        n = 16
        problem = make_problem("helmholtz1d", n, 0.0, "sine2", (ZERO,))
        return problem, tuple(float(n) ** (-e) for e in (0.5, 1.0, 1.5, 2.0))
    raise InputError(f"unknown compare preset {name!r}; available: fig1, fig2")
