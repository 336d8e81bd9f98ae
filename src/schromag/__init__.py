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

The package re-exports nothing: each name is read from its submodule
(`from schromag import mag`), so `import schromag` loads no submodule and
a command compiles and loads only the modules it runs.
"""

__version__ = "0.1.0"
