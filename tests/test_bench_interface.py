"""What the benchmark harness under `bench/` reads from the package.

The traced run rebinds functions by name from outside the package and
reads attributes of their arguments and results (`bench/layers.py`); a
name it no longer finds is skipped and its metric reads 0 instead of
failing.  So the names, argument orders and attributes it reads are
pinned here, on the CLI paths the benchmark's workloads run.
"""

import importlib
import inspect
from unittest import mock

import numpy as np
import pytest

from schromag import cli, io, mag, schrod
from schromag.presets import SolverConfig, pde_preset

# (module, attribute) of every function the traced run wraps that the
# package has; each is called through its module, so a rebinding sees it
TRACED = [
    ("schromag.cli", "main"), ("schromag.presets", "pde_preset"),
    ("schromag.io", "read_matrix_coo"), ("schromag.mag", "spectral_radius_check"),
    ("schromag.mag", "mag_iterate"), ("schromag.mag", "relative_trace"),
    ("schromag.linalg", "direct_solve"), ("schromag.schrod", "pipeline"),
    ("schromag.schrod", "build_pair_system"), ("schromag.schrod", "evolve_structured"),
    ("schromag.schrod", "_apply_pair_modes"),
]


@pytest.mark.parametrize(("module", "name"), TRACED)
def test_traced_names_exist(module, name):
    assert callable(vars(importlib.import_module(module)).get(name))


def test_cli_holds_what_it_imports_by_name():
    # the traced run rebinds these in cli as well as where they are defined
    from schromag import linalg, presets

    assert cli.pde_preset is presets.pde_preset
    assert cli.direct_solve is linalg.direct_solve


def test_pde_preset_returns_problem_and_solver_config():
    problem, solver = pde_preset("fig4a")
    assert isinstance(solver, SolverConfig) and 0.0 < solver.delta < 1.0
    assert problem.system.a.shape[0] == problem.system.b.size
    assert 0.0 < SolverConfig().delta < 1.0


def test_every_writer_takes_the_path_first():
    writers = {name: fn for name, fn in vars(io).items()
               if name.startswith("write_") and callable(fn)}
    assert "write_field_snapshot_csv" in writers and "write_json" in writers
    for name, fn in writers.items():
        assert next(iter(inspect.signature(fn).parameters)) == "path", name


def test_apply_pair_modes_argument_order():
    params = list(inspect.signature(schrod._apply_pair_modes).parameters)
    assert params[:5] == ["pairs", "reps", "thetas", "t", "slots"]


def test_schro_run_passes_what_the_notes_read(tmp_path):
    # evolve_structured's first argument has w0_pair (n, 4), sigma (n,),
    # pair_weights() (n,) and a float solution_scale(); _apply_pair_modes is
    # called with the groups and the wavenumbers as its 2nd and 3rd
    # positional arguments
    seen = {"evolve": [], "modes": []}
    evolve, modes = schrod.evolve_structured, schrod._apply_pair_modes

    def spy_evolve(*args, **kwargs):
        seen["evolve"].append(args)
        return evolve(*args, **kwargs)

    def spy_modes(*args, **kwargs):
        seen["modes"].append(args)
        return modes(*args, **kwargs)

    with mock.patch.object(schrod, "evolve_structured", spy_evolve), \
            mock.patch.object(schrod, "_apply_pair_modes", spy_modes):
        assert cli.main(["schro", "--preset", "fig3a", "--out", str(tmp_path)]) == 0
    (args,) = seen["evolve"]
    pairs, grid = args[0], args[1]
    n = pairs.spec.n
    assert pairs.w0_pair.shape == (n, 4) and pairs.sigma.shape == (n,)
    assert pairs.pair_weights().shape == (n,)
    assert isinstance(pairs.solution_scale(), float) and pairs.solution_scale() > 0.0
    assert np.any(np.linalg.norm(pairs.w0_pair, axis=1) > 0.0)
    assert seen["modes"]
    total = 0
    for call in seen["modes"]:
        assert call[0] is pairs and len(call) >= 3
        assert np.array_equal(call[1], pairs.reps[pairs.evolved])
        total += np.size(call[2])
    assert total == grid.n_p // 2 + 1  # modes 0..n_p/2, each once


def test_mag_run_iterates_through_mag_iterate(tmp_path):
    # the notes read .steps of mag_iterate's result
    results = []
    iterate = mag.mag_iterate

    def spy(*args, **kwargs):
        results.append(iterate(*args, **kwargs))
        return results[-1]

    with mock.patch.object(mag, "mag_iterate", spy):
        assert cli.main(["pde", "--preset", "fig3a", "--method", "mag",
                         "--out", str(tmp_path)]) == 0
    (trace,) = results
    assert isinstance(trace.steps, int) and trace.steps > 0
