import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from schromag import cli, floatrepr, linalg, mag, pde, schrod
from schromag.cli import main
from schromag.errors import InputError
from schromag.io import read_vector, write_matrix_coo, write_vector
from schromag.presets import PDE_PRESET_NAMES, compare_preset, pde_preset

import reference


# the fields of a schro run's report that the pipeline itself decides
SCHRO_FIELDS = tuple(f.name for f in dataclasses.fields(schrod.PipelineReport))


@pytest.fixture()
def diag_problem(tmp_path):
    a = np.diag([10.0, 0.1]).astype(complex)
    b = np.array([1.0, 1.0], dtype=complex)
    write_matrix_coo(tmp_path / "a.coo", a)
    write_vector(tmp_path / "b.vec", b)
    return tmp_path


class TestSolve:
    def test_mag_on_files(self, diag_problem):
        out = diag_problem / "out"
        rc = main([
            "solve", "--matrix", str(diag_problem / "a.coo"),
            "--rhs", str(diag_problem / "b.vec"),
            "--method", "mag", "--delta", "1e-8", "--out", str(out),
        ])
        assert rc == 0
        u = read_vector(out / "solution.vec")
        assert np.allclose(u, [0.1, 10.0], rtol=1e-5)
        assert (out / "trace.csv").exists()
        payload = json.loads((out / "solve.json").read_text())
        assert payload["residual_vs_oracle"] < 1e-5

    def test_schro_on_files(self, diag_problem):
        out = diag_problem / "out"
        rc = main([
            "solve", "--matrix", str(diag_problem / "a.coo"),
            "--rhs", str(diag_problem / "b.vec"),
            "--method", "schro", "--delta", "1e-3", "--np", "16384",
            "--out", str(out),
        ])
        assert rc == 0
        u = read_vector(out / "solution.vec")
        assert np.allclose(u, [0.1, 10.0], rtol=1e-2, atol=1e-3)
        # the run's one report holds the residual beside the pipeline's fields
        payload = json.loads((out / "solve.json").read_text())
        assert "residual_vs_oracle" in payload
        assert set(SCHRO_FIELDS) <= set(payload)

    def test_mag_trace_has_relative_column(self, diag_problem):
        out = diag_problem / "out_rel"
        rc = main([
            "solve", "--matrix", str(diag_problem / "a.coo"),
            "--rhs", str(diag_problem / "b.vec"),
            "--method", "mag", "--delta", "1e-6", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "step,residual,relative_residual"
        assert not lines[1].endswith(",")  # finite kappa2: column filled

    @pytest.mark.parametrize("preset, streamed", [("fig3a", True), ("fig6a", False)])
    def test_states_streamed_only_for_a_relative_trace(self, tmp_path, monkeypatch, preset,
                                                       streamed):
        # fig6a's mapped steady state has a near-zero component, known before
        # the first step: its run hands over no states and writes no relative column
        consumers = []
        iterate = mag.mag_iterate

        def spy(*args, on_states, **kwargs):
            consumers.append(on_states is not None)
            return iterate(*args, on_states=on_states, **kwargs)

        monkeypatch.setattr(mag, "mag_iterate", spy)
        assert main(["solve", "--preset", preset, "--out", str(tmp_path)]) == 0
        assert consumers == [streamed]
        payload = json.loads((tmp_path / "solve.json").read_text())
        assert (payload["kappa2_w_inf"] is not None) is streamed
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == payload["steps"] + 1
        assert {row.endswith(",") for row in rows} == {not streamed}

    def test_long_trace_holds_one_chunk_of_states(self, tmp_path):
        # kappa_hat 7000 and a finite kappa_2: a relative trace over more than
        # 50,000 steps.  Its peak is the per-step residuals (a float in a
        # list, and three float64 entries in arrays) plus a few copies of one
        # chunk of states, not the 256 bytes of every state and of its map
        n = 8
        write_matrix_coo(tmp_path / "a.coo", np.diag(np.geomspace(70.0, 0.01, n)))
        write_vector(tmp_path / "b.vec", np.ones(n))
        tracemalloc.start()
        try:
            rc = main(["solve", "--matrix", str(tmp_path / "a.coo"),
                       "--rhs", str(tmp_path / "b.vec"), "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        payload = json.loads((tmp_path / "solve.json").read_text())
        steps, state_bytes = payload["steps"], 2 * n * 16
        assert steps > 50_000 and math.isfinite(payload["kappa2_w_inf"])
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == steps + 1 and not any(row.endswith(",") for row in rows)
        assert peak <= steps * (32 + 3 * 8) + 8 * mag.STATE_CHUNK * state_bytes

    @pytest.mark.parametrize("method, own", [
        ("mag", {"steps", "kappa2_w_inf"}), ("gradient", {"t_end"}),
        ("damped", {"t_end", "gamma"}), ("schro", set(SCHRO_FIELDS)),
    ], ids=["mag", "gradient", "damped", "schro"])
    def test_solve_json_fields(self, diag_problem, method, own):
        out = diag_problem / "out"
        grid = ["--np", "16384"] if method == "schro" else []
        rc = main(["solve", "--matrix", str(diag_problem / "a.coo"),
                   "--rhs", str(diag_problem / "b.vec"), "--method", method,
                   "--delta", "1e-3", *grid, "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "solve.json").read_text())
        assert set(payload) == {"method", "delta", "residual_vs_oracle", "meets_delta",
                                "error_estimate", *own}
        assert (payload["method"], payload["delta"]) == (method, 1e-3)
        if method == "damped":
            # the damping default and the damped horizon, on sigma_min = 0.1
            assert payload["gamma"] == pytest.approx(1.9 * 0.1, rel=1e-14)
            assert payload["t_end"] == pytest.approx(math.log(1e3) / 0.1, rel=1e-14)

    def test_missing_source_is_usage_error(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path)]) == 2

    def test_both_sources_rejected(self, diag_problem):
        rc = main([
            "solve", "--preset", "fig3a",
            "--matrix", str(diag_problem / "a.coo"),
            "--rhs", str(diag_problem / "b.vec"),
        ])
        assert rc == 2

    def test_bad_np_rejected(self, diag_problem):
        rc = main([
            "solve", "--matrix", str(diag_problem / "a.coo"),
            "--rhs", str(diag_problem / "b.vec"), "--np", "100",
        ])
        assert rc == 2

    def test_malformed_matrix_file(self, tmp_path):
        bad = tmp_path / "bad.coo"
        bad.write_text("not a header\n")
        write_vector(tmp_path / "b.vec", np.ones(2, dtype=complex))
        rc = main([
            "solve", "--matrix", str(bad), "--rhs", str(tmp_path / "b.vec"),
            "--out", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("bad", ["matrix", "rhs"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_file_entry_is_usage_error(self, diag_problem, capsys, command, bad,
                                                  value):
        # rejected on reading, with the file and line, before any SVD
        (diag_problem / "a_bad.coo").write_text(f"2 2 2\n0 0 10.0 0.0\n1 1 {value} 0.0\n")
        (diag_problem / "b_bad.vec").write_text(f"1.0 0.0\n\n1.0 {value}\n")
        matrix = diag_problem / ("a_bad.coo" if bad == "matrix" else "a.coo")
        rhs = diag_problem / ("b_bad.vec" if bad == "rhs" else "b.vec")
        rc = main([command, "--matrix", str(matrix), "--rhs", str(rhs),
                   "--out", str(diag_problem / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{matrix if bad == 'matrix' else rhs}: line 3: non-finite entry" in err

    @pytest.mark.parametrize("header", ["3000000 3000000 1", "0 2 1", "-2 2 1"])
    def test_out_of_range_matrix_size_is_usage_error(self, tmp_path, header):
        # rejected from the header alone: the dense matrix is never allocated
        (tmp_path / "big.coo").write_text(header + "\n0 0 1.0 0.0\n")
        write_vector(tmp_path / "b.vec", np.ones(2, dtype=complex))
        tracemalloc.start()
        try:
            rc = main([
                "solve", "--matrix", str(tmp_path / "big.coo"),
                "--rhs", str(tmp_path / "b.vec"), "--out", str(tmp_path),
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert peak < 2**20

    @pytest.mark.parametrize("argv", [["schro"], ["pde", "--method", "schro"],
                                      ["solve", "--method", "schro"]])
    def test_out_of_range_np_is_usage_error(self, tmp_path, capsys, argv):
        # rejected before the grid is allocated
        tracemalloc.start()
        try:
            rc = main([*argv, "--preset", "fig3a", "--np", str(2**32),
                       "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_p=4294967296 exceeds") and err.count("\n") == 1
        assert peak < 2**20

    @pytest.mark.parametrize("argv", [["solve", "--method", "mag"], ["pde", "--method", "mag"],
                                      ["schro"], ["pde", "--method", "schro"]],
                             ids=["solve", "pde", "schro", "pde-schro"])
    def test_step_budget_beyond_cap_is_usage_error(self, tmp_path, argv):
        # bounds that bracket the spectrum with kappa_hat = 1e15 ask for about
        # 3e16 steps: rejected before the iteration starts, so the run returns
        # within the subprocess timeout; the Hamiltonian pipeline, which would
        # evolve to t_end ~ 7e15 and miss delta, refuses the same kappa_hat
        done = subprocess.run(
            [sys.executable, "-m", "schromag.cli", *argv, "--preset", "fig3a",
             "--lhat", "1e20", "--muhat", "1e-10", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
            capture_output=True, text=True, timeout=20)
        assert done.returncode == 2
        assert done.stderr.startswith("error: kappa_hat=1e+15 allows ")
        assert done.stderr.endswith(f"beyond the budget of {mag.MAX_ITERATION_ENTRIES}\n")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("method", ["mag", "schro"])
    def test_step_budget_counts_the_written_block(self, tmp_path, capsys, method):
        # at kappa_hat = 2.5e4 on fig5a the steps to delta on all of [u; v] fit
        # the budget and the steps to delta on u alone, the block pde writes,
        # do not: pde refuses both methods alike
        rc = main(["pde", "--preset", "fig5a", "--method", method, "--lhat", "330515",
                   "--muhat", "5.238e-4", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: kappa_hat=2.51e+04 allows ")

    @pytest.mark.parametrize("delta", ["1e-320", "5e-324"])
    @pytest.mark.parametrize("argv", [
        *[[command, "--preset", "fig3a", "--method", method] for command in ("solve", "pde")
          for method in ("mag", "schro", "gradient", "damped")],
        ["schro", "--preset", "fig3a"], ["complexity", "--preset", "fig3a"], ["compare"],
    ], ids=lambda argv: "-".join(a for a in argv if not a.startswith("-")))
    def test_delta_whose_log_overflows_is_usage_error(self, tmp_path, capsys, argv, delta):
        # 1/delta of a subnormal delta is not a finite double, so no horizon
        # ln(1/delta) exists: every method and command refuses it in one line
        if argv == ["compare"]:
            system = pde_preset("fig3a")[0].system
            write_matrix_coo(tmp_path / "a.coo", system.a)
            write_vector(tmp_path / "b.vec", system.b)
            argv = ["compare", "--matrix", str(tmp_path / "a.coo"),
                    "--rhs", str(tmp_path / "b.vec")]
        assert main([*argv, "--delta", delta, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: delta=") and err.count("\n") == 1
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("method", ["mag", "schro"])
    def test_delta_rescaled_to_the_written_block_underflows(self, tmp_path, capsys, method):
        # a normal delta that the rescale to fig5a's u block takes below the
        # normal range: mag refuses it, and schro with it
        rc = main(["pde", "--preset", "fig5a", "--method", method, "--delta", "1e-306",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: delta=1e-306 is out of reach: mag ") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["gradient", "damped", "schro"])
    def test_smallest_normal_deltas_still_run(self, tmp_path, method):
        assert main(["pde", "--preset", "fig3a", "--method", method, "--delta", "1e-300",
                     "--out", str(tmp_path)]) == 0

    def test_beta_rounding_to_one_is_usage_error(self, tmp_path, capsys):
        # kappa_hat = 1e17 rounds beta to 1.0, where the iteration would never end
        rc = main(["solve", "--preset", "fig3a", "--lhat", "1e34", "--muhat", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: need 0 <= beta < 1, got 1.0\n"

    def test_gradient_solves_an_ill_conditioned_matrix(self, tmp_path):
        # kappa(A) = 1e7 passes A's check; the gradient flow's blocks -sigma^2
        # spread by 1e14, but each is solved on its own and is well conditioned
        write_matrix_coo(tmp_path / "a.coo", np.diag([1.0, 1e-7]).astype(complex))
        write_vector(tmp_path / "b.vec", np.ones(2, dtype=complex))
        out = tmp_path / "out"
        assert main(["solve", "--method", "gradient", "--matrix", str(tmp_path / "a.coo"),
                     "--rhs", str(tmp_path / "b.vec"), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["error_estimate"] == pytest.approx(report["residual_vs_oracle"], rel=1e-6)


class TestOutDirectory:
    """An --out that cannot be a directory is bad input: one line, exit 2."""

    @pytest.mark.parametrize("below", [False, True], ids=["existing-file", "below-a-file"])
    def test_out_that_cannot_be_created_is_usage_error(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if below else afile
        rc = main(["pde", "--preset", "fig3a", "--method", "mag", "--out", str(out)])
        assert rc == 2
        reason = "Not a directory" if below else "File exists"
        assert capsys.readouterr().err == f"error: cannot create --out {str(out)!r}: {reason}\n"
        assert afile.read_text() == "kept\n"


class TestFactorizationCounts:
    """Each invocation factors A once, and only the oracle solves a system.
    A PDE problem without a Robin node is factored in closed form
    (`PdeProblem.svd`), with no dense SVD of A; a Robin problem or a matrix
    file by one dense SVD."""

    @staticmethod
    def _count(monkeypatch, argv, dtypes=None):
        """Kernel calls by (name, shape), and closed-form SVDs as
        ("closed_form", shape of A); the dtype of each kernel call's matrix
        goes to `dtypes` when a list is given."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(m, *args, **kwargs):
                calls[name, np.shape(m)] += 1
                if dtypes is not None:
                    dtypes.append(np.asarray(m).dtype)
                return fn(m, *args, **kwargs)
            return wrapper

        # norm(x, 2) reaches svd through numpy's implementation module
        inner = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        for name in ("svd", "eig", "solve"):
            fn = getattr(np.linalg, name)
            for module in {np.linalg, inner}:
                monkeypatch.setattr(module, name, counting(name, fn))
        closed_form = pde.PdeProblem.svd

        def counted(problem):
            factors = closed_form(problem)
            if factors is not None:
                calls["closed_form", (problem.dim,) * 2] += 1
            return factors

        monkeypatch.setattr(pde.PdeProblem, "svd", counted)
        assert main(argv) == 0
        return calls

    @staticmethod
    def _closed_form(n: int, r: int = 1) -> Counter:
        """The calls of one closed-form SVD of an n x n A: itself, and one
        batched SVD of its r x r blocks, 1x1 (Helmholtz) or 2x2
        (biharmonic), one per eigenvalue of the axis."""
        return Counter({("closed_form", (n, n)): 1, ("svd", (n // r, r, r)): 1})

    @pytest.mark.parametrize("command", ["pde", "solve"])
    def test_fig4a_mag(self, tmp_path, monkeypatch, command):
        n = pde_preset("fig4a")[0].system.a.shape[0]
        dtypes = []
        calls = self._count(monkeypatch, [command, "--preset", "fig4a", "--method", "mag",
                                          "--out", str(tmp_path)], dtypes)
        # the iteration runs in the pair basis: no 2n x 2n solve; the oracle
        # is one real LU
        assert calls == self._closed_form(n) + Counter({("solve", (n, n)): 1})
        assert dtypes == [np.float64, np.float64]

    def test_damped_one_svd(self, tmp_path, monkeypatch):
        n = pde_preset("fig3a")[0].system.a.shape[0]
        calls = self._count(monkeypatch, ["solve", "--preset", "fig3a", "--method", "damped",
                                          "--out", str(tmp_path)])
        assert calls == self._closed_form(n) + Counter({("solve", (n, n)): 1})

    def test_gradient_one_svd(self, tmp_path, monkeypatch):
        n = pde_preset("fig3a")[0].system.a.shape[0]
        calls = self._count(monkeypatch, ["solve", "--preset", "fig3a", "--method", "gradient",
                                          "--out", str(tmp_path)])
        assert calls == self._closed_form(n) + Counter({("solve", (n, n)): 1})

    def test_compare_fig1_one_svd(self, tmp_path, monkeypatch):
        # both flows run on the SVD basis of the command's one factorization
        n = compare_preset("fig1")[0].shape[0]
        calls = self._count(monkeypatch, ["compare", "--preset", "fig1",
                                          "--out", str(tmp_path)])
        assert calls == Counter({("svd", (n, n)): 1})

    def test_compare_fig2_one_svd(self, tmp_path, monkeypatch):
        # the preset's closed-form SVD, taken once by `cli._factor` as for
        # solve, feeds the bounds, the oracle, both methods' basis and the
        # damped flow's sigma_min
        n = compare_preset("fig2")[0].dim
        calls = self._count(monkeypatch, ["compare", "--preset", "fig2",
                                          "--out", str(tmp_path)])
        assert calls == self._closed_form(n) + Counter({("solve", (n, n)): 1})

    @pytest.mark.parametrize("preset, dtype", [("fig4a", np.float64), ("fig6a", np.float64),
                                               ("fig3e", np.complex128),
                                               ("fig4d", np.complex128)])
    def test_real_matrix_factored_in_real_arithmetic(self, tmp_path, monkeypatch, preset,
                                                     dtype):
        # the zero-boundary presets are real and factored in closed form, the
        # Robin ones complex and factored by one dense SVD; the oracle's LU
        # runs in the same arithmetic
        problem = pde_preset(preset)[0]
        n = problem.dim
        dtypes = []
        calls = self._count(monkeypatch, ["pde", "--preset", preset, "--method", "mag",
                                          "--out", str(tmp_path)], dtypes)
        if dtype == np.complex128:
            factored = Counter({("svd", (n, n)): 1})
        else:  # 2x2 blocks for biharmonic
            factored = self._closed_form(n, 2 if problem.family.startswith("biharmonic") else 1)
        assert calls == factored + Counter({("solve", (n, n)): 1})
        assert dtypes == [dtype, dtype]

    @staticmethod
    def _spectral_builds(monkeypatch, argv) -> int:
        """Calls of mag.build_spectral, the one code that turns (A, b) into
        the singular basis, during one command."""
        calls = []
        build = mag.build_spectral

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(mag, "build_spectral", counting)
        assert main(argv) == 0
        return len(calls)

    @pytest.mark.parametrize("argv", [
        *(["solve", "--preset", "fig3a", "--method", m]
          for m in ("mag", "gradient", "damped", "schro")),
        ["pde", "--preset", "fig3a", "--method", "mag"],
        ["pde", "--preset", "fig3a", "--method", "schro"],
        ["schro", "--preset", "fig3a"],
        ["compare", "--preset", "fig1"],
        ["compare", "--preset", "fig2"],
        ["compare", "--matrix", "a.coo", "--rhs", "b.vec"],
    ])
    def test_one_spectral_system(self, diag_problem, monkeypatch, argv):
        argv = [str(diag_problem / x) if x.endswith((".coo", ".vec")) else x for x in argv]
        builds = self._spectral_builds(monkeypatch, argv + ["--out", str(diag_problem / "o")])
        assert builds == 1

    def test_complexity_reads_one_spectral_system(self, tmp_path, monkeypatch):
        # the cost table reads the singular values of the run's one spectral
        # system, behind the same guards as every other command, and solves
        # nothing; its SVD is the closed-form factors
        argv = ["complexity", "--preset", "fig3a", "--out", str(tmp_path)]
        assert self._spectral_builds(monkeypatch, argv) == 1
        dtypes = []
        calls = self._count(monkeypatch, argv, dtypes)
        n = pde_preset("fig3a")[0].system.a.shape[0]
        assert calls == self._closed_form(n)
        assert dtypes == [np.float64]

    def test_complexity_complex_matrix_one_svd(self, tmp_path, monkeypatch):
        dtypes = []
        calls = self._count(monkeypatch, ["complexity", "--preset", "fig3e",
                                          "--out", str(tmp_path)], dtypes)
        n = pde_preset("fig3e")[0].system.a.shape[0]
        assert calls == Counter({("svd", (n, n)): 1})
        assert dtypes == [np.complex128]

    def test_compare_files_one_svd(self, diag_problem, monkeypatch):
        calls = self._count(monkeypatch, ["compare", "--matrix", str(diag_problem / "a.coo"),
                                          "--rhs", str(diag_problem / "b.vec"),
                                          "--out", str(diag_problem / "o")])
        assert calls == Counter({("svd", (2, 2)): 1})

    def test_solve_files_one_svd(self, diag_problem, monkeypatch):
        # a matrix file has no closed form: one dense SVD, in real arithmetic
        # as is the oracle's LU, since its imaginary part is zero
        dtypes = []
        calls = self._count(monkeypatch, ["solve", "--matrix", str(diag_problem / "a.coo"),
                                          "--rhs", str(diag_problem / "b.vec"),
                                          "--out", str(diag_problem / "o")], dtypes)
        assert calls == Counter({("svd", (2, 2)): 1, ("solve", (2, 2)): 1})
        assert dtypes == [np.float64, np.float64]

    @pytest.mark.parametrize("argv", [["pde", "--preset", "fig4a", "--method", "schro"],
                                      ["solve", "--preset", "fig4a", "--method", "schro"],
                                      ["schro", "--preset", "fig3a"]])
    def test_schro_one_full_svd(self, tmp_path, monkeypatch, argv):
        # the bounds, the guard checks and the pair basis share one full
        # SVD, the closed-form factors
        n = pde_preset(argv[2])[0].system.a.shape[0]
        calls = self._count(monkeypatch, argv + ["--out", str(tmp_path)])
        assert calls == self._closed_form(n) + Counter({("solve", (n, n)): 1})


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# the modules a command imports only when it runs them
_ON_USE = ("schromag.schrod", "schromag.baselines", "schromag.blockenc",
           "schromag.complexity", "schromag.floatrepr")


class TestDeferredScipy:
    """scipy is a test dependency only: no command loads it.  Nor does any
    command load the tests' dense reference, which the package no longer
    carries, or a module of the package that it does not run: `import
    schromag` loads no submodule, a mag run neither the Hamiltonian
    pipeline nor the flows, and only a command that writes a snapshot
    loads its formatter."""

    @staticmethod
    def _run_without_scipy(tmp_path, argv, unloaded):
        script = (
            "import sys\n"
            "import schromag.cli\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            f"rc = schromag.cli.main({argv + ['--out', str(tmp_path)]!r})\n"
            "assert rc == 0, rc\n"
            "assert 'scipy' not in sys.modules, 'run'\n"
            "assert 'reference' not in sys.modules, 'reference'\n"
            f"loaded = [m for m in {list(unloaded)!r} if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "assert not hasattr(schromag.mag, 'build_transformed'), 'dense H'\n"
        )
        TestDeferredScipy._python(script)

    @staticmethod
    def _python(script):
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_bare_package_import_loads_no_submodule(self):
        self._python("import sys\nimport schromag\n"
                     "loaded = sorted(m for m in sys.modules if m.startswith('schromag.'))\n"
                     "assert not loaded, loaded\n")

    def test_cli_import_and_mag_run_leave_scipy_unloaded(self, tmp_path):
        self._run_without_scipy(tmp_path, ["pde", "--preset", "fig3a", "--method", "mag"],
                                _ON_USE)
        assert (tmp_path / "solution.csv").is_file()

    def test_solve_mag_run_loads_no_module_it_does_not_run(self, tmp_path):
        self._run_without_scipy(tmp_path, ["solve", "--preset", "fig3a", "--method", "mag"],
                                _ON_USE)

    def test_pde_schro_run_loads_no_flow_encoding_or_cost_module(self, tmp_path):
        self._run_without_scipy(tmp_path, ["pde", "--preset", "fig3a", "--method", "schro"],
                                [m for m in _ON_USE if m != "schromag.schrod"])

    @pytest.mark.parametrize("argv", [["solve", "--preset", "fig3a", "--method", "gradient"],
                                      ["solve", "--preset", "fig3a", "--method", "damped"],
                                      ["compare", "--preset", "fig1"],
                                      ["compare", "--preset", "fig2"]])
    def test_flow_runs_leave_scipy_unloaded(self, tmp_path, argv):
        self._run_without_scipy(tmp_path, argv,
                                [m for m in _ON_USE if m != "schromag.baselines"])

    def test_no_scipy_import_in_package(self):
        src = os.path.join(ROOT, "src", "schromag")
        pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name)) as fh:
                    assert not pattern.search(fh.read()), name


class TestCompare:
    def test_fig1_artifacts(self, tmp_path):
        rc = main(["compare", "--preset", "fig1", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("mag_trajectory.csv", "damped_trajectory.csv", "ratio.csv"):
            assert (tmp_path / name).exists()
        payload = json.loads((tmp_path / "compare.json").read_text())
        assert payload["damped_sign_changes"] >= 2
        ratio = (tmp_path / "ratio.csv").read_text().strip().split("\n")
        assert ratio[0] == "time,mag_ratio,damped_ratio"
        # mag ratio has no sign changes after the initial transient
        tail = [float(ln.split(",")[1]) for ln in ratio[1 + len(ratio) // 20:]
                if ln.split(",")[1]]
        assert all(r > 0 for r in tail) or all(r < 0 for r in tail)

    def test_fig1_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["compare", "--preset", "fig1", "--out", str(out1)]) == 0
        assert main(["compare", "--preset", "fig1", "--out", str(out2)]) == 0
        for name in ("mag_trajectory.csv", "damped_trajectory.csv", "ratio.csv", "compare.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("gaps", [False, True], ids=["fig1", "all-gaps"])
    def test_ratio_csv_is_the_trajectory_columns(self, diag_problem, gaps):
        # time from mag_trajectory.csv, then each file's ratio cell, a gap empty in all
        source = ["--preset", "fig1"]
        if gaps:
            # a zero first entry of b keeps the solved component at 0: every ratio a gap
            write_vector(diag_problem / "b0.vec", np.array([0.0, 1.0], dtype=complex))
            source = ["--matrix", str(diag_problem / "a.coo"),
                      "--rhs", str(diag_problem / "b0.vec")]
        out = diag_problem / "out"
        assert main(["compare", *source, "--out", str(out)]) == 0
        ratio, mag_rows, damped_rows = (
            (out / name).read_text().split("\n")
            for name in ("ratio.csv", "mag_trajectory.csv", "damped_trajectory.csv"))
        assert ratio[0] == "time,mag_ratio,damped_ratio" and ratio[-1] == ""
        assert len(ratio) == len(mag_rows) == len(damped_rows) > 2
        for line, m, d in zip(ratio[1:-1], mag_rows[1:-1], damped_rows[1:-1]):
            m, d = m.split(","), d.split(",")
            assert line == f"{m[0]},{m[5]},{d[5]}"
            assert all(c == "" or repr(float(c)) == c for c in line.split(","))
        if gaps:
            assert all(line.endswith(",,") for line in ratio[1:-1])

    def test_fig2_errors_table(self, tmp_path):
        rc = main(["compare", "--preset", "fig2", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "fig2_errors.csv").read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        rows = text.strip().split("\n")
        assert rows[0] == "delta,mag_error,damped_error"
        assert len(rows) == 5
        assert [row.split(",")[0] for row in rows[1:]] == list(
            map(repr, compare_preset("fig2")[1]))
        for row in rows[1:]:
            assert all(repr(float(c)) == c for c in row.split(","))
            _, e_mag, e_damp = (float(x) for x in row.split(","))
            assert e_mag <= e_damp


class TestStrictJson:
    """Reports are strict JSON: a non-finite value is written as null."""

    @staticmethod
    def _strict(path):
        def reject(token):
            raise ValueError(f"{path}: non-standard JSON token {token}")
        return json.loads(path.read_text(), parse_constant=reject)

    def test_kappa2_without_a_trace_is_null(self, tmp_path):
        assert main(["solve", "--preset", "fig4a", "--method", "mag", "--out", str(tmp_path)]) == 0
        assert self._strict(tmp_path / "solve.json")["kappa2_w_inf"] is None

    def test_finite_kappa2_is_written_as_it_is(self, tmp_path):
        # fig3a's mapped steady state [(1 - beta) u; c b] has no near-zero
        # component: kappa2 is its max over min modulus
        assert main(["solve", "--preset", "fig3a", "--method", "mag", "--out", str(tmp_path)]) == 0
        kappa2 = self._strict(tmp_path / "solve.json")["kappa2_w_inf"]
        problem, _ = pde_preset("fig3a")
        a, b = problem.system.a, problem.system.b
        p = mag.build_spectral(a, b).params
        w_inf = np.abs(np.concatenate([(1.0 - p.beta) * np.linalg.solve(a, b),
                                       math.sqrt(p.alpha * p.beta) * b]))
        assert kappa2 == pytest.approx(np.max(w_inf) / np.min(w_inf), rel=1e-9)

    def test_ratio_bands_of_a_zero_rhs_are_null(self, tmp_path):
        write_matrix_coo(tmp_path / "a.coo", np.diag([2.0, 1.0]).astype(complex))
        write_vector(tmp_path / "b0.vec", np.zeros(2, dtype=complex))
        out = tmp_path / "out"
        assert main(["compare", "--matrix", str(tmp_path / "a.coo"),
                     "--rhs", str(tmp_path / "b0.vec"), "--out", str(out)]) == 0
        payload = self._strict(out / "compare.json")
        assert payload["mag_ratio_band"] == payload["damped_ratio_band"] == [None, None]


class TestPde:
    def test_fig3a_mag(self, tmp_path):
        rc = main([
            "pde", "--preset", "fig3a", "--method", "mag",
            "--delta", "1e-4", "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "pde.json").read_text())
        assert payload["residual_vs_oracle"] < 1e-4
        assert (tmp_path / "problem.coo").exists()
        assert (tmp_path / "problem.json").exists()
        sol = (tmp_path / "solution.csv").read_text().strip().split("\n")
        assert sol[0] == "node_index,x,u_re,u_im"
        assert len(sol) == 17

    @pytest.mark.parametrize("preset", ["fig3d", "fig3e", "fig4a", "fig5c", "fig5d",
                                        "fig6a", "fig6d"])
    def test_tighter_delta_derives_a_finer_grid(self, tmp_path, preset):
        # delta = 1e-4 widens the runway past each of these presets' grid at
        # 1e-3; the run takes the grid its own domain needs, and meets delta
        rc = main(["pde", "--preset", preset, "--method", "schro", "--delta", "1e-4",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "pde.json").read_text())["meets_delta"] is True

    @pytest.mark.parametrize("command", [["pde", "--method", "schro"], ["complexity"]])
    @pytest.mark.parametrize("preset, derived", [("fig3a", 256), ("fig4a", 2048)])
    def test_half_the_derived_grid_is_refused(self, tmp_path, capsys, command, preset,
                                              derived):
        # an explicit --np still overrides the derived grid, and complexity
        # refuses the grids the run refuses, naming the derived one
        rc = main([*command, "--preset", preset, "--np", str(derived // 2),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: n_p={derived // 2} leaves dp=")
        assert err.endswith(f"; use n_p >= {derived}\n") and err.count("\n") == 1

    def test_fig3a_schro(self, tmp_path):
        rc = main([
            "pde", "--preset", "fig3a", "--method", "schro", "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "pde.json").read_text())
        assert payload["residual_vs_oracle"] < 1e-2
        assert payload["recovery_method"] == "integral"

    @pytest.mark.parametrize("method, own", [
        ("mag", {"steps"}), ("gradient", {"t_end"}), ("damped", {"t_end", "gamma"}),
        ("schro", set(SCHRO_FIELDS)),
    ], ids=["mag", "gradient", "damped", "schro"])
    def test_pde_json_carries_the_method_fields(self, tmp_path, method, own):
        pde_out, solve_out = tmp_path / "pde", tmp_path / "solve"
        argv = ["--preset", "fig3a", "--method", method]
        assert main(["pde", *argv, "--out", str(pde_out)]) == 0
        payload = json.loads((pde_out / "pde.json").read_text())
        assert set(payload) == {"preset", "method", "delta", "residual_vs_oracle",
                                "meets_delta", "error_estimate", *own}
        # the same fields, and values, as solve on the same preset
        assert main(["solve", *argv, "--out", str(solve_out)]) == 0
        solved = json.loads((solve_out / "solve.json").read_text())
        for name in own:
            assert payload[name] == solved[name], name
        if method == "mag":
            assert payload["steps"] > 0

    def test_unknown_preset(self, tmp_path):
        assert main(["pde", "--preset", "nope", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("method", ["mag", "gradient", "damped", "schro"])
    @pytest.mark.parametrize("preset", ["fig3a", "fig3d", "fig4a", "fig5a"])
    def test_error_estimate_matches_the_oracle(self, tmp_path, preset, method):
        # max|u - V x*| / max|V x*|, x* = b~/sigma from the run's own SVD, reads
        # the error of the direct solve: the two references differ by rounding,
        # which dominates only where a method is exact to rounding itself (the
        # gradient flow on fig3a, fig4a and fig5a, at most 5.4e-15)
        assert main(["pde", "--preset", preset, "--method", method,
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "pde.json").read_text())
        estimate, residual = payload["error_estimate"], payload["residual_vs_oracle"]
        if residual >= 1e-9:
            assert estimate == pytest.approx(residual, rel=1e-6, abs=0.0)
        else:
            assert max(estimate, residual) <= 1e-13

    @pytest.mark.parametrize("method", ["mag", "schro", "gradient"])
    @pytest.mark.parametrize("preset", PDE_PRESET_NAMES)
    def test_written_block_meets_delta(self, tmp_path, preset, method):
        # solution.csv holds u alone (v = lap u of the biharmonic systems is
        # 14-60x larger): u is within delta itself of the LU oracle, and
        # pde.json reports that error, on u, and its estimate
        assert main(["pde", "--preset", preset, "--method", method,
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "pde.json").read_text())
        rows = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
        problem = pde_preset(preset)[0]
        oracle = np.linalg.solve(problem.system.a, problem.system.b)[: problem.solution_size]
        error = float(np.max(np.abs(rows[:, -2] + 1j * rows[:, -1] - oracle))
                      / np.max(np.abs(oracle)))
        assert error <= payload["delta"]
        assert payload["meets_delta"] is True
        if error >= 1e-9:  # the references' rounding, ~1e-15, is a millionth of it
            assert payload["residual_vs_oracle"] == pytest.approx(error, rel=1e-9, abs=1e-15)
            assert payload["error_estimate"] == pytest.approx(error, rel=1e-6, abs=0.0)
        else:  # exact to rounding (the gradient flow on the Dirichlet presets): the
            # run's LU and np.linalg.solve differ by rounding themselves
            assert max(payload["residual_vs_oracle"], error) <= 1e-13
        # the error on all of [u; v] comes second, on the biharmonic presets
        assert ("residual_vs_oracle_full" in payload) is (oracle.size < problem.dim)

    def test_full_residual_is_the_solve_residual(self, tmp_path):
        # pde and solve run schro alike; solve reports on the whole vector
        pde_out, solve_out = tmp_path / "pde", tmp_path / "solve"
        argv = ["--preset", "fig5a", "--method", "schro"]
        assert main(["pde", *argv, "--out", str(pde_out)]) == 0
        assert main(["solve", *argv, "--out", str(solve_out)]) == 0
        payload = json.loads((pde_out / "pde.json").read_text())
        solved = json.loads((solve_out / "solve.json").read_text())
        assert payload["residual_vs_oracle_full"] == solved["residual_vs_oracle"]
        assert payload["residual_vs_oracle"] != solved["residual_vs_oracle"]

    def test_meets_delta_reports_a_missed_delta(self, tmp_path):
        # fig4a's own files on their derived grid, 2048 points, meet delta = 1e-3 (2.6e-6);
        # delta = 1e-10 is below what the coarsest grid it allows, 8192 points,
        # can reach (3.1e-8); every run exits 0
        pde_out = tmp_path / "pde"
        assert main(["pde", "--preset", "fig4a", "--method", "schro",
                     "--out", str(pde_out)]) == 0
        payload = json.loads((pde_out / "pde.json").read_text())
        assert payload["meets_delta"] is True
        files = ["--matrix", str(pde_out / "problem.coo"), "--rhs", str(pde_out / "problem.vec")]
        for extra, delta, meets in [([], 1e-3, True),
                                    (["--delta", "1e-10", "--np", "8192"], 1e-10, False)]:
            solve_out = tmp_path / f"solve-{delta:g}"
            assert main(["solve", *files, "--method", "schro", *extra,
                         "--out", str(solve_out)]) == 0
            payload = json.loads((solve_out / "solve.json").read_text())
            assert payload["delta"] == delta
            assert (payload["residual_vs_oracle"] <= delta) is meets
            assert payload["meets_delta"] is meets

    @pytest.mark.parametrize("method", ["mag", "schro"])
    def test_a_is_released_before_the_method_runs(self, tmp_path, monkeypatch, method):
        # pde keeps the nodes and the u block, not the problem: the dense A
        # goes once its direct solve has run
        refs, alive = [], []
        load, run = cli.pde_preset, cli._run_method

        def loading(name):
            problem, solver = load(name)
            refs.append(weakref.ref(problem.system.a))
            return problem, solver

        def running(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "pde_preset", loading)
        monkeypatch.setattr(cli, "_run_method", running)
        assert main(["pde", "--preset", "fig6a", "--method", method,
                     "--out", str(tmp_path)]) == 0
        assert alive == [False]

    @pytest.mark.parametrize("argv, code, message", [
        (["--np", "1024"], 2, "error: n_p=1024 leaves dp="),
        (["--lhat", "100.0", "--muhat", "1.0"], 1,
         "numerical contract violated: spectral radius"),
    ], ids=["grid-too-coarse", "radius-guard"])
    def test_refused_run_leaves_out_empty(self, tmp_path, capsys, argv, code, message):
        # the problem files are written with the solution, as solve writes
        # nothing on the same refusals
        rc = main(["pde", "--preset", "fig4a", "--method", "schro", *argv,
                   "--out", str(tmp_path)])
        assert rc == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert os.listdir(tmp_path) == []


class TestSchro:
    def test_pipeline_report(self, diag_problem):
        out = diag_problem / "out"
        rc = main([
            "schro", "--matrix", str(diag_problem / "a.coo"),
            "--rhs", str(diag_problem / "b.vec"),
            "--delta", "1e-3", "--np", "16384", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "schro.json").read_text())
        assert (report["method"], report["delta"]) == ("schro", 1e-3)
        for key in ("t_end", "n_p", "p_left", "p_right", "p_diamond",
                    "k_star", "recovery_method", "residual_vs_oracle"):
            assert key in report
        assert report["residual_vs_oracle"] < 1e-2
        # the left edge in its two parts: the runway and the envelope's tail
        assert report["envelope_tail"] == schrod.envelope_tail(schrod.DEFAULT_TAIL_TOL)
        assert report["runway"] > 0.0
        assert report["p_left"] == -(report["runway"] + report["envelope_tail"])

    def test_warped_field_snapshot(self, diag_problem):
        out = diag_problem / "snap"
        rc = main([
            "schro", "--matrix", str(diag_problem / "a.coo"),
            "--rhs", str(diag_problem / "b.vec"),
            "--delta", "1e-3", "--np", "16384", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "warped_field.csv").read_text().strip().split("\n")
        assert lines[0].startswith("p,comp0_re,comp0_im")
        assert 2 <= len(lines) - 1 <= 1024


    def test_zero_rhs_gives_zero_solution_and_snapshot(self, tmp_path):
        # b = 0 forces no pair: u = 0, and every row of the snapshot is zero
        write_matrix_coo(tmp_path / "a.coo", np.array([[2.0 + 0j]]))
        write_vector(tmp_path / "b0.vec", np.zeros(1, dtype=complex))
        out = tmp_path / "out"
        assert main(["schro", "--matrix", str(tmp_path / "a.coo"),
                     "--rhs", str(tmp_path / "b0.vec"), "--out", str(out)]) == 0
        assert np.array_equal(read_vector(out / "solution.vec"), [0.0])
        rows = np.loadtxt(out / "warped_field.csv", delimiter=",", skiprows=1)
        # every grid point of a grid below 1024 points; p, then 4 slots of re, im
        n_p = json.loads((out / "schro.json").read_text())["n_p"]
        assert rows.shape == (min(n_p, 1024), 1 + 2 * 4)
        assert not np.any(rows[:, 1:])


@pytest.mark.parametrize("preset", ["fig3a", "fig5a"])
@pytest.mark.parametrize("command, method", [
    *(("solve", m) for m in cli._METHOD_OPTIONS), *(("pde", m) for m in cli._METHOD_OPTIONS),
    ("schro", "schro"),
])
def test_one_flat_report_per_run(tmp_path, command, method, preset):
    # each run writes one report, <command>.json (pde also describes its problem
    # in problem.json), as one flat object: no value is an object and no name
    # appears twice; its names are those of solve.json on the same preset, with
    # pde's preset and, on the biharmonic fig5a, its residual on all of [u; v],
    # and without the kappa2_w_inf of solve's trace
    argv = ["--preset", preset] + (["--method", method] if command != "schro" else [])
    assert main([command, *argv, "--out", str(tmp_path / command)]) == 0
    written = {path.name for path in (tmp_path / command).glob("*.json")}
    assert written == {f"{command}.json"} | ({"problem.json"} if command == "pde" else set())
    pairs = json.loads((tmp_path / command / f"{command}.json").read_text(),
                       object_pairs_hook=lambda pairs: pairs)
    names = Counter(name for name, _ in pairs)
    assert max(names.values()) == 1
    assert not any(isinstance(value, (list, dict)) for _, value in pairs)
    if command != "solve":
        assert main(["solve", "--preset", preset, "--method", method,
                     "--out", str(tmp_path / "solve")]) == 0
    solved = json.loads((tmp_path / "solve" / "solve.json").read_text())
    expected = set(solved)
    if command == "pde":
        biharmonic = {"residual_vs_oracle_full"} if preset == "fig5a" else set()
        expected = (expected - {"kappa2_w_inf"}) | {"preset"} | biharmonic
    assert set(names) == expected


class TestSnapshotFile:
    def test_seeded_fig4a_snapshot_is_per_element_format(self, tmp_path, monkeypatch):
        """`schro` in a fresh process on fig4a's matrix and a seeded complex
        rhs at --np 16384 writes warped_field.csv byte for byte as the
        per-element '%.16e' writer would, with under 1% of its values left
        to '%' by the vectorized formatter, and every cell reads back as the
        value `schrod.pipeline` gives in process, times the run's 2^k."""
        problem = pde_preset("fig4a")[0]
        a, b0 = problem.system.a, problem.system.b
        rng = np.random.default_rng(0)
        b = b0 / np.max(np.abs(b0)) + 0.1 * (rng.standard_normal(b0.size)
                                             + 1j * rng.standard_normal(b0.size))
        write_matrix_coo(tmp_path / "a.coo", a)
        write_vector(tmp_path / "b.vec", b)
        out = tmp_path / "out"
        argv = ["schro", "--matrix", str(tmp_path / "a.coo"), "--rhs", str(tmp_path / "b.vec"),
                "--np", "16384", "--out", str(out)]
        script = f"import sys\nfrom schromag.cli import main\nsys.exit(main({argv!r}))\n"
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        written = (out / "warped_field.csv").read_bytes()
        body = written.split(b"\n", 1)[1]
        rows = np.array([[float(t) for t in ln.split(b",")] for ln in body.splitlines()])
        assert rows.shape == (1024, 1 + 2 * 4 * a.shape[0])
        expected = tmp_path / "expected.csv"
        reference.write_field_snapshot_csv(expected, rows[:, 0],
                                           np.ascontiguousarray(rows[:, 1:]).view(np.complex128))
        same = written == expected.read_bytes()  # not in the assert: no 50 MB diff
        assert same
        assert floatrepr.digits(rows.ravel())[2].mean() < 0.01

        snapshots, run = [], schrod.pipeline

        def pipeline(*args, **kwargs):
            x, report, (points, field) = run(*args, **kwargs)
            snapshots.append((points.copy(), field.copy()))
            return x, report, (points, field)

        monkeypatch.setattr(schrod, "pipeline", pipeline)
        assert main([*argv[:-1], str(tmp_path / "in_process")]) == 0
        (points, field), = snapshots
        k = cli._unit_rhs(read_vector(tmp_path / "b.vec"))[1]
        in_process = np.column_stack([points, np.ldexp(field.view(np.float64), k)])
        assert np.array_equal(rows.view(np.uint64), in_process.view(np.uint64))


class TestBlockencVerify:
    def test_suite_passes_and_reports(self, tmp_path):
        rc = main(["blockenc-verify", "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "blockenc.json").read_text())
        assert len(rows) == 36
        assert all(r["pass"] for r in rows)
        names = {r["name"] for r in rows}
        assert "u_zero_one" in names

    def test_deterministic_given_seed(self, tmp_path):
        # the suite draws from its fixed seed 0
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["blockenc-verify", "--out", str(out1)])
        main(["blockenc-verify", "--out", str(out2)])
        assert (out1 / "blockenc.json").read_bytes() == (out2 / "blockenc.json").read_bytes()


class TestComplexityCmd:
    def test_csv_table(self, tmp_path):
        rc = main(["complexity", "--preset", "fig3a", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "complexity.csv").read_text().strip().split("\n")
        assert rows[0] == "method,kappa_like,chi,queries,gates,repetitions"
        assert len(rows) == 5

    def test_csv_cells_are_repr_of_the_rows(self, tmp_path, monkeypatch):
        # each cell is repr of the value comparison_rows gave, the method name as it is
        from schromag import complexity

        made = []
        rows_of = complexity.comparison_rows
        monkeypatch.setattr(complexity, "comparison_rows",
                            lambda summary: made.append(rows_of(summary)) or made[-1])
        assert main(["complexity", "--preset", "fig3a", "--out", str(tmp_path)]) == 0
        header, *lines = (tmp_path / "complexity.csv").read_text().split("\n")
        keys = header.split(",")
        assert lines[-1] == "" and len(made) == 1
        assert [line.split(",") for line in lines[:-1]] == [
            [row["method"], *(repr(row[k]) for k in keys[1:])] for row in made[0]]
        # the same run writes the same rows as JSON
        assert json.loads((tmp_path / "complexity.json").read_text())["rows"] == made[0]

    def test_json_report(self, tmp_path):
        rc = main(["complexity", "--preset", "fig3a", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "complexity.json").read_text())
        assert len(payload["rows"]) == 4
        assert len(payload["literature"]) == 6
        header = "method,kappa_like,chi,queries,gates,repetitions".split(",")
        assert all(sorted(row) == sorted(header) for row in payload["rows"])

    def test_requires_source(self, tmp_path):
        assert main(["complexity", "--out", str(tmp_path)]) == 2

    def test_files_price_the_grid_their_run_takes(self, tmp_path):
        # fig3e's own files, without --np: schro derives the preset's grid
        # and meets delta, and complexity prices that grid, so the table
        # equals the preset's byte for byte (the Robin node makes both take
        # the same dense SVD)
        assert main(["pde", "--preset", "fig3e", "--out", str(tmp_path / "pde")]) == 0
        files = ["--matrix", str(tmp_path / "pde" / "problem.coo"),
                 "--rhs", str(tmp_path / "pde" / "problem.vec")]
        assert main(["schro", *files, "--out", str(tmp_path / "schro")]) == 0
        report = json.loads((tmp_path / "schro" / "schro.json").read_text())
        assert report["n_p"] == 65536 and report["meets_delta"] is True
        assert main(["complexity", *files, "--out", str(tmp_path / "files")]) == 0
        assert main(["complexity", "--preset", "fig3e", "--out", str(tmp_path / "preset")]) == 0
        table = (tmp_path / "preset" / "complexity.csv").read_bytes()
        assert (tmp_path / "files" / "complexity.csv").read_bytes() == table
        rows = json.loads((tmp_path / "files" / "complexity.json").read_text())["rows"]
        # mag's chi = s^2 log2(N_p) kappa ln(1/delta), s = 3 and N_p = 65536
        assert rows[0]["chi"] == 9 * 16.0 * (rows[0]["kappa_like"] * math.log(1.0 / 1e-3))

    @pytest.mark.parametrize("preset", ["fig6a", "fig4d"])
    def test_reads_the_runs_sigma(self, tmp_path, preset):
        # the sigma of the run's one SVD: fig6a's closed-form factors, the
        # Robin fig4d's dense SVD
        argv = ["complexity", "--preset", preset, "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = json.loads((tmp_path / "complexity.json").read_text())["rows"]
        problem = pde_preset(preset)[0]
        sigma = mag.build_spectral(problem.system.a, problem.system.b, problem=problem).sigma
        assert [r["kappa_like"] for r in rows if r["method"] == "mag"] == [sigma[0] / sigma[-1]]

    @pytest.mark.parametrize("sources, message", [
        (["--matrix", "a.coo"], "error: --matrix requires --rhs"),
        (["--preset", "fig3a", "--matrix", "a.coo", "--rhs", "b.vec"],
         "error: exactly one problem source"),
    ])
    def test_sources_validated(self, diag_problem, capsys, sources, message):
        sources = [str(diag_problem / x) if x.endswith((".coo", ".vec")) else x
                   for x in sources]
        rc = main(["complexity", *sources, "--out", str(diag_problem / "cx")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (diag_problem / "cx").exists()


class TestForcingScale:
    """The forcing scale is the one `schrod.default_forcing_scale` derives
    from the run's bounds: --gammaf is no option."""

    @pytest.mark.parametrize("command", [["schro"], ["solve", "--method", "schro"],
                                         ["pde", "--method", "schro"]])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_gammaf_is_usage_error(self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        rc = main([*command, "--preset", "fig3a", "--gammaf", value, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: --gammaf {value}\n"
        assert not out.exists()


class TestRhsScale:
    """Every method is linear in b, and a run scales b by a power of two to
    unit size first (`cli._unit_rhs`): what it writes follows the scale of
    b, however large or small."""

    @staticmethod
    def _fig3a(tmp_path, scales):
        """fig3a's own files, with its rhs times each of `scales`."""
        assert main(["pde", "--preset", "fig3a", "--out", str(tmp_path / "pde")]) == 0
        b = read_vector(tmp_path / "pde" / "problem.vec")
        for name, scale in scales.items():
            write_vector(tmp_path / f"{name}.vec", scale(b))
        return str(tmp_path / "pde" / "problem.coo")

    @pytest.mark.parametrize("method", ["mag", "schro", "gradient", "damped"])
    def test_power_of_two_scales_are_exact(self, tmp_path, method):
        scales = {"unit": lambda b: b, "up": lambda b: b * 2.0**1000,
                  "down": lambda b: b * 2.0**-1000}
        matrix = self._fig3a(tmp_path, scales)
        runs = {}
        for name in scales:
            out = tmp_path / name
            assert main(["solve", "--matrix", matrix, "--rhs", str(tmp_path / f"{name}.vec"),
                         "--method", method, "--out", str(out)]) == 0
            runs[name] = out
        unit = read_vector(runs["unit"] / "solution.vec")
        for name, k in (("up", 1000), ("down", -1000)):
            u = read_vector(runs[name] / "solution.vec")
            assert np.array_equal(u.real, np.ldexp(unit.real, k))
            assert np.array_equal(u.imag, np.ldexp(unit.imag, k))
            table, unit_table = (np.loadtxt(runs[run] / "solution.csv", delimiter=",",
                                            skiprows=1) for run in (name, "unit"))
            assert np.array_equal(table[:, :2], unit_table[:, :2])  # node_index, x
            assert np.array_equal(table[:, 2:], np.ldexp(unit_table[:, 2:], k))
            # the reports and the trace are scale-free
            for file in sorted(os.listdir(runs["unit"])):
                if file.endswith((".json", "trace.csv")):
                    assert (runs[name] / file).read_bytes() == (runs["unit"] / file).read_bytes()

    def test_snapshot_rows_follow_the_scale(self, tmp_path):
        matrix = self._fig3a(tmp_path, {"unit": lambda b: b, "up": lambda b: b * 2.0**1000})
        rows = {}
        for name in ("unit", "up"):
            out = tmp_path / name
            assert main(["schro", "--matrix", matrix, "--rhs", str(tmp_path / f"{name}.vec"),
                         "--out", str(out)]) == 0
            rows[name] = np.loadtxt(out / "warped_field.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows["up"][:, 0], rows["unit"][:, 0])  # the points
        assert np.array_equal(rows["up"][:, 1:], np.ldexp(rows["unit"][:, 1:], 1000))

    @pytest.mark.parametrize("method", ["mag", "schro", "gradient", "damped"])
    def test_extreme_scales_run_as_the_unit_one(self, tmp_path, method):
        # at 1e-200 the squares in b's norms underflow, at 1e160 they overflow
        scales = {"unit": lambda b: b, "tiny": lambda b: b * 1e-200,
                  "huge": lambda b: b * 1e160}
        matrix = self._fig3a(tmp_path, scales)
        reports = {}
        for name in scales:
            out = tmp_path / name
            assert main(["solve", "--matrix", matrix, "--rhs", str(tmp_path / f"{name}.vec"),
                         "--method", method, "--out", str(out)]) == 0
            reports[name] = json.loads((out / "solve.json").read_text())
        unit = reports.pop("unit")
        for report in reports.values():
            assert report["meets_delta"] is unit["meets_delta"]
            assert report["residual_vs_oracle"] == pytest.approx(
                unit["residual_vs_oracle"], rel=1e-6, abs=1e-13)
            assert report.get("steps") == unit.get("steps")
        # the damped flow misses delta at every scale of b
        assert unit["meets_delta"] is (method != "damped")

    @pytest.mark.parametrize("sigma_min", ["1e-3", "1e-12"])
    def test_complexity_of_a_huge_rhs(self, tmp_path, capsys, sigma_min):
        # rhs 1e300 would overflow the forcing block to inf; at sigma_min
        # 1e-12 no grid covers the run's domain, at either scale
        (tmp_path / "a.coo").write_text(f"2 2 2\n0 0 1.0 0.0\n1 1 {sigma_min} 0.0\n")
        results = {}
        for name, value in (("unit", "1.0"), ("huge", "1e300")):
            (tmp_path / f"{name}.vec").write_text(f"{value} 0.0\n{value} 0.0\n")
            out = tmp_path / name
            rc = main(["complexity", "--matrix", str(tmp_path / "a.coo"),
                       "--rhs", str(tmp_path / f"{name}.vec"), "--out", str(out)])
            files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
            results[name] = rc, capsys.readouterr(), files
        assert results["huge"] == results["unit"]
        assert results["unit"][0] == (0 if sigma_min == "1e-3" else 2)

    def test_compare_ratios_follow_no_scale(self, tmp_path):
        # the ratio gap floor is relative to the solved column: at 2^-70,
        # 2^500 and the subnormal 2^-1040 compare.json is the unit run's,
        # and at 1e-20 no band is null
        (tmp_path / "a.coo").write_text("2 2 2\n0 0 1.0 0.0\n1 1 1e-3 0.0\n")
        reports = {}
        for name, value in (("unit", 1.0), ("down", 2.0**-70), ("up", 2.0**500),
                            ("subnormal", 2.0**-1040), ("tiny", 1e-20)):
            (tmp_path / f"{name}.vec").write_text(f"{value!r} 0.0\n{value!r} 0.0\n")
            out = tmp_path / name
            assert main(["compare", "--matrix", str(tmp_path / "a.coo"),
                         "--rhs", str(tmp_path / f"{name}.vec"), "--out", str(out)]) == 0
            reports[name] = (out / "compare.json").read_bytes()
        assert reports["down"] == reports["unit"] == reports["up"] == reports["subnormal"]
        tiny, unit = (json.loads(reports[name]) for name in ("tiny", "unit"))
        assert None not in tiny["mag_ratio_band"] + tiny["damped_ratio_band"]
        assert unit["damped_sign_changes"] > 0
        for key in ("mag_sign_changes", "damped_sign_changes"):
            assert tiny[key] == unit[key]


class TestOptionsRead:
    """An option the run does not read exits 2 with one line naming it;
    compare on files honours the bound overrides."""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--preset", "fig3a", "--method", "mag", "--np", "64"],
         "solve --method mag does not read --np"),
        (["solve", "--preset", "fig3a", "--np", "64"], "solve --method mag does not read --np"),
        (["solve", "--preset", "fig3a", "--method", "gradient", "--lhat", "9", "--muhat", "1"],
         "solve --method gradient does not read --lhat"),
        (["pde", "--preset", "fig3a", "--method", "damped", "--np", "64"],
         "pde --method damped does not read --np"),
        (["compare", "--preset", "fig1", "--np", "64"],
         "compare --preset fig1 does not read --np"),
        (["compare", "--preset", "fig1", "--delta", "0.01"],
         "compare --preset fig1 does not read --delta"),
        (["compare", "--preset", "fig2", "--lhat", "9", "--muhat", "1"],
         "compare --preset fig2 does not read --lhat"),
        (["compare", "--matrix", "a.coo", "--rhs", "b.vec", "--np", "64"],
         "compare --matrix does not read --np"),
        (["schro", "--preset", "fig3a", "--method", "schro"], "schro does not read --method"),
        (["complexity", "--preset", "fig3a", "--method", "mag"],
         "complexity does not read --method"),
        (["blockenc-verify", "--preset", "fig3a"], "blockenc-verify does not read --preset"),
        # a run that reads the bounds still refuses what it does not read
        (["solve", "--preset", "fig3a", "--lhat", "9", "--muhat", "1", "--np", "64"],
         "solve --method mag does not read --np"),
        (["solve", "--preset", "fig3a", "--lhat", "9"], "--lhat and --muhat go together"),
        (["compare", "--preset", "fig1", "--lhat", "9", "--muhat", "1"],
         "compare --preset fig1 does not read --lhat"),
        (["compare", "--matrix", "a.coo", "--rhs", "b.vec", "--method", "mag"],
         "compare --matrix does not read --method"),
        (["solve", "--preset", "fig3a", "--method", "damped", "--lhat", "9", "--muhat", "1"],
         "solve --method damped does not read --lhat"),
        (["blockenc-verify", "--np", "64"], "blockenc-verify does not read --np"),
        (["complexity", "--preset", "fig3a", "--lhat", "9", "--muhat", "1"],
         "complexity does not read --lhat"),
    ])
    def test_unread_option_is_usage_error(self, diag_problem, capsys, argv, message):
        argv = [str(diag_problem / x) if x.endswith((".coo", ".vec")) else x for x in argv]
        out = diag_problem / "unread"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma", "--gammaf", "--seed"])
    @pytest.mark.parametrize("command", ["solve", "compare", "pde", "schro", "blockenc-verify",
                                         "complexity"])
    def test_removed_option_is_unknown(self, tmp_path, capsys, command, flag):
        # gamma and gamma_f are derived from the run's spectrum, and
        # blockenc-verify draws from seed 0
        source = [] if command == "blockenc-verify" else ["--preset", "fig3a"]
        out = tmp_path / "out"
        assert main([command, *source, flag, "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 1\n"
        assert not out.exists()

    # the second pair gives alpha = 0.002 and beta = 0.9 to 1e-4 relative
    @pytest.mark.parametrize("bounds", [["--lhat", "400", "--muhat", "1e-4"],
                                        ["--lhat", "1898.6", "--muhat", "1.3165"]])
    def test_compare_on_files_honours_bounds(self, diag_problem, bounds):
        src = ["--matrix", str(diag_problem / "a.coo"), "--rhs", str(diag_problem / "b.vec")]
        plain, bounded = diag_problem / "plain", diag_problem / "bounded"
        assert main(["compare", *src, "--out", str(plain)]) == 0
        assert main(["compare", *src, *bounds, "--out", str(bounded)]) == 0
        # the bounds set the momentum flow's (alpha, beta); the damped flow
        # reads gamma and sigma_min only
        for name, same in (("mag_trajectory.csv", False), ("damped_trajectory.csv", True)):
            assert ((plain / name).read_bytes() == (bounded / name).read_bytes()) is same

    def test_compare_on_files_honours_delta(self, diag_problem):
        # delta sets the horizon of both flows
        src = ["--matrix", str(diag_problem / "a.coo"), "--rhs", str(diag_problem / "b.vec")]
        plain, loose = diag_problem / "plain", diag_problem / "loose"
        assert main(["compare", *src, "--out", str(plain)]) == 0
        assert main(["compare", *src, "--delta", "1e-2", "--out", str(loose)]) == 0
        damped = "damped_trajectory.csv"
        assert (plain / damped).read_bytes() != (loose / damped).read_bytes()


class TestExitCodeOne:
    # bounds that exclude the actual spectrum trip the radius check before
    # any method runs, whichever method reads them
    @pytest.mark.parametrize("argv", [
        ["solve", "--matrix", "a.coo", "--rhs", "b.vec", "--method", "mag"],
        ["solve", "--matrix", "a.coo", "--rhs", "b.vec", "--method", "schro"],
        ["schro", "--matrix", "a.coo", "--rhs", "b.vec"],
        ["pde", "--preset", "fig3a", "--method", "schro"],
    ], ids=["solve-mag", "solve-schro", "schro", "pde-schro"])
    def test_numerical_contract_violation(self, diag_problem, capsys, argv):
        argv = [str(diag_problem / x) if x.endswith((".coo", ".vec")) else x for x in argv]
        out = diag_problem / "out"
        rc = main([*argv, "--lhat", "100.0", "--muhat", "1.0", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical contract violated: spectral radius")
        assert err.count("\n") == 1
        assert not (out / "solution.vec").exists() and not (out / "solution.csv").exists()

    # a singular A stops at the run's one SVD, before bounds are derived from
    # its spectrum or a method reads them
    @pytest.mark.parametrize("argv", [
        ["solve", "--method", "mag"],
        ["solve", "--method", "schro"],
        ["solve", "--method", "damped"],
        ["solve", "--method", "gradient"],
        ["solve", "--method", "mag", "--lhat", "4", "--muhat", "1"],
        ["solve", "--method", "schro", "--lhat", "4", "--muhat", "1"],
        ["compare", "--lhat", "4", "--muhat", "1"],
        ["complexity"],
    ], ids=["mag", "schro", "damped", "gradient", "mag-bounds", "schro-bounds", "compare",
            "complexity"])
    def test_singular_matrix(self, tmp_path, capsys, argv):
        write_matrix_coo(tmp_path / "a.coo", np.diag([1.0, 0.0]).astype(complex))
        write_vector(tmp_path / "b.vec", np.ones(2, dtype=complex))
        out = tmp_path / "out"
        rc = main([*argv, "--matrix", str(tmp_path / "a.coo"), "--rhs", str(tmp_path / "b.vec"),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical contract violated: matrix is singular to working tolerance")
        assert err.count("\n") == 1
        assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [["solve", "--method", "mag"], ["solve", "--method", "schro"],
                                  ["compare"], ["complexity"]])
def test_sigma_max_squared_overflow_is_usage_error(tmp_path, capsys, argv):
    # kappa = 1, but sigma_max^2, the bound l_hat and the blocks' sigma^2, is inf
    write_matrix_coo(tmp_path / "a.coo", np.diag([1e308, 1e308]).astype(complex))
    write_vector(tmp_path / "b.vec", np.ones(2, dtype=complex))
    rc = main([*argv, "--matrix", str(tmp_path / "a.coo"), "--rhs", str(tmp_path / "b.vec"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: sigma_max^2 overflows: sigma_max = 1.000e+308\n"


class TestExitCodes:
    """InputError exits 2 and NumericsError 1, each with one line on stderr;
    any other exception is a fault of the program and leaves main."""

    def test_unknown_flag_is_one_line(self, tmp_path, capsys):
        # options come only as flags: there is no --config file either
        for flag, value in [("--alpha", "0.1"), ("--config", "c.json")]:
            rc = main(["solve", "--preset", "fig3a", flag, value, "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
            assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bounds, code, message", [
        # beta = 0 and alpha = 1e300: the blocks overflow, so the radius is inf
        (("1e-300", "1e-300"), 1, "numerical contract violated: spectral radius inf != sqrt(beta) "
                                  "0.000000000000; declared bounds do not bracket the spectrum "
                                  "of A^H A"),
        # alpha = inf: the blocks hold inf - inf, so the radius is nan, which fails too
        (("1e-320", "1e-320"), 1, "numerical contract violated: spectral radius nan != "
                                  "sqrt(beta) 0.000000000000; declared bounds do not bracket "
                                  "the spectrum of A^H A"),
        (("1e308", "1e-308"), 2, "error: kappa_hat = sqrt(l_hat/mu_hat) overflows, got "
                                 "(1e+308, 1e-308)"),
    ], ids=["blocks", "nan-radius", "kappa_hat"])
    def test_overflowing_bounds_are_one_line(self, tmp_path, capsys, bounds, code, message):
        # under filterwarnings an overflow warning would end in a traceback instead
        rc = main(["solve", "--preset", "fig3a", "--lhat", bounds[0], "--muhat", bounds[1],
                   "--out", str(tmp_path)])
        assert rc == code
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("bound", ["1e-300", "1e-320"], ids=["inf", "nan"])
    def test_compare_refuses_overflowing_blocks(self, tmp_path, capsys, bound):
        # compare runs no radius guard, but blocks that overflow (alpha s^2 = inf,
        # or inf * 0 = nan) would give overflowed trajectories: one line, no files,
        # and under filterwarnings no warning on the way
        write_matrix_coo(tmp_path / "a.coo", np.diag([1e5, 1.0]))
        write_vector(tmp_path / "b.vec", np.ones(2))
        out = tmp_path / "out"
        rc = main(["compare", "--matrix", str(tmp_path / "a.coo"), "--rhs", str(tmp_path / "b.vec"),
                   "--lhat", bound, "--muhat", bound, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: the bounds --lhat {float(bound):.3g} --muhat "
                                           f"{float(bound):.3g} overflow the momentum blocks\n")
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("argv", [[], ["nope"], ["solve", "--delta", "abc"],
                                      ["pde", "--method", "newton"]],
                             ids=["no-command", "unknown-command", "bad-float", "bad-choice"])
    def test_usage_errors_are_one_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: schromag solve")

    @pytest.mark.parametrize("kernel, preset, message", [
        ("svd", "fig4d", "SVD did not converge"),  # the dense SVD of a Robin A
        ("svd", "fig3a", "SVD did not converge"),  # the closed form's batched block SVD
        ("solve", "fig3a", "Singular matrix"),  # the oracle's LU
    ])
    def test_failed_factorization_is_numerics(self, tmp_path, capsys, monkeypatch, kernel,
                                              preset, message):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(message)

        monkeypatch.setattr(np.linalg, kernel, fail)
        assert main(["solve", "--preset", preset, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"numerical contract violated: {message}\n"

    def test_other_value_error_is_a_fault(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise ValueError("not an input check")

        monkeypatch.setitem(cli._COMMANDS, "solve", broken)
        with pytest.raises(ValueError, match="not an input check"):
            main(["solve", "--preset", "fig3a", "--out", str(tmp_path)])

    @pytest.mark.parametrize("check", [
        lambda: mag.MagParams(1.0, 2.0),
        lambda: linalg.LinearSystem(np.eye(2), np.ones(3)),
        lambda: linalg.require_square(np.ones((2, 3))),
    ], ids=["bounds", "rhs-length", "square"])
    def test_checks_of_outside_input_raise_input_error(self, check):
        with pytest.raises(InputError):
            check()

    @pytest.mark.parametrize("matrix, rhs, extra, message", [
        ("2 2 2\n0 0 1.0 0.0\n1 1 1.0 0.0\n", "1.0 0.0\n1.0 0.0\n",
         ["--lhat", "1", "--muhat", "2"], "need 0 < mu_hat <= l_hat, got (1.0, 2.0)"),
        ("2 2 2\n0 0 1.0 0.0\n1 1 1.0 0.0\n", "1.0 0.0\n", [],
         "matrix rows 2 != rhs length 1"),
        ("2 3 2\n0 0 1.0 0.0\n1 1 1.0 0.0\n", "1.0 0.0\n1.0 0.0\n", [],
         "expected a square matrix, got shape (2, 3)"),
        ("2 2 3\n0 0 1e308 0.0\n0 0 1e308 0.0\n1 1 1.0 0.0\n", "1.0 0.0\n1.0 0.0\n", [],
         "duplicate entries sum to a non-finite value"),
    ], ids=["bounds", "rhs-length", "square", "duplicate-overflow"])
    def test_bad_input_from_files_exits_two(self, tmp_path, capsys, matrix, rhs, extra,
                                            message):
        (tmp_path / "a.coo").write_text(matrix)
        (tmp_path / "b.vec").write_text(rhs)
        rc = main(["solve", "--matrix", str(tmp_path / "a.coo"), "--rhs",
                   str(tmp_path / "b.vec"), *extra, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["a.coo", "b.vec"])
    def test_file_not_utf8_exits_two(self, tmp_path, capsys, bad):
        (tmp_path / "a.coo").write_text("2 2 2\n0 0 1.0 0.0\n1 1 1.0 0.0\n")
        (tmp_path / "b.vec").write_text("1.0 0.0\n1.0 0.0\n")
        (tmp_path / bad).write_bytes(b"\xff")
        rc = main(["solve", "--matrix", str(tmp_path / "a.coo"), "--rhs", str(tmp_path / "b.vec"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and bad in err and err.count("\n") == 1
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("key", ["matrix", "out"])
    def test_nul_byte_in_a_config_path_exits_two(self, tmp_path, capsys, key):
        # a path field of RunConfig, given as its flag, with a NUL byte in it
        (tmp_path / "a.coo").write_text("2 2 2\n0 0 1.0 0.0\n1 1 1.0 0.0\n")
        (tmp_path / "b.vec").write_text("1.0 0.0\n1.0 0.0\n")
        paths = {"matrix": str(tmp_path / "a.coo"), "rhs": str(tmp_path / "b.vec"),
                 "out": str(tmp_path / "out")}
        paths[key] += "\x00"
        assert main(["solve", *(arg for name, path in paths.items()
                                for arg in (f"--{name}", path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and err.endswith("embedded null byte\n")
        assert err.count("\n") == 1

    def test_undefined_cost_estimate_exits_two(self, tmp_path, capsys):
        # at delta = 0.99 chi/delta on the identity is below e on any grid up
        # to MAX_NP, the derived one (128 points) included
        (tmp_path / "a.coo").write_text("2 2 2\n0 0 1.0 0.0\n1 1 1.0 0.0\n")
        (tmp_path / "b.vec").write_text("1.0 0.0\n1.0 0.0\n")
        rc = main(["complexity", "--matrix", str(tmp_path / "a.coo"), "--rhs",
                   str(tmp_path / "b.vec"), "--delta", "0.99",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: estimate undefined for chi/delta")


def test_package_holds_no_assert():
    # invariants are checked with real errors, so they hold under `python -O`
    src = os.path.dirname(mag.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_only_io_assembles_file_text():
    # file text is made in io alone: no other module calls write_text or
    # joins lines with "\n"
    src = os.path.dirname(mag.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "io.py":
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                func = node.func if isinstance(node, ast.Call) else None
                called = getattr(func, "attr", getattr(func, "id", None))
                if called == "write_text" or (
                        called == "join" and isinstance(func.value, ast.Constant)
                        and func.value.value in ("\n", b"\n")):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


class TestReproduceScript:
    def test_quick_run_writes_every_panel(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        done = subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "reproduce_figures.py"),
             "--quick", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        expected = ["fig1/compare.json", "fig1/mag_trajectory.csv",
                    "fig1/damped_trajectory.csv", "fig1/ratio.csv", "fig2/fig2_errors.csv",
                    "complexity/complexity.csv", "complexity/complexity.json",
                    "blockenc/blockenc.json"]
        for name in ("fig3a", "fig4a", "fig5a"):
            for method in ("mag", "schro"):
                expected += [f"{name}/{method}/pde.json", f"{name}/{method}/solution.csv"]
        missing = [f for f in expected if not (tmp_path / f).is_file()]
        assert not missing
