import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from schromag import mag
from schromag.cli import main
from schromag.io import read_vector, write_matrix_coo, write_vector
from schromag.presets import compare_preset, pde_preset


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
        report = json.loads((out / "pipeline.json").read_text())
        assert "residual_vs_oracle" in report
        # the one residual of the run lands in both reports
        payload = json.loads((out / "solve.json").read_text())
        assert report["residual_vs_oracle"] == payload["residual_vs_oracle"]
        assert payload["report"] == report

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


class TestFactorizationCounts:
    """Each invocation factors A once, and only the oracle solves a system."""

    @staticmethod
    def _count(monkeypatch, argv, dtypes=None, uv=None):
        """Kernel calls by (name, shape); the dtype of each svd argument
        goes to `dtypes`, and whether it computes U and V to `uv`, when a
        list is given."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(m, *args, **kwargs):
                calls[name, np.shape(m)] += 1
                if name == "svd" and dtypes is not None:
                    dtypes.append(np.asarray(m).dtype)
                if name == "svd" and uv is not None:
                    uv.append(kwargs.get("compute_uv", True))
                return fn(m, *args, **kwargs)
            return wrapper

        # norm(x, 2) reaches svd through numpy's implementation module
        inner = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        for name in ("svd", "eig", "solve"):
            fn = getattr(np.linalg, name)
            for module in {np.linalg, inner}:
                monkeypatch.setattr(module, name, counting(name, fn))
        assert main(argv) == 0
        return calls

    @pytest.mark.parametrize("command", ["pde", "solve"])
    def test_fig4a_mag(self, tmp_path, monkeypatch, command):
        n = pde_preset("fig4a")[0].system.a.shape[0]
        calls = self._count(monkeypatch, [command, "--preset", "fig4a", "--method", "mag",
                                          "--out", str(tmp_path)])
        # the iteration runs in the pair basis: no 2n x 2n solve
        assert calls == Counter({("svd", (n, n)): 1, ("solve", (n, n)): 1})

    def test_damped_one_svd(self, tmp_path, monkeypatch):
        n = pde_preset("fig3a")[0].system.a.shape[0]
        calls = self._count(monkeypatch, ["solve", "--preset", "fig3a", "--method", "damped",
                                          "--out", str(tmp_path)])
        assert calls == Counter({("svd", (n, n)): 1, ("solve", (n, n)): 1})

    def test_gradient_one_svd(self, tmp_path, monkeypatch):
        n = pde_preset("fig3a")[0].system.a.shape[0]
        calls = self._count(monkeypatch, ["solve", "--preset", "fig3a", "--method", "gradient",
                                          "--out", str(tmp_path)])
        assert calls == Counter({("svd", (n, n)): 1, ("solve", (n, n)): 1})

    def test_compare_fig1_one_svd(self, tmp_path, monkeypatch):
        # both flows run on the SVD basis of the command's one factorization
        n = compare_preset("fig1").a.shape[0]
        calls = self._count(monkeypatch, ["compare", "--preset", "fig1",
                                          "--out", str(tmp_path)])
        assert calls == Counter({("svd", (n, n)): 1})

    def test_compare_fig2_one_svd(self, tmp_path, monkeypatch):
        # the preset's SVD feeds the bounds, the oracle, the pair basis and
        # the damped flow's sigma_min check
        n = compare_preset("fig2").a.shape[0]
        calls = self._count(monkeypatch, ["compare", "--preset", "fig2",
                                          "--out", str(tmp_path)])
        assert calls == Counter({("svd", (n, n)): 1, ("solve", (n, n)): 1})

    @pytest.mark.parametrize("preset, dtype", [("fig4a", np.float64), ("fig6a", np.float64),
                                               ("fig3e", np.complex128),
                                               ("fig4d", np.complex128)])
    def test_real_matrix_factored_in_real_arithmetic(self, tmp_path, monkeypatch, preset,
                                                     dtype):
        # the zero-boundary presets are real, the Robin ones complex
        n = pde_preset(preset)[0].system.a.shape[0]
        dtypes = []
        calls = self._count(monkeypatch, ["pde", "--preset", preset, "--method", "mag",
                                          "--out", str(tmp_path)], dtypes)
        assert calls == Counter({("svd", (n, n)): 1, ("solve", (n, n)): 1})
        assert dtypes == [dtype]

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

    def test_complexity_builds_no_spectral_system(self, tmp_path, monkeypatch):
        # the cost table reads singular values only: no parameters, no
        # solve, and an SVD that computes no U or V
        argv = ["complexity", "--preset", "fig3a", "--out", str(tmp_path)]
        assert self._spectral_builds(monkeypatch, argv) == 0
        dtypes, uv = [], []
        calls = self._count(monkeypatch, argv, dtypes, uv)
        n = pde_preset("fig3a")[0].system.a.shape[0]
        assert calls == Counter({("svd", (n, n)): 1})
        assert (dtypes, uv) == ([np.float64], [False])

    def test_complexity_complex_matrix_values_only(self, tmp_path, monkeypatch):
        dtypes, uv = [], []
        calls = self._count(monkeypatch, ["complexity", "--preset", "fig3e",
                                          "--out", str(tmp_path)], dtypes, uv)
        n = pde_preset("fig3e")[0].system.a.shape[0]
        assert calls == Counter({("svd", (n, n)): 1})
        assert (dtypes, uv) == ([np.complex128], [False])

    def test_compare_files_one_svd(self, diag_problem, monkeypatch):
        calls = self._count(monkeypatch, ["compare", "--matrix", str(diag_problem / "a.coo"),
                                          "--rhs", str(diag_problem / "b.vec"),
                                          "--out", str(diag_problem / "o")])
        assert calls == Counter({("svd", (2, 2)): 1})

    @pytest.mark.parametrize("argv", [["pde", "--preset", "fig4a", "--method", "schro"],
                                      ["solve", "--preset", "fig4a", "--method", "schro"],
                                      ["schro", "--preset", "fig3a"]])
    def test_schro_one_full_svd(self, tmp_path, monkeypatch, argv):
        # the bounds, the guard checks and the pair basis share one full SVD
        n = pde_preset(argv[2])[0].system.a.shape[0]
        calls = self._count(monkeypatch, argv + ["--out", str(tmp_path)])
        assert calls == Counter({("svd", (n, n)): 1, ("solve", (n, n)): 1})


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestDeferredScipy:
    """scipy is a test dependency only: no command loads it.  Nor does any
    command load the tests' dense reference, which the package no longer
    carries."""

    @staticmethod
    def _run_without_scipy(tmp_path, argv):
        script = (
            "import sys\n"
            "import schromag.cli\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            f"rc = schromag.cli.main({argv + ['--out', str(tmp_path)]!r})\n"
            "assert rc == 0, rc\n"
            "assert 'scipy' not in sys.modules, 'run'\n"
            "assert 'reference' not in sys.modules, 'reference'\n"
            "assert not hasattr(schromag.mag, 'build_transformed'), 'dense H'\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_cli_import_and_mag_run_leave_scipy_unloaded(self, tmp_path):
        self._run_without_scipy(tmp_path, ["pde", "--preset", "fig3a", "--method", "mag"])
        assert (tmp_path / "solution.csv").is_file()

    @pytest.mark.parametrize("argv", [["solve", "--preset", "fig3a", "--method", "gradient"],
                                      ["solve", "--preset", "fig3a", "--method", "damped"],
                                      ["compare", "--preset", "fig1"],
                                      ["compare", "--preset", "fig2"]])
    def test_flow_runs_leave_scipy_unloaded(self, tmp_path, argv):
        self._run_without_scipy(tmp_path, argv)

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
        assert main(["compare", "--preset", "fig1", "--out", str(out1), "--seed", "7"]) == 0
        assert main(["compare", "--preset", "fig1", "--out", str(out2), "--seed", "7"]) == 0
        for name in ("mag_trajectory.csv", "damped_trajectory.csv", "ratio.csv", "compare.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_fig2_errors_table(self, tmp_path):
        rc = main(["compare", "--preset", "fig2", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "fig2_errors.csv").read_text().strip().split("\n")
        assert rows[0] == "delta,mag_error,damped_error"
        assert len(rows) == 5
        for row in rows[1:]:
            _, e_mag, e_damp = (float(x) for x in row.split(","))
            assert e_mag <= e_damp


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

    def test_fig3a_schro(self, tmp_path):
        rc = main([
            "pde", "--preset", "fig3a", "--method", "schro", "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "pde.json").read_text())
        assert payload["residual_vs_oracle"] < 1e-2
        assert payload["pipeline"]["recovery_method"] == "integral"

    def test_unknown_preset(self, tmp_path):
        assert main(["pde", "--preset", "nope", "--out", str(tmp_path)]) == 2


class TestSchro:
    def test_pipeline_report(self, diag_problem):
        out = diag_problem / "out"
        rc = main([
            "schro", "--matrix", str(diag_problem / "a.coo"),
            "--rhs", str(diag_problem / "b.vec"),
            "--delta", "1e-3", "--np", "16384", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "pipeline.json").read_text())
        for key in ("t_end", "n_p", "p_left", "p_right", "p_diamond",
                    "k_star", "recovery_method", "residual_vs_oracle"):
            assert key in report
        assert report["residual_vs_oracle"] < 1e-2

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


class TestBlockencVerify:
    def test_suite_passes_and_reports(self, tmp_path):
        rc = main(["blockenc-verify", "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "blockenc.json").read_text())
        assert len(rows) == 36
        assert all(r["pass"] for r in rows)
        names = {r["name"] for r in rows}
        assert "u_zero_one" in names

    def test_deterministic_given_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["blockenc-verify", "--seed", "3", "--out", str(out1)])
        main(["blockenc-verify", "--seed", "3", "--out", str(out2)])
        assert (out1 / "blockenc.json").read_bytes() == (out2 / "blockenc.json").read_bytes()


class TestComplexityCmd:
    def test_csv_table(self, tmp_path):
        rc = main([
            "complexity", "--preset", "fig3a", "--format", "csv",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        rows = (tmp_path / "complexity.csv").read_text().strip().split("\n")
        assert rows[0] == "method,kappa_like,chi,queries,gates,repetitions"
        assert len(rows) == 5

    def test_json_report(self, tmp_path):
        rc = main([
            "complexity", "--preset", "fig3a", "--format", "json",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "complexity.json").read_text())
        assert len(payload["rows"]) == 4
        assert len(payload["literature"]) == 6
        header = "method,kappa_like,chi,queries,gates,repetitions".split(",")
        assert all(sorted(row) == sorted(header) for row in payload["rows"])

    def test_requires_source(self, tmp_path):
        assert main(["complexity", "--out", str(tmp_path)]) == 2

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


class TestConfigPrecedence:
    def test_flags_beat_config(self, diag_problem):
        cfg = diag_problem / "run.json"
        cfg.write_text(json.dumps({
            "matrix": str(diag_problem / "a.coo"),
            "rhs": str(diag_problem / "b.vec"),
            "method": "mag",
            "delta": 0.5,
        }))
        out = diag_problem / "out"
        rc = main([
            "solve", "--config", str(cfg), "--delta", "1e-8", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads((out / "solve.json").read_text())
        assert payload["delta"] == 1e-8

    def test_config_supplies_source(self, diag_problem):
        cfg = diag_problem / "run.json"
        cfg.write_text(json.dumps({
            "matrix": str(diag_problem / "a.coo"),
            "rhs": str(diag_problem / "b.vec"),
        }))
        out = diag_problem / "out2"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0

    def test_bad_config_rejected(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("[1, 2, 3]")
        assert main(["solve", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("field, value", [("delta", "abc"), ("n_p", "1024"),
                                              ("n_p", 1024.0), ("matrix", 3)])
    def test_wrongly_typed_config_value_is_usage_error(self, diag_problem, field, value):
        values = {"matrix": str(diag_problem / "a.coo"), "rhs": str(diag_problem / "b.vec")}
        values[field] = value
        cfg = diag_problem / "typed.json"
        cfg.write_text(json.dumps(values))
        out = diag_problem / "typed"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2


class TestForcingScale:
    @pytest.mark.parametrize("command", [["schro"], ["solve", "--method", "schro"],
                                         ["pde", "--method", "schro"]])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_gammaf_is_usage_error(self, tmp_path, capsys, command, value):
        rc = main([*command, "--preset", "fig3a", "--gammaf", value, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: gamma_f must be finite and positive, got {float(value)}\n"


class TestOptionsRead:
    """An option the run does not read exits 2 with one line naming it;
    compare on files honours the bound overrides."""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--preset", "fig3a", "--method", "mag", "--gamma", "0.01"],
         "solve --method mag does not read --gamma"),
        (["solve", "--preset", "fig3a", "--np", "64"], "solve --method mag does not read --np"),
        (["solve", "--preset", "fig3a", "--method", "gradient", "--lhat", "9", "--muhat", "1"],
         "solve --method gradient does not read --lhat"),
        (["pde", "--preset", "fig3a", "--method", "damped", "--gammaf", "0.1"],
         "pde --method damped does not read --gammaf"),
        (["compare", "--preset", "fig1", "--gamma", "0.01"],
         "compare --preset fig1 does not read --gamma"),
        (["compare", "--preset", "fig1", "--delta", "0.01"],
         "compare --preset fig1 does not read --delta"),
        (["compare", "--preset", "fig2", "--alpha", "0.1", "--beta", "0.5"],
         "compare --preset fig2 does not read --alpha"),
        (["compare", "--matrix", "a.coo", "--rhs", "b.vec", "--np", "64"],
         "compare --matrix does not read --np"),
        (["schro", "--preset", "fig3a", "--method", "schro"], "schro does not read --method"),
        (["complexity", "--preset", "fig3a", "--gammaf", "0.1"],
         "complexity does not read --gammaf"),
        (["blockenc-verify", "--preset", "fig3a"], "blockenc-verify does not read --preset"),
        (["solve", "--preset", "fig3a", "--format", "json"],
         "solve --method mag does not read --format"),
        (["solve", "--preset", "fig3a", "--lhat", "9"], "--lhat and --muhat go together"),
        (["compare", "--matrix", "a.coo", "--rhs", "b.vec", "--beta", "0.5"],
         "--alpha and --beta go together"),
        (["solve", "--preset", "fig3a", "--lhat", "9", "--muhat", "1", "--alpha", "0.1",
          "--beta", "0.5"], "give --alpha/--beta or --lhat/--muhat, not both"),
    ])
    def test_unread_option_is_usage_error(self, diag_problem, capsys, argv, message):
        argv = [str(diag_problem / x) if x.endswith((".coo", ".vec")) else x for x in argv]
        out = diag_problem / "unread"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unread_config_field_is_usage_error(self, diag_problem, capsys):
        cfg = diag_problem / "run.json"
        cfg.write_text(json.dumps({"gamma": 0.01}))
        rc = main(["solve", "--preset", "fig3a", "--config", str(cfg),
                   "--out", str(diag_problem / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: solve --method mag does not read --gamma\n"

    @pytest.mark.parametrize("bounds", [["--lhat", "400", "--muhat", "1e-4"],
                                        ["--alpha", "0.002", "--beta", "0.9"]])
    def test_compare_on_files_honours_bounds(self, diag_problem, bounds):
        src = ["--matrix", str(diag_problem / "a.coo"), "--rhs", str(diag_problem / "b.vec")]
        plain, bounded = diag_problem / "plain", diag_problem / "bounded"
        assert main(["compare", *src, "--out", str(plain)]) == 0
        assert main(["compare", *src, *bounds, "--out", str(bounded)]) == 0
        # the bounds set the momentum flow's (alpha, beta); the damped flow
        # reads gamma and sigma_min only
        for name, same in (("mag_trajectory.csv", False), ("damped_trajectory.csv", True)):
            assert ((plain / name).read_bytes() == (bounded / name).read_bytes()) is same

    def test_compare_on_files_honours_gamma_and_delta(self, diag_problem):
        src = ["--matrix", str(diag_problem / "a.coo"), "--rhs", str(diag_problem / "b.vec")]
        plain = diag_problem / "plain"
        assert main(["compare", *src, "--out", str(plain)]) == 0
        for extra in (["--gamma", "0.05"], ["--delta", "1e-2"]):
            out = diag_problem / extra[0].strip("-")
            assert main(["compare", *src, *extra, "--out", str(out)]) == 0
            damped = "damped_trajectory.csv"
            assert (plain / damped).read_bytes() != (out / damped).read_bytes()


class TestExitCodeOne:
    def test_numerical_contract_violation(self, tmp_path):
        # bounds that exclude the actual spectrum trip the radius check
        a = np.diag([10.0, 0.1]).astype(complex)
        write_matrix_coo(tmp_path / "a.coo", a)
        write_vector(tmp_path / "b.vec", np.ones(2, dtype=complex))
        rc = main([
            "solve", "--matrix", str(tmp_path / "a.coo"),
            "--rhs", str(tmp_path / "b.vec"),
            "--method", "mag", "--lhat", "100.0", "--muhat", "1.0",
            "--out", str(tmp_path),
        ])
        assert rc == 1


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
