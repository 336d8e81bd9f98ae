"""schromag benchmark: time the real CLI on fixed workloads, check its answers.

    python3 bench/run.py --workload mag-2d --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each
CLI invocation runs in a fresh subprocess, one at a time, with the BLAS
thread count pinned.  Invocations are repeated in passes while another
pass still fits in --seconds (at least one pass); end-to-end metrics are
medians over passes, except peak memory and error, which are maxima.
`setup_s` is the median of SETUP_REPEATS processes that only start the
interpreter, import the CLI and assemble the workload's problems.

--trace 1 runs one untraced and one traced pass instead and reports the
per-layer metrics of layers.py; the traced pass runs each invocation
through traced_cli.py, which wraps the package's functions from outside.

Every written solution is checked against the benchmark's own direct
solve.  sha256 digests of every output file (and, on traced runs, the
exact counts) are kept in a ledger under .bench_work and compared with
earlier runs of the same source tree and inputs; a difference is
reported, never compared across different sources.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 when every invocation succeeded and passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1  # single-threaded: steady timings whatever the host's core count
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# pin BLAS threads before numpy loads, here and in every child
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import workloads
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import the package from {ROOT}/src: {exc}")
import layers
from ledger import Ledger, digests, key, tree_digest
from metrics import END_TO_END, EXACT, PER_LAYER

WORK_DIR = ".bench_work"
SETUP_REPEATS = 7  # timed set-up processes, after one untimed warm-up
INVOCATION_TIMEOUT_S = 150


def spawn(cmd: list[str], env: dict, log: str) -> dict:
    """Run cmd to completion; wall time from spawn to exit, child rusage."""
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    sha = None  # a plain source checkout is not a git repository
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True, cwd=ROOT).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": tree_digest("src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


class Runner:
    """Runs one workload's invocations; accumulates results and failures."""

    def __init__(self, workload, work: str, env: dict, ledger: Ledger, base_key: list):
        self.workload = workload
        self.work = work
        self.env = env
        self.ledger = ledger
        self.base_key = base_key
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []
        self.setup_times: list[float] = []

    def _record(self, label: str, ok: bool, problems) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def setup(self) -> None:
        for k in range(1 + SETUP_REPEATS):
            log = os.path.join(self.work, "logs", f"setup{k}")
            cmd = [sys.executable, os.path.join(HERE, "probe_setup.py"),
                   *self.workload.setup_args]
            r = spawn(cmd, self.env, log)
            self._record(f"setup{k}", r["exit"] == 0, [f"exit code {r['exit']}"])
            if k > 0:
                self.setup_times.append(r["wall_s"])

    def run_pass(self, tag: str, traced: bool) -> list[dict]:
        results = []
        for inv in self.workload.invocations:
            label = f"{tag}/{inv.name}"
            out = os.path.join(self.work, tag, inv.name)
            os.makedirs(out)
            log = os.path.join(self.work, "logs", f"{tag}-{inv.name}")
            cmd = [sys.executable, "-m", "schromag.cli"]
            spans_path = log + ".spans.json"
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                       "--invocation", label, "--spans", spans_path, "--"]
            r = spawn(cmd + inv.args + ["--out", out], self.env, log)
            err, problems = math.inf, [f"exit code {r['exit']}"]
            if r["exit"] == 0:
                err, problems = workloads.check(inv, out)
            if traced and r["exit"] == 0:
                with open(spans_path) as fh:
                    self.spans += json.load(fh)
            self._record(label, not problems, problems)
            self.ledger.compare(key(*self.base_key, inv.args), label, digests(out))
            shutil.rmtree(out)
            results.append({"name": inv.name, **r, "rel_error": err, "problems": problems})
        return results


def _finite(x: float):
    return x if math.isfinite(x) else None


def _pass_sum(results, field):
    return sum(r[field] for r in results)


def measure(runner: Runner, seconds: float) -> tuple[dict, list]:
    runner.setup()
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(runner.run_pass(f"pass{len(passes)}", traced=False))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    every = [r for p in passes for r in p]
    metrics = {
        "wall_s": statistics.median(_pass_sum(p, "wall_s") for p in passes),
        "cpu_s": statistics.median(_pass_sum(p, "cpu_s") for p in passes),
        "peak_rss_mb": max(r["rss_mb"] for r in every),
        "setup_s": statistics.median(runner.setup_times),
        "max_rel_error": _finite(max(r["rel_error"] for r in every)),
    }
    return metrics, passes


def measure_traced(runner: Runner, exact_key: str) -> tuple[dict, list]:
    plain = runner.run_pass("untraced", traced=False)
    traced = runner.run_pass("traced", traced=True)
    metrics = layers.layer_metrics(runner.spans, _pass_sum(plain, "wall_s"),
                                   _pass_sum(traced, "wall_s"))
    runner.ledger.compare(exact_key, "exact counts", {k: metrics[k] for k in EXACT})
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    os.chdir(ROOT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")

    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "logs"))
    records = os.path.join(WORK_DIR, "records")
    os.makedirs(records, exist_ok=True)

    inputs = os.path.join(work, "inputs")
    workload = workloads.WORKLOADS[args.workload](args.seed, inputs)
    env_record = environment(args.seed)
    # outputs are compared only between runs of the same sources on the same inputs
    base_key = [env_record["src_sha256"], digests(inputs) if os.path.isdir(inputs) else {}]
    ledger = Ledger(os.path.join(WORK_DIR, "ledger.json"))
    runner = Runner(workload, work, env, ledger, base_key)

    if args.trace:
        metrics, passes = measure_traced(
            runner, key(*base_key, args.workload, "exact"))
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics, passes = measure(runner, args.seconds)
        units = {name: unit for name, unit, _ in END_TO_END}
    ledger.save()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "environment": env_record, "passes": passes,
              "setup_s": runner.setup_times,
              "metrics": metrics, "failures": runner.failures,
              "determinism": {"compared": ledger.compared, "mismatches": ledger.mismatches}}
    with open(os.path.join(records, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if runner.spans:
        with open(os.path.join(records, tag + ".spans.json"), "w") as fh:
            json.dump(runner.spans, fh)

    failed = len(runner.failures)
    print(f"environment: {json.dumps(env_record, sort_keys=True)}")
    for p in passes:
        for r in p:
            status = "ok" if not r["problems"] else "; ".join(r["problems"])
            print(f"  {r['name']:<16} wall {r['wall_s']:8.3f} s  cpu {r['cpu_s']:8.3f} s  "
                  f"rss {r['rss_mb']:7.1f} MB  error {r['rel_error']:.3e}  {status}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failed_frac = {failed / max(runner.attempted, 1)} ratio "
          f"({failed} of {runner.attempted} processes)")
    print(f"determinism: {ledger.compared} comparisons with earlier runs, "
          f"{len(ledger.mismatches)} mismatches")
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for line in ledger.mismatches:
        print(f"NOT DETERMINISTIC {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
