"""The benchmark's workloads: CLI invocations, their inputs and oracles.

Each invocation is one `schromag` command line.  The benchmark builds
every problem itself and solves it with `numpy.linalg.solve`, outside
any timed region, and checks the written solution against it with the
acceptance tolerance max(delta, 1e-2).  Biharmonic systems carry
[u; lap u]; only the u block is checked, as the CLI writes only that.

Workloads without a reason here are left out on purpose: `compare`
(fig1/fig2), `blockenc-verify` and `complexity` each finish in 0.7-0.85 s,
of which 0.54 s is interpreter start and import, so the baselines,
blockenc and complexity modules have no workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from schromag.presets import SolverConfig, pde_preset

SCHRO_FILES_NP = 16384
SNAPSHOT_ROWS = 1024  # the CLI samples every (n_p // 1024)-th grid point
RHS_NOISE = 0.1


@dataclass
class Invocation:
    name: str
    args: list[str]  # CLI arguments, without --out
    oracle: np.ndarray  # expected solution (u block)
    solution: str  # "csv" (pde) or "vec" (solve/schro)
    tolerance: float  # max(delta, 1e-2), delta being the run's own
    snapshot_cols: int | None = None  # warped_field.csv columns, if written


@dataclass
class Workload:
    invocations: list[Invocation]
    setup_args: list[str]  # probe_setup.py arguments


def _oracle_u(problem) -> np.ndarray:
    u = np.linalg.solve(problem.system.a, problem.system.b)
    return u[: u.size // 2] if problem.family.startswith("biharmonic") else u


def _pde(presets, method) -> Workload:
    invocations = []
    for p in presets:
        problem, solver = pde_preset(p)
        invocations.append(Invocation(
            f"pde-{p}-{method}", ["pde", "--preset", p, "--method", method],
            _oracle_u(problem), "csv", max(solver.delta, 1e-2)))
    return Workload(invocations, [a for p in presets for a in ("--preset", p)])


def write_matrix(path, a) -> None:
    rows, cols = np.nonzero(a)
    lines = [f"{a.shape[0]} {a.shape[1]} {rows.size}"]
    lines += [f"{i} {j} {float(a[i, j].real)!r} {float(a[i, j].imag)!r}"
              for i, j in zip(rows, cols)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vector(path, v) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"{float(x.real)!r} {float(x.imag)!r}\n" for x in v))


def mag_2d(seed: int, work: str) -> Workload:
    """The mag iteration on the 2d presets; schrod does no work here."""
    return _pde(["fig4a", "fig4d", "fig6a", "fig6d"], "mag")


def schro_pde(seed: int, work: str) -> Workload:
    """The Hamiltonian pipeline: dense fig3a, 262144-point fig3e, 510-pair fig6a.

    fig6d is left out for run length (28 s, 2.2 GB); fig6a has the same
    shape of work.
    """
    return _pde(["fig3a", "fig3e", "fig6a"], "schro")


def files_seeded(seed: int, work: str) -> Workload:
    """fig4a's matrix and a seeded random complex right-hand side, as files.

    The right-hand side is fig4a's own, scaled to max 1, plus a complex
    normal part of size RHS_NOISE drawn from the seed.  The random part
    gives every singular pair at least ~5e-3 of the solution scale, so
    pair pruning cannot help here.  The fixed part keeps the accuracy
    steady across seeds (a purely random one moves max_rel_error by ~20%
    between seeds).  The schro run writes the 1024-row snapshot.
    """
    problem = pde_preset("fig4a")[0]
    a, b0 = problem.system.a, problem.system.b
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(b0.size) + 1j * rng.standard_normal(b0.size)
    b = b0 / np.max(np.abs(b0)) + RHS_NOISE * noise
    os.makedirs(work, exist_ok=True)
    mat, rhs = os.path.join(work, "A.coo"), os.path.join(work, "b.vec")
    write_matrix(mat, a)
    write_vector(rhs, b)
    u = np.linalg.solve(a, b)
    src = ["--matrix", mat, "--rhs", rhs]
    tol = max(SolverConfig().delta, 1e-2)
    return Workload(
        [
            Invocation("solve-mag", ["solve", *src, "--method", "mag"], u, "vec", tol),
            Invocation("schro", ["schro", *src, "--np", str(SCHRO_FILES_NP)], u, "vec", tol,
                       snapshot_cols=1 + 2 * 4 * a.shape[0]),
        ],
        src,
    )


WORKLOADS = {"mag-2d": mag_2d, "schro-pde": schro_pde, "files-seeded": files_seeded}


def _read_solution(out: str, kind: str) -> np.ndarray:
    if kind == "vec":
        data = np.loadtxt(os.path.join(out, "solution.vec"), ndmin=2)
        return data[:, 0] + 1j * data[:, 1]
    data = np.loadtxt(os.path.join(out, "solution.csv"), delimiter=",", skiprows=1, ndmin=2)
    return data[:, -2] + 1j * data[:, -1]


def _snapshot_problems(path: str, cols: int) -> list[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.count(b"\n")
    problems = []
    if lines != SNAPSHOT_ROWS + 1 or not data.endswith(b"\n"):
        problems.append(f"warped_field.csv has {lines} lines, expected {SNAPSHOT_ROWS + 1}")
    if data.count(b",") != lines * (cols - 1):
        problems.append(f"warped_field.csv rows do not all have {cols} columns")
    return problems


def check(inv: Invocation, out: str) -> tuple[float, list[str]]:
    """(max|u - u*| / max|u*|, problems) for one finished invocation."""
    try:
        u = _read_solution(out, inv.solution)
    except (OSError, ValueError) as exc:
        return float("inf"), [f"cannot read solution: {exc}"]
    if u.shape != inv.oracle.shape:
        return float("inf"), [f"solution has shape {u.shape}, expected {inv.oracle.shape}"]
    err = float(np.max(np.abs(u - inv.oracle)) / np.max(np.abs(inv.oracle)))
    problems = [] if err <= inv.tolerance else [f"error {err:.3e} above {inv.tolerance:g}"]
    if inv.snapshot_cols is not None:
        path = os.path.join(out, "warped_field.csv")
        if os.path.isfile(path):
            problems += _snapshot_problems(path, inv.snapshot_cols)
        else:
            problems.append("warped_field.csv missing")
    return err, problems
