"""Command-line front end.

Subcommands: solve, compare, pde, schro, blockenc-verify, complexity.
Outputs are plot-ready CSV/JSON files, never rendered images.  Exit
codes: 0 success, 1 violated numerical contract (`errors.NumericsError`,
numpy's `LinAlgError`), 2 bad input (`errors.InputError`, usage errors
included).  Every option is a flag, a `RunConfig` field; a flag given
overrides the preset's default.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

# baselines, blockenc, complexity and schrod are imported by the commands
# that run them: a mag run never compiles or loads them
from . import io, mag
from .errors import InputError, NumericsError
from .linalg import LinearSystem, direct_solve
from .presets import SolverConfig, compare_preset, pde_preset

SNAPSHOT_ROWS = 1024  # warped_field.csv samples every (n_p // 1024)-th grid point
COMPARE_SAMPLES = 1200  # the times, 0 to t_end, at which compare samples each flow

# options beyond --out; `_options_read` says which a run reads
_BOUNDS = ("l_hat", "mu_hat")
_SOURCES = ("preset", "matrix", "rhs")
_OPTIONS = (*_SOURCES, "method", "delta", "n_p", *_BOUNDS)
# the options each method of solve/pde reads beyond its source, --method and --delta
_METHOD_OPTIONS = {"mag": _BOUNDS, "gradient": (), "damped": (), "schro": (*_BOUNDS, "n_p")}
_FLAGS = {"n_p": "--np", "l_hat": "--lhat", "mu_hat": "--muhat"}


def _flag(name: str) -> str:
    return _FLAGS.get(name, f"--{name}")


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    matrix: str | None = None
    rhs: str | None = None
    method: str | None = None
    delta: float | None = None
    n_p: int | None = None
    l_hat: float | None = None
    mu_hat: float | None = None
    out: str = "."

    def validate(self):
        sources = sum(x is not None for x in (self.preset, self.matrix))
        if sources != 1:
            raise InputError("exactly one problem source: --preset or --matrix/--rhs")
        if self.matrix is not None and self.rhs is None:
            raise InputError("--matrix requires --rhs")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise InputError("--delta must be in (0, 1)")
        if self.n_p is not None and (self.n_p < 8 or (self.n_p & (self.n_p - 1)) != 0):
            raise InputError("--np must be a power of two >= 8")
        if (self.l_hat is None) != (self.mu_hat is None):
            raise InputError("--lhat and --muhat go together")

    def check_options_read(self):
        """InputError naming the first option given that the run ignores."""
        read = _options_read(self)
        for name in _OPTIONS:
            if getattr(self, name) is not None and name not in read:
                run = self.command
                if run in ("solve", "pde"):
                    run += f" --method {self.method or 'mag'}"
                elif run == "compare":
                    run += f" --preset {self.preset}" if self.preset else " --matrix"
                raise InputError(f"{run} does not read {_flag(name)}")


def _options_read(cfg: RunConfig) -> tuple:
    """The options of _OPTIONS that the run `cfg` reads."""
    if cfg.command in ("solve", "pde"):
        return (*_SOURCES, "method", "delta", *_METHOD_OPTIONS[cfg.method or "mag"])
    if cfg.command == "schro":
        return (*_SOURCES, "delta", "n_p", *_BOUNDS)
    if cfg.command == "compare":
        # the presets carry their own bounds and horizon
        return _SOURCES if cfg.preset else (*_SOURCES, "delta", *_BOUNDS)
    if cfg.command == "complexity":
        return (*_SOURCES, "delta", "n_p")
    return ()  # blockenc-verify


def _load_system(cfg: RunConfig):
    """Problem and the effective delta."""
    if cfg.preset is not None:
        problem, solver = pde_preset(cfg.preset)
        system = problem.system
    else:
        system = LinearSystem(io.read_matrix_coo(cfg.matrix), io.read_vector(cfg.rhs))
        problem, solver = None, SolverConfig()
    return system, problem, cfg.delta if cfg.delta is not None else solver.delta


def _unit_rhs(b: np.ndarray) -> tuple:
    """(b scaled by 2^-k, k), k the np.frexp exponent of b's largest real
    or imaginary part (0 for b = 0).  Every method is linear in b, so the
    run on the scaled b, times 2^k, is the run on b, exactly, without the
    squares in b's norms overflowing or underflowing."""
    top = max(np.max(np.abs(b.real), initial=0.0), np.max(np.abs(b.imag), initial=0.0))
    k = int(np.frexp(top)[1])
    return _ldexp(b.copy(), -k), k


def _ldexp(values: np.ndarray, k: int) -> np.ndarray:
    """values * 2^k, in place, for a contiguous complex array: exact
    wherever the product is a normal double."""
    if k:
        parts = values.view(np.float64)
        np.ldexp(parts, k, out=parts)
    return values


def _factor(cfg: RunConfig, system: LinearSystem, problem, delta: float) -> tuple:
    """(spec, oracle, delta, k) for a command's system and problem, its b
    scaled by 2^-k (`_unit_rhs`): the run's one `mag.SpectralSystem`, from
    one SVD of A (closed-form for a PDE problem that has it), and the
    direct solve u is checked against.  Nothing returned holds A, so it
    goes once the caller lets go of its system and problem."""
    b, k = _unit_rhs(system.b)
    system = LinearSystem(system.a, b)
    spec = mag.build_spectral(system.a, system.b, _params_for(cfg), problem)
    return spec, direct_solve(system, spec.sigma), delta, k


def _params_for(cfg: RunConfig) -> mag.MagParams | None:
    """The bounds the run asks for; None leaves them to A's own spectrum."""
    return None if cfg.l_hat is None else mag.MagParams(cfg.l_hat, cfg.mu_hat)


def _run_method(method: str, spec: mag.SpectralSystem, delta: float, *, n_p: int | None = None,
                trace: bool = False, snapshot_rows: int = 0, block: int | None = None) -> tuple:
    """(x, the method's own report fields, its trace or snapshot) for one
    method on the run's `spec`, once its bounds pass the radius guard; u = V x.
    schro's fields are its `schrod.PipelineReport`, flat.
    Each method runs for its `mag.horizon` to delta on the first `block`
    entries of u, the part the run writes, if given (mag and the gradient
    flow rescale delta to that block), and schro runs on n_p points (None:
    the derived grid) and refuses the delta and kappa_hat mag refuses.
    mag with `trace` gives (residuals, relative residuals or None) and
    kappa2_w_inf, schro gives `schrod.pipeline`'s snapshot, the rest None."""
    mag.spectral_radius_check(spec)
    if method == "mag":
        iteration, x, kappa2, relative = mag.solve_spectral(spec, delta, trace, block)
        if not trace:
            return x, {"steps": iteration.steps}, None
        return (x, {"steps": iteration.steps, "kappa2_w_inf": kappa2},
                (iteration.residuals, relative))
    if method == "schro":
        from . import schrod

        x, report, snapshot = schrod.pipeline(spec, delta, n_p, snapshot_rows=snapshot_rows,
                                              block=block)
        return x, asdict(report), snapshot
    # the flows: the parser refuses any other method
    from . import baselines

    if method == "damped":
        flow = baselines.build_damped(spec)
        fields = {"gamma": -float(flow.blocks[0, 1, 1])}  # the damping it took
    else:
        flow, fields = baselines.build_gradient_flow(spec), {}
    fields["t_end"] = t_end = mag.horizon(method, spec, delta, block)[1]
    return flow.at(t_end)[:, 0], fields, None


def _relative_error(u: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(u - ref)) / max(np.max(np.abs(ref)), 1e-300))


def _solve(cfg: RunConfig, method: str, spec: mag.SpectralSystem, oracle: np.ndarray,
           delta: float, k: int, block: int | None = None, **run) -> tuple:
    """(u, report, trace or snapshot) of `method` on the run's `spec`,
    checked against the direct solve `oracle`, both for b scaled by 2^-k
    (`_factor`); u and a snapshot's rows come back times 2^k.  The report is
    the run's one flat dict: the method and delta, the method's own fields,
    then the residual, whether it is within delta, and the error estimate
    against the closed-form steady state V x*, x* = b~/sigma, from the run's
    own SVD, all on the first `block` entries of u, the part the run writes
    (all of u by default); where that is a proper part, the residual on all
    of u goes under residual_vs_oracle_full."""
    x, fields, extra = _run_method(method, spec, delta, n_p=cfg.n_p, block=block, **run)
    u, steady = spec.solution(np.stack([x, spec.b_t / spec.sigma]))
    rel, estimate = (_relative_error(u[:block], ref[:block]) for ref in (oracle, steady))
    # reported, not enforced: the exit code does not depend on them
    report = {"method": method, "delta": delta, **fields, "residual_vs_oracle": rel,
              "meets_delta": rel <= delta, "error_estimate": estimate}
    if u[:block].size < u.size:
        report["residual_vs_oracle_full"] = _relative_error(u, oracle)
    if method == "schro" and extra is not None:
        _ldexp(extra[1], k)
    return _ldexp(u, k), report, extra


def cmd_solve(cfg: RunConfig) -> int:
    method = cfg.method or "mag"
    spec, oracle, delta, k = _factor(cfg, *_load_system(cfg))
    u, report, trace = _solve(cfg, method, spec, oracle, delta, k, trace=True)
    out = cfg.out
    io.write_vector(os.path.join(out, "solution.vec"), u)
    io.write_solution_csv(os.path.join(out, "solution.csv"), u,
                          np.arange(u.size, dtype=float))
    if trace is not None:
        io.write_trace_csv(os.path.join(out, "trace.csv"), *trace)
    io.write_json(os.path.join(out, "solve.json"), report)
    print(f"solve[{method}] residual vs direct solve: {report['residual_vs_oracle']:.3e}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    from . import baselines

    if cfg.preset == "fig2":
        return _compare_fig2(cfg)
    if cfg.preset is not None:  # fig1: the files path on the preset's inputs
        a, b, params, t_end = compare_preset(cfg.preset)
    else:
        system, _, delta = _load_system(cfg)
        a, b, params, t_end = system.a, system.b, _params_for(cfg), None
    b, k = _unit_rhs(b)
    # no bounds guard: compare shows the momentum flow under any bounds
    # whose blocks are finite
    spec = mag.build_spectral(a, b, params)
    with np.errstate(over="ignore", invalid="ignore"):
        ode = spec.ode
    if not (np.all(np.isfinite(ode.blocks)) and np.all(np.isfinite(ode.drive))):
        raise InputError(f"the bounds --lhat {spec.params.l_hat:.3g} --muhat "
                         f"{spec.params.mu_hat:.3g} overflow the momentum blocks")
    if t_end is None:
        t_end = mag.horizon("damped", spec, delta)[1]

    n, times = spec.n, np.linspace(0.0, t_end, COMPARE_SAMPLES)
    ratios = {}
    for tag, flow in (("mag", ode), ("damped", baselines.build_damped(spec))):
        states = spec.to_state(flow.at(times))
        ratios[tag] = ratio = baselines.auxiliary_ratio_trace(states[:, 0], states[:, n])
        solved, aux = (_ldexp(states[:, j].copy(), k) for j in (0, n))
        io.write_trajectory_csv(os.path.join(cfg.out, f"{tag}_trajectory.csv"),
                                times, solved, aux, ratio.ratios)
    ratio_mag, ratio_damp = ratios["mag"], ratios["damped"]
    io.write_rows(os.path.join(cfg.out, "ratio.csv"), "time,mag_ratio,damped_ratio",
                  [times, io.nan_as_empty(ratio_mag.ratios), io.nan_as_empty(ratio_damp.ratios)])
    io.write_json(
        os.path.join(cfg.out, "compare.json"),
        {
            "mag_sign_changes": ratio_mag.sign_changes,
            "damped_sign_changes": ratio_damp.sign_changes,
            "mag_ratio_band": [ratio_mag.ratio_min, ratio_mag.ratio_max],
            "damped_ratio_band": [ratio_damp.ratio_min, ratio_damp.ratio_max],
        },
    )
    print(
        f"compare: mag ratio sign changes {ratio_mag.sign_changes}, "
        f"damped {ratio_damp.sign_changes}"
    )
    return 0


def _compare_fig2(cfg: RunConfig) -> int:
    problem, deltas = compare_preset("fig2")
    spec, oracle, _, k = _factor(cfg, problem.system, problem, None)
    scale = float(np.linalg.norm(oracle))
    errors = {"mag": [], "damped": []}
    for delta in deltas:
        for tag, column in errors.items():
            u = spec.solution(_run_method(tag, spec, delta)[0])
            column.append(float(np.linalg.norm(u - oracle)) / scale)
            io.write_solution_csv(
                os.path.join(cfg.out, f"fig2_{tag}_delta{delta:.6g}.csv"),
                _ldexp(u, k), np.arange(u.size, dtype=float),
            )
    io.write_rows(os.path.join(cfg.out, "fig2_errors.csv"), "delta,mag_error,damped_error",
                  [deltas, *errors.values()])
    print("compare[fig2]: wrote fig2_errors.csv")
    return 0


def cmd_pde(cfg: RunConfig) -> int:
    if cfg.preset is None:
        raise InputError("pde requires --preset")
    system, problem, delta = _load_system(cfg)
    method, out = cfg.method or "mag", cfg.out
    # the run keeps A's nonzeros, b, the nodes and the u block's size, not the
    # problem: A goes once its direct solve has run, and a refused run writes
    # nothing
    nonzeros, b = io.coo_entries(system.a), system.b
    described = {"family": problem.family, "n": problem.n, "k": problem.k,
                 "boundary": repr(problem.boundary), "forcing": problem.forcing, "h": problem.h}
    (xs, ys), block = problem.nodes, problem.solution_size
    factored = _factor(cfg, system, problem, delta)
    del system, problem
    u, report, _ = _solve(cfg, method, *factored, block=block)
    io.write_matrix_coo(os.path.join(out, "problem.coo"), nonzeros)
    io.write_vector(os.path.join(out, "problem.vec"), b)
    io.write_json(os.path.join(out, "problem.json"), described)
    u_sol = u[:block]
    io.write_solution_csv(
        os.path.join(out, "solution.csv"), u_sol,
        xs[: u_sol.size], None if ys is None else ys[: u_sol.size],
    )
    io.write_json(os.path.join(out, "pde.json"), {"preset": cfg.preset, **report})
    print(f"pde[{cfg.preset}/{method}] residual vs direct solve: "
          f"{report['residual_vs_oracle']:.3e}")
    return 0


def cmd_schro(cfg: RunConfig) -> int:
    u, report, (points, rows) = _solve(cfg, "schro", *_factor(cfg, *_load_system(cfg)),
                                       snapshot_rows=SNAPSHOT_ROWS)
    io.write_json(os.path.join(cfg.out, "schro.json"), report)
    io.write_vector(os.path.join(cfg.out, "solution.vec"), u)
    io.write_field_snapshot_csv(os.path.join(cfg.out, "warped_field.csv"), points, rows)
    print(f"schro residual vs direct solve: {report['residual_vs_oracle']:.3e}")
    return 0


def cmd_blockenc_verify(cfg: RunConfig) -> int:
    from . import blockenc

    rng = np.random.default_rng(0)
    results = []
    all_ok = True

    def record(name, be):
        nonlocal all_ok
        try:
            measured = blockenc.verify(be)
            ok = True
        except NumericsError as exc:
            measured = float(getattr(exc, "measured", math.nan))
            ok = False
        results.append(
            {
                "name": name,
                "alpha": be.alpha,
                "m": be.m,
                "eps_claimed": be.eps,
                "eps_measured": measured,
                "pass": ok,
            }
        )
        all_ok &= ok

    record(
        "u_zero_one",
        blockenc.BlockEncoding(
            u=blockenc.U_ZERO_ONE, alpha=1.0, m=1, eps=0.0, n=2,
            reference=np.array([[0, 1], [0, 0]], dtype=np.complex128),
        ),
    )
    for k in range(20):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        alpha = float(np.linalg.norm(a, 2) * (1.0 + rng.uniform(0.0, 1.0)))
        record(f"dilation_{k}", blockenc.dilate(a, alpha))
    for k in range(5):
        n = int(rng.integers(2, 5))
        a1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        alpha = float(max(np.linalg.norm(a1, 2), np.linalg.norm(a2, 2)) * 1.5)
        b1, b2 = blockenc.dilate(a1, alpha), blockenc.dilate(a2, alpha)
        record(f"product_{k}", blockenc.compose_product(b1, b2))
        record(f"tensor_{k}", blockenc.compose_tensor(b1, b2))
        record(f"sum_{k}", blockenc.compose_sum([b1, b2], [0.5, 0.5]))

    io.write_json(os.path.join(cfg.out, "blockenc.json"), results)
    print(f"blockenc-verify: {sum(r['pass'] for r in results)}/{len(results)} pass")
    return 0 if all_ok else 1


def cmd_complexity(cfg: RunConfig) -> int:
    from . import complexity, schrod

    system, problem, delta = _load_system(cfg)
    a = system.a
    # the runs' own guards: a singular A exits 1, an overflowing sigma_max^2 exits 2;
    # the grid is the one a run on this b takes (`_unit_rhs`)
    spec = mag.build_spectral(a, _unit_rhs(system.b)[0], problem=problem)
    summary = complexity.SystemSummary(
        s=int(np.max(np.count_nonzero(a, axis=1))),
        sigma_min=float(spec.sigma[-1]),
        sigma_max=float(spec.sigma[0]),
        a_max_norm=float(np.max(np.abs(a))),
        ata_max_norm=float(np.max(np.abs(a.conj().T @ a))),
        delta=delta,
        n_p=schrod.plan(spec, delta, cfg.n_p)[0].n_p,  # a schro run's grid, or its refusal
        n=a.shape[0],
    )
    rows = complexity.comparison_rows(summary)
    header = "method,kappa_like,chi,queries,gates,repetitions"
    io.write_rows(os.path.join(cfg.out, "complexity.csv"), header,
                  [[r[key] for r in rows] for key in header.split(",")])
    io.write_json(os.path.join(cfg.out, "complexity.json"),
                  {"rows": rows, "literature": list(complexity.LITERATURE)})
    print("complexity: " + ", ".join(f"{r['method']}={r['queries']:.4g}" for r in rows))
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "pde": cmd_pde,
    "schro": cmd_schro,
    "blockenc-verify": cmd_blockenc_verify,
    "complexity": cmd_complexity,
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise InputError, so that `main`
    reports an unknown flag or a malformed value in one line, as every
    other bad input; its subcommand parsers are of this class too."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schromag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    hints = typing.get_type_hints(RunConfig)
    # (flag, field, type) for all fields but the command; X | None parses as X
    options = [(_flag(f.name), f.name, (typing.get_args(hints[f.name]) or (hints[f.name],))[0])
               for f in fields(RunConfig)[1:]]
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for flag, dest, kind in options:
            p.add_argument(flag, dest=dest, type=kind,
                           choices=tuple(_METHOD_OPTIONS) if dest == "method" else None)
    return parser


def main(argv=None) -> int:
    try:
        given = vars(build_parser().parse_args(argv)).items()
        cfg = RunConfig(**{name: value for name, value in given if value is not None})
        if cfg.command != "blockenc-verify":
            cfg.validate()
        cfg.check_options_read()
        try:
            os.makedirs(cfg.out, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise InputError(f"cannot create --out {cfg.out!r}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # a NUL byte in the path
            raise InputError(f"cannot create --out {cfg.out!r}: {exc}") from exc
        return _COMMANDS[cfg.command](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, np.linalg.LinAlgError) as exc:  # a factorization numpy could not finish
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 1


def entry_point() -> int:
    """main() for a process of its own: the console script and
    `python -m schromag.cli`.  The objects the imports made so far move to
    the collector's permanent generation, so neither the run's collections
    nor the interpreter's teardown traverse them.  main() leaves the
    collector alone: in-process callers keep their own."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry_point())
