"""Command-line front end.

Subcommands: solve, compare, pde, schro, blockenc-verify, complexity.
Outputs are plot-ready CSV/JSON files, never rendered images.  Exit
codes: 0 success, 1 violated numerical contract, 2 bad input.  Flag
values override config-file values, which override preset defaults.
"""

from __future__ import annotations

import argparse
import gc
import json
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
from .linalg import LinearSystem, direct_solve, singular_values
from .presets import SolverConfig, compare_preset, pde_preset

SNAPSHOT_ROWS = 1024  # warped_field.csv samples every (n_p // 1024)-th grid point

# options beyond --out, --seed and --config; `_options_read` says which a run reads
_BOUNDS = ("alpha", "beta", "l_hat", "mu_hat")
_SOURCES = ("preset", "matrix", "rhs")
_OPTIONS = (*_SOURCES, "method", "delta", "n_p", *_BOUNDS, "gamma", "gammaf", "fmt")
# the options each method of solve/pde reads beyond its source, --method and --delta
_METHOD_OPTIONS = {"mag": _BOUNDS, "gradient": (), "damped": ("gamma",),
                   "schro": (*_BOUNDS, "n_p", "gammaf")}
_FLAGS = {"n_p": "--np", "l_hat": "--lhat", "mu_hat": "--muhat", "fmt": "--format"}
# the values the parser and `RunConfig.validate` accept for an option
_CHOICES = {"method": tuple(_METHOD_OPTIONS), "fmt": ("csv", "json")}


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
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    gammaf: float | None = None
    l_hat: float | None = None
    mu_hat: float | None = None
    out: str = "."
    seed: int = 0
    fmt: str | None = None  # complexity writes csv unless json is asked for

    def validate(self):
        sources = sum(x is not None for x in (self.preset, self.matrix))
        if sources != 1:
            raise InputError("exactly one problem source: --preset or --matrix/--rhs")
        if self.matrix is not None and self.rhs is None:
            raise InputError("--matrix requires --rhs")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise InputError("--delta must be in (0, 1)")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in (None, *allowed):
                raise InputError(f"{_flag(name)} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        if self.n_p is not None and (self.n_p < 8 or (self.n_p & (self.n_p - 1)) != 0):
            raise InputError("--np must be a power of two >= 8")
        for first, second in (("alpha", "beta"), ("l_hat", "mu_hat")):
            if (getattr(self, first) is None) != (getattr(self, second) is None):
                raise InputError(f"{_flag(first)} and {_flag(second)} go together")
        if self.alpha is not None and self.l_hat is not None:
            raise InputError("give --alpha/--beta or --lhat/--muhat, not both")

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
        return (*_SOURCES, "delta", "n_p", *_BOUNDS, "gammaf")
    if cfg.command == "compare":
        # the presets carry their own bounds, gamma and horizon
        return _SOURCES if cfg.preset else (*_SOURCES, "delta", "gamma", *_BOUNDS)
    if cfg.command == "complexity":
        return (*_SOURCES, "delta", "n_p", "fmt")
    return ()  # blockenc-verify reads --seed alone


def _load_system(cfg: RunConfig):
    """Problem and the effective (delta, n_p)."""
    if cfg.preset is not None:
        problem, solver = pde_preset(cfg.preset)
        system = problem.system
    else:
        a = io.read_matrix_coo(cfg.matrix)
        b = io.read_vector(cfg.rhs)
        system, problem, solver = LinearSystem(a, b), None, SolverConfig()
    delta = cfg.delta if cfg.delta is not None else solver.delta
    n_p = cfg.n_p if cfg.n_p is not None else solver.n_p
    return system, problem, delta, n_p


def _params_for(cfg: RunConfig) -> mag.MagParams | None:
    """The bounds the run asks for; None leaves them to A's own spectrum."""
    if cfg.alpha is not None and cfg.beta is not None:
        # rebuild the bounds that produce the requested (alpha, beta)
        if not (0.0 <= cfg.beta < 1.0) or cfg.alpha <= 0.0:
            raise InputError("need alpha > 0 and 0 <= beta < 1")
        kappa = (1.0 + math.sqrt(cfg.beta)) / (1.0 - math.sqrt(cfg.beta))
        sqrt_mu = 2.0 / (math.sqrt(cfg.alpha) * (kappa + 1.0))
        return mag.MagParams((kappa * sqrt_mu) ** 2, sqrt_mu**2)
    if cfg.l_hat is not None and cfg.mu_hat is not None:
        return mag.MagParams(cfg.l_hat, cfg.mu_hat)
    return None


def _damping(spec: mag.SpectralSystem, gamma: float | None) -> float:
    """gamma, by default just below critical damping 2 sigma_min."""
    from . import baselines

    return baselines.GAMMA_PER_SIGMA_MIN * float(spec.sigma[-1]) if gamma is None else gamma


def _run_method(method: str, spec: mag.SpectralSystem, delta: float, *, n_p: int = 0,
                gamma: float | None = None, gamma_f: float | None = None,
                keep_states: bool = False, snapshot_rows: int = 0) -> tuple:
    """(x, the method's report fields, its trace or snapshot) for one method
    on the run's `spec`, once its bounds pass the radius guard; u = V x.
    mag with keep_states gives (residuals, relative residuals or None),
    schro gives `schrod.pipeline`'s snapshot, the rest None."""
    mag.spectral_radius_check(spec)
    if method == "mag":
        trace, w_inf, x = mag.solve_spectral(spec, delta, keep_states)
        if not keep_states:
            return x, {"steps": trace.steps}, None
        relative, kappa2 = mag.relative_trace(trace, w_inf, spec)
        return x, {"steps": trace.steps, "kappa2_w_inf": kappa2}, (trace.residuals, relative)
    if method == "schro":
        from . import schrod

        x, report, snapshot = schrod.pipeline(spec, delta, n_p, gamma_f=gamma_f,
                                              snapshot_rows=snapshot_rows)
        return x, {"report": asdict(report)}, snapshot
    # the flows: RunConfig.validate rejects any other method
    from . import baselines

    if method == "damped":
        gamma = _damping(spec, gamma)
        flow, fields = baselines.build_damped(spec, gamma), {"gamma": gamma}
    else:
        flow, fields = baselines.build_gradient_flow(spec), {}
    fields["t_end"] = t_end = baselines.evolution_time(method, float(spec.sigma[-1]), delta)
    return flow.at(t_end)[:, 0], fields, None


def _solve(cfg: RunConfig, method: str, loaded: tuple, **run) -> tuple:
    """(u, delta, report fields, trace or snapshot) of `method` on the
    problem `_load_system` loaded: the run's one `mag.SpectralSystem`, from
    one full SVD of A, and the direct solve u is checked against.  The
    fields and a pipeline report both carry the residual, whether it is
    within delta, and the error estimate against the closed-form steady
    state V x*, x* = b~/sigma, from the run's own SVD."""
    system, problem, delta, n_p = loaded
    spec = mag.build_spectral(system.a, system.b, _params_for(cfg))
    oracle = direct_solve(system, spec.sigma)
    # A is not kept across the solve unless the caller holds it
    del loaded, system, problem
    x, fields, extra = _run_method(method, spec, delta, n_p=n_p, gamma=cfg.gamma,
                                   gamma_f=cfg.gammaf, **run)
    u, steady = spec.solution(np.stack([x, spec.b_t / spec.sigma]))
    rel, estimate = (float(np.max(np.abs(u - ref)) / max(np.max(np.abs(ref)), 1e-300))
                     for ref in (oracle, steady))
    # reported, not enforced: the exit code does not depend on them
    checked = {"residual_vs_oracle": rel, "meets_delta": rel <= delta,
               "error_estimate": estimate}
    fields.update(checked)
    if "report" in fields:
        fields["report"].update(checked)
    return u, delta, fields, extra


def cmd_solve(cfg: RunConfig) -> int:
    method = cfg.method or "mag"
    u, delta, fields, trace = _solve(cfg, method, _load_system(cfg), keep_states=True)
    out = cfg.out
    io.write_vector(os.path.join(out, "solution.vec"), u)
    io.write_solution_csv(os.path.join(out, "solution.csv"), u,
                          np.arange(u.size, dtype=float))
    if trace is not None:
        io.write_trace_csv(os.path.join(out, "trace.csv"), *trace)
    if "report" in fields:
        io.write_json(os.path.join(out, "pipeline.json"), fields["report"])
    io.write_json(os.path.join(out, "solve.json"), {"method": method, "delta": delta, **fields})
    print(f"solve[{method}] residual vs direct solve: {fields['residual_vs_oracle']:.3e}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    from . import baselines

    if cfg.preset == "fig2":
        return _compare_fig2(cfg)
    if cfg.preset is not None:
        cp = compare_preset(cfg.preset)
        spec, gamma, t_end, samples = cp.spec, cp.gamma, cp.t_end, cp.samples
    else:
        system, _, delta, _ = _load_system(cfg)
        # no bounds guard: compare shows the momentum flow under any bounds
        spec = mag.build_spectral(system.a, system.b, _params_for(cfg))
        gamma = _damping(spec, cfg.gamma)
        t_end = baselines.evolution_time("damped", float(spec.sigma[-1]), delta)
        samples = 1200

    n = spec.n
    flows = {"mag": spec.ode, "damped": baselines.build_damped(spec, gamma)}
    ratios = {}
    for tag, flow in flows.items():
        times, states = baselines.integrate_flow(flow, t_end, samples)
        ratios[tag] = ratio = baselines.auxiliary_ratio_trace(states[:, 0], states[:, n])
        io.write_trajectory_csv(os.path.join(cfg.out, f"{tag}_trajectory.csv"),
                                times, states[:, 0], states[:, n], ratio.ratios)
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
    cp = compare_preset("fig2")
    oracle = direct_solve(LinearSystem(cp.a, cp.b), cp.spec.sigma)
    scale = float(np.linalg.norm(oracle))
    errors = {"mag": [], "damped": []}
    for delta in cp.deltas:
        for tag, column in errors.items():
            u = cp.spec.solution(_run_method(tag, cp.spec, delta, gamma=cp.gamma)[0])
            column.append(float(np.linalg.norm(u - oracle)) / scale)
            io.write_solution_csv(
                os.path.join(cfg.out, f"fig2_{tag}_delta{delta:.6g}.csv"),
                u, np.arange(u.size, dtype=float),
            )
    io.write_rows(os.path.join(cfg.out, "fig2_errors.csv"), "delta,mag_error,damped_error",
                  [cp.deltas, *errors.values()])
    print("compare[fig2]: wrote fig2_errors.csv")
    return 0


def cmd_pde(cfg: RunConfig) -> int:
    if cfg.preset is None:
        raise InputError("pde requires --preset")
    loaded = _load_system(cfg)
    problem, method, out = loaded[1], cfg.method or "mag", cfg.out
    io.write_matrix_coo(os.path.join(out, "problem.coo"), problem.system.a)
    io.write_vector(os.path.join(out, "problem.vec"), problem.system.b)
    io.write_json(os.path.join(out, "problem.json"),
                  {"family": problem.family, "n": problem.n, "k": problem.k,
                   "boundary": repr(problem.boundary), "forcing": problem.forcing,
                   "h": problem.h})
    u, delta, fields, _ = _solve(cfg, method, loaded)
    xs, ys = problem.nodes
    u_sol = problem.solution_block(u)
    io.write_solution_csv(
        os.path.join(out, "solution.csv"), u_sol,
        xs[: u_sol.size], None if ys is None else ys[: u_sol.size],
    )
    # the method's own fields, as in solve.json; schro's report goes under "pipeline"
    report = fields.pop("report", None)
    payload = {"preset": cfg.preset, "method": method, "delta": delta, **fields}
    if report is not None:
        payload["pipeline"] = report
    io.write_json(os.path.join(out, "pde.json"), payload)
    print(f"pde[{cfg.preset}/{method}] residual vs direct solve: "
          f"{fields['residual_vs_oracle']:.3e}")
    return 0


def cmd_schro(cfg: RunConfig) -> int:
    u, _, fields, (points, rows) = _solve(cfg, "schro", _load_system(cfg),
                                          snapshot_rows=SNAPSHOT_ROWS)
    io.write_json(os.path.join(cfg.out, "pipeline.json"), fields["report"])
    io.write_vector(os.path.join(cfg.out, "solution.vec"), u)
    io.write_field_snapshot_csv(os.path.join(cfg.out, "warped_field.csv"), points, rows)
    print(f"schro residual vs direct solve: {fields['residual_vs_oracle']:.3e}")
    return 0


def cmd_blockenc_verify(cfg: RunConfig) -> int:
    from . import blockenc

    rng = np.random.default_rng(cfg.seed)
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
    from . import complexity

    system, _, delta, n_p = _load_system(cfg)
    a = system.a
    s_vals = singular_values(a)
    summary = complexity.SystemSummary(
        s=int(np.max(np.count_nonzero(a, axis=1))),
        sigma_min=float(s_vals[-1]),
        sigma_max=float(s_vals[0]),
        a_max_norm=float(np.max(np.abs(a))),
        ata_max_norm=float(np.max(np.abs(a.conj().T @ a))),
        delta=delta,
        n_p=n_p,
        n=a.shape[0],
    )
    rows = complexity.comparison_rows(summary)
    if cfg.fmt != "json":
        header = "method,kappa_like,chi,queries,gates,repetitions"
        io.write_rows(os.path.join(cfg.out, "complexity.csv"), header,
                      [[r[key] for r in rows] for key in header.split(",")])
    else:
        io.write_json(
            os.path.join(cfg.out, "complexity.json"),
            {"rows": rows, "literature": list(complexity.LITERATURE)},
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schromag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    hints = typing.get_type_hints(RunConfig)
    options = [(_flag(f.name), {"dest": f.name, "type": _kinds(hints[f.name])[0],
                                "choices": _CHOICES.get(f.name)})
               for f in fields(RunConfig)[1:]]  # all but the command
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.add_argument("--config")
    return parser


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags beat config-file values beat dataclass defaults."""
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise InputError("config file must hold a JSON object")
    options = fields(RunConfig)[1:]  # all but the command, as in build_parser
    names = [f.name for f in options]
    for key in file_values:
        if key not in names:
            raise InputError(f"unknown config key {key!r}")
    cfg = RunConfig(command=args.command)
    hints = typing.get_type_hints(RunConfig)
    for f in options:
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
        elif f.name in file_values:
            setattr(cfg, f.name, _typed(f.name, hints[f.name], file_values[f.name]))
    return cfg


def _kinds(hint) -> tuple:
    """The types a field's hint allows besides None."""
    return tuple(k for k in typing.get_args(hint) or (hint,) if k is not type(None))


def _typed(name: str, hint, value):
    """A config-file value as its field's declared type, else InputError."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    if not isinstance(value, bool):
        if float in kinds and isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, _kinds(hint)):
            return value
    want = " or ".join(k.__name__ for k in kinds)
    raise InputError(f"config field {name!r} must be {want}, got {value!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
        if cfg.command != "blockenc-verify":
            cfg.validate()
        cfg.check_options_read()
        try:
            os.makedirs(cfg.out, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise InputError(f"cannot create --out {cfg.out!r}: {exc.strerror or exc}") from exc
        return _COMMANDS[cfg.command](cfg)
    except ValueError as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
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
