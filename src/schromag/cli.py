"""Command-line front end.

Subcommands: solve, compare, pde, schro, blockenc-verify, complexity.
Outputs are plot-ready CSV/JSON files, never rendered images.  Exit
codes: 0 success, 1 violated numerical contract, 2 bad input.  Flag
values override config-file values, which override preset defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import baselines, blockenc, complexity, io, mag, schrod
from .errors import InputError, NumericsError
from .linalg import LinearSystem, direct_solve, full_svd, singular_values
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
        if self.method not in (None, *_METHOD_OPTIONS):
            raise InputError(f"unknown method {self.method!r}")
        if self.n_p is not None and (self.n_p < 8 or (self.n_p & (self.n_p - 1)) != 0):
            raise InputError("--np must be a power of two >= 8")
        if self.fmt not in (None, "csv", "json"):
            raise InputError("--format must be csv or json")
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


def _setup(cfg: RunConfig, loaded):
    """(system, problem, delta, n_p, spec, oracle) of a solving command from
    its `_load_system`: the run's one `mag.SpectralSystem`, built from the
    invocation's one full SVD of A, which carries the bounds, the guards'
    singular values and the basis of every method, and the direct solve
    that outputs are checked against."""
    system, problem, delta, n_p = loaded
    factors = full_svd(system.a)
    params = _params_for(cfg, factors[1])
    spec = mag.build_spectral(system.a, system.b, params, factors)
    return system, problem, delta, n_p, spec, direct_solve(system, spec.sigma)


def _params_for(cfg: RunConfig, sigma: np.ndarray) -> mag.MagParams:
    if cfg.alpha is not None and cfg.beta is not None:
        # rebuild the bounds that produce the requested (alpha, beta)
        if not (0.0 <= cfg.beta < 1.0) or cfg.alpha <= 0.0:
            raise InputError("need alpha > 0 and 0 <= beta < 1")
        kappa = (1.0 + math.sqrt(cfg.beta)) / (1.0 - math.sqrt(cfg.beta))
        sqrt_mu = 2.0 / (math.sqrt(cfg.alpha) * (kappa + 1.0))
        return mag.derive_params((kappa * sqrt_mu) ** 2, sqrt_mu**2)
    if cfg.l_hat is not None and cfg.mu_hat is not None:
        return mag.derive_params(cfg.l_hat, cfg.mu_hat)
    return mag.params_from_sigma(sigma)


def _residual(u: np.ndarray, oracle: np.ndarray) -> float:
    """Max-norm error of u relative to the direct solve."""
    return float(np.max(np.abs(u - oracle)) / max(np.max(np.abs(oracle)), 1e-300))


def _flow_end(flow: baselines.FlowSystem, t_end: float) -> np.ndarray:
    # closed form: the end state does not depend on the sampling
    return baselines.integrate_flow(flow, np.zeros(flow.dim), t_end, 2)[-1][1]


def _solve_with_method(cfg: RunConfig, spec: mag.SpectralSystem, delta: float, n_p: int,
                       oracle: np.ndarray, keep_states: bool = False):
    """(u, its residual against the oracle, artifacts dict) for one method on
    the run's `spec`; a pipeline report carries the residual too."""
    method = cfg.method or "mag"
    sigma_min = float(spec.sigma[-1])
    if method == "mag":
        mag.spectral_radius_check(spec.params, spec.sigma)
        trace, w_inf, u = mag.solve_spectral(spec, delta, keep_states)
        artifacts = {"trace": trace.residuals, "steps": trace.steps}
        if keep_states:
            values, kappa2 = mag.relative_trace(trace, w_inf, spec)
            artifacts["relative_trace"] = (
                values if values is not None else [math.inf] * len(trace.residuals)
            )
            artifacts["kappa2_w_inf"] = kappa2
    elif method == "gradient":
        t_end = baselines.evolution_time("gradient", sigma_min, delta)
        u, artifacts = _flow_end(baselines.build_gradient_flow(spec), t_end), {"t_end": t_end}
    elif method == "damped":
        gamma = cfg.gamma if cfg.gamma is not None else 1.9 * sigma_min
        flow = baselines.build_damped(spec, gamma)
        t_end = baselines.evolution_time("damped", sigma_min, delta)
        u, artifacts = _flow_end(flow, t_end)[: spec.n], {"t_end": t_end, "gamma": gamma}
    else:  # schro; RunConfig.validate rejects any other method
        u, report, _ = schrod.pipeline(spec, delta, n_p, gamma_f=cfg.gammaf)
        artifacts = {"report": asdict(report)}
    rel = _residual(u, oracle)
    if "report" in artifacts:
        artifacts["report"]["residual_vs_oracle"] = rel
    return u, rel, artifacts


def cmd_solve(cfg: RunConfig) -> int:
    _, _, delta, n_p, spec, oracle = _setup(cfg, _load_system(cfg))
    u_method, rel, artifacts = _solve_with_method(cfg, spec, delta, n_p, oracle,
                                                  keep_states=True)
    out = cfg.out
    io.write_vector(os.path.join(out, "solution.vec"), u_method)
    io.write_solution_csv(
        os.path.join(out, "solution.csv"), u_method,
        np.arange(u_method.size, dtype=float),
    )
    if "trace" in artifacts:
        io.write_trace_csv(
            os.path.join(out, "trace.csv"),
            artifacts.pop("trace"),
            artifacts.pop("relative_trace", None),
        )
    if "report" in artifacts:
        io.write_json(os.path.join(out, "pipeline.json"), artifacts["report"])
    io.write_json(
        os.path.join(out, "solve.json"),
        {"method": cfg.method or "mag", "delta": delta,
         "residual_vs_oracle": rel, **artifacts},
    )
    print(f"solve[{cfg.method or 'mag'}] residual vs direct solve: {rel:.3e}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    if cfg.preset == "fig2":
        return _compare_fig2(cfg)
    if cfg.preset is not None:
        cp = compare_preset(cfg.preset)
        spec = mag.build_spectral(cp.a, cp.b, mag.derive_params(cp.l_hat, cp.mu_hat))
        gamma, t_end, samples = cp.gamma, cp.t_end, cp.samples
    else:
        a = io.read_matrix_coo(cfg.matrix)
        b = io.read_vector(cfg.rhs)
        factors = full_svd(a)
        spec = mag.build_spectral(a, b, _params_for(cfg, factors[1]), factors)
        sigma_min = float(spec.sigma[-1])
        gamma = cfg.gamma if cfg.gamma is not None else 1.9 * sigma_min
        t_end = baselines.evolution_time("damped", sigma_min, cfg.delta or 1e-3)
        samples = 1200

    n = spec.n
    flows = {"mag": baselines.build_mag_ode(spec), "damped": baselines.build_damped(spec, gamma)}
    ratios = {}
    for tag, flow in flows.items():
        traj = baselines.integrate_flow(flow, np.zeros(flow.dim), t_end, samples)
        ratios[tag] = ratio = baselines.auxiliary_ratio_trace(traj, solved_index=0, aux_index=n)
        io.write_trajectory_csv(
            os.path.join(cfg.out, f"{tag}_trajectory.csv"),
            [t for t, _ in traj],
            [w[0] for _, w in traj],
            [w[n] for _, w in traj],
            ratio.ratios,
        )
    ratio_mag, ratio_damp = ratios["mag"], ratios["damped"]
    cell = lambda r: "" if math.isnan(r) else repr(r)
    lines = ["time,mag_ratio,damped_ratio"] + [
        f"{t!r},{cell(rm)},{cell(rd)}"
        for t, rm, rd in zip(ratio_mag.times, ratio_mag.ratios, ratio_damp.ratios)]
    io.write_text(os.path.join(cfg.out, "ratio.csv"), "\n".join(lines) + "\n")
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
    spec = mag.build_spectral(cp.a, cp.b, mag.derive_params(cp.l_hat, cp.mu_hat), cp.factors)
    oracle = direct_solve(LinearSystem(cp.a, cp.b), spec.sigma)
    flow = baselines.build_damped(spec, cp.gamma)
    rows = ["delta,mag_error,damped_error"]
    for delta in cp.deltas:
        u_mag = mag.solve_spectral(spec, delta)[2]
        t_end = baselines.evolution_time("damped", math.sqrt(cp.mu_hat), delta)
        u_damp = _flow_end(flow, t_end)[: spec.n]
        scale = float(np.linalg.norm(oracle))
        e_mag = float(np.linalg.norm(u_mag - oracle)) / scale
        e_damp = float(np.linalg.norm(u_damp - oracle)) / scale
        rows.append(f"{delta!r},{e_mag!r},{e_damp!r}")
        for tag, u in (("mag", u_mag), ("damped", u_damp)):
            io.write_solution_csv(
                os.path.join(cfg.out, f"fig2_{tag}_delta{delta:.6g}.csv"),
                u, np.arange(u.size, dtype=float),
            )
    io.write_text(os.path.join(cfg.out, "fig2_errors.csv"), "\n".join(rows) + "\n")
    print("compare[fig2]: wrote fig2_errors.csv")
    return 0


def cmd_pde(cfg: RunConfig) -> int:
    if cfg.preset is None:
        raise InputError("pde requires --preset")
    loaded = _load_system(cfg)
    system, problem = loaded[:2]
    out = cfg.out
    io.write_matrix_coo(os.path.join(out, "problem.coo"), system.a)
    io.write_vector(os.path.join(out, "problem.vec"), system.b)
    io.write_json(os.path.join(out, "problem.json"),
                  {"family": problem.family, "n": problem.n, "k": problem.k,
                   "boundary": repr(problem.boundary), "forcing": problem.forcing,
                   "h": problem.h})
    _, _, delta, n_p, spec, oracle = _setup(cfg, loaded)
    u_method, rel, artifacts = _solve_with_method(cfg, spec, delta, n_p, oracle)
    xs, ys = problem.nodes()
    u_sol = problem.solution_block(u_method)
    io.write_solution_csv(
        os.path.join(out, "solution.csv"), u_sol,
        xs[: u_sol.size], None if ys is None else ys[: u_sol.size],
    )
    payload = {"preset": cfg.preset, "method": cfg.method or "mag", "delta": delta,
               "residual_vs_oracle": rel}
    if "report" in artifacts:
        payload["pipeline"] = artifacts["report"]
    io.write_json(os.path.join(out, "pde.json"), payload)
    print(f"pde[{cfg.preset}/{cfg.method or 'mag'}] residual vs direct solve: {rel:.3e}")
    return 0


def cmd_schro(cfg: RunConfig) -> int:
    _, _, delta, n_p, spec, oracle = _setup(cfg, _load_system(cfg))
    u, report, (points, rows) = schrod.pipeline(spec, delta, n_p, gamma_f=cfg.gammaf,
                                                snapshot_rows=SNAPSHOT_ROWS)
    rel = _residual(u, oracle)
    io.write_json(os.path.join(cfg.out, "pipeline.json"),
                  {**asdict(report), "residual_vs_oracle": rel})
    io.write_vector(os.path.join(cfg.out, "solution.vec"), u)
    io.write_field_snapshot_csv(os.path.join(cfg.out, "warped_field.csv"), points, rows)
    print(f"schro residual vs direct solve: {rel:.3e}")
    return 0


def cmd_blockenc_verify(cfg: RunConfig) -> int:
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
        complexity.write_comparison_csv(os.path.join(cfg.out, "complexity.csv"), rows)
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
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--preset")
        p.add_argument("--matrix")
        p.add_argument("--rhs")
        p.add_argument("--method", choices=["mag", "gradient", "damped", "schro"])
        p.add_argument("--delta", type=float)
        p.add_argument("--np", dest="n_p", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--gammaf", type=float)
        p.add_argument("--lhat", dest="l_hat", type=float)
        p.add_argument("--muhat", dest="mu_hat", type=float)
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--format", dest="fmt", choices=["csv", "json"])
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
    cfg = RunConfig(command=args.command)
    hints = typing.get_type_hints(RunConfig)
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
        elif f.name in file_values:
            setattr(cfg, f.name, _typed(f.name, hints[f.name], file_values[f.name]))
    return cfg


def _typed(name: str, hint, value):
    """A config-file value as its field's declared type, else InputError."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    if not isinstance(value, bool):
        if float in kinds and isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, tuple(k for k in kinds if k is not type(None))):
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
        os.makedirs(cfg.out, exist_ok=True)
        return _COMMANDS[cfg.command](cfg)
    except ValueError as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
