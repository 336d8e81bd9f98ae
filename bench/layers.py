"""What the traced run wraps, and the per-layer metrics it derives.

Every target is rebound from outside the package: the defining module
(or class) plus each module that imported the name directly, so calls
through `from .linalg import direct_solve` are traced as well.  Names
that a later version of the package no longer has are skipped; their
metrics then read 0.
"""

from __future__ import annotations

import contextlib
import importlib
import os

import numpy as np

from metrics import PER_LAYER
from spans import Patches, Recorder, children, duration, outermost, self_time

SNAPSHOT = "io.write_field_snapshot_csv"
# relative gap below which two singular values count as one
DISTINCT_SIGMA_RTOL = 1e-10
# share of the solution scale above which a pair "carries weight"
USEFUL_PAIR_RTOL = 1e-12

SCHROMAG_IMPORTERS = ("schromag.cli", "schromag.mag", "schromag.schrod",
                      "schromag.baselines")


def _steps(args, kwargs, result):
    return {"steps": int(result.steps)}


def _rows(args, kwargs, result):
    indices = args[1] if len(args) > 1 else kwargs["indices"]
    return {"rows": int(np.asarray(indices).size)}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _array_bytes(args, kwargs, result):
    return {"bytes": int(np.asarray(args[0]).nbytes + np.asarray(result).nbytes)}


def _mode_pairs(args, kwargs, result):
    _, live, thetas = args[:3]
    return {"mode_pairs": int(np.size(live) * np.size(thetas))}


def _pair_shares(args, kwargs, result):
    pairs = args[0]
    live = np.linalg.norm(pairs.w0_pair, axis=1) > 0.0
    scale = pairs.solution_scale()
    useful = live & (pairs.pair_weights() > USEFUL_PAIR_RTOL * scale)
    sig = np.sort(pairs.sigma[live])
    distinct = 0
    if sig.size:
        distinct = 1 + int(np.count_nonzero(np.diff(sig) > DISTINCT_SIGMA_RTOL * sig[-1]))
    return {"live_pairs": int(live.sum()), "useful_pairs": int(useful.sum()),
            "distinct_sigmas": distinct}


# (span name, defining module, attribute, modules that import it by name, note)
TARGETS = [
    ("cli.main", "schromag.cli", "main", (), None),
    ("presets.pde_preset", "schromag.presets", "pde_preset", ("schromag.cli",), None),
    ("io.read_matrix_coo", "schromag.io", "read_matrix_coo", (), None),
    ("mag.params_from_matrix", "schromag.mag", "params_from_matrix", (), None),
    ("mag.build_transformed", "schromag.mag", "build_transformed", (), None),
    ("mag.spectral_radius_check", "schromag.mag", "spectral_radius_check", (), None),
    ("mag.steady_state", "schromag.mag", "steady_state", (), None),
    ("mag.mag_iterate", "schromag.mag", "mag_iterate", (), _steps),
    ("mag.relative_trace", "schromag.mag", "relative_trace", (), None),
    ("linalg.eig", "schromag.linalg", "eig", ("schromag.mag",), None),
    ("linalg.direct_solve", "schromag.linalg", "direct_solve", SCHROMAG_IMPORTERS, None),
    ("schrod.pipeline", "schromag.schrod", "pipeline", (), None),
    ("schrod.build_pair_system", "schromag.schrod", "build_pair_system", (), None),
    ("schrod.evolve_structured", "schromag.schrod", "evolve_structured", (), _pair_shares),
    ("schrod._apply_pair_modes", "schromag.schrod", "_apply_pair_modes", (), _mode_pairs),
    ("schrod.evolve", "schromag.schrod", "evolve", (), None),
    ("schrod.field_rows", "schromag.schrod", "StructuredEvolution.field_rows", (), _rows),
    ("schrod.field_rows", "schromag.schrod", "SchrodState.field_rows", (), _rows),
    # numpy entry points; norm(x, 2) reaches svd through numpy's own module
    ("kernel.svd", "numpy.linalg", "svd", ("numpy.linalg._linalg",), None),
    ("kernel.eig", "numpy.linalg", "eig", ("numpy.linalg._linalg",), None),
    ("kernel.eigh", "numpy.linalg", "eigh", ("numpy.linalg._linalg",), None),
    ("kernel.solve", "numpy.linalg", "solve", ("numpy.linalg._linalg",), None),
    ("kernel.fft", "numpy.fft", "fft", (), _array_bytes),
    ("kernel.fft", "numpy.fft", "ifft", (), _array_bytes),
]


def _resolve(module: str, attr: str):
    """(owner, name) for 'func' or 'Class.method' in `module`, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, name


def install(recorder: Recorder, patches: Patches) -> None:
    """Rebind every target (and every io writer) to a recording wrapper."""
    io_mod = importlib.import_module("schromag.io")
    writers = [
        (f"io.{name}", "schromag.io", name, (), _file_bytes)
        for name, fn in sorted(vars(io_mod).items())
        if name.startswith("write_") and callable(fn)
    ]
    for span, module, attr, importers, note in TARGETS + writers:
        found = _resolve(module, attr)
        if found is None:
            continue
        owner, name = found
        original = vars(owner)[name]
        wrapped = recorder.wrap(span, original, note)
        patches.rebind(owner, name, wrapped)
        for other in importers:
            mod = importlib.import_module(other)
            if vars(mod).get(name) is original:
                patches.rebind(mod, name, wrapped)


@contextlib.contextmanager
def traced(invocation: str):
    """Install the wrappers for one CLI invocation; yields the recorder."""
    recorder = Recorder(invocation)
    with Patches() as patches:
        install(recorder, patches)
        yield recorder


def layer_metrics(spans: list[dict], untraced_wall: float, traced_wall: float) -> dict:
    """Every PER_LAYER metric, summed over the invocations of one pass."""
    kids = children(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        return sum(duration(s) for s in outermost(spans, lambda s: s["name"] == name))

    def total(name, key):
        return sum(s.get(key, 0) for s in named(name))

    def own(name):
        return sum(self_time(s, kids.get((s["invocation"], s["id"]), [])) for s in named(name))

    def growth(name):
        return max((s["rss_growth_mb"] for s in named(name)), default=0.0)

    def rate(x, t):
        return x / t if t > 0 else 0.0

    writers = [s for s in outermost(spans, lambda s: s["name"].startswith("io.write_"))
               if s["name"] != SNAPSHOT]
    snap_s, snap_bytes = seconds(SNAPSHOT), total(SNAPSHOT, "bytes")
    iterate_s, steps = seconds("mag.mag_iterate"), total("mag.mag_iterate", "steps")
    evolve_s = seconds("schrod.evolve_structured")
    mode_pairs = total("schrod._apply_pair_modes", "mode_pairs")
    live = total("schrod.evolve_structured", "live_pairs")

    # "<span>.s" and "<span>.calls" are generic; the rest is derived below
    m = {}
    for name, *_ in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if quantity == "s":
            m[name] = seconds(span)
        elif quantity == "calls":
            m[name] = len(named(span))
    m.update({
        "cli.main.self_s": own("cli.main"),
        "io.write_field_snapshot_csv.bytes": snap_bytes,
        "io.write_field_snapshot_csv.mb_per_s": rate(snap_bytes / 1e6, snap_s),
        "io.write.s": sum(duration(s) for s in writers),
        "io.write.bytes": sum(s.get("bytes", 0) for s in writers),
        "mag.mag_iterate.steps": steps,
        "mag.mag_iterate.steps_per_s": rate(steps, iterate_s),
        "schrod.evolve_structured.mode_pairs": mode_pairs,
        "schrod.evolve_structured.mode_pairs_per_s": rate(mode_pairs, evolve_s),
        "schrod.evolve_structured.rss_growth_mb": growth("schrod.evolve_structured"),
        "schrod.field_rows.rows": total("schrod.field_rows", "rows"),
        "schrod.field_rows.rss_growth_mb": growth("schrod.field_rows"),
        "schrod.pipeline.self_s": own("schrod.pipeline"),
        "schrod.useful_pair_frac": rate(total("schrod.evolve_structured", "useful_pairs"), live),
        "schrod.distinct_sigma_frac": rate(total("schrod.evolve_structured", "distinct_sigmas"),
                                           live),
        "kernel.fft.bytes": total("kernel.fft", "bytes"),
        "trace_overhead_frac": rate(traced_wall, untraced_wall),
    })
    return {name: m[name] for name, *_ in PER_LAYER}
