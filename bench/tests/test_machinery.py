"""Tests for the benchmark's own machinery (spans, wrappers, metric names).

    python3 -m pytest bench/tests
"""

import json
import os
import re

import numpy as np
import pytest

import layers
from ledger import Ledger, digests
from metrics import END_TO_END, EXACT, PER_LAYER
from spans import Patches, Recorder, outermost, self_time

BENCHMARK_JSON = os.path.join(os.path.dirname(layers.__file__), os.pardir, "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(i, start, end, parent=None, name="x"):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "invocation": "inv"}


def test_self_time_subtracts_union_of_children():
    parent = _span(0, 0.0, 10.0)
    kids = [
        _span(1, 1.0, 3.0, 0),
        _span(2, 2.0, 5.0, 0),  # overlaps the first child: counted once
        _span(3, 9.0, 12.0, 0),  # runs past the parent: clipped at 10
    ]
    assert self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_self_time_of_recorded_nested_spans():
    rec = Recorder("inv")
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: [inner(), inner()])
    outer()
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    kids = [s for s in rec.spans if s["parent"] == by_name["outer"]["id"]]
    assert len(kids) == 2
    own = self_time(by_name["outer"], kids)
    assert 0.0 <= own <= by_name["outer"]["end"] - by_name["outer"]["start"]


def test_outermost_skips_nested_spans_of_the_same_kind():
    spans = [_span(0, 0, 4, name="io.write_json"), _span(1, 1, 2, 0, name="io.write_text"),
             _span(2, 5, 6, name="io.write_text")]
    found = outermost(spans, lambda s: s["name"].startswith("io.write_"))
    assert [s["id"] for s in found] == [0, 2]


def test_patches_restore_class_and_module_attributes():
    class Owner:
        def method(self):
            return 1

    original = vars(Owner)["method"]
    with Patches() as patches:
        patches.rebind(Owner, "method", lambda self: 2)
        assert Owner().method() == 2
    assert vars(Owner)["method"] is original


def _run_cli(args, out):
    from schromag import cli

    assert cli.main([*args, "--out", str(out)]) == 0


def test_traced_run_restores_every_attribute_and_writes_identical_outputs(tmp_path):
    import schromag.cli
    import schromag.mag

    args = ["pde", "--preset", "fig3a", "--method", "schro"]
    _run_cli(args, tmp_path / "plain")

    rec, patches = Recorder("t"), Patches()
    layers.install(rec, patches)
    saved = list(patches.saved)
    rebound = {(getattr(o, "__name__", o), a) for o, a, _ in saved}
    for module in ("schromag.cli", "schromag.mag", "schromag.schrod", "schromag.baselines"):
        assert (module, "direct_solve") in rebound
    assert ("schromag.cli", "pde_preset") in rebound
    assert ("schromag.mag", "eig") in rebound
    assert ("StructuredEvolution", "field_rows") in rebound
    assert ("SchrodState", "field_rows") in rebound
    try:
        _run_cli(args, tmp_path / "traced")
    finally:
        patches.restore()

    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, (owner, attr)
    assert schromag.cli.direct_solve is schromag.linalg.direct_solve
    assert digests(tmp_path / "plain") == digests(tmp_path / "traced")

    names = {s["name"] for s in rec.spans}
    assert {"cli.main", "schrod.pipeline", "schrod.evolve", "kernel.fft",
            "linalg.direct_solve", "schrod.field_rows"} <= names
    metrics = layers.layer_metrics(rec.spans, 1.0, 1.0)
    assert metrics["linalg.direct_solve.calls"] >= 1
    assert metrics["schrod.evolve.s"] > 0.0


def test_layer_metrics_cover_every_per_layer_name():
    metrics = layers.layer_metrics([], 1.0, 1.0)
    assert list(metrics) == [name for name, *_ in PER_LAYER]
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    assert set(EXACT) <= set(metrics)


def test_metric_names_and_benchmark_json_agree():
    with open(BENCHMARK_JSON) as fh:
        doc = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert e2e == list(END_TO_END)
    assert per_layer == [(n, u, b) for n, u, b, *_ in PER_LAYER]
    names = [n for n, *_ in e2e + per_layer] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_ledger_reports_differing_digests(tmp_path):
    ledger = Ledger(str(tmp_path / "ledger.json"))
    ledger.compare("k", "first", {"a.csv": "1"})
    ledger.compare("k", "same", {"a.csv": "1"})
    ledger.compare("k", "changed", {"a.csv": "2"})
    ledger.compare("other", "new key", {"a.csv": "3"})
    assert ledger.compared == 2
    assert len(ledger.mismatches) == 1 and ledger.mismatches[0].startswith("changed")
    ledger.save()
    assert Ledger(str(tmp_path / "ledger.json")).entries == ledger.entries


def test_pair_shares_count_live_useful_and_distinct_pairs():
    class Pairs:
        sigma = np.array([3.0, 2.0, 2.0, 1.0])
        w0_pair = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0], [1.0, 0, 0, 0], [0, 0, 0, 0]])

        def solution_scale(self):
            return 1.0

        def pair_weights(self):
            return np.array([1.0, 1e-15, 0.5, 0.0])

    shares = layers._pair_shares((Pairs(),), {}, None)
    assert shares == {"live_pairs": 3, "useful_pairs": 2, "distinct_sigmas": 2}


def test_check_flags_wrong_solutions_and_snapshot_shapes(tmp_path):
    import workloads

    oracle = np.array([1.0 + 1j, -2.0, 0.5j])
    inv = workloads.Invocation("x", [], oracle, "vec", 1e-2, snapshot_cols=3)
    rows = "p,a,b\n" + "".join(f"{k},0.0,0.0\n" for k in range(workloads.SNAPSHOT_ROWS))
    (tmp_path / "warped_field.csv").write_text(rows)

    workloads.write_vector(tmp_path / "solution.vec", oracle * (1 + 1e-3))
    err, problems = workloads.check(inv, str(tmp_path))
    assert err == pytest.approx(1e-3) and problems == []

    workloads.write_vector(tmp_path / "solution.vec", oracle * 1.05)
    err, problems = workloads.check(inv, str(tmp_path))
    assert err == pytest.approx(0.05) and len(problems) == 1

    (tmp_path / "warped_field.csv").write_text(rows + "1,2\n")
    workloads.write_vector(tmp_path / "solution.vec", oracle)
    _, problems = workloads.check(inv, str(tmp_path))
    assert len(problems) == 2
