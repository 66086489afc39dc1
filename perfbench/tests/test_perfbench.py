"""The benchmark's own tests: seeded items, checks, tracing, refusal.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import freeze
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent

#: small budgets and caps, so a whole pass takes well under a second
TINY = {
    "closure": dict(budget=2_000, cap=500),
    "allpairs": dict(budget=200_000, cap=40_000),
    "graph": dict(budget=600, cap=120),
}


@pytest.fixture(scope="module")
def pools():
    return workloads.load_pools()


def tiny_items(workload, pools, seed=3):
    return workloads.make_items(workload, seed, pools, fixed=False, **TINY[workload])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_items(workload, pools):
    assert workloads.make_items(workload, 7, pools) == workloads.make_items(
        workload, 7, pools
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_two_seeds_differ_with_work_inside_budget(workload, pools):
    spec = workloads.SPECS[workload]
    drawn = {}
    for seed in (1, 2):
        items = workloads.make_items(workload, seed, pools, fixed=False)
        assert len(items) >= 100
        work = sum(i.pairs if workload == "allpairs" else i.vertices for i in items)
        # blocks are cut by cost, not work: over 200 seeds the drawn work
        # stayed within 0.97-1.15 of the budget
        assert abs(work / spec.budget - 1) < 0.2, (seed, work)
        drawn[seed] = [(i.dims, i.cls) for i in items]
    assert sorted(drawn[1]) != sorted(drawn[2])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run_has_no_failures(workload, pools):
    items = tiny_items(workload, pools)
    assert items
    res = child.timed_loop(workload, items, passes=1)
    assert res["attempted"] == len(items)
    assert res["failed"] == 0
    assert res["vertices_per_s"] > 0 and res["pairs_per_s"] > 0
    # the reported rates rest on per-item best CPU times, not wall times,
    # scaled by the run's fastest probe
    cpu = sum(min(t) for t in res["item_cpu_s"])
    scale = child.PROBE_REF_S / min(res["probe_s"])
    assert len(res["probe_s"]) == child.PROBE_REPS
    assert res["vertices_per_s"] == pytest.approx(
        sum(i.vertices for i in items) / (cpu * scale)
    )


@pytest.mark.parametrize(
    "workload, field",
    [("closure", "count"), ("allpairs", "diameter"), ("allpairs", "ecc_sha256"),
     ("graph", "edges"), ("graph", "ecc")],
)
def test_corrupted_reference_is_counted_not_fatal(workload, field, pools):
    items = tiny_items(workload, pools)
    bad = dict(items[0].ref)
    if field == "ecc_sha256":
        bad[field] = "0" * 64
    elif field == "ecc":
        del bad[field]  # makes the check itself raise
    else:
        bad[field] += 1
    items[0] = dataclasses.replace(items[0], ref=bad)
    res = child.timed_loop(workload, items, passes=2)
    assert res["attempted"] == 2 * len(items)
    assert res["failed"] == 2


def test_quantile_is_a_smoothed_order_statistic():
    values = list(range(100))
    assert child.quantile(values, 0.5) == pytest.approx(49.5)
    assert 88 < child.quantile(values, 0.9) < 91
    assert child.quantile([7.0] * 12, 0.9) == pytest.approx(7.0)
    assert child.quantile([3.0], 0.9) == 3.0


def test_frozen_data_agrees_with_independent_references(pools):
    assert freeze.cross_check(pools) == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_accounts_for_wall_time(workload, pools):
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = child.timed_loop(workload, tiny_items(workload, pools), passes=2,
                               tracer=tracer)
    finally:
        tracer.uninstall()
    assert res["failed"] == 0
    layers = tracer.summary(res["passes"], 1)
    assert set(layers) == set(spans.METRICS)
    self_times = [v for k, v in layers.items() if k.endswith(".self_s")]
    parts = sum(self_times) + layers["trace.unattributed_s"]
    assert parts == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.unattributed_s"] < 0.5 * layers["trace.wall_s"]
    assert layers["enumeration.calls"] == len(res["item_s"])
    assert layers["trace.absent_layers"] == 0
    assert 0 < layers["enumeration.new_ratio"] <= 1


def test_missing_layer_is_reported_absent(pools, monkeypatch):
    import scideals.metric

    monkeypatch.delattr(scideals.metric, "build_graph")
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = child.timed_loop("closure", tiny_items("closure", pools), passes=1,
                               tracer=tracer)
    finally:
        tracer.uninstall()
    assert res["failed"] == 0
    assert tracer.absent == ["scideals.metric.build_graph"]
    layers = tracer.summary(1, 1)
    assert layers["trace.absent_layers"] == 1
    assert layers["graph.build.calls"] == 0


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.SPECS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.METRICS


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
