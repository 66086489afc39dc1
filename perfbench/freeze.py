"""Freeze the benchmark's shape pools and reference values.

Run once from the repository root to regenerate ``perfbench/data/pools.json``:

    PYTHONPATH=src python3 perfbench/freeze.py

The file holds every shape a workload may draw, with the values its result
is checked against.  Items are drawn from this file, never recomputed, so
two commits get byte-identical items for one seed and a change to the
library cannot move its own reference.  The values are computed here by the
library itself, then cross-checked against the closed forms in
``scideals.constructions`` / ``scideals.enumeration`` and against the
hand-checked figures of ``tests/reference_data.py`` and the acceptance gate.

Each pool shape also gets ``cost_s``, the best of three timings of its
pipeline here.  It only orders the pool for sampling (see
``workloads.make_items``); no result is compared with it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOLS = HERE / "data" / "pools.json"

#: Every pool and fixed shape is capped so that one item takes at most a few
#: tens of milliseconds.  On a shared host a core runs at full speed only in
#: windows of a few milliseconds; an item's best time over many passes finds
#: that speed only if the item is short, and a pass must be short for a run
#: to hold many passes.
#: closure pool: the criterion-1 sweep (d <= 3, even volume <= 216), capped
SWEEP_MAX_VOLUME = 216
CLOSURE_CAP = 3_000
#: allpairs pool: sc shapes small enough for the exact all-pairs sweep
ALL_PAIRS_LIMIT = 500
EXTRA_SC_DIMS = ((2, 2, 2, 2), (2, 2, 2, 4), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2))
#: graph pool: sc shapes in this vertex range
GRAPH_MIN, GRAPH_MAX = 20, 250

CLOSURE_FIXED = (((10, 10, 10), "tssc"), ((6, 6, 6), "cssc"))
#: (6, 33) has the pool's largest sweep arrays (n = 969, four limbs), so it
#: sets the workload's peak memory, which must not depend on the seed's draw
ALLPAIRS_FIXED = (
    ((10, 10, 10), "tssc"),
    ((8, 8, 8), "tssc"),
    ((6, 6, 6), "cssc"),
    ((6, 33), "sc"),
)
GRAPH_FIXED = (
    ((6, 6, 6), "cssc"),
    ((6, 6, 6), "tssc"),
    ((8, 8, 8), "tssc"),
    ((10, 10, 10), "tssc"),
)

def _allpairs_ref(dims, cls):
    from scideals.enumeration import enumerate_ideals
    from scideals.metric import metric_report
    from workloads import ecc_sha256

    rep = metric_report(enumerate_ideals(dims, cls, force=True))
    return {
        "dims": list(dims),
        "cls": cls,
        "n": rep.n_vertices,
        "diameter": rep.diameter,
        "radius": rep.radius,
        "center": len(rep.center),
        "perimeter": len(rep.perimeter),
        "ecc_sha256": ecc_sha256(rep.eccentricities),
    }


def _graph_ref(dims, cls):
    from scideals.enumeration import enumerate_ideals
    from scideals.metric import build_graph, metric_report
    from workloads import encode_ecc

    enum = enumerate_ideals(dims, cls, force=True)
    graph = build_graph(enum)
    ecc = metric_report(enum).eccentricities
    return {
        "dims": list(dims),
        "cls": cls,
        "n": len(enum),
        "edges": len(graph.edges),
        "weight": sum(w for _u, _v, w in graph.edges),
        "ecc": encode_ecc(ecc),
    }


def _with_cost(workload: str, rec: dict) -> dict:
    import workloads

    n = rec.get("count", rec.get("n"))
    sources = tuple(range(min(workloads.SPECS["graph"].sources, n)))
    item = workloads.Item(0, tuple(rec["dims"]), rec["cls"], n, n, rec, sources)
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        workloads.RUN[workload](item)
        best = min(best, perf_counter() - t0)
    return {**rec, "cost_s": round(best, 6)}


def freeze() -> dict:
    from scideals.enumeration import count_closed, enumerate_count
    from scideals.verify import sc_sweep

    sweep = [(d, count_closed(d, "sc")) for d in sc_sweep(SWEEP_MAX_VOLUME)]
    closure_pool = []
    for dims, count in sweep:
        if count > CLOSURE_CAP:
            continue
        # the closed form is the reference; the closure must agree today
        assert enumerate_count(dims, "sc", force=True) == count, dims
        closure_pool.append({"dims": list(dims), "cls": "sc", "count": count})
    closure_fixed = [
        {"dims": list(d), "cls": c, "count": count_closed(d, c)}
        for d, c in CLOSURE_FIXED
    ]
    for rec in closure_fixed:
        assert enumerate_count(rec["dims"], rec["cls"]) == rec["count"]

    allpairs_shapes = [
        d for d, n in sweep
        if 0 < n <= ALL_PAIRS_LIMIT and (d, "sc") not in ALLPAIRS_FIXED
    ]
    allpairs_shapes += [
        d for d in EXTRA_SC_DIMS
        if enumerate_count(d, "sc", force=True) <= ALL_PAIRS_LIMIT
        and (d, "sc") not in ALLPAIRS_FIXED
    ]
    graph_shapes = [d for d, n in sweep if GRAPH_MIN <= n <= GRAPH_MAX]
    pools = {
        "closure": {"pool": closure_pool, "fixed": closure_fixed},
        "allpairs": {
            "pool": [_allpairs_ref(d, "sc") for d in allpairs_shapes],
            "fixed": [_allpairs_ref(d, c) for d, c in ALLPAIRS_FIXED],
        },
        "graph": {
            "pool": [_graph_ref(d, "sc") for d in graph_shapes],
            "fixed": [_graph_ref(d, c) for d, c in GRAPH_FIXED],
        },
    }
    for workload, data in pools.items():
        data["pool"] = [_with_cost(workload, rec) for rec in data["pool"]]
    return pools


def cross_check(pools: dict) -> list[str]:
    """Disagreements between the frozen data and independent references.

    Compares with the closed forms and with the figures the test suite
    pins by hand; needs no enumeration, so it is cheap enough for a test.
    """
    if str(ROOT / "tests") not in sys.path:
        sys.path.append(str(ROOT / "tests"))
    import reference_data as ref
    from scideals.constructions import (
        cssc_diameter_value,
        cssc_radius_value,
        sc_diameter_value,
        tssc_diameter_value,
    )
    from scideals.enumeration import count_closed
    from workloads import decode_ecc

    bad: list[str] = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{what}: frozen {got!r}, reference {want!r}")

    def table(workload):
        data = pools[workload]
        return {(tuple(r["dims"]), r["cls"]): r for r in data["pool"] + data["fixed"]}

    closure, allpairs, graph = table("closure"), table("allpairs"), table("graph")

    for (dims, cls), rec in closure.items():
        expect(f"closure {dims} {cls} count", rec["count"], count_closed(dims, cls))
    for (dims, cls), rec in list(allpairs.items()) + list(graph.items()):
        if cls == "sc" and len(dims) <= 3:
            expect(f"{dims} sc count", rec["n"], count_closed(dims, cls))
    for (dims, cls), rec in allpairs.items():
        if cls == "sc":
            expect(f"allpairs {dims} diameter", rec["diameter"], sc_diameter_value(dims))

    # the symmetric counts the acceptance gate pins, r = 1..5 and 1..6
    counts = {
        "cssc": {1: 1, 2: 4, 3: 49, 4: 1764, 5: 184041},
        "tssc": {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436},
    }
    for cls, want in counts.items():
        for r, n in want.items():
            key = ((2 * r,) * 3, cls)
            for name, tab, field in (("closure", closure, "count"),
                                     ("allpairs", allpairs, "n"),
                                     ("graph", graph, "n")):
                if key in tab:
                    expect(f"{name} {cls} r={r} size", tab[key][field], n)

    # the known radii and diameters of the fixed symmetric instances
    tssc_r5, cssc_r3 = allpairs[(10,) * 3, "tssc"], allpairs[(6,) * 3, "cssc"]
    expect("tssc r=5 diameter", tssc_r5["diameter"], tssc_diameter_value(5))
    expect("tssc r=5 radius", tssc_r5["radius"], math.ceil(tssc_diameter_value(5) / 2))
    expect("tssc r=5 center size", tssc_r5["center"], len(ref.TSSC_CENTER_R5_HEIGHTS))
    expect("cssc r=3 diameter", cssc_r3["diameter"], cssc_diameter_value(3))
    expect("cssc r=3 radius", cssc_r3["radius"], cssc_radius_value(3))
    for dims, want in (((2, 2, 2), 1), ((2, 2, 4), 2), ((4, 4), 2),
                       ((2, 2, 2, 2), 3)):
        expect(f"{dims} radius", allpairs[dims, "sc"]["radius"], want)
    for (dims, cls), rec in graph.items():
        ecc = decode_ecc(rec["ecc"])
        expect(f"graph {dims} {cls} ecc length", len(ecc), rec["n"])
        if cls == "sc":
            expect(f"graph {dims} diameter", max(ecc), sc_diameter_value(dims))
            continue
        r = dims[0] // 2
        diam = (cssc_diameter_value if cls == "cssc" else tssc_diameter_value)(r)
        expect(f"graph {dims} {cls} diameter", max(ecc), diam)
        if cls == "tssc":
            expect(f"graph {dims} tssc radius", min(ecc), math.ceil(diam / 2))
    tssc5 = decode_ecc(graph[(10,) * 3, "tssc"]["ecc"])
    expect("tssc r=5 center size", tssc5.count(min(tssc5)),
           len(ref.TSSC_CENTER_R5_HEIGHTS))

    # the hand-drawn flip graph on [2] x [3] x [4]
    dims = tuple(ref.SC_2x3x4_DIMS)
    n = len(ref.SC_2x3x4_HEIGHTS)
    expect("(2,3,4) count", closure[dims, "sc"]["count"], n)
    expect("(2,3,4) allpairs n", allpairs[dims, "sc"]["n"], n)
    return bad


def main() -> int:
    pools = freeze()
    bad = cross_check(pools)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    POOLS.parent.mkdir(parents=True, exist_ok=True)
    POOLS.write_text(json.dumps(pools, separators=(",", ":"), sort_keys=True) + "\n")
    sizes = {w: len(p["pool"]) + len(p["fixed"]) for w, p in pools.items()}
    print(f"wrote {POOLS.relative_to(ROOT)}: {sizes}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    sys.exit(main())
