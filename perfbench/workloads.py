"""The benchmark's seeded workloads: item lists, the timed calls, the checks.

An item is one (dims, class) instance processed from start to finish, as one
CLI command or one gate check processes it.  Items are drawn from the frozen
pools in ``data/pools.json`` (see ``freeze.py``): the pool is sorted by cost,
cut into consecutive blocks of equal count, and the seed picks one shape per
block, so two seeds give different shapes with nearly the same cost profile
and work total.  The fixed items of each workload are added to every list.

The library is called through its module attributes (``enumeration.X``,
``metric.X``), so the tracer in ``spans.py`` can wrap them from outside.
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from scideals import enumeration, metric

POOLS = Path(__file__).resolve().parent / "data" / "pools.json"

@dataclass(frozen=True)
class Spec:
    budget: int  # work per pass drawn from the pool (vertices or pairs)
    sources: int = 0  # Dijkstra sources per graph item


SPECS = {
    "closure": Spec(budget=30_000),
    "allpairs": Spec(budget=2_000_000),
    "graph": Spec(budget=10_000, sources=8),
}


@dataclass(frozen=True)
class Item:
    id: int
    dims: tuple[int, ...]
    cls: str
    vertices: int  # vertices carried through the pipeline
    pairs: int  # vertex pairs whose flip distance the pipeline established
    ref: dict
    sources: tuple[int, ...] = ()


def load_pools() -> dict:
    return json.loads(POOLS.read_text())


def ecc_sha256(ecc) -> str:
    """Digest of an eccentricity vector, as the allpairs check compares it."""
    return hashlib.sha256(",".join(map(str, ecc)).encode()).hexdigest()


def encode_ecc(ecc) -> str:
    return base64.b64encode(bytes(ecc)).decode()


def decode_ecc(text: str) -> bytes:
    return base64.b64decode(text)


def _size(rec: dict) -> int:
    return rec["count"] if "count" in rec else rec["n"]


def _work(workload: str, rec: dict) -> int:
    n = _size(rec)
    return n * n if workload == "allpairs" else n


def make_items(
    workload: str,
    seed: int,
    pools: dict | None = None,
    budget: int | None = None,
    cap: int | None = None,
    fixed: bool = True,
) -> list[Item]:
    """The item list of one pass, a pure function of its arguments.

    The pool is sorted by the frozen ``cost_s`` (the pipeline's time when the
    pool was frozen), so each block holds shapes of similar cost and the
    per-item time quantiles hardly move between seeds.  ``cap`` leaves out
    shapes with more work than it, for small test runs.
    """
    spec = SPECS[workload]
    budget = spec.budget if budget is None else budget
    data = (pools or load_pools())[workload]
    pool = [r for r in data["pool"] if cap is None or _work(workload, r) <= cap]
    pool.sort(key=lambda r: (r["cost_s"], r["dims"]))
    block = max(1, round(sum(_work(workload, r) for r in pool) / budget))
    rng = random.Random(f"{workload}:{seed}")
    recs = [rng.choice(pool[i : i + block]) for i in range(0, len(pool), block)]
    rng.shuffle(recs)
    if fixed:
        # first, so the largest sweep arrays meet a fresh heap: after other
        # items, the heap's fragments made peak memory depend on the order
        recs = data["fixed"] + recs
    items = []
    for i, rec in enumerate(recs):
        n = _size(rec)
        sources: tuple[int, ...] = ()
        pairs = n * n if workload == "allpairs" else n
        if workload == "graph":
            sources = tuple(rng.sample(range(n), min(spec.sources, n)))
            pairs = len(sources) * n
        items.append(
            Item(i, tuple(rec["dims"]), rec["cls"], n, pairs, rec, sources)
        )
    return items


# ----------------------------------------------------------------------
# the timed calls: library work only, checked afterwards


def run_closure(item: Item):
    return enumeration.enumerate_count(item.dims, item.cls, force=True)


def run_allpairs(item: Item):
    return metric.metric_report(
        enumeration.enumerate_ideals(item.dims, item.cls, force=True)
    )


def run_graph(item: Item):
    enum = enumeration.enumerate_ideals(item.dims, item.cls, force=True)
    graph = metric.build_graph(enum)
    rows = [
        (
            s,
            metric.single_source_lengths(graph, s),
            metric.distances_from(enum, enum.vertices[s]),
        )
        for s in item.sources
    ]
    return len(enum), graph.edges, rows


def check_closure(item: Item, out) -> bool:
    return out == item.ref["count"]


def check_allpairs(item: Item, out) -> bool:
    ref = item.ref
    return (
        out.n_vertices == ref["n"]
        and out.diameter == ref["diameter"]
        and out.radius == ref["radius"]
        and len(out.center) == ref["center"]
        and len(out.perimeter) == ref["perimeter"]
        and ecc_sha256(out.eccentricities) == ref["ecc_sha256"]
    )


def check_graph(item: Item, out) -> bool:
    ref = item.ref
    n, edges, rows = out
    if n != ref["n"] or len(edges) != ref["edges"]:
        return False
    if sum(w for _u, _v, w in edges) != ref["weight"]:
        return False
    ecc = decode_ecc(ref["ecc"])
    return all(
        len(dij) == n and dij == direct and max(dij) == ecc[s]
        for s, dij, direct in rows
    )


RUN = {"closure": run_closure, "allpairs": run_allpairs, "graph": run_graph}
CHECK = {"closure": check_closure, "allpairs": check_allpairs, "graph": check_graph}
