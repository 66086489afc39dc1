"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions of each layer with wrappers
that record one span per call (name, start, end, parent span, item id) plus
the layer's work counts.  Spans stay in memory, in flat arrays, until
``save`` writes them out.  ``summary`` derives self times (a span's duration
minus the time its child spans cover) and ratios from them.

A wrapped name that no longer exists is reported as an absent layer, with
zero counts, instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
from array import array
from time import perf_counter

import numpy as np

ITEM = "item"

#: (module, attribute path, span name); span None means count calls only
TARGETS = (
    ("scideals.metric", "sc_flip_masks", "kernel.sc"),
    ("scideals.metric", "orbit_flip_masks", "kernel.orbit"),
    ("scideals.poset", "ChainProduct.is_downward_closed", None),
    ("scideals.enumeration", "enumerate_count", "enumeration"),
    ("scideals.enumeration", "enumerate_ideals", "enumeration"),
    ("scideals.metric", "metric_report", "metric.report"),
    ("scideals.metric", "build_graph", "graph.build"),
    ("scideals.metric", "single_source_lengths", "graph.dijkstra"),
    ("scideals.metric", "distances_from", "metric.rows"),
)

SPAN_NAMES = (
    ITEM, "kernel.sc", "kernel.orbit", "enumeration",
    "metric.report", "graph.build", "graph.dijkstra", "metric.rows",
)

#: every per-layer metric a traced run reports, with its unit
METRICS = {
    "kernel.sc.calls": "count",
    "kernel.sc.self_s": "s",
    "kernel.sc.neighbors": "count",
    "kernel.orbit.calls": "count",
    "kernel.orbit.self_s": "s",
    "kernel.orbit.neighbors": "count",
    "kernel.orbit.accept_ratio": "1",
    "poset.closed_checks": "count",
    "enumeration.calls": "count",
    "enumeration.self_s": "s",
    "enumeration.vertices": "count",
    "enumeration.new_ratio": "1",
    "enumeration.materialized": "count",
    "metric.report.calls": "count",
    "metric.report.self_s": "s",
    "metric.report.pairs": "count",
    "metric.report.limb_ops": "count",
    "metric.report.bytes_computed": "B",
    "metric.report.workers": "count",
    "graph.build.calls": "count",
    "graph.build.self_s": "s",
    "graph.build.edges": "count",
    "graph.dijkstra.calls": "count",
    "graph.dijkstra.self_s": "s",
    "metric.rows.calls": "count",
    "metric.rows.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "1",
    "trace.absent_layers": "count",
}


def _resolve(path: str, module):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Spans and counts for one traced run; install, run, uninstall."""

    def __init__(self) -> None:
        self.names = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.items = array("q")
        self.stack: list[int] = []
        self.item = -1
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, idx: int, name: str, out, args) -> None:
        if name in ("kernel.sc", "kernel.orbit"):
            self._add(f"{name}.neighbors", len(out))
            parent = self.parents[idx]
            if parent >= 0 and SPAN_NAMES[self.names[parent]] == "enumeration":
                self._add("enumeration.neighbors", len(out))
        elif name == "enumeration":
            if isinstance(out, int):
                self._add("enumeration.vertices", out)
            else:
                self._add("enumeration.vertices", len(out))
                self._add("enumeration.materialized", len(out))
        elif name == "metric.report":
            n = out.n_vertices
            limbs = math.ceil(args[0].poset.volume / 64)
            self._add("metric.report.pairs", n * n)
            self._add("metric.report.limb_ops", n * n * limbs)
        elif name == "graph.build":
            self._add("graph.build.edges", len(out.edges))

    def wrap(self, fn, name: str):
        nid = SPAN_NAMES.index(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.names.append(nid)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.items.append(tracer.item)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.starts[idx] = t0
                tracer.stack.pop()
            tracer._count(idx, name, out, args)
            return out

        return traced

    def _counted(self, fn, key: str):
        tracer = self

        def counted(*args, **kwargs):
            tracer._add(key, 1)
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        for modname, path, name in TARGETS:
            owner, attr = _resolve(path, importlib.import_module(modname))
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{modname}.{path}")
                continue
            self._saved.append((owner, attr, fn))
            if name is None:
                setattr(owner, attr, self._counted(fn, "poset.closed_checks"))
            else:
                setattr(owner, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # ------------------------------------------------------------------
    # results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.uint8),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "item": np.frombuffer(self.items, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, span_names=np.array(SPAN_NAMES), **self.arrays())

    def summary(self, passes: int, workers: int) -> dict[str, float]:
        """Per-layer metrics per pass; ``trace.overhead_ratio`` is left 0."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - covered
        out = dict.fromkeys(METRICS, 0.0)
        for nid, name in enumerate(SPAN_NAMES):
            sel = a["name"] == nid
            if name == ITEM:
                out["trace.wall_s"] = float(dur[sel].sum())
                out["trace.unattributed_s"] = float(own[sel].sum())
                continue
            out[f"{name}.calls"] = float(sel.sum())
            out[f"{name}.self_s"] = float(own[sel].sum())
        for key, value in self.counts.items():
            if key in out:
                out[key] = float(value)
        for key, unit in METRICS.items():
            if unit in ("count", "s"):
                out[key] /= passes
        c = self.counts
        if c.get("poset.closed_checks"):
            out["kernel.orbit.accept_ratio"] = (
                c.get("kernel.orbit.neighbors", 0) / c["poset.closed_checks"]
            )
        if c.get("enumeration.neighbors"):
            # every closure starts from one seed vertex it did not discover
            starts = int((a["name"] == SPAN_NAMES.index("enumeration")).sum())
            new = c["enumeration.vertices"] - starts
            out["enumeration.new_ratio"] = new / c["enumeration.neighbors"]
        # computed, not measured: each pair reads one limb row of each side
        out["metric.report.bytes_computed"] = out["metric.report.limb_ops"] * 16
        out["metric.report.workers"] = float(workers)
        out["trace.absent_layers"] = float(len(self.absent))
        return out
