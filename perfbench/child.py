"""One timed (or traced, or set-up only) run of a workload, in its own process.

Started by ``run.py``; prints one JSON object as its last stdout line.  The
timed region repeats the seed's item list in whole passes until ``--seconds``
have gone by (or exactly ``--passes`` passes).  Each item is timed around its
library calls only, in CPU time and wall time; its result is checked against
the frozen reference after the clocks stop.  After each pass a fixed probe
task gauges the machine's speed, and the reported times are scaled by it.
``ready`` and ``ready_cpu`` are the monotonic clock and the process's CPU time
at the start of the timed region, from which ``run.py`` takes the set-up time.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter, process_time, thread_time

import numpy as np

#: the CPU time one ``probe()`` call is scaled to (see ``timed_loop``)
PROBE_REF_S = 0.010
#: probe calls after each pass
PROBE_REPS = 2


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--trace-out", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    items = workloads.make_items(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic(), "ready_cpu": process_time()}))
        return 0
    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result = timed_loop(args.workload, items, args.seconds, args.passes, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary(result["passes"], result["env"]["workers"])
        result["absent"] = tracer.absent
        tracer.save(args.trace_out)
    print(json.dumps(result))
    return 0


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile (Biometrika 69, 1982).

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics: on a
    shared host it varies much less between runs than the one or two order
    statistics the sample quantile rests on.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n, steps = len(x), 256
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    t = (np.arange(steps * n) + 0.5) / (steps * n)  # midpoint rule
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(cdf[::steps]) / cdf[-1]  # Beta mass on each [i-1, i] / n
    return float(weights @ x)


def probe() -> int:
    """A fixed CPU task that does not use the library: the machine's speed.

    A dict of 12 000 tuple keys (about 2.5 MB, more than a core's L2 cache)
    and a heap of 6 000 entries: Python objects, hashing and pointer chasing,
    as in the workloads.  It takes about 10 ms on the machine of
    ``baseline.json``.
    """
    d = {}
    for i in range(12000):
        d[(i, i ^ 5)] = [i, i * 3]
    s = 0
    for k, v in d.items():
        s ^= k[0] + v[1]
    h: list[tuple[int, int]] = []
    for i in range(6000):
        heapq.heappush(h, ((i * 7919) % 6007, i))
    while h:
        s ^= heapq.heappop(h)[1]
    return s


def timed_loop(workload, items, seconds=0.0, passes=0, tracer=None) -> dict:
    """Run whole passes over ``items`` for ``seconds``, or exactly ``passes``."""
    import workloads

    run = workloads.RUN[workload]
    check = workloads.CHECK[workload]
    if tracer is not None:
        run = tracer.wrap(run, "item")
    times: list[list[float]] = [[] for _ in items]
    cpu: list[list[float]] = [[] for _ in items]
    probe_s: list[float] = []
    attempted = failed = done = 0
    ready = time.monotonic()
    ready_cpu = process_time()
    while True:
        for item in items:
            if tracer is not None:
                tracer.item = item.id
            error = None
            t0 = perf_counter()
            c0 = process_time()
            try:
                out = run(item)
            except Exception:  # a failing item is counted, the run goes on
                error = traceback.format_exc()
            cpu[item.id].append(process_time() - c0)
            times[item.id].append(perf_counter() - t0)
            attempted += 1
            if error is None:
                try:
                    if not check(item, out):
                        error = "wrong result"
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                failed += 1
                print(f"item {item.id} {item.dims} {item.cls}: {error}",
                      file=sys.stderr)
            out = None
        done += 1
        for _ in range(PROBE_REPS):
            c0 = thread_time()
            probe()
            probe_s.append(thread_time() - c0)
        if passes:
            if done >= passes:
                break
        elif time.monotonic() - ready >= seconds:
            break

    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Item times are CPU seconds of the whole process (all its threads): on
    # a shared host, wall time also counts the time the process waits for a
    # core behind other tenants, which swung wall times 2-4x between runs.
    # Per item the fastest of its passes is kept, as timeit keeps the best
    # repeat, since cache and memory contention also inflate CPU time.
    best = [min(t) for t in cpu]
    pass_cpu = sum(best)
    # Contention on the host's caches and memory comes in phases of seconds
    # to minutes that slow a whole run.  The fastest probe of the run slows
    # with it, so times are scaled to a probe of PROBE_REF_S: over six runs
    # of closure this cut the spread from 0.13-0.15 to about 0.05 of the median.
    scale = PROBE_REF_S / min(probe_s)
    from scideals import metric

    return {
        "ready": ready,
        "ready_cpu": ready_cpu,
        "passes": done,
        "items": len(items),
        "item_s": times,
        "item_cpu_s": cpu,
        "attempted": attempted,
        "failed": failed,
        "probe_s": probe_s,
        "pass_wall_s": sum(min(t) for t in times),
        "pass_cpu_s": pass_cpu,
        "probe_min_s": min(probe_s),
        "vertices_per_s": sum(i.vertices for i in items) / (pass_cpu * scale),
        "pairs_per_s": sum(i.pairs for i in items) / (pass_cpu * scale),
        "item_p50_ms": quantile(best, 0.5) * scale * 1e3,
        "item_p90_ms": quantile(best, 0.9) * scale * 1e3,
        "peak_rss_mib": peak_rss_kib / 1024,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "workers": getattr(metric, "resolve_workers", lambda: 0)(),
        },
    }


if __name__ == "__main__":
    sys.exit(main())
