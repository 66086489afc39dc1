"""The scideals benchmark: one seeded workload per run, each timed in a fresh process.

Usage, from the repository root:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, measured untraced; ``--trace 1``
prints the per-layer metrics of a traced run (see ``spans.py``): an untraced
run, then up to three passes with every layer wrapped.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full records, with the environment, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("closure", "allpairs", "graph")

END_TO_END = {
    "vertices_per_s": "vertices/s",
    "pairs_per_s": "pairs/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

#: set-up-only processes per run, half before and half after the timed one,
#: so they meet more than one phase of a shared host's load; setup_s is the
#: median of these and the timed process's own set-up time
SETUP_PROBES = 8
#: passes of a traced run; its spans are kept in memory until it ends
TRACE_PASSES = 3
#: one run, all its processes included, must end well inside 180 s
RUN_TIMEOUT_S = 170.0


class ChildError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    """A fixed environment: the library from ``src``, no worker override."""
    env = {
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "LC_ALL": "C.UTF-8",
    }
    for key in ("PATH", "HOME", "LD_LIBRARY_PATH"):
        if key in os.environ:
            env[key] = os.environ[key]
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its record, with setup_s."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child {args} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"child {args} exited with {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    # set-up time is the child's CPU time up to the timed region, like the
    # item times; the wall time, which also counts waiting for a core, is kept
    rec["setup_s"] = rec["ready_cpu"]
    rec["setup_wall_s"] = rec["ready"] - t0
    return rec


def source_record(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {"seed": seed, "git_commit": commit, "source_sha256": digest.hexdigest()}


def run_plain(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed)]
    setup_only = base + ["--setup-only"]
    setups = [spawn(setup_only, deadline) for _ in range(SETUP_PROBES // 2)]
    rec = spawn(base + ["--seconds", str(seconds)], deadline)
    setups += [spawn(setup_only, deadline) for _ in range(SETUP_PROBES // 2)]
    rec["setup_s"] = statistics.median([r["setup_s"] for r in setups + [rec]])
    rec["setup_wall_s"] = statistics.median([r["setup_wall_s"] for r in setups + [rec]])
    return rec, {name: rec[name] for name in END_TO_END}


def run_traced(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed)]
    plain = spawn(base + ["--seconds", str(seconds)], deadline)
    rec = spawn(
        base
        + ["--passes", str(min(plain["passes"], TRACE_PASSES))]
        + ["--trace-out", str(OUT / f"{workload}.trace.npz")],
        deadline,
    )
    layers = rec["layers"]
    layers["trace.overhead_ratio"] = rec["pass_wall_s"] / plain["pass_wall_s"]
    rec["attempted"] += plain["attempted"]
    rec["failed"] += plain["failed"]
    return rec, layers


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "scideals" / "__init__.py").is_file():
        print(f"no scideals sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from spans import METRICS

    source = source_record(args.seed)
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        deadline = time.monotonic() + RUN_TIMEOUT_S
        try:
            if args.trace:
                rec, values = run_traced(workload, args.seed, args.seconds, deadline)
                units = METRICS
            else:
                rec, values = run_plain(workload, args.seed, args.seconds, deadline)
                units = END_TO_END
        except ChildError as exc:
            print(f"perfbench {workload}: {exc}", file=sys.stderr)
            return 1
        env = {**source, **rec["env"]}
        attempted, failed = rec["attempted"], rec["failed"]
        print(
            f"perfbench {workload} seed={args.seed} trace={args.trace} "
            f"passes={rec['passes']} items/pass={rec['items']}"
        )
        for name, value in values.items():
            print(f"  {name:<30} {value:>16.6g} {units[name]}")
        print(f"  {'fail_ratio':<30} {failed / attempted:>16.6g} 1")
        if rec.get("absent"):
            print(f"  absent layers: {', '.join(rec['absent'])}")
        print("env " + json.dumps(env, sort_keys=True))
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
        raw = ("pass_wall_s", "pass_cpu_s", "probe_min_s", "setup_wall_s")
        raw = {k: rec[k] for k in raw if k in rec}
        (OUT / f"{workload}-trace{args.trace}.json").write_text(
            json.dumps({**result, "workload": workload, "env": env, **raw}, indent=1) + "\n"
        )
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
