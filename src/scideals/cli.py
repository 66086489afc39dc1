"""Command-line front end.

Subcommands:

* ``count``     vertex count of a class (closed form when available,
                flip closure otherwise);
* ``enumerate`` the full vertex list;
* ``stats``     exact diameter / radius / center / perimeter;
* ``graph``     the flip graph itself (dot, json, or eccentricity csv);
* ``extremal``  named construction ideals (centers, diameter pairs,
                shells, ...);
* ``verify``    the theorem-checking suites.

All structured output is deterministic, byte for byte, but for each
suite's wall-clock ``seconds`` in ``verify`` (the tests drop them to
hash a suite's record).  Every payload carries a ``meta`` header with
the tool version, dims, class and producing method.  Exit status: 0
success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .constructions import CONSTRUCTION_NAMES, build_named
from .enumeration import (
    EnumerationGuardError,
    PartialEnumerationError,
    count_closed,
    enumerate_count,
    enumerate_ideals,
)
from .ideal import CLASSES, SC
from .metric import (
    build_graph,
    eccentricity_csv,
    graph_dot,
    graph_record,
    metric_report,
)
from .poset import ShapeError, as_dims
from .verify import SUITES, junit_xml, overall_status, run_all


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be comma-separated integers, got {text!r}"
        )
    try:
        return as_dims(dims)
    except ShapeError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _meta(args, method: str) -> dict:
    meta = {"tool": "scideals", "version": __version__, "method": method}
    if getattr(args, "dims", None) is not None:
        meta["dims"] = list(args.dims)
    if getattr(args, "cls", None) is not None:
        meta["class"] = args.cls
    return meta


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_count(args, parser) -> int:
    try:
        value = count_closed(args.dims, args.cls)
        method = "closed-form"
    except ShapeError:
        value = enumerate_count(args.dims, args.cls, force=args.force)
        method = "flip-closure"
    if args.format == "text":
        _emit(args, str(value))
    else:
        _emit(args, _dump({"meta": _meta(args, method), "count": value}))
    return 0


def _cmd_enumerate(args, parser) -> int:
    if args.format == "heights" and len(args.dims) != 3:
        parser.error(
            f"the heights format is only defined for three dimensions, "
            f"got {len(args.dims)}"
        )
    if args.cap is not None and args.cap < 0:
        parser.error(f"--cap must be non-negative, got {args.cap}")
    enum = enumerate_ideals(args.dims, args.cls, cap=args.cap,
                            force=args.force)
    fmt = "heights" if args.format == "heights" else "members"
    payload = {
        "meta": _meta(args, enum.method),
        "count": len(enum),
        "vertices": [v.to_record(fmt) for v in enum.vertices],
    }
    _emit(args, _dump(payload))
    return 0


def _cmd_stats(args, parser) -> int:
    enum = enumerate_ideals(args.dims, args.cls, force=args.force)
    report = metric_report(enum)
    if args.format == "text":
        lines = [
            f"class {args.cls} on {'x'.join(map(str, args.dims))}",
            f"vertices  {report.n_vertices}",
            f"diameter  {report.diameter}",
            f"radius    {report.radius}",
            f"center    {len(report.center)} vertices",
            f"perimeter {len(report.perimeter)} vertices",
        ]
        _emit(args, "\n".join(lines))
    else:
        payload = {"meta": _meta(args, enum.method)}
        payload.update(report.to_record())
        _emit(args, _dump(payload))
    return 0


def _cmd_graph(args, parser) -> int:
    enum = enumerate_ideals(args.dims, args.cls, force=args.force)
    if args.format == "csv":
        _emit(args, eccentricity_csv(metric_report(enum)))
        return 0
    graph = build_graph(enum)
    report = metric_report(enum)
    if args.format == "dot":
        _emit(args, graph_dot(graph, report))
    else:
        payload = {"meta": _meta(args, enum.method)}
        payload.update(graph_record(graph, report))
        _emit(args, _dump(payload))
    return 0


def _cmd_extremal(args, parser) -> int:
    axis = args.axis
    if axis is not None:
        if args.dims is None:
            parser.error("--axis needs --dims")
        if not 1 <= axis <= len(args.dims):
            parser.error(f"--axis must be in 1..{len(args.dims)}")
        axis -= 1  # the library indexes axes from zero
    try:
        built = build_named(
            args.name, dims=args.dims, r=args.r, k=args.k, axis=axis
        )
    except ValueError as err:  # a ShapeError or EmptyClassError too
        parser.error(str(err))
    if args.format == "heights":
        for named in built:
            if named.ideal is None:
                parser.error(f"the heights format needs an ideal, and "
                             f"{named.name!r} is a member set")
            if named.ideal.poset.d != 3:
                parser.error(
                    "the heights format is only defined for three dimensions"
                )
    fmt = "heights" if args.format == "heights" else "members"
    payload = {
        "meta": _meta(args, "construction"),
        "ideals": [n.to_record(fmt) for n in built],
    }
    _emit(args, _dump(payload))
    return 0


def _cmd_verify(args, parser) -> int:
    names = None if args.suite is None or "all" in args.suite else args.suite
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr, flush=True)
    )
    reports = run_all(names, progress=progress)
    status = overall_status(reports)
    payload = {
        "meta": _meta(args, "verification"),
        "status": status,
        "suites": [r.to_record() for r in reports],
    }
    _emit(args, _dump(payload))
    if args.junit:
        with open(args.junit, "w") as fh:
            fh.write(junit_xml(reports))
    return 0 if status in ("pass", "conjecture-violated") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scideals",
        description="self-complementary ideals of chain products: "
                    "enumeration, flip-graph metrics, verification",
    )
    parser.add_argument("--version", action="version",
                        version=f"scideals {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dims", type=_parse_dims, required=True,
                       help="chain lengths, e.g. 2,3,4")
        p.add_argument("--class", dest="cls", choices=CLASSES, default=SC,
                       help="ideal class (default sc)")
        p.add_argument("--force", action="store_true",
                       help="override the size guards")
        p.add_argument("--output", metavar="PATH",
                       help="write to a file instead of stdout")

    p = sub.add_parser("count", help="vertex count of a class")
    add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list every vertex")
    add_common(p)
    p.add_argument("--format", choices=("json", "heights"), default="json")
    p.add_argument("--cap", type=int, default=None,
                   help="abort if the closure exceeds this many vertices")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stats", help="diameter, radius, center, perimeter")
    add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("graph", help="export the flip graph")
    add_common(p)
    p.add_argument("--format", choices=("dot", "json", "csv"),
                   default="dot")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("extremal", help="named construction ideals")
    p.add_argument("--name", required=True, choices=CONSTRUCTION_NAMES)
    p.add_argument("--dims", type=_parse_dims, default=None)
    p.add_argument("--r", type=int, default=None,
                   help="half the cube side for the cube constructions")
    p.add_argument("--k", type=int, default=None,
                   help="shell index, 1 <= k <= 2r-1")
    p.add_argument("--axis", type=int, default=None,
                   help="halfspace axis (1-based)")
    p.add_argument("--format", choices=("json", "heights"), default="json")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="run the theorem-checking suites")
    p.add_argument("--suite", action="append", choices=(*SUITES, "all"),
                   default=None,
                   help="suite name, repeatable (default: all)")
    p.add_argument("--junit", metavar="PATH",
                   help="also write standard test-results XML")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-suite progress on stderr")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (EnumerationGuardError, PartialEnumerationError, ValueError) as err:
        print(f"scideals: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(argv=sys.argv[1:]))
