"""Claim-by-claim verification suites over the desk-scale instances.

Each suite turns one family of provable statements into exhaustive
machine checks at sizes where full enumeration is feasible:

* ``distance``          graph geodesics equal the set-difference formula;
* ``counts``            flip enumeration matches closed forms and the
                        brute-force ideal scan;
* ``ideal-bound``       total ideal counts respect 4^(n^(d-1));
* ``correlation``       intersection densities dominate products, with
                        the sc sharpenings;
* ``sc-diameter``       all-pairs maxima match the piecewise formula;
* ``sc-radius``         radii match the proven values and the d <= 3
                        half-diameter law (with its mod-4 exception);
* ``sc-radius-lb``      radii respect the all-even lower bound;
* ``even-d-conjecture`` the conjectured ceilings for even d, including
                        the hypercube family centers;
* ``cssc``              the cube battery: metrics, center, mandatory
                        points, furthest census, shells, 2-D staircase;
* ``tssc``              the fully symmetric battery and weight audit;
* ``chvatal``           the intersecting-family instances.

Checks record expected vs observed values.  Failures of checks labeled
conjectural are reported as conjecture violations - scientifically
interesting, not a build break - and the top-level status keeps the
three cases (pass / conjecture-violated / fail) apart.  Every instance
is enumerated in full, and no check is skipped.  The suites of one run
share enumerations and metric reports through a store made for that run
alone.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from xml.etree import ElementTree

from . import chvatal
from .constructions import (
    compose_shell,
    core_shell,
    cssc_diameter_value,
    cssc_must_include_points,
    cssc_radius_value,
    cssc_witness_pair,
    hypercube_center,
    majority_ideal,
    mod4_center,
    octant_ideal_cssc,
    partitioned_center,
    pyramid_ideal,
    sc_diameter_pair,
    sc_diameter_value,
    sc_radius_bound,
    shell_ideal,
    staircase_2d,
    staircase_c2r,
    tssc_diameter_value,
    tssc_extremes,
    tssc_mandatory,
)
from .enumeration import (
    EnumerationResult,
    count_closed,
    enumerate_count,
    enumerate_ideals,
    oracle_enumerate,
    oracle_ideal_masks,
)
from .ideal import CSSC, SC, TSSC, validate_mask
from .metric import (
    MetricReport,
    build_graph,
    distance,
    distances_from,
    metric_report,
    single_source_lengths,
)
from .poset import ShapeError, ranks

SWEEP_MAX_VOLUME = 216
ALL_PAIRS_LIMIT = 3000
DISTANCE_ORACLE_LIMIT = 100

#: shapes beyond the closed-form reach that stay enumerable
_EXTRA_SC_DIMS = (
    (2, 2, 2, 2),
    (2, 2, 2, 4),
    (2, 2, 2, 2, 2),
    (2, 2, 2, 2, 2, 2),
)


@dataclass(frozen=True)
class CheckResult:
    """One verified statement instance."""

    name: str
    status: str  # "pass" | "fail"
    expected: object = None
    observed: object = None
    conjectural: bool = False
    note: str = ""

    def to_record(self) -> dict:
        rec = {"name": self.name, "status": self.status}
        if self.expected is not None or self.observed is not None:
            rec["expected"] = _jsonable(self.expected)
            rec["observed"] = _jsonable(self.observed)
        if self.conjectural:
            rec["conjectural"] = True
        if self.note:
            rec["note"] = self.note
        return rec


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class SuiteReport:
    """All checks of one suite, with wall-clock runtime."""

    name: str
    checks: list[CheckResult] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def hard_failures(self) -> list[CheckResult]:
        return [
            c for c in self.checks if c.status == "fail" and not c.conjectural
        ]

    @property
    def conjecture_violations(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail" and c.conjectural]

    @property
    def status(self) -> str:
        if self.hard_failures:
            return "fail"
        if self.conjecture_violations:
            return "conjecture-violated"
        return "pass"

    def to_record(self) -> dict:
        return {
            "suite": self.name,
            "status": self.status,
            "seconds": round(self.seconds, 3),
            "counts": self.counts,
            "checks": [c.to_record() for c in self.checks],
        }

    def check(self, name, ok, expected=None, observed=None,
              conjectural=False, note=""):
        self.checks.append(CheckResult(
            name, "pass" if ok else "fail", expected, observed,
            conjectural, note,
        ))

    def equal(self, name, observed, expected, conjectural=False, note=""):
        self.check(name, observed == expected, expected, observed,
                   conjectural, note)


# ----------------------------------------------------------------------
# instance data


def sc_sweep(max_volume: int = SWEEP_MAX_VOLUME) -> tuple[tuple[int, ...], ...]:
    """All canonical (non-decreasing) dims with d <= 3 and even volume."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], volume: int) -> None:
        if prefix and volume % 2 == 0:
            out.append(prefix)
        if len(prefix) == 3:
            return
        low = prefix[-1] if prefix else 1
        for l in range(low, max_volume + 1):
            if volume * l > max_volume:
                break
            extend(prefix + (l,), volume * l)

    extend((), 1)
    return tuple(out)


def _sc_shapes(limit: int) -> list[tuple[int, ...]]:
    """The sweep and extra sc shapes with 1 to ``limit`` vertices."""
    shapes = []
    for dims in sc_sweep() + _EXTRA_SC_DIMS:
        try:
            n = count_closed(dims, SC)
        except ShapeError:
            n = enumerate_count(dims, SC, force=True)
        if 0 < n <= limit:
            shapes.append(dims)
    return shapes


class _Run:
    """The instance data of one run, built on first use and shared by
    its suites.  Enumerations are forced: the suites choose sizes."""

    def __init__(self):
        self._enums: dict[tuple, EnumerationResult] = {}
        self._reports: dict[tuple, MetricReport] = {}
        self._all_pairs: list[tuple[int, ...]] | None = None

    def enum(self, dims: tuple[int, ...], cls: str) -> EnumerationResult:
        key = (dims, cls)
        if key not in self._enums:
            self._enums[key] = enumerate_ideals(dims, cls, force=True)
        return self._enums[key]

    def report(self, dims: tuple[int, ...], cls: str) -> MetricReport:
        key = (dims, cls)
        if key not in self._reports:
            self._reports[key] = metric_report(self.enum(dims, cls))
        return self._reports[key]

    def all_pairs(self) -> list[tuple[int, ...]]:
        """The sc shapes small enough for exact all-pairs sweeps."""
        if self._all_pairs is None:
            self._all_pairs = _sc_shapes(ALL_PAIRS_LIMIT)
        return self._all_pairs

    def suite(self, name: str) -> SuiteReport:
        """Run one named suite on this run's data and time it."""
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
        report = SuiteReport(name)
        start = time.monotonic()
        SUITES[name](report, self)
        report.seconds = time.monotonic() - start
        return report


# ----------------------------------------------------------------------
# suites


def _suite_distance(s: SuiteReport, run: _Run) -> None:
    """Weighted geodesics equal the closed-form distance, all pairs."""
    instances = [(dims, SC) for dims in _sc_shapes(DISTANCE_ORACLE_LIMIT)]
    instances += [((2 * r,) * 3, CSSC) for r in (1, 2, 3)]
    instances += [((2 * r,) * 3, TSSC) for r in (1, 2, 3, 4)]
    bad = 0
    pairs = 0
    for dims, cls in instances:
        enum = run.enum(dims, cls)
        graph = build_graph(enum)
        for u in range(len(enum)):
            lengths = single_source_lengths(graph, u)
            want = distances_from(enum, enum.vertices[u])
            pairs += len(want)
            bad += sum(g != w for g, w in zip(lengths, want))
    s.check(
        f"geodesic = set-difference formula over {len(instances)} "
        f"instances (every class, <= {DISTANCE_ORACLE_LIMIT} vertices)",
        bad == 0,
        expected=f"{pairs} matching pairs",
        observed=f"{pairs - bad} matching, {bad} mismatched",
    )


def _suite_counts(s: SuiteReport, run: _Run) -> None:
    """Closed forms vs flip enumeration vs the brute-force scan."""
    for dims in sc_sweep():
        want = count_closed(dims, SC)
        if want == 0:
            continue  # the all-odd shapes are checked below
        got = enumerate_count(dims, SC, force=True)
        if got != want:
            s.equal(f"sc count {dims}", got, want)
    s.check(
        "sc counts: flip closure = closed form over the full d <= 3 sweep",
        all(c.status == "pass" for c in s.checks),
        expected="all equal",
        observed="all equal" if not s.checks else "mismatches above",
        note=f"volume <= {SWEEP_MAX_VOLUME}",
    )
    for dims in ((3, 3), (3, 5, 7), (5,)):
        s.equal(f"sc count {dims} (odd volume)", count_closed(dims, SC), 0)
    for cls, table in (
        (CSSC, ((1, 1), (2, 4), (3, 49), (4, 1764))),
        (TSSC, ((1, 1), (2, 2), (3, 7), (4, 42), (5, 429), (6, 7436))),
    ):
        for r, want in table:
            dims = (2 * r,) * 3
            s.equal(
                f"{cls} count r={r} (flip closure, closed form)",
                (enumerate_count(dims, cls), count_closed(dims, cls)),
                (want, want),
            )
    # brute-force cross-checks: the scan sees every ideal, so class
    # filters of it are an enumeration oracle independent of flips
    s.equal("ideals of [3]^2", len(oracle_ideal_masks((3, 3))), 20)
    s.equal("ideals of [2]^3", len(oracle_ideal_masks((2, 2, 2))), 20)
    s.equal(
        "sc filter of the scan = flip closure on (2,3)",
        oracle_enumerate((2, 3), SC).masks,
        run.enum((2, 3), SC).masks,
    )
    s.equal(
        "sc filter of the scan on (4,4)",
        oracle_enumerate((4, 4), SC).masks,
        run.enum((4, 4), SC).masks,
    )
    # the classes nest, so the tssc filter reads the cssc-filtered scan
    scan444 = oracle_enumerate((4, 4, 4), CSSC, force=True)
    s.equal(
        "cssc filter of the scan = flip closure on r=2",
        scan444.masks,
        run.enum((4, 4, 4), CSSC).masks,
    )
    s.equal(
        "tssc filter of the scan on r=2",
        tuple(m for m in scan444.masks
              if validate_mask(scan444.poset, m, TSSC)),
        run.enum((4, 4, 4), TSSC).masks,
    )


def _suite_ideal_bound(s: SuiteReport, run: _Run) -> None:
    """Total ideal counts of [n]^d stay under 4^(n^(d-1)), d >= 2."""
    for n, d in ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)):
        total = len(oracle_ideal_masks((n,) * d))
        bound = 4 ** (n ** (d - 1))
        s.check(
            f"[{n}]^{d}: {total} ideals <= 4^({n}^{d - 1})",
            total <= bound,
            expected=f"<= {bound}",
            observed=total,
        )


def _suite_correlation(s: SuiteReport, run: _Run) -> None:
    """Intersection density dominates the product, plus sc sharpenings."""
    for dims in ((3, 3), (2, 2, 2)):
        vol = math.prod(dims)
        masks = oracle_ideal_masks(dims)
        bad = sum(
            1
            for a, b in itertools.combinations_with_replacement(masks, 2)
            if (a & b).bit_count() * vol < a.bit_count() * b.bit_count()
        )
        s.check(
            f"mu(I and J) >= mu(I) mu(J) over all ideal pairs of {dims}",
            bad == 0,
            expected="0 violations",
            observed=f"{bad} violations over {len(masks)} ideals",
        )
    # sc pairs: |I and J| = V/2 - |I \ J|, so the intersection bound is
    # one and the same statement as the diameter bound; check it in its
    # own terms over the all-pairs instances
    for dims in run.all_pairs():
        vol = math.prod(dims)
        evens = [l for l in dims if l % 2 == 0]
        slack = evens[0] if len(evens) == 1 else 0
        rep = run.report(dims, SC)
        worst = vol // 2 - rep.diameter
        s.check(
            f"sc pairs of {dims}: |I and J| >= (V + {slack})/4",
            worst * 4 >= vol + slack,
            expected=f">= {(vol + slack + 3) // 4}",
            observed=worst,
        )


def _suite_sc_diameter(s: SuiteReport, run: _Run) -> None:
    """All-pairs maxima match the piecewise diameter formula."""
    shapes = run.all_pairs()
    bad = []
    for dims in shapes:
        rep = run.report(dims, SC)
        if rep.diameter != sc_diameter_value(dims):
            bad.append((dims, rep.diameter, sc_diameter_value(dims)))
    s.check(
        f"diameter formula over {len(shapes)} shapes "
        f"(<= {ALL_PAIRS_LIMIT} vertices)",
        not bad,
        expected="all equal",
        observed=bad or "all equal",
    )
    for dims in ((2, 3, 4), (2, 3, 3), (4, 4), (2, 2)):
        a, b = sc_diameter_pair(dims)
        s.equal(
            f"construction pair realizes the diameter on {dims}",
            distance(a, b, SC),
            sc_diameter_value(dims),
        )
    for dims in ((3, 3, 3), (5, 7, 9)):
        s.equal(
            f"all-odd {dims}: empty class, diameter formula 0",
            (count_closed(dims, SC), sc_diameter_value(dims)),
            (0, 0),
        )


def _is_two_three_three(dims: tuple[int, ...]) -> bool:
    return sorted(l % 4 for l in dims) == [2, 3, 3]


def _suite_sc_radius(s: SuiteReport, run: _Run) -> None:
    """Proven radius values, and the d <= 3 half-diameter law."""
    exact_cases = (
        ((2, 2, 2), majority_ideal),
        ((2, 6, 10), majority_ideal),
        ((2, 4), mod4_center),
        ((4, 4), mod4_center),
        ((2, 2, 4), mod4_center),
        ((2, 4, 6), mod4_center),
    )
    for dims, build in exact_cases:
        rep = run.report(dims, SC)
        s.equal(f"radius of {dims} equals the exact bound",
                rep.radius, sc_radius_bound(dims))
        witness = build(dims)
        idx = run.enum(dims, SC).index[witness.mask]
        s.equal(
            f"{build.__name__} on {dims} is central",
            (rep.eccentricities[idx], idx in rep.center),
            (rep.radius, True),
        )
    for dims in ((2, 2, 2), (2, 6, 10), (4, 4), (2, 2, 4), (3, 5, 8),
                 (2, 3, 4), (2, 2), (2, 6)):
        named = partitioned_center(dims)
        rep = run.report(dims, SC)
        idx = run.enum(dims, SC).index[named.ideal.mask]
        s.equal(
            f"partitioned center of {dims} is central",
            (rep.eccentricities[idx], idx in rep.center),
            (rep.radius, True),
            conjectural=named.conjectural,
            note=named.note,
        )
    # the d <= 3 law: radius = ceil(diam/2), except that shapes whose
    # dimensions are 2,3,3 mod 4 may sit one higher
    plain_bad, exceptional = [], []
    shapes = [d for d in run.all_pairs() if len(d) <= 3]
    for dims in shapes:
        rep = run.report(dims, SC)
        half = -(-rep.diameter // 2)
        if _is_two_three_three(dims):
            if rep.radius not in (half, half + 1):
                plain_bad.append((dims, rep.radius, half))
            elif rep.radius == half + 1:
                exceptional.append(dims)
        elif rep.radius != half:
            plain_bad.append((dims, rep.radius, half))
    s.check(
        f"radius = ceil(diameter/2) over {len(shapes)} shapes of d <= 3 "
        "(2,3,3-mod-4 shapes allowed +1)",
        not plain_bad,
        expected="all within the law",
        observed=plain_bad or "all within the law",
        note="mod-4 exceptional shapes actually excessive: "
             + (str(exceptional) if exceptional else "none"),
    )


def _suite_sc_radius_lb(s: SuiteReport, run: _Run) -> None:
    """All-even radii respect the binomial lower bound."""
    shapes = [
        dims for dims in run.all_pairs()
        if all(l % 2 == 0 for l in dims)
    ]
    bad = []
    for dims in shapes:
        rep = run.report(dims, SC)
        if Fraction(rep.radius) < sc_radius_bound(dims):
            bad.append((dims, rep.radius, sc_radius_bound(dims)))
    s.check(
        f"radius >= (1/4 - C(d-1,..)/2^(d+1)) V over {len(shapes)} "
        "all-even shapes",
        not bad,
        expected="no shape below the bound",
        observed=bad or "no shape below the bound",
    )
    exact = [
        dims for dims in shapes
        if len(dims) % 2 == 1 or any(l % 4 == 0 for l in dims)
    ]
    off = []
    for dims in exact:
        rep = run.report(dims, SC)
        if Fraction(rep.radius) != sc_radius_bound(dims):
            off.append((dims, rep.radius, sc_radius_bound(dims)))
    s.check(
        f"bound exact on the {len(exact)} shapes with d odd or a "
        "dimension divisible by 4",
        not off,
        expected="radius equals the bound",
        observed=off or "radius equals the bound",
    )


def _conjectured_even_radius(dims: tuple[int, ...]) -> int:
    # by Lucas's theorem C(d - 1, (d - 1) // 2) is odd just when d is a
    # power of two, and then the bound is a half-integer on these shapes
    # (every side 2 mod 4): adding 1/2 there would not move the ceiling
    return math.ceil(sc_radius_bound(dims))


def _suite_even_d(s: SuiteReport, run: _Run) -> None:
    """Conjectured radii for even d with no dimension divisible by 4."""
    for dims, want in (
        ((2, 2), 1),
        ((2, 6), 2),
        ((6, 6), 5),
        ((2, 2, 2, 2), 3),
        ((2, 2, 2, 2, 2, 2), 11),
    ):
        s.equal(
            f"conjectured ceiling formula on {dims}",
            _conjectured_even_radius(dims), want,
        )
        rep = run.report(dims, SC)
        s.equal(
            f"radius of {dims} equals the conjectured ceiling {want}",
            rep.radius, want,
            conjectural=True,
        )
    for d, want in ((2, 1), (4, 3), (6, 11)):
        dims = (2,) * d
        center = hypercube_center(d)
        enum = run.enum(dims, SC)
        ecc = max(distances_from(enum, center))
        s.equal(
            f"[2]^{d} family center eccentricity",
            ecc, want,
            note="equals the intersecting-family maximum",
        )
        size, _w = chvatal.max_intersecting(
            chvatal.instance_family(chvatal.ALL_SMALL, d)
        )
        s.equal(
            f"[2]^{d} conjectured radius = family intersecting maximum",
            _conjectured_even_radius(dims), size,
        )


def _suite_cssc(s: SuiteReport, run: _Run) -> None:
    """The cyclically symmetric cube battery, r <= 4."""
    furthest: dict[int, list[int]] = {}
    for r in (1, 2, 3, 4):
        dims = (2 * r,) * 3
        enum = run.enum(dims, CSSC)
        rep = run.report(dims, CSSC)
        s.equal(f"r={r}: diameter", rep.diameter, cssc_diameter_value(r))
        s.equal(f"r={r}: radius", rep.radius, cssc_radius_value(r))
        center = staircase_c2r(r)
        c_idx = enum.index[center.mask]
        s.equal(
            f"r={r}: staircase eccentricity equals the radius",
            rep.eccentricities[c_idx], rep.radius,
        )
        s.equal(
            f"r={r}: center is exactly the staircase",
            rep.center, (c_idx,),
            conjectural=True,
            note="center membership proven; uniqueness only observed",
        )
        must = enum.poset.mask_of(cssc_must_include_points(r))
        witness = enum.poset.mask_of(cssc_witness_pair(r))
        bad = [m for m in enum.masks if m & must != must or not m & witness]
        s.check(
            f"r={r}: mandatory diagonal points and witness pair "
            f"in all {len(enum)} vertices",
            not bad,
            expected="none missing",
            observed=f"{len(bad)} vertices missing points" if bad else
                     "none missing",
        )
        furthest[r] = [
            i for i, d in enumerate(distances_from(enum, center))
            if d == cssc_radius_value(r)
        ]
        s.equal(
            f"r={r}: vertices furthest from the staircase",
            len(furthest[r]), 3 ** (r - 1),
        )
        s.check(
            f"r={r}: perimeter within the furthest set",
            set(rep.perimeter) <= set(furthest[r]),
            expected="subset",
            observed=f"perimeter {len(rep.perimeter)} of "
                     f"{len(furthest[r])} furthest",
            note="strictly smaller from r=4 on" if r >= 4 else "",
        )
    for r in (2, 3, 4, 5):
        s.equal(
            f"r={r}: octant vs pyramid distance realizes the diameter",
            distance(octant_ideal_cssc(r), pyramid_ideal(r), CSSC),
            cssc_diameter_value(r),
        )
    # shells: every furthest vertex is a furthest core wearing a shell,
    # and the shells that extend a core are the two boundary ones plus
    # the successor of the core's own.  The walk starts from the empty
    # core of [1]^3 wearing shell 0, so the lone r=1 vertex is S_(1,2);
    # each level maps its furthest masks to their shells for the next
    cores = {0: 0}
    for r in (1, 2, 3):
        enum = run.enum((2 * r,) * 3, CSSC)
        shells = {
            frozenset(shell_ideal(k, r).members): k for k in range(1, 2 * r)
        }
        predicted = {
            (mask, k)
            for mask, k_core in cores.items()
            for k in (1, 2 * r - 1, k_core + 1)
        }
        observed: set[tuple[int, int]] = set()
        level: dict[int, int] = {}
        for i in furthest[r]:
            core, shell = core_shell(enum.vertices[i])
            k = shells.get(shell)
            if k is not None and core.mask in cores and \
                    compose_shell(core, shell).mask == enum.masks[i]:
                observed.add((core.mask, k))
                level[enum.masks[i]] = k
        decompose_ok = len(level) == len(furthest[r])
        cores = level
        if r == 1:
            continue
        s.check(
            f"r={r}: furthest = furthest core + shell, composing back",
            decompose_ok,
            expected="all decompose and recompose",
            observed="ok" if decompose_ok else "decomposition failed",
        )
        s.equal(
            f"r={r}: the (core, shell) tree rule",
            observed, predicted,
        )
    # the 2-D staircase bound behind the shell analysis
    for r in range(2, 6):
        for k in range(0, r - 1):
            rect = (r - k - 1, r + k)
            c = staircase_2d(r, k)
            limit = (r + k) * (r - k - 1) // 2
            full = (1 << math.prod(rect)) - 1
            bad = 0
            eq = []
            for m in oracle_ideal_masks(rect):
                sym = (c.mask ^ m).bit_count()
                if sym > limit:
                    bad += 1
                elif sym == limit:
                    eq.append(m)
            s.check(
                f"2-D staircase bound on {rect} (r={r}, k={k})",
                bad == 0 and sorted(eq) == sorted((0, full)),
                expected=f"<= {limit}, equality only at empty/full",
                observed=f"{bad} over, {len(eq)} equality cases",
            )


def _suite_tssc(s: SuiteReport, run: _Run) -> None:
    """The fully symmetric cube battery, r <= 6."""
    diameters = {1: 0, 2: 1, 3: 5, 4: 14, 5: 30, 6: 55}
    radii = {1: 0, 2: 1, 3: 3, 4: 7, 5: 15, 6: 28}
    center_sizes = {1: 1, 2: 2, 3: 1, 4: 1, 5: 8}
    for r in (1, 2, 3, 4, 5, 6):
        dims = (2 * r,) * 3
        rep = run.report(dims, TSSC)
        s.equal(
            f"r={r}: diameter (all pairs, closed form)",
            (rep.diameter, tssc_diameter_value(r)),
            (diameters[r], diameters[r]),
        )
        s.equal(
            f"r={r}: radius = ceil(diameter/2)",
            rep.radius, radii[r],
            conjectural=True,
        )
        if r in center_sizes:
            s.equal(
                f"r={r}: center size",
                len(rep.center), center_sizes[r],
                note="two vertices at distance 1 are both central"
                     if r == 2 else "",
            )
        least, greatest = tssc_extremes(r)
        s.equal(
            f"r={r}: extreme pair distance realizes the diameter",
            distance(least, greatest, TSSC),
            rep.diameter,
        )
        enum = run.enum(dims, TSSC)
        mand = tssc_mandatory(r).mask
        bad = sum(1 for m in enum.masks if mand & ~m)
        s.check(
            f"r={r}: mandatory region inside all {len(enum)} vertices",
            bad == 0,
            expected="0 vertices missing it",
            observed=bad,
        )
        if r <= 4:
            graph = build_graph(enum)
            audit_ok = True
            for u, v, w in graph.edges:
                moved = enum.masks[u] & ~enum.masks[v]
                if moved.bit_count() != 3 * w:
                    audit_ok = False
                coords = [enum.poset.unrank(i) for i in ranks(moved)]
                distinct = all(len(set(a)) == 3 for a in coords)
                repeated = all(len(set(a)) < 3 for a in coords)
                if w == 2 and not distinct:
                    audit_ok = False
                if w == 1 and not repeated:
                    audit_ok = False
            s.check(
                f"r={r}: weight audit (1 = repeated-coordinate orbit, "
                "2 = all-distinct orbit)",
                audit_ok,
                expected="every edge consistent",
                observed="ok" if audit_ok else "inconsistent edge found",
            )


def _suite_chvatal(s: SuiteReport, run: _Run) -> None:
    """The intersecting-family instances and the five-block hand proof."""
    for d in (2, 4, 6):
        s.check(
            f"H({d}) is a balanced half-size family",
            chvatal.is_uniform(chvatal.verified_family(d), d),
            expected=True,
            observed=True,
        )
    for which in chvatal.INSTANCES:
        for d in (2, 4, 6):
            rep = chvatal.verify_conjecture(which, d)
            s.check(
                f"{which} at d={d}: maximum {rep['max_intersecting']} "
                f"= bound {rep['bound']}",
                rep["pass"],
                expected=rep["bound"],
                observed=rep["max_intersecting"],
                note=f"witness of size {len(rep['witness'])}",
            )
    audit = chvatal.audit_blocks()
    s.check(
        "five-block partition: blocks cover the near-half family, "
        "each admitting at most two intersecting members",
        audit["ok"],
        expected="partition with block maxima (2,2,2,2,2)",
        observed=f"partition={audit['partition']}, "
                 f"maxima={audit['block_maxima']}",
    )


SUITES = {
    "distance": _suite_distance,
    "counts": _suite_counts,
    "ideal-bound": _suite_ideal_bound,
    "correlation": _suite_correlation,
    "sc-diameter": _suite_sc_diameter,
    "sc-radius": _suite_sc_radius,
    "sc-radius-lb": _suite_sc_radius_lb,
    "even-d-conjecture": _suite_even_d,
    "cssc": _suite_cssc,
    "tssc": _suite_tssc,
    "chvatal": _suite_chvatal,
}


def run_suite(name: str) -> SuiteReport:
    """Run one named suite on instance data of its own and time it."""
    return _Run().suite(name)


def run_all(names=None, progress=None) -> list[SuiteReport]:
    """Run the named suites (all by default) in declaration order,
    sharing one run's instance data."""
    if names is None:
        names = list(SUITES)
    run = _Run()
    reports = []
    for name in names:
        report = run.suite(name)
        reports.append(report)
        if progress is not None:
            counts = report.counts
            progress(
                f"suite {name}: {report.status} "
                f"({counts['pass']} pass, {counts['fail']} fail; "
                f"{report.seconds:.1f}s)"
            )
    return reports


def overall_status(reports) -> str:
    """pass / conjecture-violated / fail across suites: the status of
    one report holding every check."""
    return SuiteReport("all", [c for r in reports for c in r.checks]).status


def junit_xml(reports) -> str:
    """Standard test-results XML for CI consumption."""
    root = ElementTree.Element("testsuites")
    for rep in reports:
        suite = ElementTree.SubElement(
            root,
            "testsuite",
            name=rep.name,
            tests=str(len(rep.checks)),
            failures=str(rep.counts["fail"]),
            time=f"{rep.seconds:.3f}",
        )
        for c in rep.checks:
            case = ElementTree.SubElement(
                suite, "testcase", classname=rep.name, name=c.name
            )
            if c.status == "fail":
                kind = (
                    "conjecture violated" if c.conjectural else "mismatch"
                )
                ElementTree.SubElement(
                    case,
                    "failure",
                    message=f"{kind}: expected {c.expected!r}, "
                            f"observed {c.observed!r}",
                )
    return ElementTree.tostring(root, encoding="unicode")
