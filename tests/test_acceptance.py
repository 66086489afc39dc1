"""Acceptance gate: one numbered criterion per test family.

Each criterion asserts exact values (no tolerances: everything here is
integer or rational arithmetic) and enforces its own wall-clock budget.
Criteria 3, 4a and 5 read one shared run of their four suites, whose
seconds count in full against each of their budgets.  Each suite a
criterion runs must pass, and its record must match its pin (the
``pinned`` fixture in conftest).  The terminal summary hook in conftest
prints one verdict line per criterion number.

Criterion 7 carries a deliberately failing strict-xfail twin: the
externally specified center-size sequence for the fully symmetric
class is provably wrong at r = 2 (the flip graph is a single edge, so
both vertices are central), and the honest sequence is asserted green
alongside it.
"""

import math
import time
from fractions import Fraction

import pytest

from scideals.chvatal import ALL_SMALL, NEAR_HALF, audit_blocks, verify_conjecture
from scideals.constructions import (
    cssc_diameter_value,
    cssc_radius_value,
    sc_diameter_value,
    tssc_diameter_value,
    tssc_extremes,
)
from scideals.enumeration import (
    ORACLE_VOLUME_GUARD,
    EmptyClassError,
    count_closed,
    enumerate_count,
    enumerate_ideals,
    oracle_enumerate,
)
from scideals.ideal import CSSC, SC, TSSC, from_heights
from scideals.metric import build_graph, distance, metric_report
from scideals.poset import ShapeError
from scideals.verify import run_all, run_suite, sc_sweep

from reference_data import TSSC_CENTER_R5_HEIGHTS

pytestmark = pytest.mark.acceptance


# ----------------------------------------------------------------------
# 1. counting: every closed form equals brute-force enumeration


def test_criterion_1_counting_closed_forms_match_enumeration(pinned):
    t0 = time.monotonic()
    # the suite enumerates the sweep, cssc r <= 4 and tssc r <= 6 by flip
    # closure against the closed forms, and the scan oracle on small shapes
    report = run_suite("counts")
    assert report.status == "pass", report.hard_failures
    assert report.counts["fail"] == 0
    pinned(report)
    wants = [count_closed(dims, SC) for dims in sc_sweep()]
    assert len(wants) >= 1000
    assert min(wants) > 0  # the sweep is even-volume by construction
    assert sum(wants) > 6_000_000  # the gate really enumerated at scale
    for dims in ((3,), (3, 5), (3, 3, 3), (1, 5, 7)):
        assert count_closed(dims, SC) == 0
        with pytest.raises(EmptyClassError):
            enumerate_count(dims, SC)
    with pytest.raises(ShapeError):
        count_closed((2, 2, 2, 2), SC)  # no closed form past d = 3
    for dims, want in (((2, 2, 2, 2), 12), ((2,) * 6, 2646)):
        assert enumerate_count(dims, SC, force=True) == want
    assert count_closed((10, 10, 10), CSSC) == 184041
    assert enumerate_count((10, 10, 10), CSSC, force=True) == 184041
    assert time.monotonic() - t0 < 120


# ----------------------------------------------------------------------
# 2. closed-form distances equal weighted shortest paths, all classes


def test_criterion_2_distances_equal_shortest_paths(pinned):
    t0 = time.monotonic()
    report = run_suite("distance")
    assert report.status == "pass", report.hard_failures
    assert report.counts["fail"] == 0
    pinned(report)
    # the one aggregate check spans hundreds of instances; make sure it
    # really exercised a large pair census this run
    (check,) = report.checks
    assert "instances" in check.name
    assert int(str(check.expected).split()[0]) > 500_000
    assert time.monotonic() - t0 < 30


# ----------------------------------------------------------------------
# 3. the sc diameter formula, against every desk-scale flip graph


@pytest.fixture(scope="module")
def all_pairs_run():
    """One run of the suites over the sc all-pairs reports, shared by
    criteria 3, 4a and 5, and its seconds: they count against each of
    those criteria's budgets in full."""
    t0 = time.monotonic()
    reports = run_all(
        ["sc-diameter", "sc-radius", "sc-radius-lb", "correlation"]
    )
    return {r.name: r for r in reports}, time.monotonic() - t0


def test_criterion_3_sc_diameter_formula_exhaustive(all_pairs_run, pinned):
    reports, shared_s = all_pairs_run
    t0 = time.monotonic()
    assert sc_diameter_value((3, 3, 2)) == 4
    report = reports["sc-diameter"]
    assert report.status == "pass", report.hard_failures
    assert report.counts["fail"] == 0
    pinned(report)
    assert shared_s + time.monotonic() - t0 < 120


# ----------------------------------------------------------------------
# 4. sc radius: exact cases, the rational lower bound, the d <= 3
#    dichotomy, and the conjectured even-d values (labeled, verified)


def test_criterion_4a_sc_radius_exact_cases_and_dichotomy(
    all_pairs_run, pinned
):
    reports, shared_s = all_pairs_run
    t0 = time.monotonic()
    for name in ("sc-radius", "sc-radius-lb"):
        report = reports[name]
        assert report.status == "pass", (name, report.hard_failures)
        pinned(report)
    assert shared_s + time.monotonic() - t0 < 180


def test_criterion_4b_named_radius_values(pinned):
    t0 = time.monotonic()
    for dims, want in (((2, 2, 2), 1), ((2, 2, 4), 2), ((4, 4), 2)):
        assert metric_report(enumerate_ideals(dims, SC)).radius == want
    # conjecture-labeled small even-d radii, still verified exactly here
    report = run_suite("even-d-conjecture")
    assert report.status == "pass", report.hard_failures
    pinned(report)
    assert all(
        c.conjectural for c in report.checks if c.name.startswith("radius")
    )
    for dims, want in (((2, 2, 2, 2), 3), ((2,) * 6, 11)):
        enum = enumerate_ideals(dims, SC, force=True)
        assert metric_report(enum).radius == want
    assert time.monotonic() - t0 < 180


# ----------------------------------------------------------------------
# 5. correlation: intersections are at least product-size, and sc
#    pairs overlap in at least a quarter of the poset (plus slack)


def test_criterion_5_correlation_bounds(all_pairs_run, pinned):
    reports, shared_s = all_pairs_run
    t0 = time.monotonic()
    report = reports["correlation"]
    assert report.status == "pass", report.hard_failures
    assert report.counts["fail"] == 0
    pinned(report)
    assert shared_s + time.monotonic() - t0 < 60


# ----------------------------------------------------------------------
# 6. the cyclically symmetric battery: metric values, center witness,
#    mandatory membership, furthest census, shells, 2-d staircase bound


def test_criterion_6_cssc_battery(pinned):
    t0 = time.monotonic()
    assert [cssc_diameter_value(r) for r in (1, 2, 3, 4)] == [0, 2, 8, 20]
    assert [cssc_radius_value(r) for r in (1, 2, 3, 4)] == [0, 1, 4, 10]
    report = run_suite("cssc")
    assert report.status == "pass", report.hard_failures
    assert report.counts["fail"] == 0
    pinned(report)
    assert time.monotonic() - t0 < 120


# ----------------------------------------------------------------------
# 7. the fully symmetric battery


def _tssc_center_sizes(rs):
    out = []
    for r in rs:
        rep = metric_report(enumerate_ideals((2 * r,) * 3, TSSC))
        out.append(len(rep.center))
    return out


@pytest.mark.xfail(
    strict=True,
    reason="the specified sequence is wrong at r = 2: the flip graph "
    "there is a single edge, so both vertices are central",
)
def test_criterion_7a_tssc_center_sizes_as_specified():
    assert _tssc_center_sizes((1, 2, 3, 4, 5)) == [1, 1, 1, 1, 8]


def test_criterion_7b_tssc_center_sizes_honest():
    assert _tssc_center_sizes((1, 2, 3, 4, 5)) == [1, 2, 1, 1, 8]


def test_criterion_7c_tssc_metrics_and_r5_center(pinned):
    t0 = time.monotonic()
    report = run_suite("tssc")
    assert report.status == "pass", report.hard_failures
    assert report.counts["fail"] == 0
    pinned(report)
    for r, diam in ((1, 0), (2, 1), (3, 5), (4, 14), (5, 30)):
        assert tssc_diameter_value(r) == diam
        enum = enumerate_ideals((2 * r,) * 3, TSSC)
        report = metric_report(enum)
        assert report.diameter == diam
        assert report.radius == -(-diam // 2)  # ceil(diam / 2)
        lo, hi = tssc_extremes(r)
        assert distance(lo, hi, TSSC) == diam
        if r == 5:
            want = {
                from_heights((10, 10, 10), h).mask
                for h in TSSC_CENTER_R5_HEIGHTS
            }
            got = {enum.masks[i] for i in report.center}
            assert got == want  # bit-exact against the drawn octet
    assert time.monotonic() - t0 < 300


def test_criterion_7d_tssc_r6_metrics():
    t0 = time.monotonic()
    enum = enumerate_ideals((12, 12, 12), TSSC)
    assert len(enum) == 7436
    report = metric_report(enum)
    assert report.diameter == tssc_diameter_value(6) == 55
    assert report.radius == 28
    assert time.monotonic() - t0 < 300


# ----------------------------------------------------------------------
# 8. the intersecting-subfamily instances, solved exactly


def test_criterion_8_intersecting_family_bounds(pinned):
    t0 = time.monotonic()
    for which, bounds in ((NEAR_HALF, (1, 3, 10)), (ALL_SMALL, (1, 3, 11))):
        for d, bound in zip((2, 4, 6), bounds):
            rep = verify_conjecture(which, d)
            assert rep["pass"], rep
            assert rep["max_intersecting"] == bound
            assert len(rep["witness"]) == bound
    audit = audit_blocks()
    assert audit["ok"] and audit["bound_implied"] == 10
    report = run_suite("chvatal")
    assert report.status == "pass", report.hard_failures
    pinned(report)
    assert time.monotonic() - t0 < 10


# ----------------------------------------------------------------------
# 9. structural invariants, exhaustively at guard scale


def test_criterion_9_invariants_exhaustive_at_guard_scale():
    t0 = time.monotonic()
    failures = []

    # every enumerated vertex validates its class; every edge weight is
    # the closed-form distance of its endpoints
    instances = [(dims, SC) for dims in sc_sweep(60)]
    instances += [((2 * r,) * 3, cls)
                  for r in (1, 2, 3) for cls in (CSSC, TSSC)]
    for dims, cls in instances:
        if count_closed(dims, cls) > 500:
            continue
        enum = enumerate_ideals(dims, cls, force=True)
        for v in enum.vertices:
            if not v.validate(cls):
                failures.append(("validate", dims, cls))
        graph = build_graph(enum)
        for u, v, w in graph.edges:
            if distance(enum.vertices[u], enum.vertices[v], cls) != w:
                failures.append(("edge-weight", dims, cls, u, v))

    # flip closure agrees with the mask-scan oracle wherever the
    # oracle's own volume guard allows it to run
    for dims, cls in instances:
        if math.prod(dims) > ORACLE_VOLUME_GUARD:
            continue
        if oracle_enumerate(dims, cls).masks != \
                enumerate_ideals(dims, cls, force=True).masks:
            failures.append(("oracle", dims, cls))

    # densities: every sc ideal is exactly half the poset
    for dims in sc_sweep(40):
        enum = enumerate_ideals(dims, SC, force=True)
        for v in enum.vertices:
            if v.density != Fraction(1, 2):
                failures.append(("density", dims))

    assert not failures, failures[:10]
    assert time.monotonic() - t0 < 60
