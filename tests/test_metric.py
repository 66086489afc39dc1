"""Flip kernels, graphs, and metric reports against hand-built graphs."""

import json
import math

import pytest

import oracles
from scideals import metric, verify
from scideals.enumeration import (
    EnumerationResult,
    enumerate_ideals,
    oracle_enumerate,
    seed,
)
from scideals.ideal import CSSC, SC, TSSC, Ideal, from_heights
from scideals.metric import (
    FlipGraph,
    build_graph,
    distance,
    distances_from,
    eccentricity_csv,
    flip_masks,
    graph_dot,
    graph_record,
    metric_report,
    sc_flip_masks,
    single_source_lengths,
)

from reference_data import (
    CSSC_R2_EDGES,
    CSSC_R2_HEIGHTS,
    SC_2x3x4_DIMS,
    SC_2x3x4_EDGES,
    SC_2x3x4_HEIGHTS,
    TSSC_R3_EDGES_W1,
    TSSC_R3_EDGES_W2,
    TSSC_R3_HEIGHTS,
)


def _edge_set(enum, pairs, heights, dims):
    """Translate hand-listed edges on figure indices into mask pairs."""
    masks = [from_heights(dims, h).mask for h in heights]
    return {
        tuple(sorted((enum.index[masks[u]], enum.index[masks[v]])))
        for u, v in pairs
    }


def test_sc_graph_2x3x4_matches_hand_drawn():
    enum = enumerate_ideals(SC_2x3x4_DIMS, SC)
    assert len(enum) == len(SC_2x3x4_HEIGHTS) == 18
    graph = build_graph(enum)
    got = {(u, v) for u, v, w in graph.edges}
    want = _edge_set(enum, SC_2x3x4_EDGES, SC_2x3x4_HEIGHTS, SC_2x3x4_DIMS)
    assert got == want
    assert all(w == 1 for _u, _v, w in graph.edges)
    report = metric_report(enum)
    assert report.diameter == 6
    assert report.radius == 3


def test_cssc_graph_r2_is_a_three_spoke_hub():
    enum = enumerate_ideals((4, 4, 4), CSSC)
    assert len(enum) == 4
    graph = build_graph(enum)
    got = {(u, v) for u, v, w in graph.edges}
    want = _edge_set(enum, CSSC_R2_EDGES, CSSC_R2_HEIGHTS, (4, 4, 4))
    assert got == want
    report = metric_report(enum)
    assert report.diameter == 2 and report.radius == 1
    hub = enum.index[from_heights((4, 4, 4), CSSC_R2_HEIGHTS[0]).mask]
    assert report.center == (hub,)


def test_tssc_graph_r3_weights_match_hand_drawn():
    enum = enumerate_ideals((6, 6, 6), TSSC)
    assert len(enum) == 7
    graph = build_graph(enum)
    by_weight = {1: set(), 2: set()}
    for u, v, w in graph.edges:
        by_weight[w].add((u, v))
    assert by_weight[1] == _edge_set(
        enum, TSSC_R3_EDGES_W1, TSSC_R3_HEIGHTS, (6, 6, 6))
    assert by_weight[2] == _edge_set(
        enum, TSSC_R3_EDGES_W2, TSSC_R3_HEIGHTS, (6, 6, 6))
    report = metric_report(enum)
    assert report.diameter == 5 and report.radius == 3


def test_flip_neighbors_are_mutual_and_unit_distance():
    enum = enumerate_ideals((2, 3, 4), SC)
    p = enum.poset
    for m in enum.masks:
        for n, w in flip_masks(p, m, SC):
            assert w == 1
            assert distance(Ideal(p, m), Ideal(p, n), SC) == 1
            assert any(back == m for back, _w in flip_masks(p, n, SC))


def test_distance_is_difference_size():
    enum = enumerate_ideals((2, 3, 4), SC)
    a, b = enum.vertices[0], enum.vertices[-1]
    moved = Ideal(a.poset, a.mask & ~b.mask).members()
    assert distance(a, b, SC) == len(moved)
    assert distance(a, a, SC) == 0


@pytest.fixture(scope="module")
def tssc_and_foreign_sc():
    """A tssc r=3 enumeration, its vertex 0, and an sc ideal on the
    same cube whose difference from it is not divisible by 3: the sc
    seed, with ``|S \\ T0| = 32``."""
    enum = enumerate_ideals((6, 6, 6), TSSC)
    a = enum.vertices[0]
    bad = seed((6, 6, 6), SC)
    assert bad.difference_size(a) % 3
    return enum, a, bad


def test_symmetric_distance_divides_by_orbit(tssc_and_foreign_sc):
    enum, a, bad = tssc_and_foreign_sc
    b = enum.vertices[1]
    assert distance(a, b, TSSC) * 3 == a.difference_size(b)
    with pytest.raises(ValueError):
        # mixing classes produces a non-divisible difference
        distance(a, bad, TSSC)


def test_dijkstra_agrees_with_formula_on_weighted_graph():
    enum = enumerate_ideals((8, 8, 8), TSSC)
    graph = build_graph(enum)
    for u in range(len(enum)):
        lengths = single_source_lengths(graph, u)
        for v in range(len(enum)):
            assert lengths[v] == distance(
                enum.vertices[u], enum.vertices[v], TSSC
            )


def test_bucket_queue_matches_heap_dijkstra():
    shapes = [((2 * r,) * 3, TSSC) for r in (3, 4, 5)]
    shapes += [((2 * r,) * 3, CSSC) for r in (2, 3)]
    shapes += [(dims, SC) for dims in ((2, 3, 4), (4, 4), (2, 2, 2, 2))]
    for dims, cls in shapes:
        graph = build_graph(enumerate_ideals(dims, cls))
        for u in range(graph.n):
            assert single_source_lengths(graph, u) == \
                oracles.dijkstra_lengths(graph, u), (dims, cls, u)


def test_disconnected_graph_has_unreached_vertices():
    full = enumerate_ideals((2, 3, 4), SC)
    enum = EnumerationResult(full.poset, SC, full.masks[:2], "hand")
    graph = FlipGraph(enum, ())
    assert single_source_lengths(graph, 0) == [0, math.inf]


def test_build_graph_rejects_an_escaping_neighbor():
    full = enumerate_ideals((2, 3, 4), SC)
    enum = EnumerationResult(full.poset, SC, full.masks[1:], "hand")
    with pytest.raises(RuntimeError, match="escaped the vertex set"):
        build_graph(enum)


def _patch_first_vertex(monkeypatch, edit):
    """Replace ``flip_masks`` at vertex 0 of sc (2,3,4) by ``edit(pairs)``."""
    enum = enumerate_ideals((2, 3, 4), SC)
    first = enum.masks[0]
    kernel = metric.flip_masks

    def patched(p, mask, cls):
        pairs = kernel(p, mask, cls)
        return edit(pairs) if mask == first else pairs

    monkeypatch.setattr(metric, "flip_masks", patched)
    return enum


def test_build_graph_rejects_a_one_way_flip(monkeypatch):
    enum = _patch_first_vertex(monkeypatch, lambda pairs: pairs[1:])
    with pytest.raises(
        RuntimeError, match=r"asymmetric flip between vertices 0 and \d+: \[1\]"
    ):
        build_graph(enum)


def test_build_graph_rejects_a_repeated_neighbor(monkeypatch):
    enum = _patch_first_vertex(monkeypatch, lambda pairs: pairs + pairs[:1])
    with pytest.raises(
        RuntimeError,
        match=r"asymmetric flip between vertices 0 and \d+: \[1, 1, 1\]",
    ):
        build_graph(enum)


def test_build_graph_rejects_a_neighbor_repeated_from_both_ends(monkeypatch):
    # every vertex emits each neighbor twice: the two sides still agree,
    # so only the check for repeated pairs catches it
    kernel = metric.flip_masks
    monkeypatch.setattr(
        metric, "flip_masks", lambda p, mask, cls: 2 * kernel(p, mask, cls)
    )
    with pytest.raises(
        RuntimeError,
        match=r"asymmetric flip between vertices 0 and \d+: \[1, 1, 1, 1\]",
    ):
        build_graph(enumerate_ideals((2, 3, 4), SC))


def test_distances_from_matches_pairwise():
    for dims, cls in (((4, 4), SC), ((4, 4, 4), CSSC), ((6, 6, 6), TSSC)):
        enum = enumerate_ideals(dims, cls)
        for v in enum.vertices:
            assert distances_from(enum, v) == [
                distance(v, w, cls) for w in enum.vertices
            ], (dims, cls)


def test_distances_from_checks_divisibility(tssc_and_foreign_sc):
    enum, _a, bad = tssc_and_foreign_sc
    with pytest.raises(ValueError, match="not divisible by orbit size"):
        distances_from(enum, bad)


def test_metric_report_center_and_perimeter_partition():
    enum = enumerate_ideals((2, 3, 4), SC)
    report = metric_report(enum)
    ecc = report.eccentricities
    assert report.center == tuple(
        i for i, e in enumerate(ecc) if e == report.radius
    )
    assert report.perimeter == tuple(
        i for i, e in enumerate(ecc) if e == report.diameter
    )


def test_metric_report_matches_full_sweep():
    shapes = [(dims, SC) for dims in verify._sc_shapes(500)]
    shapes += [((2 * r,) * 3, CSSC) for r in (1, 2, 3, 4)]
    shapes += [((2 * r,) * 3, TSSC) for r in (1, 2, 3, 4, 5)]
    for dims, cls in shapes:
        enum = enumerate_ideals(dims, cls, force=True)
        report = metric_report(enum)
        assert report == oracles.metric_report(enum), (dims, cls)
        assert 1 <= report.rows <= len(enum)


def test_bounds_need_few_rows():
    enum = enumerate_ideals((12, 12, 12), TSSC)
    report = metric_report(enum)
    assert report.rows < len(enum) // 4
    assert "rows" not in report.to_record()


def test_symmetry_closure_is_checked():
    good = enumerate_ideals((6, 6, 6), TSSC)
    a = good.masks[0]
    bad = sc_flip_masks(good.poset, a)[0]  # one sc flip: difference 1
    enum = EnumerationResult(good.poset, TSSC, tuple(sorted((a, bad))), "hand")
    with pytest.raises(ValueError, match="not divisible by the orbit size"):
        metric_report(enum)


def test_metric_report_needs_a_class():
    with pytest.raises(ValueError, match="class-filtered"):
        metric_report(oracle_enumerate((2, 3, 4)))


def test_exports_are_consistent():
    enum = enumerate_ideals((4, 4, 4), CSSC)
    graph = build_graph(enum)
    report = metric_report(enum)
    dot = graph_dot(graph, report)
    assert dot.count(" -- ") == len(graph.edges)
    payload = json.loads(json.dumps(graph_record(graph, report)))
    assert len(payload["vertices"]) == 4
    assert len(payload["edges"]) == 3
    assert payload["report"]["diameter"] == 2
    csv_text = eccentricity_csv(report)
    assert len(csv_text.strip().splitlines()) == 1 + len(enum)
