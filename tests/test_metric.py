"""Flip kernels, graphs, and metric reports against hand-built graphs."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from scideals import metric, verify
from scideals.enumeration import (
    EnumerationResult,
    count_closed,
    enumerate_ideals,
    oracle_enumerate,
    oracle_ideal_masks,
    seed,
)
from scideals.ideal import CSSC, SC, TSSC, Ideal, from_heights, validate_mask
from scideals.metric import (
    FlipGraph,
    MetricReport,
    build_graph,
    distance,
    distances_from,
    eccentricity_csv,
    flip_table,
    graph_dot,
    graph_record,
    metric_report,
    sc_flip_masks,
    single_source_lengths,
)
from scideals.poset import ChainProduct, ShapeError, even_cube

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
        for n, w in oracles.flip_masks(p, m, SC):
            assert w == 1
            assert distance(Ideal(p, m), Ideal(p, n), SC) == 1
            assert any(back == m for back, _w in oracles.flip_masks(p, n, SC))


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


def test_a_source_outside_the_graph_is_refused():
    # -1 would search from the last vertex, as list indexing does
    graph = build_graph(enumerate_ideals((2, 3, 4), SC))
    assert graph.n == 18
    for bad in (-1, 18):
        with pytest.raises(ValueError, match=rf"0\.\.17, got {bad}$"):
            single_source_lengths(graph, bad)
    with pytest.raises(ValueError, match=r"0\.\.17, got 2\.0$"):
        single_source_lengths(graph, 2.0)
    assert single_source_lengths(graph, np.int64(17)) == \
        single_source_lengths(graph, 17)


def test_an_unknown_class_tag_is_refused():
    # every door reads the class's group from ideal.GROUPS through
    # check_class, so a tag outside CLASSES is refused, never read as sc
    masks = enumerate_ideals((2, 3, 4), SC).masks
    with pytest.raises(ValueError, match="unknown ideal class 'dihedral'"):
        EnumerationResult(ChainProduct((2, 3, 4)), "dihedral", masks, "hand")
    # every door that takes a class tag refuses it with the same message
    p = ChainProduct((2, 3, 4))
    i = Ideal(p, masks[0])
    for refuse in (
        lambda: validate_mask(p, masks[0], "dihedral"),
        lambda: count_closed((2, 3, 4), "dihedral"),
        lambda: seed((2, 3, 4), "dihedral"),
        lambda: flip_table(p, "dihedral"),
        lambda: distance(i, i, "dihedral"),
    ):
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == "unknown ideal class 'dihedral'"


@pytest.mark.parametrize("cls", [CSSC, TSSC])
def test_distance_refuses_a_symmetric_class_off_an_even_cube(cls):
    i = seed((2, 3, 4), SC)
    assert distance(i, i, SC) == 0
    with pytest.raises(ShapeError, match="needs an even cube"):
        distance(i, i, cls)


@pytest.mark.parametrize("cls", [CSSC, TSSC])
def test_a_symmetric_result_off_an_even_cube_is_refused(cls):
    # the result checks its shape, so no reader of it, distances_from
    # included, answers a cssc or tssc class on (2,3,4)
    masks = enumerate_ideals((2, 3, 4), SC).masks
    for part in (masks[:1], masks):
        with pytest.raises(ShapeError,
                           match=f"the {cls} class needs an even cube"):
            EnumerationResult(ChainProduct((2, 3, 4)), cls, part, "hand")


@pytest.mark.parametrize("cls", [CSSC, TSSC])
def test_an_empty_symmetric_result_off_an_even_cube_is_refused(cls):
    # the shape is checked whether or not the class is empty
    for dims in [(3, 3, 3), (2, 4)]:
        with pytest.raises(ShapeError, match=rf"the {cls} class needs"):
            EnumerationResult(ChainProduct(dims), cls, (), "hand")
    assert metric_report(EnumerationResult(even_cube(2), cls, (), "hand")) == (
        MetricReport((4, 4, 4), cls, (), 0, 0, (), ())
    )


def test_disconnected_graph_has_unreached_vertices():
    full = enumerate_ideals((2, 3, 4), SC)
    enum = EnumerationResult(full.poset, SC, full.masks[:2], "hand")
    graph = FlipGraph(enum, ())
    assert single_source_lengths(graph, 0) == [0, math.inf]


def _hand_graph(n, edges):
    """A weighted graph on ``n`` hand-placed vertices; the search reads
    only the edges."""
    full = enumerate_ideals((6, 6, 6), TSSC)
    enum = EnumerationResult(full.poset, TSSC, full.masks[:n], "hand")
    return FlipGraph(enum, tuple(edges))


def test_weighted_search_leaves_an_unreachable_vertex_at_inf():
    # 0 -2- 1 -1- 2, and 3 -2- 4 apart from them
    graph = _hand_graph(5, [(0, 1, 2), (1, 2, 1), (3, 4, 2)])
    assert graph.adjacency[1] is not None
    inf = math.inf
    assert single_source_lengths(graph, 0) == [0, 2, 3, inf, inf]
    assert single_source_lengths(graph, 2) == [3, 1, 0, inf, inf]
    assert single_source_lengths(graph, 4) == [inf, inf, inf, 2, 0]
    for u in range(graph.n):
        assert single_source_lengths(graph, u) == \
            oracles.dijkstra_lengths(graph, u)


def test_weighted_search_reaches_through_a_heavy_then_light_edge():
    # vertex 2 is reachable only by the weight-2 edge 0-1 followed by
    # the weight-1 edge 1-2
    graph = _hand_graph(3, [(0, 1, 2), (1, 2, 1)])
    assert single_source_lengths(graph, 0) == [0, 2, 3]
    assert single_source_lengths(graph, 2) == [3, 1, 0]
    # the heavy edge 0-2 ties with the light path 0-1-2: vertex 2 is
    # reached once, at 2, and vertex 3 behind it at 3
    graph = _hand_graph(4, [(0, 2, 2), (2, 3, 1), (0, 1, 1), (1, 2, 1)])
    assert single_source_lengths(graph, 0) == [0, 1, 2, 3]


def test_light_graphs_have_no_weight_two_table():
    for dims, cls in (((2, 3, 4), SC), ((4, 4, 4), CSSC)):
        assert build_graph(enumerate_ideals(dims, cls)).adjacency[1] is None
    tssc = build_graph(enumerate_ideals((6, 6, 6), TSSC))
    assert tssc.adjacency[1] is not None


def test_build_graph_rejects_an_escaping_neighbor():
    for dims, cls in (((2, 3, 4), SC), ((4, 4, 4), CSSC), ((6, 6, 6), TSSC)):
        full = enumerate_ideals(dims, cls)
        enum = EnumerationResult(full.poset, cls, full.masks[1:], "hand")
        with pytest.raises(RuntimeError, match="escaped the vertex set"):
            build_graph(enum)


def _patch_first_vertex(monkeypatch, edit):
    """Replace the sc kernel's hits at vertex 0 of sc (2,3,4), the
    entries after the expanded mask, by ``edit(found)``.

    The closure calls the same kernel, so the class is enumerated first.
    """
    enum = enumerate_ideals((2, 3, 4), SC)
    first = enum.masks[0]
    kernel = metric.sc_flip_masks

    def patched(table, masks, limit):
        at_first = masks == [first]
        found = kernel(table, masks, limit)
        return found[:1] + edit(found[1:]) if at_first else found

    monkeypatch.setattr(metric, "sc_flip_masks", patched)
    return enum


def test_build_graph_rejects_a_one_way_flip(monkeypatch):
    enum = _patch_first_vertex(monkeypatch, lambda found: found[1:])
    with pytest.raises(
        RuntimeError, match=r"asymmetric flip between vertices 0 and \d+: \[1\]"
    ):
        build_graph(enum)


def test_build_graph_rejects_a_repeated_neighbor(monkeypatch):
    enum = _patch_first_vertex(monkeypatch, lambda found: found + found[:1])
    with pytest.raises(
        RuntimeError,
        match=r"asymmetric flip between vertices 0 and \d+: \[1, 1, 1\]",
    ):
        build_graph(enum)


def test_build_graph_rejects_a_neighbor_repeated_from_both_ends(monkeypatch):
    # every vertex emits each neighbor twice: the two sides still agree,
    # so only the check for repeated pairs catches it
    enum = enumerate_ideals((2, 3, 4), SC)
    kernel = metric.sc_flip_masks

    def doubled(table, masks, limit):
        found = kernel(table, masks, limit)
        return found + found[limit:]

    monkeypatch.setattr(metric, "sc_flip_masks", doubled)
    with pytest.raises(
        RuntimeError,
        match=r"asymmetric flip between vertices 0 and \d+: \[1, 1, 1, 1\]",
    ):
        build_graph(enum)


def test_distances_from_matches_pairwise():
    for dims, cls in (((4, 4), SC), ((4, 4, 4), CSSC), ((6, 6, 6), TSSC)):
        enum = enumerate_ideals(dims, cls)
        for v in enum.vertices:
            assert distances_from(enum, v) == [
                distance(v, w, cls) for w in enum.vertices
            ], (dims, cls)


def test_distances_from_refuses_an_ideal_of_another_poset():
    # as `distance` does; the volumes differ, so no row would be right
    enum = enumerate_ideals((2, 3, 4))
    with pytest.raises(ShapeError, match="different posets"):
        distances_from(enum, seed((4, 4, 4)))
    with pytest.raises(ShapeError, match="different posets"):
        distance(enum.vertices[0], seed((4, 4, 4)))


def test_distances_from_checks_divisibility(tssc_and_foreign_sc):
    enum, a, bad = tssc_and_foreign_sc
    with pytest.raises(ValueError, match="not divisible by orbit size"):
        distances_from(enum, bad)
    # one rule and one message for a row and for a pair
    for refuse in (lambda: distances_from(enum, bad),
                   lambda: distance(a, bad, TSSC)):
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == (
            "difference size not divisible by orbit size; "
            "are both ideals in the symmetric class?"
        )


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


#: sc shapes whose half volume V/2 is 63, 64, 65 and 128 bits: one bit
#: short of a full limb, one full limb, one bit into a second limb, and
#: two full limbs
LIMB_BOUNDARY_SHAPES = ((2, 63), (2, 64), (2, 65), (2, 128))


HALF_MASK_CASES = (
    [(dims, SC) for dims in ((2, 3, 4), (4, 4, 4), (3, 4, 5), (2, 2, 2, 2))]
    + [(dims, SC) for dims in LIMB_BOUNDARY_SHAPES]
    + [((2 * r,) * 3, cls) for r in (1, 2, 3, 4) for cls in (CSSC, TSSC)]
)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(HALF_MASK_CASES), st.data())
def test_half_mask_xor_counts_the_difference(case, data):
    dims, cls = case
    enum = enumerate_ideals(dims, cls, force=True)
    low = (1 << enum.poset.volume // 2) - 1
    masks = st.sampled_from(enum.masks)
    i, j = data.draw(masks), data.draw(masks)
    assert ((i ^ j) & low).bit_count() == (i & ~j).bit_count()


SYMMETRIC_CASES = [((2 * r,) * 3, cls) for r in (1, 2, 3, 4)
                   for cls in (CSSC, TSSC)]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SYMMETRIC_CASES), st.data())
def test_witness_popcount_is_a_third_of_the_difference(case, data):
    dims, cls = case
    enum = enumerate_ideals(dims, cls)
    p = enum.poset
    masks = st.sampled_from(enum.masks)
    i, j = data.draw(masks), data.draw(masks)
    full = metric._pack_masks((i, j), p.volume)
    packed = metric._check_orbit_closed(p, full)
    assert packed.shape == ((len(metric._witnesses(p)) + 63) // 64, 2)
    differ = int(np.bitwise_count(packed[:, 0] ^ packed[:, 1]).sum())
    assert 3 * differ == (i & ~j).bit_count()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_each_dual_pair_of_orbits_has_one_witness(r):
    p = even_cube(r)
    v1 = p.volume - 1
    witnesses = set(metric._witnesses(p).tolist())
    pairs = set()
    for ranks in oracles.orbits(p, oracles.CYCLIC):
        if len(ranks) == 1:
            assert not witnesses & set(ranks)  # no diagonal witness
            continue
        pair = frozenset(ranks) | {v1 - q for q in ranks}
        assert len(witnesses & pair) == 1, ranks
        pairs.add(pair)
    assert len(witnesses) == len(pairs) == (p.volume - 2 * r) // 6


def test_metric_report_matches_full_sweep():
    sweep = verify._sc_shapes(500)
    shapes = [(dims, SC) for dims in sweep]
    shapes += [(dims, SC) for dims in LIMB_BOUNDARY_SHAPES if dims not in sweep]
    shapes += [((2 * r,) * 3, CSSC) for r in (1, 2, 3, 4)]
    shapes += [((2 * r,) * 3, TSSC) for r in (1, 2, 3, 4, 5)]
    for dims, cls in shapes:
        enum = enumerate_ideals(dims, cls, force=True)
        report = metric_report(enum)
        assert report == oracles.metric_report(enum), (dims, cls)
        assert 1 <= report.rows <= len(enum)


#: sc shapes of about 1000 vertices whose half masks take 1, 2, 3 and 4
#: limbs: (3,5,6) has 1000 vertices, (8,20) 1001, (4,88) and (5,88) 1035
WIDE_SHAPES = ((3, 5, 6), (8, 20), (4, 88), (5, 88))


@pytest.mark.parametrize(
    "mode", ["never", "mid", "whole", "default", "two", "three", "third"]
)
@pytest.mark.parametrize(
    "dims, cls",
    HALF_MASK_CASES
    + [((2,), SC), ((6, 33), SC), ((2, 2, 33), SC)]
    + [(dims, SC) for dims in WIDE_SHAPES],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_final_block_matches_full_sweep(monkeypatch, mode, dims, cls):
    # `_BLOCK_BYTES` sets the rows a step of `_eccentricities` takes: one
    # (the final block is then a single row), n - 1 (the final block
    # comes right after the first row), n (the first step is the whole
    # class), 2, 3 or n // 3 a step, or as many as the real bound holds
    # (on sc (6,33), 969 vertices of 2 limbs, 8 rows a step)
    enum = enumerate_ideals(dims, cls, force=True)
    n = len(enum)
    # the limbs of the array swept: half masks for sc, witness bits for
    # cssc and tssc
    swept = []
    rows = metric._rows
    monkeypatch.setattr(
        metric, "_rows",
        lambda packed, sel: swept.append(packed.shape) or rows(packed, sel),
    )
    metric_report(enum)
    limbs = swept[0][0]
    if mode != "default":
        fit = {"never": 0, "mid": n - 1, "whole": n, "two": 2, "three": 3,
               "third": n // 3}[mode]
        monkeypatch.setattr(metric, "_BLOCK_BYTES", 8 * fit * n * limbs)
    report = metric_report(enum)
    assert report == oracles.metric_report(enum)
    assert 1 <= report.rows <= n
    if mode == "whole":
        assert report.rows == n


def test_small_class_is_one_block():
    # sc (2,) has one vertex and tssc r=2 two; sc (2,3,4) is 18 x 18
    for dims, cls, n in (((2,), SC, 1), ((4, 4, 4), TSSC, 2),
                         ((2, 3, 4), SC, 18)):
        report = metric_report(enumerate_ideals(dims, cls))
        assert report.n_vertices == report.rows == n, (dims, cls)


def test_rows_is_a_python_int():
    # one block (18 rows), and steps on sc and on witness rows
    for dims, cls in (((2, 3, 4), SC), ((6, 33), SC), ((10, 10, 10), TSSC)):
        assert type(metric_report(enumerate_ideals(dims, cls)).rows) is int


def test_bounds_need_few_rows():
    enum = enumerate_ideals((12, 12, 12), TSSC)
    report = metric_report(enum)
    # pinned: any change to the row selection or the bounds moves it
    assert report.rows == 746 < len(enum) // 4
    assert "rows" not in report.to_record()
    # pinned at the real bound, which holds 8 rows of sc (6,33)
    assert metric_report(enumerate_ideals((6, 33), SC)).rows == 71


def test_symmetry_closure_is_checked():
    good = enumerate_ideals((6, 6, 6), TSSC)
    a = good.masks[0]
    # one sc flip: difference 1
    bad = sc_flip_masks(flip_table(good.poset, SC), [a], 1)[1]
    enum = EnumerationResult(good.poset, TSSC, tuple(sorted((a, bad))), "hand")
    with pytest.raises(ValueError, match="not divisible by the orbit size"):
        metric_report(enum)


def test_diagonal_disagreement_is_checked():
    # swapping a diagonal point for its dual keeps a mask sc and
    # rotation-closed, but the difference of one diagonal pair is 1, so
    # only the diagonal comparison catches it
    good = enumerate_ideals((6, 6, 6), TSSC)
    p = good.poset
    a = good.masks[0]
    r = p.rank((3, 3, 3))
    bad = a ^ (1 << r) ^ (1 << (p.volume - 1 - r))
    assert p.reverse_mask(bad) == p.full_mask & ~bad  # sc
    assert all(  # rotation-closed
        len({bad >> r & 1 for r in ranks}) == 1
        for ranks in oracles.orbits(p, oracles.CYCLIC)
    )
    assert (a & ~bad).bit_count() == 1
    enum = EnumerationResult(p, TSSC, tuple(sorted((a, bad))), "hand")
    with pytest.raises(ValueError, match="not divisible by the orbit size"):
        metric_report(enum)


def test_symmetric_masks_must_be_sc():
    # a tssc member with one orbit of maximal members removed is still
    # an ideal, rotation-closed and equal to the others on the diagonal,
    # so every difference divides by 3; but it is not sc, so its half
    # mask does not fix it
    good = enumerate_ideals((6, 6, 6), TSSC)
    p = good.poset
    a = good.masks[0]
    top = p.maximal_mask(a)
    orbit = next(
        ob for ob in (
            sum(1 << r for r in ranks)
            for ranks in oracles.orbits(p, oracles.FULL) if len(ranks) > 1
        )
        if top & ob == ob
    )
    bad = a & ~orbit
    assert validate_mask(p, bad) and not validate_mask(p, bad, SC)
    masks = tuple(sorted((bad, *good.masks[1:])))
    enum = EnumerationResult(p, TSSC, masks, "hand")
    with pytest.raises(ValueError, match="not self-complementary"):
        metric_report(enum)


def test_a_result_without_a_class_is_refused():
    # ideals outside one class differ in size, so |I \ J| is no distance
    # there: a result always has a class, for metric_report, build_graph
    # and distances_from alike
    masks = tuple(oracle_ideal_masks((2, 3, 4)))
    with pytest.raises(ValueError) as info:
        EnumerationResult(ChainProduct((2, 3, 4)), None, masks, "hand")
    assert str(info.value) == "unknown ideal class None"


def test_metric_report_of_an_empty_class():
    report = metric_report(oracle_enumerate((3, 3), SC))
    assert report == MetricReport((3, 3), SC, (), 0, 0, (), ())
    assert report.n_vertices == 0


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
