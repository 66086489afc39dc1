"""Chain-product structure: ranking, duality, covers, orbits."""

import math

import pytest
from hypothesis import given, strategies as st

import oracles
from scideals.constructions import (
    core_shell,
    majority_ideal,
    mod4_center,
    partitioned_center,
    sc_diameter_pair,
    sc_diameter_value,
    sc_radius_bound,
)
from scideals.enumeration import (
    EnumerationResult,
    count_closed,
    enumerate_count,
    enumerate_ideals,
    oracle_enumerate,
    seed,
)
from scideals.ideal import CSSC, SC, TSSC, Ideal, from_heights, validate_mask
from scideals.metric import flip_table, metric_report
from scideals.poset import (
    ChainProduct,
    ElementError,
    ShapeError,
    cube,
    even_cube,
    even_cube_r,
    ranks,
)


def test_rank_unrank_roundtrip():
    p = ChainProduct((2, 3, 4))
    seen = set()
    for r in range(p.volume):
        a = p.unrank(r)
        assert p.rank(a) == r
        assert all(1 <= a[i] <= p.dims[i] for i in range(3))
        seen.add(a)
    assert len(seen) == p.volume == 24


def test_rank_is_a_linear_extension():
    # if a <= b coordinatewise then rank(a) <= rank(b)
    p = ChainProduct((3, 2, 4))
    for r in range(p.volume):
        a = p.unrank(r)
        for s in range(p.volume):
            b = p.unrank(s)
            if all(x <= y for x, y in zip(a, b)):
                assert r <= s


def test_dual_rank_is_an_order_reversing_involution():
    p = ChainProduct((2, 3, 4))
    for r in range(p.volume):
        a = p.unrank(r)
        dual = p.reverse_mask(1 << r)
        # rank and dual rank mirror around the midpoint
        assert dual == 1 << (p.volume - 1 - r)
        assert p.unrank(dual.bit_length() - 1) == tuple(
            l + 1 - c for l, c in zip(p.dims, a)
        )
        assert p.reverse_mask(dual) == 1 << r


def test_reverse_mask_mirrors_membership():
    p = ChainProduct((2, 3))
    mask = 0b001011
    rev = p.reverse_mask(mask)
    for r in range(p.volume):
        assert (rev >> r & 1) == (mask >> (p.volume - 1 - r) & 1)


def test_up_down_masks_are_cover_indicators():
    # rank r is in the up mask of axis k iff a_k < l_k, and then r + s_k
    # is its upper cover along k: the down mask is the up mask shifted
    p = ChainProduct((2, 3, 4))
    assert [s for s, _up in p.cover_axes] == list(p.strides)
    for k, (s, up) in enumerate(p.cover_axes):
        for r in range(p.volume):
            a = p.unrank(r)
            assert bool(up >> r & 1) == (a[k] < p.dims[k])
            if a[k] < p.dims[k]:
                assert p.unrank(r + s) == a[:k] + (a[k] + 1,) + a[k + 1:]


@pytest.mark.parametrize(
    "dims", [(1,), (1, 1), (1, 4), (3, 1, 2), (2, 1, 1, 3), (2, 3, 4)]
)
def test_cover_axes_leave_out_unit_axes(dims):
    p = ChainProduct(dims)
    assert all(up for _s, up in p.cover_axes)
    assert [s for s, _up in p.cover_axes] == [
        s for s, l in zip(p.strides, dims) if l > 1
    ]


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).flatmap(
        lambda dims: st.tuples(
            st.just(tuple(dims)),
            st.integers(0, (1 << math.prod(dims)) - 1),
        )
    )
)
def test_mask_of_inverts_ranks(case):
    dims, mask = case
    p = ChainProduct(dims)
    elements = [p.unrank(r) for r in ranks(mask)]
    assert p.mask_of(elements) == sum(1 << p.rank(a) for a in elements)
    assert p.mask_of(elements) == mask
    assert p.mask_of(reversed(elements)) == mask  # order does not matter


def test_mask_of_checks_each_element():
    p = ChainProduct((2, 3))
    assert p.mask_of([]) == 0
    for bad in [(3, 1), (1, 0), (1, 1, 1), (1,)]:
        with pytest.raises(ElementError):
            p.mask_of([(1, 1), bad])


def _images(p, cls):
    """The orbit of each rank, as the ranks of its images under the
    flip table's group, with the zero-based element."""
    group = flip_table(p, cls).group
    for r in range(p.volume):
        a = tuple(c - 1 for c in p.unrank(r))
        yield r, a, {sum(map(math.prod, zip(a, g))) for g in group}


def test_cyclic_orbits_have_size_one_or_three():
    p = cube(4)
    found = {}
    for r, a, orbit in _images(p, CSSC):
        assert r in orbit and len(orbit) in (1, 3)
        if len(orbit) == 1:
            assert len(set(a)) == 1  # only diagonal points are fixed
        found[min(orbit)] = tuple(sorted(orbit))
    # the orbits partition the ranks, as the oracle finds them
    assert sorted(found.values()) == oracles.orbits(p, oracles.CYCLIC)


def test_full_orbits_have_size_one_three_or_six():
    p = cube(4)
    found = {}
    for _r, a, orbit in _images(p, TSSC):
        # the orbit size is determined by how many coordinates repeat
        assert len(orbit) == {1: 1, 2: 3, 3: 6}[len(set(a))]
        found[min(orbit)] = tuple(sorted(orbit))
    assert sorted(found.values()) == oracles.orbits(p, oracles.FULL)


def test_maximal_mask_flags_maximal_elements():
    p = ChainProduct((2, 2))
    # ideal {(1,1),(1,2)}: (1,2) is maximal, (1,1) is covered inside
    mask = (1 << p.rank((1, 1))) | (1 << p.rank((1, 2)))
    mx = p.maximal_mask(mask)
    assert mx == 1 << p.rank((1, 2))


def test_shape_errors():
    with pytest.raises(ShapeError):
        ChainProduct(())
    with pytest.raises(ShapeError):
        ChainProduct((0, 2))
    with pytest.raises(ShapeError):
        flip_table(ChainProduct((2, 3)), CSSC)  # symmetry needs a cube
    with pytest.raises(ShapeError):
        flip_table(ChainProduct((2, 3)), TSSC)
    with pytest.raises(ShapeError, match=r"\[2r\]\^3"):
        flip_table(cube(3), CSSC)  # no class lives on an odd cube
    with pytest.raises(ValueError, match="unknown ideal class"):
        flip_table(cube(2), "dihedral")


SHAPE_DOORS = {
    "ChainProduct": ChainProduct,
    "count_closed": count_closed,
    "enumerate_count": enumerate_count,
    "enumerate_ideals": enumerate_ideals,
    "oracle_enumerate": oracle_enumerate,
    "sc_diameter_value": sc_diameter_value,
    "sc_radius_bound": sc_radius_bound,
    "sc_diameter_pair": sc_diameter_pair,
    "majority_ideal": majority_ideal,
    "mod4_center": mod4_center,
    "partitioned_center": partitioned_center,
    "from_heights": lambda dims: from_heights(dims, []),
}


@pytest.mark.parametrize("dims", [(), (0, 2), (2, -1), (2.5, 2)])
@pytest.mark.parametrize("door", list(SHAPE_DOORS))
def test_every_shape_door_refuses_a_malformed_shape(door, dims):
    with pytest.raises(ShapeError):
        SHAPE_DOORS[door](dims)


def test_even_cube_r_accepts_only_even_cubes():
    assert even_cube_r((6, 6, 6), "it") == 3
    for dims in [(3, 3, 3), (2, 4), (4, 4, 6), (2, 2, 2, 2), (4,)]:
        with pytest.raises(ShapeError, match="it needs an even cube"):
            even_cube_r(dims, "it")
    assert even_cube(3) == cube(6)
    # the callers: closed form, seed, class check, metric report and
    # core/shell split (the flip table's is in test_shape_errors)
    with pytest.raises(ShapeError, match="the cssc class needs"):
        count_closed((3, 3, 3), CSSC)
    with pytest.raises(ShapeError, match="the tssc class needs"):
        seed((2, 4), TSSC)
    with pytest.raises(ShapeError, match="the cssc class needs"):
        validate_mask(ChainProduct((2, 2)), 0b0011, CSSC)
    with pytest.raises(ShapeError, match="the tssc class needs"):
        metric_report(EnumerationResult(cube(3), TSSC, (0,), "hand"))
    with pytest.raises(ShapeError, match="core/shell split needs"):
        core_shell(Ideal(cube(3), 0))


def test_cyclic_and_full_flip_tables_differ():
    p = cube(4)
    cyclic, full = flip_table(p, CSSC), flip_table(p, TSSC)
    assert cyclic.forward != full.forward and cyclic.group != full.group
    assert flip_table(p, CSSC) == cyclic  # no memo, the same table
    # one forward rank per movable orbit: its top, as the oracle finds it
    for table, group in ((cyclic, oracles.CYCLIC), (full, oracles.FULL)):
        tops = {orbit[-1] for orbit in oracles.orbits(p, group)}
        assert set(ranks(table.forward)) <= tops
    # every table starts with an empty XOR list; only the orbit tables
    # have a group
    assert cyclic.xors == [0] * (p.volume + 1)
    assert flip_table(p, SC).group is None


def test_volume_and_strides():
    p = ChainProduct((5, 7, 4))
    assert p.volume == math.prod(p.dims) == 140
    # the first coordinate is the most significant digit
    assert p.rank((2, 1, 1)) - p.rank((1, 1, 1)) == 28
