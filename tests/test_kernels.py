"""The graded flip closure and the bit-parallel flip kernels, checked
against the slow references in ``oracles``."""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from scideals import metric
from scideals.enumeration import (
    _graded_closure,
    enumerate_count,
    enumerate_ideals,
    seed,
)
from scideals.ideal import CSSC, SC, TSSC
from scideals.poset import CYCLIC, FULL, ChainProduct, cube

SETTINGS = settings(deadline=None, max_examples=80)
GROUP = {CSSC: CYCLIC, TSSC: FULL}

CLOSURE_CASES = [
    ((2, 3), SC), ((2, 3, 4), SC), ((3, 3, 4), SC),
    ((2, 2, 2, 2), SC), ((2, 2, 3, 3), SC), ((2,) * 6, SC),
] + [((2 * r,) * 3, cls) for r in (1, 2, 3, 4) for cls in (CSSC, TSSC)]


@functools.cache
def oracle_members(dims, cls):
    start = seed(dims, cls)
    return tuple(sorted(oracles.bfs_masks(start.poset, cls, start.mask)))


@pytest.mark.parametrize("dims, cls", CLOSURE_CASES)
def test_graded_closure_matches_bfs_oracle(dims, cls):
    want = oracle_members(dims, cls)
    assert enumerate_ideals(dims, cls, force=True).masks == want
    assert enumerate_count(dims, cls, force=True) == len(want)
    # each bucket holds one key, and the keys strictly increase
    start = seed(dims, cls).mask
    unit = 1 if cls == SC else 3
    keys = []
    for bucket in _graded_closure(ChainProduct(dims), cls, start):
        (key,) = {(start & ~m).bit_count() // unit for m in bucket}
        keys.append(key)
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("group", [CYCLIC, FULL])
def test_orbits_by_coordinates_match_unrank(side, group):
    p = cube(side)
    orbits, orbit_of = p.orbit_structure(group)
    assert [o.ranks for o in orbits] == oracles.orbits(p, group)
    for i, o in enumerate(orbits):
        assert all(orbit_of[r] == i for r in o.ranks)
    rot, swp = p._perm_tables
    for r in range(p.volume):
        x, y, z = p.unrank(r)
        assert rot[r] == p.rank((y, z, x))
        assert swp[r] == p.rank((x, z, y))


sc_shapes = (
    st.lists(st.integers(1, 6), min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda d: math.prod(d) % 2 == 0 and math.prod(d) <= 36)
)


def small_class(draw):
    """(dims, class) of a small class, drawn inside a composite."""
    cls = draw(st.sampled_from([SC, CSSC, TSSC]))
    if cls == SC:
        return draw(sc_shapes), cls
    return (2 * draw(st.integers(1, 4)),) * 3, cls


@st.composite
def class_members(draw):
    """(poset, class, mask) for one member of a small class."""
    dims, cls = small_class(draw)
    masks = oracle_members(dims, cls)
    return ChainProduct(dims), cls, draw(st.sampled_from(masks))


def kernel(p, cls, masks, allowed=-1):
    """The sorted (mask, weight) children of a bucket of masks."""
    if cls == SC:
        return sorted(
            (m, 1) for m in metric.sc_flip_masks(p, masks, allowed=allowed)
        )
    return sorted(
        metric.orbit_flip_masks(p, masks, GROUP[cls], allowed=allowed)
    )


@functools.cache
def oracle_orbits(dims, group):
    return oracles.orbits(ChainProduct(dims), group)


def oracle_kernel(p, cls, mask):
    if cls == SC:
        return sorted((m, 1) for m in oracles.sc_flip_masks(p, mask))
    group = GROUP[cls]
    return sorted(
        oracles.orbit_flip_masks(p, mask, group, oracle_orbits(p.dims, group))
    )


@SETTINGS
@given(class_members())
def test_kernels_match_oracle_kernels(drawn):
    p, cls, mask = drawn
    want = oracle_kernel(p, cls, mask)
    assert kernel(p, cls, (mask,)) == want
    assert sorted(metric.flip_masks(p, mask, cls)) == want


@SETTINGS
@given(class_members(), st.data())
def test_allowed_mask_filters_the_full_output(drawn, data):
    p, cls, mask = drawn
    allowed = data.draw(st.integers(0, p.full_mask))
    full = kernel(p, cls, (mask,))
    # a flip is kept iff every member it moves out is allowed
    assert kernel(p, cls, (mask,), allowed) == [
        (m, w) for m, w in full if mask & ~m & ~allowed == 0
    ]


@SETTINGS
@given(class_members())
def test_forward_flips_raise_the_key_by_their_weight(drawn):
    p, cls, mask = drawn
    start = seed(p.dims, cls).mask
    unit = 1 if cls == SC else 3
    key = (start & ~mask).bit_count()
    forward = kernel(p, cls, (mask,), allowed=start)
    for m, w in kernel(p, cls, (mask,)):
        step = (start & ~m).bit_count() - key
        assert step == (w if (m, w) in forward else -w) * unit
    # off the seed, some flip steps back toward it
    if mask != start:
        assert any(
            (start & ~m).bit_count() < key
            for m, _ in kernel(p, cls, (mask,))
        )


@st.composite
def class_buckets(draw):
    """(poset, class, masks): several members of one small class, in
    any order and with repeats."""
    dims, cls = small_class(draw)
    masks = oracle_members(dims, cls)
    bucket = draw(st.lists(st.sampled_from(masks), min_size=2, max_size=8))
    return ChainProduct(dims), cls, bucket


@SETTINGS
@given(class_buckets(), st.data())
def test_a_bucket_gives_the_union_of_its_members_children(drawn, data):
    p, cls, bucket = drawn
    allowed = data.draw(st.integers(0, p.full_mask))
    # the multiset union, duplicates kept, of the per-mask oracle output
    children = [
        (mask, c) for mask in bucket for c in oracle_kernel(p, cls, mask)
    ]
    assert kernel(p, cls, bucket) == sorted(c for _mask, c in children)
    assert kernel(p, cls, bucket, allowed) == sorted(
        (m, w) for mask, (m, w) in children if mask & ~m & ~allowed == 0
    )
    assert kernel(p, cls, []) == []


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 3), (3, 3), (2, 3, 4)])
def test_sc_flip_pairs_join_each_rank_to_its_dual(dims):
    p = ChainProduct(dims)
    pairs = p.sc_flip_pairs
    assert len(pairs) == p.volume + 1 and pairs[0] == 0
    for r in range(p.volume):
        a = p.unrank(r)
        dual = p.rank(tuple(l + 1 - c for c, l in zip(a, dims)))
        assert pairs[r + 1] == (1 << r) | (1 << dual)
    assert p.sc_flip_pairs is pairs  # built once per poset
