"""The batched flip closure and the bit-parallel flip kernels, checked
against the slow references in ``oracles``."""

import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from scideals import enumeration, metric
from scideals.enumeration import (
    _closure,
    _halfspace,
    _staircase,
    enumerate_count,
    enumerate_ideals,
    seed,
)
from scideals.ideal import CSSC, SC, TSSC
from scideals.poset import ChainProduct, cube

SETTINGS = settings(deadline=None, max_examples=80)

CLOSURE_CASES = [
    ((2, 3), SC), ((2, 3, 4), SC), ((3, 3, 4), SC),
    ((2, 2, 2, 2), SC), ((2, 2, 3, 3), SC), ((2,) * 6, SC),
] + [((2 * r,) * 3, cls) for r in (1, 2, 3, 4) for cls in (CSSC, TSSC)]
# every even-volume shape with d <= 4, sides >= 2 and volume <= 40, in
# every axis order (the order fixes the ranks the parent rule compares)
CLOSURE_CASES += [
    (dims, SC)
    for d in (1, 2, 3, 4)
    for dims in itertools.product(range(2, 41), repeat=d)
    if math.prod(dims) <= 40 and math.prod(dims) % 2 == 0
    and (dims, SC) not in CLOSURE_CASES
]


@functools.cache
def oracle_members(dims, cls):
    start = seed(dims, cls)
    return tuple(sorted(oracles.bfs_masks(start.poset, cls, start.mask)))


@pytest.mark.parametrize("dims, cls", CLOSURE_CASES)
def test_graded_closure_matches_bfs_oracle(dims, cls):
    want = oracle_members(dims, cls)
    assert enumerate_ideals(dims, cls, force=True).masks == want
    assert enumerate_count(dims, cls, force=True) == len(want)
    # the batches hold every member once, with no repeat across the
    # whole closure, and none is empty
    batches = list(_closure(ChainProduct(dims), cls, seed(dims, cls).mask))
    assert all(batches)
    members = [m for batch in batches for m in batch]
    assert len(members) == len(set(members))
    assert sorted(members) == list(want)


@pytest.mark.parametrize("dims, cls", CLOSURE_CASES)
def test_split_batches_match_bfs_oracle(monkeypatch, dims, cls):
    # with a batch of 3, wider child lists are pushed as slices
    monkeypatch.setattr(enumeration, "_BATCH", 3)
    want = oracle_members(dims, cls)
    batches = list(_closure(ChainProduct(dims), cls, seed(dims, cls).mask))
    assert all(0 < len(batch) <= 3 for batch in batches)
    assert sorted(m for batch in batches for m in batch) == list(want)


def test_closed_form_masks_match_element_wise_references():
    # the cover axes and the halfspace seed are one run of ones times a
    # repunit; on every closure shape, every even axis seeds a halfspace
    for dims in sorted({dims for dims, _ in CLOSURE_CASES}):
        p = ChainProduct(dims)
        assert p.cover_axes == tuple(
            (s, up) for s, up in zip(p.strides, oracles.axis_masks(p)) if up
        ), dims
        for axis, l in enumerate(dims):
            if l % 2 == 0:
                assert _halfspace(p, axis) == oracles.halfspace_mask(
                    p, axis
                ), (dims, axis)


@pytest.mark.parametrize("side", range(2, 13))
def test_staircase_runs_match_element_wise_reference(side):
    # r = 0 is empty and r = side covers the whole cube
    p = cube(side)
    for r in range(side + 1):
        assert _staircase(p, r) == oracles.staircase_mask(p, r), r


@pytest.mark.parametrize("side", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("cls", [CSSC, TSSC], ids=["cyclic", "full"])
def test_orbits_by_coordinates_match_unrank(side, cls):
    # every orbit found by permuting unranked coordinates is movable
    # unless it is a diagonal point or holds the dual of an upper cover
    # of one of its elements; a movable orbit has its top in the table's
    # forward ranks, its rep in the backward ranks of an empty seed, and
    # its swap joins it to its dual orbit, which it never meets, so the
    # swap has 2 |orbit| bits and the flip weighs popcount / 6
    p = cube(side)
    V = p.volume
    table = metric.flip_table(p, cls)
    assert table.backward == 0 and table.xors == [0] * (V + 1)
    tops = reps = 0
    for ranks in oracles.orbits(p, oracles.GROUPS[cls]):
        corner = any(
            V - 1 - p.rank(c) in ranks
            for r in ranks for c in oracles.upper_covers(p, p.unrank(r))
        )
        if len(ranks) == 1 or corner:
            continue
        tops |= 1 << ranks[-1]
        reps |= 1 << ranks[0]
        dual = sum(1 << (V - 1 - r) for r in ranks)
        swap = sum(1 << r for r in ranks) | dual
        assert metric._orbit_swap(table.group, V, ranks[-1]) == swap
        assert swap.bit_count() // 6 == len(ranks) // 3
    assert table.forward == tops
    assert metric.flip_table(p, cls, 0).backward == reps


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


def children(kern, masks):
    """The masks a kernel appends to a copy of ``masks`` when it expands
    them all and none of the masks it appends."""
    return kern(list(masks), len(masks))[len(masks):]


def kernel(p, cls, masks, start=None):
    """The sorted (mask, weight) children of a bucket of masks, all of
    them, or with a seed ``start`` the reverse-search children only.
    An orbit flip weighs popcount(parent ^ child) / 6, so the orbit
    kernel is called once per parent."""
    table = metric.flip_table(p, cls, start)
    if cls == SC:
        kern = functools.partial(metric.sc_flip_masks, table)
        return sorted((m, 1) for m in children(kern, masks))
    kern = functools.partial(metric.orbit_flip_masks, table)
    return sorted(
        (child, (mask ^ child).bit_count() // 6)
        for mask in masks
        for child in children(kern, (mask,))
    )


def rep(orbit):
    """The smallest rank of a nonzero orbit mask (sc: its one rank)."""
    return (orbit & -orbit).bit_length() - 1


def oracle_children(p, cls, mask, start):
    """The reverse-search children of ``mask`` for the seed ``start``,
    from the oracle kernel: the forward flips (moving out members of
    ``start`` only) whose incoming orbit outranks every orbit that a
    backward flip (moving out no member of ``start``) would move out."""
    full = oracles.flip_masks(p, mask, cls)
    top = max(
        (rep(mask & ~m) for m, _ in full if mask & ~m & start == 0),
        default=-1,
    )
    return [
        (m, w) for m, w in full
        if mask & ~m & ~start == 0 and rep(m & ~mask) > top
    ]


@SETTINGS
@given(class_members())
def test_kernels_match_oracle_kernels(drawn):
    p, cls, mask = drawn
    assert kernel(p, cls, (mask,)) == oracles.flip_masks(p, mask, cls)


@st.composite
def member_and_seed(draw):
    """(poset, class, mask, seed): two members of one small class."""
    dims, cls = small_class(draw)
    masks = oracle_members(dims, cls)
    pick = st.sampled_from(masks)
    return ChainProduct(dims), cls, draw(pick), draw(pick)


@SETTINGS
@given(member_and_seed())
def test_seed_keeps_the_reverse_search_children(drawn):
    p, cls, mask, start = drawn
    assert kernel(p, cls, (mask,), start) == oracle_children(
        p, cls, mask, start
    )


@SETTINGS
@given(class_members())
def test_forward_flips_raise_the_key_by_their_weight(drawn):
    p, cls, mask = drawn
    start = seed(p.dims, cls).mask
    unit = 1 if cls == SC else 3
    key = (start & ~mask).bit_count()
    kept = kernel(p, cls, (mask,), start)
    for m, w in kernel(p, cls, (mask,)):
        step = (start & ~m).bit_count() - key
        forward = mask & ~m & ~start == 0
        assert step == (w if forward else -w) * unit
        assert forward or (m, w) not in kept
    assert set(kept) <= set(kernel(p, cls, (mask,)))
    # off the seed, some flip steps back toward it
    if mask != start:
        assert any(
            (start & ~m).bit_count() < key
            for m, _ in kernel(p, cls, (mask,))
        )


@SETTINGS
@given(member_and_seed())
def test_each_member_but_the_seed_has_one_parent(drawn):
    p, cls, mask, start = drawn
    # the neighbours one step (of their flip's weight) nearer the seed
    key = (start & ~mask).bit_count()
    down = [
        nm for nm, _ in oracles.flip_masks(p, mask, cls)
        if (start & ~nm).bit_count() < key
    ]
    if mask == start:
        assert down == []
        return
    parents = [
        nm for nm in down
        if any(m == mask for m, _ in kernel(p, cls, (nm,), start))
    ]
    # the one parent undoes the flip that moved in the highest orbit
    assert parents == [max(down, key=lambda nm: rep(mask & ~nm))]


@st.composite
def class_buckets(draw):
    """(poset, class, masks, seed): several members of one small class,
    in any order and with repeats, and one member as the seed."""
    dims, cls = small_class(draw)
    masks = oracle_members(dims, cls)
    bucket = draw(st.lists(st.sampled_from(masks), min_size=2, max_size=8))
    return ChainProduct(dims), cls, bucket, draw(st.sampled_from(masks))


@SETTINGS
@given(class_buckets())
def test_a_bucket_gives_the_union_of_its_members_children(drawn):
    p, cls, bucket, start = drawn
    # the multiset unions, duplicates kept, of the per-mask oracle output
    assert kernel(p, cls, bucket) == sorted(
        c for mask in bucket for c in oracles.flip_masks(p, mask, cls)
    )
    assert kernel(p, cls, bucket, start) == sorted(
        c for mask in bucket for c in oracle_children(p, cls, mask, start)
    )
    assert kernel(p, cls, []) == []
    # one call on the bucket gives each member's children in turn, after
    # the bucket itself, and returns the list it was given
    name = "sc_flip_masks" if cls == SC else "orbit_flip_masks"
    for table in (metric.flip_table(p, cls), metric.flip_table(p, cls, start)):
        kern = functools.partial(getattr(metric, name), table)
        masks = list(bucket)
        assert kern(masks, len(bucket)) is masks
        assert masks == bucket + [
            c for mask in bucket for c in children(kern, (mask,))
        ]
        # a larger limit also expands the children that land within it,
        # in list order, and expands nothing past it
        for limit in range(len(bucket) + 4):
            want = list(bucket)
            i = 0
            while i < min(limit, len(want)):
                want += children(kern, (want[i],))
                i += 1
            assert kern(list(bucket), limit) == want


@pytest.mark.parametrize("dims, cls", [
    ((2, 61), SC), ((2, 3, 4), SC), ((3, 3, 4), SC), ((2, 2, 2, 2), SC),
    ((4, 4, 4), CSSC), ((6, 6, 6), CSSC),
    ((4, 4, 4), TSSC), ((6, 6, 6), TSSC), ((8, 8, 8), TSSC),
])
def test_closure_takes_one_kernel_call_per_class_of_one_batch(
    monkeypatch, dims, cls
):
    # every class here fits one batch, so one call expands all of it:
    # the seed, then each member as it is appended.  With a batch of 3
    # each call expands at most 3 masks; either way every member is
    # expanded once, and every member but the seed is appended once
    n = len(enumerate_ideals(dims, cls))
    full = enumeration._BATCH
    assert n <= full
    calls = []
    for name in ("sc_flip_masks", "orbit_flip_masks"):
        def counted(
            table, masks, limit, name=name, kernel=getattr(metric, name)
        ):
            given = len(masks)
            out = kernel(table, masks, limit)
            calls.append((name, min(limit, len(out)), len(out) - given))
            return out

        monkeypatch.setattr(metric, name, counted)
    name = "sc_flip_masks" if cls == SC else "orbit_flip_masks"
    for batch in (full, 3):
        monkeypatch.setattr(enumeration, "_BATCH", batch)
        for run in (
            lambda: len(enumerate_ideals(dims, cls)),
            lambda: enumerate_count(dims, cls),
        ):
            calls.clear()
            assert run() == n
            assert {c for c, _, _ in calls} == {name}
            assert all(0 < expanded <= batch for _, expanded, _ in calls)
            assert sum(expanded for _, expanded, _ in calls) == n
            assert sum(added for _, _, added in calls) == n - 1
            if batch == full:
                assert calls == [(name, n, n - 1)]


@pytest.mark.parametrize(
    "dims, padded",
    [
        ((3, 4), (1, 3, 4)),
        ((2, 5), (2, 1, 5)),
        ((4, 4), (4, 4, 1)),
        ((2, 3, 4), (1, 2, 1, 3, 4, 1)),
    ],
)
def test_unit_axes_change_no_mask_or_edge(dims, padded):
    # a unit axis adds 0 to every rank, so the class, its maximal
    # members and its flip graph are those of the shape without it
    flat = enumerate_ideals(dims, SC, force=True)
    pad = enumerate_ideals(padded, SC, force=True)
    assert pad.masks == flat.masks
    pad_table = metric.flip_table(pad.poset, SC)
    assert pad_table.forward == metric.flip_table(flat.poset, SC).forward
    for m in flat.masks + (flat.poset.full_mask,):
        assert pad.poset.maximal_mask(m) == flat.poset.maximal_mask(m)
    assert metric.build_graph(pad).edges == metric.build_graph(flat).edges


@pytest.mark.parametrize("dims", [(2,), (1, 4), (2, 3), (3, 4), (2, 3, 4)])
def test_sc_flip_pairs_join_each_rank_to_its_dual(dims):
    # the table is filled on first use: after flipping every member
    # each filled entry joins its rank to the dual, and entry 0 stays
    # empty (an odd volume has no sc ideal, so its table is never filled)
    enum = enumerate_ideals(dims, SC, force=True)
    p = enum.poset
    table = metric.flip_table(p, SC)
    metric.sc_flip_masks(table, list(enum.masks), len(enum))
    xors = table.xors
    assert len(xors) == p.volume + 1 and xors[0] == 0
    assert any(xors) == (len(enum) > 1)
    for r in range(p.volume):
        if xors[r + 1]:
            a = p.unrank(r)
            dual = p.rank(tuple(l + 1 - c for c, l in zip(a, dims)))
            assert xors[r + 1] == (1 << r) | (1 << dual)
    assert metric.flip_table(p, SC).xors == [0] * (p.volume + 1)  # fresh


@pytest.mark.parametrize("dims, cls", [
    ((2, 3, 4), SC), ((2, 2, 2, 2), SC), ((1, 6), SC),
    ((4, 4, 4), CSSC), ((6, 6, 6), TSSC),
])
def test_flip_cuts_are_filled_on_first_use(dims, cls, monkeypatch):
    # the closure fills cuts[h] with the forward ranks below V - h for
    # each h its masks meet, and leaves every other entry empty
    tables = []
    build = metric.flip_table

    def keep(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(metric, "flip_table", keep)
    enumerate_count(dims, cls, force=True)
    (table,) = tables
    p, V = ChainProduct(dims), table.volume
    assert build(p, cls).cuts == [None] * (V + 1)  # fresh
    assert len(table.cuts) == V + 1
    filled = [h for h, cut in enumerate(table.cuts) if cut is not None]
    for h in filled:
        assert table.cuts[h] == table.forward & ((1 << (V - h)) - 1)
    # every member is expanded once: the filled h are the bit lengths
    # of the members' maximal backward ranks, and only those
    assert set(filled) == {
        (table.backward & p.maximal_mask(m)).bit_length()
        for m in oracle_members(dims, cls)
    }


@SETTINGS
@given(class_members())
def test_maximal_members_are_one_xor_for_a_member(drawn):
    # a member is downward closed, so every covered rank is a member and
    # the kernels' mask ^ covered is the reference mask & ~covered
    p, _, mask = drawn
    covered = 0
    for s, up in p.cover_axes:
        covered |= up & (mask >> s)
    assert covered & ~mask == 0
    assert mask ^ covered == p.maximal_mask(mask)
