"""Randomized invariants over small shapes (hypothesis).

Shapes are drawn small enough that enumeration is instant, so every
property is still an exact statement about the drawn instance; the
randomness only picks which instances get checked this run.
"""

import functools
import math

from hypothesis import assume, given, settings, strategies as st

import oracles
from scideals.constructions import sc_diameter_value
from scideals.enumeration import enumerate_ideals, oracle_ideal_masks, seed
from scideals.ideal import CSSC, SC, TSSC, Ideal, from_heights, validate_mask
from scideals.metric import distance
from scideals.poset import ChainProduct, ranks

SETTINGS = settings(deadline=None, max_examples=60)


def _volume_ok(dims):
    return math.prod(dims) % 2 == 0 and math.prod(dims) <= 24


even_shapes = (
    st.lists(st.integers(1, 6), min_size=1, max_size=3)
    .map(tuple)
    .filter(_volume_ok)
)


@st.composite
def sc_instances(draw, n=1):
    """A small even-volume shape plus n distinct-or-not sc vertices."""
    dims = draw(even_shapes)
    enum = enumerate_ideals(dims, SC, force=True)
    idx = draw(st.tuples(*[st.integers(0, len(enum) - 1)] * n))
    return enum, [enum.vertices[i] for i in idx]


@st.composite
def symmetric_instances(draw):
    r = draw(st.integers(1, 3))
    cls = draw(st.sampled_from([CSSC, TSSC]))
    enum = enumerate_ideals((2 * r,) * 3, cls)
    i, j = draw(st.tuples(st.integers(0, len(enum) - 1),
                          st.integers(0, len(enum) - 1)))
    return enum, enum.vertices[i], enum.vertices[j], cls


@SETTINGS
@given(sc_instances(1))
def test_flips_are_mutual_unit_steps(drawn):
    enum, (v,) = drawn
    p = v.poset
    for n, w in oracles.flip_masks(p, v.mask, SC):
        assert w == 1
        assert validate_mask(p, n, SC)
        assert (v.mask ^ n).bit_count() == 2  # one dual pair moved
        assert any(back == v.mask for back, _ in oracles.flip_masks(p, n, SC))


@SETTINGS
@given(symmetric_instances())
def test_symmetric_flips_stay_in_class(drawn):
    enum, v, _, cls = drawn
    for n, w in oracles.flip_masks(v.poset, v.mask, cls):
        assert validate_mask(v.poset, n, cls)
        assert distance(v, Ideal(v.poset, n), cls) == w


@SETTINGS
@given(sc_instances(3))
def test_metric_axioms(drawn):
    enum, (a, b, c) = drawn
    assert distance(a, a, SC) == 0
    assert distance(a, b, SC) == distance(b, a, SC)
    assert (distance(a, b, SC) == 0) == (a.mask == b.mask)
    assert distance(a, c, SC) <= distance(a, b, SC) + distance(b, c, SC)


@SETTINGS
@given(sc_instances(2))
def test_distance_never_exceeds_diameter_formula(drawn):
    enum, (a, b) = drawn
    assert distance(a, b, SC) <= sc_diameter_value(enum.poset.dims)


@SETTINGS
@given(sc_instances(2))
def test_sc_complement_rule(drawn):
    enum, (a, b) = drawn
    p = enum.poset
    assert p.reverse_mask(a.mask) == p.full_mask & ~a.mask
    # difference against the involution partner covers a quarter bound:
    # |a ∩ b| + |a \ b| = V/2, and d(a, b) = |a \ b|
    assert (a.mask & b.mask).bit_count() + distance(a, b, SC) == p.volume // 2


@SETTINGS
@given(even_shapes)
def test_seed_validates(dims):
    assert seed(dims, SC).validate(SC)


@SETTINGS
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple))
def test_rank_unrank_round_trip(dims):
    p = ChainProduct(dims)
    for rank in range(0, p.volume, max(1, p.volume // 7)):
        a = p.unrank(rank)
        assert p.rank(a) == rank
        assert p.check_element(a) == a
    assert p.rank(p.unrank(p.volume - 1)) == p.volume - 1


@SETTINGS
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_all_ideal_count_upper_bound(nd):
    n, d = nd
    if n ** d > 16:
        return  # keep the oracle scan instant
    count = len(oracle_ideal_masks(ChainProduct((n,) * d)))
    assert count <= 4 ** (n ** (d - 1))


@SETTINGS
@given(sc_instances(1))
def test_heights_round_trip(drawn):
    enum, (v,) = drawn
    if enum.poset.d != 3:
        return
    heights = v.to_heights()
    back = from_heights(enum.poset.dims, heights)
    assert back.mask == v.mask


@SETTINGS
@given(sc_instances(1))
def test_masks_are_ideals_under_their_poset(drawn):
    enum, (v,) = drawn
    assert v.is_ideal()
    for r in ranks(v.poset.maximal_mask(v.mask)):
        stripped = Ideal(v.poset, v.mask & ~(1 << r))
        assert stripped.is_ideal()


MEDIAN_CASES = [
    ((2, 3, 4), SC), ((3, 4, 5), SC), ((2, 2, 2, 2), SC),
    ((6, 6, 6), CSSC), ((6, 6, 6), TSSC), ((8, 8, 8), TSSC),
]


@functools.cache
def _class(dims, cls):
    return enumerate_ideals(dims, cls, force=True)


@st.composite
def small_classes(draw):
    """(dims, class): an sc shape of even volume <= 40, in any axis
    order, or a cssc/tssc cube [2r]^3 with r <= 3."""
    cls = draw(st.sampled_from([SC, CSSC, TSSC]))
    if cls != SC:
        return (2 * draw(st.integers(1, 3)),) * 3, cls
    dims: list[int] = []
    for _ in range(draw(st.integers(1, 4))):
        dims.append(draw(st.integers(1, 40 // math.prod(dims))))
    assume(math.prod(dims) % 2 == 0)
    return tuple(draw(st.permutations(dims))), cls


@SETTINGS
@given(st.sampled_from(MEDIAN_CASES) | small_classes(), st.data())
def test_majority_of_three_members_is_a_member(case, data):
    # the flip graphs are median graphs: the bitwise majority of three
    # members is again a member, whatever the distance formula says, so
    # the closure must have found it too
    dims, cls = case
    enum = _class(dims, cls)
    masks = st.sampled_from(enum.masks)
    a, b, c = data.draw(masks), data.draw(masks), data.draw(masks)
    majority = (a & b) | (a & c) | (b & c)
    assert validate_mask(ChainProduct(dims), majority, cls)
    assert majority in enum.index
