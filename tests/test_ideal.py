"""Ideal objects: validation, duality, heights, decomposition."""

import functools

import numpy as np
import pytest

import oracles
from scideals.constructions import core_shell
from scideals.enumeration import count_closed, enumerate_ideals
from scideals.ideal import (
    CSSC,
    SC,
    TSSC,
    Ideal,
    SymmetryError,
    from_heights,
    validate_mask,
)
from scideals.metric import flip_table, orbit_flip_masks, sc_flip_masks
from scideals.poset import ChainProduct, ShapeError

from reference_data import (
    CSSC_R2_HEIGHTS,
    CSSC_SHELL6_CARRIER_R4,
    STAIRCASE_R5_HEIGHTS,
    TSSC_CENTER_R3_HEIGHTS,
    heights_members,
)


def test_self_complementary_definition():
    # a in I  <=>  dual(a) not in I, checked pointwise on a known ideal
    ideal = from_heights((2, 3, 4), [[4, 4, 2], [2, 0, 0]])
    assert ideal.validate(SC)
    p = ideal.poset
    for a in p.elements():
        dual = tuple(l + 1 - c for c, l in zip(a, p.dims))
        assert (a in ideal) != (dual in ideal)
    assert ideal.size == p.volume // 2


def test_validate_rejects_non_ideals_and_non_sc():
    p = ChainProduct((2, 2))
    # {(2,2)} alone is upward, not downward, closed
    not_ideal = Ideal(p, 1 << p.rank((2, 2)))
    assert not not_ideal.is_ideal()
    assert not not_ideal.validate(SC)
    # the full poset is an ideal but not half-sized
    full = Ideal(p, (1 << p.volume) - 1)
    assert full.is_ideal()
    assert not full.validate(SC)


def test_symmetric_validation_needs_an_even_cube():
    ideal = from_heights((2, 3, 4), [[4, 4, 2], [2, 0, 0]])
    with pytest.raises(ShapeError):
        ideal.validate(CSSC)
    # odd volume can never be half-sized, so the sc test fails first
    odd = Ideal(ChainProduct((3, 3, 3)), 0)
    assert not odd.validate(TSSC)


@pytest.mark.parametrize("dims, cls", [
    ((4, 4, 4), SC), ((6, 6, 6), CSSC), ((8, 8, 8), CSSC),
])
def test_cube_symmetry_matches_the_orbits(dims, cls):
    # the oracle: an sc ideal is in a symmetric class iff every orbit of
    # the class's group lies wholly inside it or wholly outside it
    enum = enumerate_ideals(dims, cls)
    p = enum.poset
    for sym in (CSSC, TSSC):
        obs = [sum(1 << r for r in ranks)
               for ranks in oracles.orbits(p, oracles.GROUPS[sym])]
        valid = 0
        for m in enum.masks:
            want = all(m & ob in (0, ob) for ob in obs)
            assert validate_mask(p, m, sym) == want, (sym, m)
            valid += want
        assert valid == count_closed(dims, sym)


def test_heights_round_trip_and_orientation():
    ideal = from_heights((10,) * 3, STAIRCASE_R5_HEIGHTS)
    assert [list(r) for r in ideal.to_heights()] == STAIRCASE_R5_HEIGHTS
    # entry (i, j) counts members over (i+1, j+1)
    assert (1, 1, 10) in ideal
    assert (6, 1, 9) in ideal and (6, 1, 10) not in ideal
    assert set(ideal.members()) == heights_members(STAIRCASE_R5_HEIGHTS)


def test_heights_rejected_off_three_dimensions():
    with pytest.raises(ShapeError):
        from_heights((2, 2), [[2, 0]])
    flat = Ideal(ChainProduct((2, 2)), 0b0011)
    with pytest.raises(ShapeError):
        flat.to_heights()


def test_heights_must_be_weakly_decreasing():
    with pytest.raises(SymmetryError):
        # a column rising along an axis cannot be downward closed
        from_heights((2, 2, 2), [[1, 2], [0, 0]])


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None])
def test_heights_must_be_integers(bad):
    # a float or a string is refused by name, not shifted into a mask
    with pytest.raises(ValueError, match=r"height .* at \(0, 0\) is not an"):
        from_heights((2, 2, 2), [[bad, 0], [0, 0]])
    # an integer type such as numpy's is taken as its value
    assert from_heights((2, 2, 2), [[np.int64(2), 0], [0, 0]]).size == 2


@pytest.mark.parametrize("bad", [1.0, "1", None])
def test_ideal_mask_must_be_an_integer(bad):
    # a float or a string is refused by name at construction, not at
    # its first use
    p = ChainProduct((2, 2))
    with pytest.raises(ValueError, match=r"mask must be an integer, got "):
        Ideal(p, bad)
    # an integer type such as numpy's is stored as the int it stands for
    ideal = Ideal(p, np.int64(3))
    assert type(ideal.mask) is int and ideal.size == 2


def _mask(ranks):
    return sum(1 << r for r in ranks)


def test_from_members_and_ranks():
    members = heights_members(TSSC_CENTER_R3_HEIGHTS)
    p = ChainProduct((6, 6, 6))
    ideal = Ideal(p, _mask({p.rank(a) for a in members}))
    assert ideal.size == len(members) == 108
    assert ideal.validate(TSSC)
    again = Ideal(p, _mask(ideal.member_ranks()))
    assert again.mask == ideal.mask
    # the top element alone is not an ideal
    assert not Ideal(p, 1 << p.rank((6, 6, 6))).is_ideal()


def test_symmetry_classes_are_nested():
    ideal = from_heights((6,) * 3, TSSC_CENTER_R3_HEIGHTS)
    # totally symmetric implies cyclically symmetric implies sc
    assert ideal.validate(TSSC)
    assert ideal.validate(CSSC)
    assert ideal.validate(SC)


def test_cssc_but_not_tssc():
    hub = from_heights((4,) * 3, CSSC_R2_HEIGHTS[0])
    assert hub.validate(TSSC)  # the staircase is fully symmetric
    spoke = from_heights((4,) * 3, CSSC_R2_HEIGHTS[2])
    assert spoke.validate(CSSC)
    assert not spoke.validate(TSSC)
    mirror = from_heights((4,) * 3, CSSC_R2_HEIGHTS[3])
    # the two spokes are each other's transposes
    assert [list(r) for r in spoke.to_heights()] == [
        [row[i] for row in mirror.to_heights()] for i in range(4)
    ]


def test_symmetry_group_names():
    # each class flips under its coordinate group: none, cyclic, full
    hub = from_heights((4,) * 3, CSSC_R2_HEIGHTS[0])
    p, m = hub.poset, hub.mask
    flips = functools.partial(oracles.flip_masks, p, m)
    table = functools.partial(flip_table, p)
    assert flips(SC) == sorted(
        (n, 1) for n in sc_flip_masks(table(SC), [m], 1)[1:]
    )
    for cls in (CSSC, TSSC):
        assert flips(cls) == sorted(
            (n, (m ^ n).bit_count() // 6)
            for n in orbit_flip_masks(table(cls), [m], 1)[1:]
        )
    with pytest.raises(ValueError):
        flips("nope")


def test_dual_image_complements_sc_ideals():
    ideal = from_heights((2, 3, 4), [[4, 4, 2], [2, 0, 0]])
    dual = ideal.poset.reverse_mask(ideal.mask)
    assert dual == ~ideal.mask & ideal.poset.full_mask


def test_set_operations_and_difference_sizes():
    a = from_heights((2, 3, 4), [[4, 4, 2], [2, 0, 0]])
    b = from_heights((2, 3, 4), [[4, 4, 4], [0, 0, 0]])
    assert a.difference_size(b) == b.difference_size(a) == 2
    assert (a.mask ^ b.mask).bit_count() == 4
    assert (a.mask & b.mask).bit_count() == 10
    assert (a.mask | b.mask).bit_count() == 14
    # the moved points themselves
    assert len(Ideal(a.poset, a.mask & ~b.mask).members()) == 2


def test_octant_counts_sum_to_size():
    ideal = from_heights((8,) * 3, CSSC_SHELL6_CARRIER_R4)
    counts = {
        t: (ideal.mask & m).bit_count()
        for t, m in oracles.octant_masks(ideal.poset).items()
    }
    assert sum(counts.values()) == ideal.size == 8 ** 3 // 2
    # complementary octants hold complementary counts
    for t, n in counts.items():
        co = tuple(1 - x for x in t)
        assert n + counts[co] == 8 ** 3 // 8


def test_maximal_elements():
    ideal = from_heights((2, 3, 4), [[4, 4, 2], [2, 0, 0]])
    p = ideal.poset
    maxima = Ideal(p, p.maximal_mask(ideal.mask)).members()
    assert set(maxima) == {(1, 2, 4), (1, 3, 2), (2, 1, 2)}
    # a member is maximal iff none of its upper covers is a member
    for a in ideal.members():
        covered = any(b in ideal for b in oracles.upper_covers(p, a))
        assert covered != (a in maxima)


def test_core_shell_roundtrip():
    ideal = from_heights((8,) * 3, CSSC_SHELL6_CARRIER_R4)
    core, shell = core_shell(ideal)
    assert core.poset.dims == (6, 6, 6)
    assert core.validate(CSSC)
    # every shell member touches the boundary; the interior re-embeds
    assert all(any(c in (1, 8) for c in a) for a in shell)
    rebuilt = set(shell) | {
        tuple(c + 1 for c in a) for a in core.members()
    }
    assert rebuilt == set(ideal.members())


def test_record_round_trip():
    ideal = from_heights((2, 3, 4), [[4, 4, 2], [2, 0, 0]])
    rec = ideal.to_record("members")
    assert rec["dims"] == [2, 3, 4]
    assert Ideal(ideal.poset, _mask(rec["members"])) == ideal
    rec = ideal.to_record("heights")
    assert from_heights(rec["dims"], rec["heights"]).mask == ideal.mask
