"""Enumeration: closed forms, flip closure, the brute-force scan, guards."""

import re

import numpy as np
import pytest

import oracles
from scideals import cli, enumeration
from scideals.enumeration import (
    EmptyClassError,
    EnumerationGuardError,
    PartialEnumerationError,
    _plane_partition_box,
    _symmetric_count,
    count_closed,
    enumerate_count,
    enumerate_ideals,
    oracle_enumerate,
    seed,
)
from scideals.ideal import CSSC, SC, TSSC, Ideal
from scideals.poset import ChainProduct, ShapeError


@pytest.mark.parametrize("dims, want", [
    ((2,), 1),
    ((4,), 1),
    ((2, 2), 2),
    ((4, 4), 6),
    ((2, 4), 3),
    ((6, 6), 20),
    ((2, 3, 4), 18),
    ((3, 3, 2), 9),
    ((2, 2, 2), 4),
    ((4, 4, 4), 400),
    ((3, 3, 4), 36),
    ((2, 4, 6), 100),
    ((2, 7, 7), 1225),
])
def test_sc_closed_form(dims, want):
    assert count_closed(dims, SC) == want
    assert enumerate_count(dims, SC) == want


def test_integer_closed_forms_match_the_rational_products():
    for a in range(7):
        for b in range(7):
            for c in range(7):
                assert _plane_partition_box(a, b, c) == \
                    oracles.plane_partition_box(a, b, c), (a, b, c)
    for r in range(9):
        assert _symmetric_count(r) == oracles.symmetric_count(r), r


def test_sc_closed_form_rotates_the_even_axis():
    # the formula must pick an even side as its third axis; the count
    # is symmetric under permuting dims
    import itertools

    for perm in itertools.permutations((2, 3, 4)):
        assert count_closed(perm, SC) == 18
    for perm in itertools.permutations((3, 3, 2)):
        assert count_closed(perm, SC) == 9


def test_odd_volume_is_empty():
    assert count_closed((3, 5), SC) == 0
    assert count_closed((3, 3, 3), SC) == 0
    with pytest.raises(EmptyClassError):
        seed((3, 3, 3), SC)
    with pytest.raises(EmptyClassError):
        enumerate_count((3, 5), SC)


@pytest.mark.parametrize("r, cssc, tssc", [
    (1, 1, 1), (2, 4, 2), (3, 49, 7), (4, 1764, 42), (5, 184041, 429),
])
def test_symmetric_closed_forms(r, cssc, tssc):
    assert count_closed((2 * r,) * 3, CSSC) == cssc
    assert count_closed((2 * r,) * 3, TSSC) == tssc


def test_symmetric_classes_need_even_cubes():
    for bad in ((2, 2), (2, 4, 4), (3, 3, 3)):
        with pytest.raises(ShapeError):
            count_closed(bad, CSSC)


def test_no_closed_form_beyond_three_dimensions():
    with pytest.raises(ShapeError):
        count_closed((2, 2, 2, 2), SC)


@pytest.mark.parametrize("dims", [(2.5, 3), (2.9, 4), ("2", "4"), (2, 4.0)])
def test_non_integral_dims_are_refused(dims):
    # int() would truncate 2.9 to 2 (and then count (2, 4)) or parse '2'
    for build in (
        ChainProduct, count_closed, enumerate_count, enumerate_ideals, seed
    ):
        with pytest.raises(ShapeError, match="dimensions must be integers"):
            build(dims)


def test_integer_types_are_taken_as_ints():
    dims = (np.int64(2), np.uint8(4))
    assert ChainProduct(dims).dims == (2, 4)
    assert all(type(l) is int for l in ChainProduct(dims).dims)
    assert enumerate_count(dims) == count_closed(dims) == 3


def test_seed_validates():
    assert seed((2, 3, 4), SC).validate(SC)
    assert seed((6, 6, 6), CSSC).validate(CSSC)
    assert seed((6, 6, 6), TSSC).validate(TSSC)


def test_enumeration_is_canonically_sorted():
    enum = enumerate_ideals((2, 3, 4), SC)
    assert list(enum.masks) == sorted(enum.masks)
    assert all(v.validate(SC) for v in enum.vertices)
    assert enum.index[enum.masks[5]] == 5


def test_enumerations_hold_masks_and_build_views_on_demand(monkeypatch):
    built = []
    monkeypatch.setattr(Ideal, "__post_init__", lambda v: built.append(v))
    enum = enumerate_ideals((2, 3, 4), SC)
    assert oracle_enumerate((2, 3, 4), SC).masks == enum.masks
    assert built == []
    assert enum.vertices[5].mask == enum.masks[5]
    assert len(built) == 1  # one index read builds one view
    assert len(enum.vertices) == len(enum) and len(built) == 1
    assert [v.mask for v in enum.vertices] == list(enum.masks)
    assert len(built) == 1 + len(enum) == 19


def test_vertices_can_be_sliced():
    enum = enumerate_ideals((2, 3, 4), SC)
    for part in (slice(1, 3), slice(None, None, -2), slice(5, 5)):
        views = enum.vertices[part]
        assert len(views) == len(enum.masks[part])
        assert [v.mask for v in views] == list(enum.masks[part])
        assert all(isinstance(v, Ideal) for v in views)
    assert enum.vertices[1:3][-1].mask == enum.masks[2]


def test_flip_closure_matches_oracle_scan():
    for dims, cls in (((2, 3), SC), ((4, 4), SC), ((2, 3, 4), SC),
                      ((4, 4, 4), CSSC), ((4, 4, 4), TSSC)):
        force = cls != SC
        assert (
            oracle_enumerate(dims, cls, force=force).masks
            == enumerate_ideals(dims, cls).masks
        )


def test_oracle_counts_all_ideals():
    # unfiltered: all downward-closed sets, a classical lattice count
    assert len(oracle_enumerate((3, 3))) == 20
    assert len(oracle_enumerate((2, 2, 2))) == 20


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("dims", [(3, 5), (3, 5, 7), (3, 3, 3, 3)])
def test_odd_volume_sc_is_refused_with_and_without_force(dims, force):
    # with force the closed form is skipped, so the guard itself must
    # still name an odd volume as an empty class
    message = re.escape(f"no sc ideals on {dims}")
    with pytest.raises(EmptyClassError, match=message):
        enumerate_count(dims, SC, force=force)
    with pytest.raises(EmptyClassError, match=message):
        enumerate_ideals(dims, SC, force=force)


def test_a_wrong_shape_is_refused_before_the_poset_is_built(monkeypatch):
    # a poset's masks grow with its volume, even when its class is empty
    def refuse(dims):
        raise AssertionError(f"poset built for {dims}")

    monkeypatch.setattr(enumeration, "ChainProduct", refuse)
    for force in (False, True):
        for dims in ((999, 999, 999), (3,) * 30):
            with pytest.raises(EmptyClassError, match="no sc ideals"):
                enumerate_count(dims, SC, force=force)
            with pytest.raises(EmptyClassError, match="no sc ideals"):
                enumerate_ideals(dims, SC, force=force)
    with pytest.raises(ShapeError, match="needs an even cube"):
        enumerate_count((4, 4, 6), CSSC, force=True)


def test_force_does_not_evaluate_the_closed_form(monkeypatch):
    def refuse(dims, cls=SC):
        raise AssertionError(f"closed form evaluated for {cls} on {dims}")

    monkeypatch.setattr(enumeration, "count_closed", refuse)
    assert enumerate_count((2, 3, 4), SC, force=True) == 18
    assert enumerate_count((4, 4, 4), TSSC, force=True) == 2
    assert len(enumerate_ideals((4, 4, 4), CSSC, force=True)) == 4
    with pytest.raises(AssertionError, match="closed form evaluated"):
        enumerate_count((2, 3, 4), SC)


def test_vertex_guard_and_force():
    # no closed form for d = 6, and the volume guard trips first
    with pytest.raises(EnumerationGuardError):
        enumerate_count((2,) * 6, SC)
    assert enumerate_count((2,) * 6, SC, force=True) == 2646


def test_oracle_volume_guard():
    # one guard, filtered or not: an unfiltered scan at volume 36 runs
    assert len(oracle_enumerate((2, 2, 3, 3))) == 8790
    for cls in (None, CSSC):
        with pytest.raises(EnumerationGuardError, match="guard of 36"):
            oracle_enumerate((4, 4, 4), cls)


def test_negative_cap_is_refused_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(enumeration, "_closure", refuse)
    with pytest.raises(ValueError, match="cap must be non-negative, got -1"):
        enumerate_ideals((2, 3, 4), SC, cap=-1)


@pytest.mark.parametrize("bad", [1.5, 2.0, "3"])
def test_non_integer_cap_is_refused_before_any_work(monkeypatch, bad):
    def refuse(*args):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(enumeration, "_closure", refuse)
    with pytest.raises(ValueError, match=r"cap must be an integer, got "):
        enumerate_ideals((2, 3, 4), SC, cap=bad)
    monkeypatch.undo()
    # an integer type such as numpy's is taken as its value
    assert len(enumerate_ideals((2, 3, 4), SC, cap=np.int64(18))) == 18


def test_partial_enumeration_cap(capsys):
    # the cap is checked after each batch, so the error reports more
    # vertices than the cap
    with pytest.raises(PartialEnumerationError) as info:
        enumerate_ideals((2, 3, 4), SC, cap=5)
    assert info.value.cap == 5
    assert info.value.visited > info.value.cap
    assert enumerate_ideals((2, 3, 4), SC, cap=18).masks == (
        enumerate_ideals((2, 3, 4), SC).masks
    )
    # the CLI reports it as a library error, not a traceback
    assert cli.main(["enumerate", "--dims", "2,3,4", "--cap", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"scideals: error: enumeration exceeded cap=5 "
        f"({info.value.visited} vertices reached)\n"
    )


def test_empty_class_guard_for_symmetric_odd():
    # flip closure refuses a class with no members rather than looping
    with pytest.raises((EmptyClassError, ShapeError)):
        enumerate_ideals((3, 3, 3), CSSC)
