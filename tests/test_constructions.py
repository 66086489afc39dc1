"""Named extremal constructions against hand-checked reference data."""

import hashlib
import json
import re
from fractions import Fraction

import pytest

import oracles
from scideals.constructions import (
    CONSTRUCTION_NAMES,
    build_named,
    compose_shell,
    core_shell,
    cssc_diameter_value,
    cssc_radius_value,
    halfspace,
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
from scideals.enumeration import enumerate_ideals
from scideals.ideal import CSSC, SC, TSSC, from_heights
from scideals.metric import distance, distances_from, metric_report
from scideals.poset import ShapeError, even_cube
from scideals.verify import sc_sweep

from reference_data import (
    COMPOSED_R5_HEIGHTS,
    COMPOSED_R5_SHELL_INDICES,
    CSSC_SHELL6_CARRIER_R4,
    SC_5x6x4_PAIR,
    SC_5x7x4_PAIR,
    SHELL_1_OF_R5_HEIGHTS,
    SHELL_7_OF_R5_EXTRA,
    SHELL_7_OF_R5_HEIGHTS,
    SHELL_9_OF_R5_HEIGHTS,
    STAIRCASE_R5_HEIGHTS,
    TREE_EDGES,
    TREE_HEIGHTS,
    TSSC_GREATEST_R5_HEIGHTS,
    TSSC_LEAST_R5_HEIGHTS,
    TSSC_MANDATORY_R5_HEIGHTS,
    heights_members,
    shell_members,
)


def _heights(ideal):
    return [list(row) for row in ideal.to_heights()]


# ----------------------------------------------------------------------
# closed-form metric values


def test_sc_diameter_value_by_parity():
    assert sc_diameter_value((3, 5, 7)) == 0
    assert sc_diameter_value((2, 3, 5)) == (30 - 2) // 4
    assert sc_diameter_value((5, 7, 4)) == (140 - 4) // 4 == 34
    assert sc_diameter_value((2, 3, 4)) == 6
    assert sc_diameter_value((4, 4)) == 4
    assert sc_diameter_value((5, 6, 4)) == 30


def test_sc_radius_bound_values():
    assert sc_radius_bound((2, 2)) == Fraction(1, 2)
    assert sc_radius_bound((2, 6)) == Fraction(3, 2)
    assert sc_radius_bound((6, 6)) == Fraction(9, 2)
    assert sc_radius_bound((2, 4, 6)) == 6
    assert sc_radius_bound((2, 6, 10)) == 15
    assert sc_radius_bound((2,) * 6) == 11
    with pytest.raises(ShapeError):
        sc_radius_bound((2, 3, 4))


def test_symmetric_metric_values():
    assert [cssc_diameter_value(r) for r in range(1, 6)] == [0, 2, 8, 20, 40]
    assert [cssc_radius_value(r) for r in range(1, 6)] == [0, 1, 4, 10, 20]
    assert [tssc_diameter_value(r) for r in range(1, 7)] == [
        0, 1, 5, 14, 30, 55]


# ----------------------------------------------------------------------
# sc constructions


def test_halfspace_is_sc():
    for dims, axis in [((2, 3, 4), 2), ((4, 4), 0), ((2, 3, 4), 0)]:
        ideal = halfspace(dims, axis)
        assert ideal.validate(SC)
        assert ideal.size * 2 == ideal.poset.volume


@pytest.mark.parametrize("axis", [-1, -3, 3])
def test_halfspace_refuses_an_axis_outside_the_poset(axis):
    # a negative axis must not wrap round to count from the last one
    with pytest.raises(ShapeError, match=r"axis must be in 0\.\.2"):
        halfspace((2, 3, 4), axis)
    with pytest.raises(ShapeError, match="axis must be in"):
        build_named("halfspace", dims=(2, 3, 4), axis=axis)


def test_sc_diameter_pair_two_even_axes_matches_reference():
    a, b = sc_diameter_pair((5, 6, 4))
    assert _heights(a) == SC_5x6x4_PAIR[0]
    assert _heights(b) == SC_5x6x4_PAIR[1]
    assert distance(a, b, SC) == sc_diameter_value((5, 6, 4)) == 30


def test_sc_diameter_pair_single_even_axis():
    a, b = sc_diameter_pair((5, 7, 4))
    assert a.validate(SC) and b.validate(SC)
    assert _heights(b) == SC_5x7x4_PAIR[1]  # the even-axis halfspace
    assert distance(a, b, SC) == sc_diameter_value((5, 7, 4)) == 34


def test_reference_cascade_pair_also_realizes_single_even_diameter():
    # an independently drawn witness pair: a staggered cascade against
    # the same halfspace, at the same extremal distance
    a = from_heights((5, 7, 4), SC_5x7x4_PAIR[0])
    b = from_heights((5, 7, 4), SC_5x7x4_PAIR[1])
    assert a.validate(SC) and b.validate(SC)
    assert distance(a, b, SC) == 34


def test_sc_diameter_pair_rejects_odd_volume():
    from scideals.enumeration import EmptyClassError

    # one rule, one wording, for the enumerations and the constructions
    for build in (sc_diameter_pair, partitioned_center,
                  lambda dims: build_named("sc-diameter-pair", dims=dims)):
        with pytest.raises(EmptyClassError,
                           match=re.escape("no sc ideals on (3, 3, 5)")):
            build((3, 3, 5))


def test_majority_ideal_validates_and_guards():
    ideal = majority_ideal((2, 6, 10))
    assert ideal.validate(SC)
    with pytest.raises(ShapeError):
        majority_ideal((2, 3, 4))  # odd dimension present
    with pytest.raises(ShapeError):
        majority_ideal((2, 6))  # even d ties


def test_mod4_center_validates_and_guards():
    ideal = mod4_center((2, 4))
    assert ideal.validate(SC)
    assert ideal.size == 4
    with pytest.raises(ShapeError):
        mod4_center((2, 6))  # nothing divisible by four
    with pytest.raises(ShapeError):
        mod4_center((2, 3, 4))


def test_hypercube_center_validates():
    for d in (2, 4, 6):
        assert hypercube_center(d).validate(SC)
    with pytest.raises(ShapeError):
        hypercube_center(3)


def test_partitioned_center_branches_and_flags():
    named = partitioned_center((2, 6))
    assert named.ideal.validate(SC)
    assert named.conjectural  # drew on the d = 2 hypercube family block
    named3 = partitioned_center((2, 6, 10))
    assert named3.ideal.validate(SC)
    assert not named3.conjectural  # odd d: majority blocks only
    named4 = partitioned_center((2, 4, 6))
    assert named4.ideal.validate(SC)
    assert "mod4" in named4.note
    mixed = partitioned_center((3, 5, 8))
    assert mixed.ideal.validate(SC)
    assert "odd-midpoint" in mixed.note


@pytest.mark.parametrize("dims", [
    (1, 2), (1, 4), (1, 2, 3), (1, 1, 2), (1, 6), (2, 6, 1), (1, 3, 4),
    (1, 2, 6), (1, 1, 6), (1, 5, 6), (1, 4, 4), (1, 2, 2), (1, 6, 6),
    *sc_sweep(60),
])
def test_partitioned_center_on_a_unit_axis_is_central(dims):
    # a unit axis sits at its midpoint in every block: the blocks that
    # move it off are empty and skipped; the sweep shapes cover every
    # branch on each parity pattern
    ideal = partitioned_center(dims).ideal
    assert ideal.validate(SC)
    enum = enumerate_ideals(dims)
    assert max(distances_from(enum, ideal)) == metric_report(enum).radius


# ----------------------------------------------------------------------
# cssc constructions


def test_staircase_matches_reference_figure():
    assert _heights(staircase_c2r(5)) == STAIRCASE_R5_HEIGHTS
    for r in (1, 2, 3, 4, 5):
        assert staircase_c2r(r).validate(TSSC)


def test_octant_and_pyramid_validate():
    for r in (1, 2, 3, 4):
        assert octant_ideal_cssc(r).validate(TSSC)
        assert pyramid_ideal(r).validate(CSSC)
    assert distance(
        octant_ideal_cssc(3), pyramid_ideal(3), CSSC
    ) == cssc_diameter_value(3)


@pytest.mark.parametrize(
    "k, heights, extra",
    [
        (1, SHELL_1_OF_R5_HEIGHTS, ()),
        (9, SHELL_9_OF_R5_HEIGHTS, ()),
        (7, SHELL_7_OF_R5_HEIGHTS, SHELL_7_OF_R5_EXTRA),
    ],
)
def test_shell_members_match_reference_figures(k, heights, extra):
    got = set(shell_ideal(k, 5).members)
    assert got == shell_members(heights, extra)


def test_shell_index_bounds():
    with pytest.raises(ValueError):
        shell_ideal(0, 3)
    with pytest.raises(ValueError):
        shell_ideal(6, 3)


def test_carrier_core_shell_matches_shell_ideal():
    carrier = from_heights((8, 8, 8), CSSC_SHELL6_CARRIER_R4)
    assert carrier.validate(CSSC)
    core, shell = core_shell(carrier)
    assert set(shell) == set(shell_ideal(6, 4).members)
    assert core.poset.dims == (6, 6, 6)
    assert core.validate(CSSC)


def test_composed_shells_round_trip():
    carrier = from_heights((8, 8, 8), CSSC_SHELL6_CARRIER_R4)
    for heights, k in zip(COMPOSED_R5_HEIGHTS, COMPOSED_R5_SHELL_INDICES):
        composed = from_heights((10, 10, 10), heights)
        assert composed.validate(CSSC)
        core, shell = core_shell(composed)
        assert core.members() == carrier.members()
        assert set(shell) == set(shell_ideal(k, 5).members)
        rebuilt = compose_shell(core, shell_ideal(k, 5).members)
        assert rebuilt.mask == composed.mask
        # the composed vertex sits on the perimeter around the center
        assert distance(
            composed, staircase_c2r(5), CSSC
        ) == cssc_radius_value(5)


def test_compose_shell_shape_guards():
    with pytest.raises(ShapeError):
        # core too small
        compose_shell(staircase_c2r(2), shell_ideal(1, 5).members)


def test_furthest_tree_levels_match_reference():
    ideals = [from_heights((2 * lvl,) * 3, h) for lvl, h in zip(
        [1] + [2] * 3 + [3] * 9, TREE_HEIGHTS)]
    for ideal in ideals:
        assert ideal.validate(CSSC)
    for parent, child in TREE_EDGES:
        core, shell = core_shell(ideals[child])
        assert core.members() == ideals[parent].members()
        r = max(max(a) for a in shell) // 2
        assert any(
            set(shell) == set(shell_ideal(k, r).members)
            for k in range(1, 2 * r)
        )
    # every leaf is furthest from the r = 3 staircase center
    for ideal in ideals[4:]:
        assert distance(
            ideal, staircase_c2r(3), CSSC
        ) == cssc_radius_value(3)


# ----------------------------------------------------------------------
# tssc constructions


def test_tssc_mandatory_matches_reference():
    mand = tssc_mandatory(5)
    assert _heights(mand) == TSSC_MANDATORY_R5_HEIGHTS
    assert mand.size == 410
    assert not mand.validate(SC)  # strictly smaller than half the cube
    assert mand.is_ideal()


def test_tssc_extremes_match_reference_and_realize_diameter():
    lo, hi = tssc_extremes(5)
    assert _heights(lo) == TSSC_LEAST_R5_HEIGHTS
    assert _heights(hi) == TSSC_GREATEST_R5_HEIGHTS
    assert hi.mask == octant_ideal_cssc(5).mask
    assert lo.validate(TSSC) and hi.validate(TSSC)
    assert distance(lo, hi, TSSC) == tssc_diameter_value(5) == 30


@pytest.mark.parametrize("r", range(1, 7))
def test_octant_rules_match_the_octant_masks(r):
    # the octant ideal is four whole octants, and the least tssc ideal
    # adds to the mandatory region the mixed high octants' points whose
    # dual is not mandatory
    om = oracles.octant_masks(even_cube(r))
    low = om[0, 0, 0] | om[0, 0, 1] | om[0, 1, 0] | om[1, 0, 0]
    high2 = om[1, 1, 0] | om[1, 0, 1] | om[0, 1, 1]
    mand = tssc_mandatory(r)
    least, greatest = tssc_extremes(r)
    assert octant_ideal_cssc(r).mask == greatest.mask == low
    assert least.mask == mand.mask | high2 & ~mand.poset.reverse_mask(
        mand.mask)


@pytest.mark.parametrize("r", [0, -1])
def test_tssc_extremes_refuses_r_below_one(r):
    with pytest.raises(ShapeError, match="r must be >= 1"):
        tssc_extremes(r)


CUBE_CONSTRUCTIONS = {
    "staircase_c2r": staircase_c2r,
    "octant_ideal_cssc": octant_ideal_cssc,
    "pyramid_ideal": pyramid_ideal,
    "shell_ideal": lambda r: shell_ideal(1, r),
    "tssc_mandatory": tssc_mandatory,
    "tssc_extremes": tssc_extremes,
}
CUBE_NAMES = ("c2r", "pyramid", "octant", "shell", "tssc-extremes")


@pytest.mark.parametrize("r", [0, -1, 2.5])
@pytest.mark.parametrize("build", list(CUBE_CONSTRUCTIONS))
def test_cube_constructions_refuse_bad_r(build, r):
    with pytest.raises(ShapeError, match="^r must be"):
        CUBE_CONSTRUCTIONS[build](r)


@pytest.mark.parametrize("r", [0, -1, 2.5])
@pytest.mark.parametrize("name", CUBE_NAMES)
def test_build_named_refuses_bad_r(name, r):
    # r goes through unchanged: 2.5 is refused, not truncated to 2
    with pytest.raises(ShapeError, match="^r must be"):
        build_named(name, r=r, k=1 if name == "shell" else None)


def test_parameters_are_not_truncated():
    with pytest.raises(ShapeError, match="r must be an integer, got 2.9"):
        build_named("c2r", r=2.9)
    for axis in (2.0, 2.9):
        with pytest.raises(ShapeError, match="axis must be an integer"):
            build_named("halfspace", dims=(2, 3, 4), axis=axis)
        with pytest.raises(ShapeError, match="axis must be an integer"):
            halfspace((2, 3, 4), axis)
    for k in (2.0, 2.5):
        with pytest.raises(ValueError,
                           match=f"shell index must be an integer, got {k}"):
            build_named("shell", r=3, k=k)
    with pytest.raises(ValueError, match="unknown construction"):
        build_named("staircase", r=2)  # c2r has one name


# ----------------------------------------------------------------------
# every construction, pinned

#: the number of `_construction_records` and the first 16 hex digits of
#: the sha256 of them as sorted JSON; they change only with a deliberate
#: change to an output
CONSTRUCTIONS_PIN = (915, "551b3b76898dcfe8")


def _construction_records():
    """Every construction over a fixed grid of sizes, one record each."""
    records = []

    def add(name, params, ideal):
        records.append({"name": name, "params": params, **ideal.to_record()})

    for r in range(1, 7):
        for name in ("c2r", "pyramid", "octant", "tssc-extremes"):
            records += [n.to_record() for n in build_named(name, r=r)]
        records += [shell_ideal(k, r).to_record() for k in range(1, 2 * r)]
        add("tssc-mandatory", [r], tssc_mandatory(r))
    for r in range(2, 9):
        for k in range(r - 1):
            add("staircase-2d", [r, k], staircase_2d(r, k))
    for d in (2, 4, 6):
        add("hypercube-center", [d], hypercube_center(d))
    wide = ((2, 2, 2, 2), (3, 2, 5, 2), (2, 2, 6, 2, 2), (2,) * 6)
    for dims in sc_sweep(60) + wide:
        records += [n.to_record() for n in build_named("sc-diameter-pair",
                                                       dims=dims)]
        records.append(partitioned_center(dims).to_record())
        if all(l % 2 == 0 for l in dims):
            if len(dims) % 2:
                add("majority", list(dims), majority_ideal(dims))
            if any(l % 4 == 0 for l in dims):
                add("mod4-center", list(dims), mod4_center(dims))
    return records


def test_construction_outputs_are_pinned():
    records = _construction_records()
    text = json.dumps(records, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (len(records), digest) == CONSTRUCTIONS_PIN


# ----------------------------------------------------------------------
# registry


def test_build_named_covers_registry():
    built = set()
    for name in CONSTRUCTION_NAMES:
        if name in ("halfspace",):
            out = build_named(name, dims=(2, 3, 4), axis=2)
        elif name in ("sc-diameter-pair", "majority", "mod4-center",
                      "partitioned-center"):
            dims = (2, 6, 10) if name == "majority" else (2, 3, 4)
            if name == "partitioned-center":
                dims = (2, 6)
            if name == "mod4-center":
                dims = (2, 4)
            out = build_named(name, dims=dims)
        else:
            out = build_named(name, r=2, k=1 if name == "shell" else None)
        assert out, name
        built.add(name)
        for named in out:
            record = named.to_record()
            assert record["name"] in (name, "c2r", "shell")
            assert "members" in record
    assert built == set(CONSTRUCTION_NAMES)


def test_build_named_heights_record_format():
    named = build_named("c2r", r=2)[0]
    rec = named.to_record("heights")
    assert rec["heights"] == _heights(staircase_c2r(2))


def test_build_named_errors():
    with pytest.raises(ValueError):
        build_named("no-such-construction", r=1)
    with pytest.raises(ValueError):
        build_named("halfspace", dims=(2, 3, 4))  # missing axis
    with pytest.raises(ValueError):
        build_named("shell", r=3)  # missing k


@pytest.mark.parametrize("name, params, flag", [
    ("c2r", {"r": 2, "dims": (2, 2)}, "--dims"),
    ("c2r", {"r": 2, "k": 1}, "--k"),
    ("majority", {"dims": (2, 4, 6), "axis": 0}, "--axis"),
    ("shell", {"r": 3, "k": 2, "dims": (6, 6, 6)}, "--dims"),
    ("halfspace", {"dims": (2, 3, 4), "axis": 2, "r": 2}, "--r"),
])
def test_build_named_refuses_parameters_it_does_not_take(name, params, flag):
    with pytest.raises(ValueError, match=f"^construction {name!r} does not "
                                         f"take {flag}$"):
        build_named(name, **params)
    # None means not given, as the CLI passes every option
    assert build_named(name, **{**params, flag[2:]: None})


def test_reference_decoder_roundtrip():
    members = heights_members(STAIRCASE_R5_HEIGHTS)
    assert members == set(staircase_c2r(5).members())
