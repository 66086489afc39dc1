"""Named ideal constructions realizing extremal flip-graph positions.

Every function here builds a specific ideal (or member set) with a
proven or conjectured metric role, at any size in its family:

* ``halfspace``          the basic sc ideal, one axis cut in half;
* ``sc_diameter_pair``   two sc ideals realizing the sc diameter;
* ``majority_ideal``     the sc center witness when d is odd (all even);
* ``mod4_center``        the sc center witness when some dim is 0 mod 4;
* ``hypercube_center``   the [2]^d center candidate built from the
                         verified intersecting family (even d <= 6);
* ``partitioned_center`` assembles the radius-achieving sc ideal for
                         any even-volume shape by splitting the poset
                         into blocks and recursing;
* ``staircase_c2r``      the cube staircase a1+a2+a3 <= 3r+1, the
                         (observed) cssc center;
* ``pyramid_ideal``      the cssc ideal realizing the diameter against
                         the octant ideal;
* ``octant_ideal_cssc``  three low octants plus one high one;
* ``shell_ideal``        the boundary shells S_(k, 2r) that furthest-
                         from-center cssc ideals wear;
* ``core_shell``         splits an ideal of [2r]^3 into its [2r-2]^3
                         core and its shell, and ``compose_shell``
                         puts the two back together;
* ``tssc_extremes``      the unique minimal / maximal tssc pair under
                         the mandatory-region order, a diametral pair.

Each construction states its member set as one membership rule, a
condition on the coordinates of one element; `halfspace` and
`staircase_c2r` take the enumeration's seed masks instead.
`_rule_ideal` keeps the elements a rule admits, turns them into the
mask through `ChainProduct.mask_of` and validates the ideal for its
class before returning it; a failed validation is a bug, not a data
condition, hence a plain assert.  The partitioned center composes the
rules of its blocks: each element maps into the one block it lies in,
and that block's rule decides.  `build_named` reaches ten of them
through one table, whose keys are the CLI's names.  An sc
construction on an odd volume is refused by `enumeration._even_axes`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .chvatal import verified_family
from .enumeration import _even_axes, _halfspace, _staircase
from .ideal import CSSC, GROUPS, SC, TSSC, Ideal, SymmetryError
from .poset import (
    ChainProduct, Coords, ShapeError, as_dims, as_index, cube, even_cube,
    even_cube_r,
)


@dataclass(frozen=True)
class NamedIdeal:
    """A construction result dressed for reporting and the CLI."""

    name: str
    params: dict
    ideal: Ideal | None  # None when the member set is not downward closed
    symmetry: str | None
    conjectural: bool = False
    note: str = ""
    members: tuple[Coords, ...] = ()  # set only when ideal is None

    def to_record(self, fmt: str = "members") -> dict:
        rec = {
            "name": self.name,
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in self.params.items()},
            "symmetry": self.symmetry,
            "conjectural": self.conjectural,
        }
        if self.note:
            rec["note"] = self.note
        if self.ideal is not None:
            rec.update(self.ideal.to_record(fmt))
        else:
            rec["members"] = [list(m) for m in self.members]
        return rec


#: a membership condition: which elements of a poset a construction keeps
Rule = Callable[[Coords], bool]


def _rule_ideal(p: ChainProduct, keep: Rule, cls: str | None) -> Ideal:
    """The elements of ``p`` that ``keep`` admits, as an ideal that
    validates for ``cls`` (``None`` checks closure only)."""
    out = Ideal(p, p.mask_of(filter(keep, p.elements())))
    assert out.validate(cls)
    return out


# ----------------------------------------------------------------------
# closed-form metric values (referenced by the verification suites)


def sc_diameter_value(dims) -> int:
    """Exact sc flip-graph diameter: 0 / (V - l_k)/4 / V/4 by parity."""
    dims = as_dims(dims)
    volume = math.prod(dims)
    evens = [l for l in dims if l % 2 == 0]
    if not evens:
        return 0
    if len(evens) == 1:
        return (volume - evens[0]) // 4
    return volume // 4


def sc_radius_bound(dims) -> Fraction:
    """The all-even sc radius lower bound (1/4 - C(d-1, ...)/2^(d+1)) V.

    Exact for d odd or when some dimension is divisible by four; for
    the remaining even-d shapes the radius is conjectured to be the
    ceiling (plus nothing more).
    """
    dims = as_dims(dims)
    if any(l % 2 for l in dims):
        raise ShapeError("the radius bound needs every dimension even")
    d = len(dims)
    volume = math.prod(dims)
    return (
        Fraction(1, 4)
        - Fraction(math.comb(d - 1, (d - 1) // 2), 2 ** (d + 1))
    ) * volume


def cssc_diameter_value(r: int) -> int:
    return (r - 1) * r * (r + 1) // 3


def cssc_radius_value(r: int) -> int:
    return (r - 1) * r * (r + 1) // 6


def tssc_diameter_value(r: int) -> int:
    return (r - 1) * r * (2 * r - 1) // 6


# ----------------------------------------------------------------------
# sc constructions


def halfspace(dims, axis: int) -> Ideal:
    """The sc ideal a_axis <= l_axis / 2, for a zero-based axis."""
    p = dims if isinstance(dims, ChainProduct) else ChainProduct(tuple(dims))
    try:
        axis = operator.index(axis)
    except TypeError:
        raise ShapeError(f"axis must be an integer, got {axis!r}") from None
    if not 0 <= axis < p.d:
        raise ShapeError(f"axis must be in 0..{p.d - 1}, got {axis}")
    return Ideal(p, _halfspace(p, axis))


def sc_diameter_pair(dims) -> tuple[Ideal, Ideal]:
    """Two sc ideals at distance sc_diameter_value(dims).

    With two or more even axes, two halfspaces on distinct even axes
    differ in a quarter of the poset.  With exactly one even axis, the
    partner of its halfspace replicates an sc ideal of the punctured
    odd-axes product along the even axis and pins the central odd
    column to the lower half: the difference then misses exactly the
    central column, giving (V - l_k)/4.
    """
    dims = as_dims(dims)
    evens = _even_axes(dims)
    p = ChainProduct(dims)
    if len(evens) >= 2:
        return halfspace(p, evens[0]), halfspace(p, evens[1])
    k = evens[0]
    odd_axes = [i for i in range(p.d) if i != k]
    mids = tuple((dims[i] + 1) // 2 for i in odd_axes)
    # odd-axis coordinates < mids in tuple order is exactly "below the
    # central column in rank order": the canonical-minimum choice of the
    # punctured product's self-complementary half; on the column itself
    # the lower half of the even axis is kept
    top = mids + (dims[k] // 2,)
    first = _rule_ideal(
        p, lambda a: tuple(a[i] for i in odd_axes) + (a[k],) <= top, SC
    )
    return first, halfspace(p, k)


def _majority_rule(dims: Coords) -> Rule:
    d = len(dims)
    return lambda a: 2 * sum(2 * c <= l for c, l in zip(a, dims)) > d


def majority_ideal(dims) -> Ideal:
    """Members whose coordinates sit in the lower half on most axes.

    Needs every dimension even (clean halves) and d odd (no ties);
    realizes the sc radius bound as its eccentricity.
    """
    dims = as_dims(dims)
    if any(l % 2 for l in dims):
        raise ShapeError("majority ideal needs every dimension even")
    if len(dims) % 2 == 0:
        raise ShapeError("majority ideal needs odd d (no half-low ties)")
    return _rule_ideal(ChainProduct(dims), _majority_rule(dims), SC)


def _mod4_rule(dims: Coords) -> Rule:
    k = [i for i, l in enumerate(dims) if l % 4 == 0][-1]
    d = len(dims)

    def passes(a: Coords) -> bool:
        low = sum(
            1 for i, (c, l) in enumerate(zip(a, dims))
            if i != k and 2 * c <= l
        )
        quarter = -(-4 * a[k] // dims[k])
        return 2 * low + (4 - quarter) > d

    return passes


def mod4_center(dims) -> Ideal:
    """The radius witness when some dimension is divisible by four.

    Splits the last such axis into exact quarters q = 1..4 and keeps
    2 * (low-half count on the other axes) + (4 - q) > d.  The score
    of an element and its dual sum to 2d + 1, so exactly one of each
    dual pair passes: sc for either parity of d.
    """
    dims = as_dims(dims)
    if any(l % 2 for l in dims):
        raise ShapeError("mod4 center needs every dimension even")
    if all(l % 4 for l in dims):
        raise ShapeError("mod4 center needs a dimension divisible by 4")
    return _rule_ideal(ChainProduct(dims), _mod4_rule(dims), SC)


def _hypercube_rule(d: int) -> Rule:
    H = verified_family(d)

    def kept(a: Coords) -> bool:
        low = frozenset(i + 1 for i, c in enumerate(a) if c == 1)
        return 2 * len(low) > d or (2 * len(low) == d and low not in H)

    return kept


def hypercube_center(d: int) -> Ideal:
    """The [2]^d center candidate from the verified half-size family.

    Identify a ∈ [2]^d with its low set {i : a_i = 1} (so bigger sets
    sit lower).  Keep every set larger than half, and at exactly half
    keep the sets outside the verified family H(d): H holds one of each
    complementary pair, so this is sc, and any sc ideal's low sets
    pairwise intersect, which is what caps |I \\ C| at the family bound.
    """
    if d % 2:
        raise ShapeError("the hypercube family construction needs even d")
    return _rule_ideal(ChainProduct((2,) * d), _hypercube_rule(d), SC)


def _center_rule(dims: Coords) -> tuple[Rule, str, bool]:
    """The partitioned center of an even-volume shape, as (rule,
    branch, used_family).

    The last flag records whether a [2]^d block center from the
    verified intersecting family was consumed anywhere, which makes
    the eccentricity claim conditional for even block dimension >= 4.
    """
    if any(l % 2 for l in dims):
        return _odd_midpoint_rule(dims)
    if any(l % 4 == 0 for l in dims):
        return _mod4_rule(dims), "mod4", False
    return _block_partition_rule(dims)


def _block_partition_rule(dims: Coords) -> tuple[Rule, str, bool]:
    """Center when every dimension is 2 mod 4, by block partition.

    Partition the poset by the two straddling quarter values
    c_i = {(l_i + 2)/4, (3 l_i + 2)/4} per axis: the block where every
    coordinate is a straddling value is a copy of [2]^d and gets the
    majority ideal (d odd) or the intersecting-family center (d even,
    needs d <= 6); the block where axis i is the last non-straddling
    coordinate is a copy of
    [l_1] x ... x [l_(i-1)] x [l_i - 2] x [2]^(d-i) whose i-th axis is
    divisible by four, and gets the mod4 center.  Each block is stable
    under the involution, so the union is sc; that it is downward
    closed as a whole is the point of the construction (asserted).
    """
    d = len(dims)
    straddle = [((l + 2) // 4, (3 * l + 2) // 4) for l in dims]
    if d % 2:
        corner, used_family = _majority_rule((2,) * d), False
    else:
        corner, used_family = _hypercube_rule(d), True
    # axis i of length 2 has no value off its two straddling ones
    blocks = {
        i: _mod4_rule(dims[:i] + (l - 2,) + (2,) * (d - i - 1))
        for i, l in enumerate(dims) if l > 2
    }

    def rule(a: Coords) -> bool:
        i = max((j for j, (c, s) in enumerate(zip(a, straddle)) if c not in s),
                default=-1)
        tail = tuple(
            1 + (c == s[1]) for c, s in zip(a[i + 1:], straddle[i + 1:])
        )
        if i < 0:
            return corner(tail)
        low, high = straddle[i]
        return blocks[i](a[:i] + (a[i] - (a[i] > low) - (a[i] > high),) + tail)

    return rule, "block-partition", used_family


def _odd_midpoint_rule(dims: Coords) -> tuple[Rule, str, bool]:
    """Radius witness for a shape with both odd and even dimensions.

    Partition by which odd axes sit exactly at their midpoint: pinning
    those and dropping the midpoint from the rest leaves an all-even
    block, which recurses into the all-even construction.  Every block
    is involution-stable, so the union is sc; downward closure of the
    union is the content of the construction (asserted).
    """
    mids = {i: (l + 1) // 2 for i, l in enumerate(dims) if l % 2}
    blocks = {}
    used_family = False
    for pinned_count in range(len(mids) + 1):
        for pinned in itertools.combinations(mids, pinned_count):
            block_dims = tuple(
                l - (i in mids) for i, l in enumerate(dims) if i not in pinned
            )
            if 0 in block_dims:
                continue  # a unit axis has no value off its midpoint
            blocks[pinned], _, block_family = _center_rule(block_dims)
            used_family |= block_family

    def rule(a: Coords) -> bool:
        pinned = tuple(i for i in mids if a[i] == mids[i])
        return blocks[pinned](tuple(
            c - (i in mids and c > mids[i])
            for i, c in enumerate(a) if i not in pinned
        ))

    return rule, "odd-midpoint-partition", used_family


def partitioned_center(dims) -> NamedIdeal:
    """The radius-achieving sc ideal for any even-volume shape.

    Dispatches on parity: mod4 center (all even, some dimension
    divisible by 4), the [2]^d-block partition (all even, everything
    2 mod 4), or the odd-midpoint partition (mixed shapes), recursing
    per block.  Each element asks one block's rule whether it is kept.
    Marked conjecture-conditional when any [2]^d block of
    even dimension drew on the verified intersecting family, since
    that block's eccentricity bound is only conjectured sharp.
    """
    dims = as_dims(dims)
    _even_axes(dims)  # refuses an odd volume
    rule, branch, used_family = _center_rule(dims)
    return NamedIdeal(
        "partitioned-center", {"dims": dims},
        _rule_ideal(ChainProduct(dims), rule, SC), SC,
        conjectural=used_family,
        note=f"branch: {branch}",
    )


# ----------------------------------------------------------------------
# cssc constructions (cubes [2r]^3)


def _rotations(a: Coords) -> list[Coords]:
    """The rotations of a point by cssc's axis orders, itself first."""
    return [(a[i], a[j], a[k]) for i, j, k in GROUPS[CSSC]]


def staircase_c2r(r: int) -> Ideal:
    """The staircase a1 + a2 + a3 <= 3r + 1: tssc, and the cssc center."""
    p = even_cube(r)
    return Ideal(p, _staircase(p, r))


def octant_ideal_cssc(r: int) -> Ideal:
    """Three low octants plus the low-low-high octant, the points with
    at most one coordinate above r; tssc, size 4r^3."""
    return _rule_ideal(even_cube(r), lambda a: sum(c > r for c in a) <= 1,
                       TSSC)


def pyramid_ideal(r: int) -> Ideal:
    """The cssc ideal realizing the diameter against the octant ideal.

    Union of the three rotations of {a1 + a2 <= 2r and a1 + a3 <=
    2r + 1}; cyclic by construction, self-complementary and downward
    closed by the choice of the two thresholds (asserted).
    """
    p = even_cube(r)
    n = 2 * r
    return _rule_ideal(p, lambda a: any(
        x + y <= n and x + z <= n + 1 for x, y, z in _rotations(a)
    ), CSSC)


def cssc_must_include_points(r: int) -> list[Coords]:
    """Points (i, i, 2r+1-i), i <= r, present in every cssc ideal."""
    return [(i, i, 2 * r + 1 - i) for i in range(1, r + 1)]


def cssc_witness_pair(r: int) -> tuple[Coords, Coords]:
    """Every cssc ideal contains at least one of these two points."""
    return (1, r, 2 * r), (r, 1, 2 * r)


def staircase_2d(r: int, k: int) -> Ideal:
    """The sc staircase a1 + a2 <= r on [r-k-1] x [r+k] (0 <= k <= r-2).

    Its symmetric difference against any ideal of that rectangle is at
    most half the box, with equality only for the empty and full
    ideals.
    """
    if not (r >= 2 and 0 <= k <= r - 2):
        raise ShapeError("need r >= 2 and 0 <= k <= r - 2")
    return _rule_ideal(ChainProduct((r - k - 1, r + k)),
                       lambda a: sum(a) <= r, SC)


# ----------------------------------------------------------------------
# cssc shells


def shell_ideal(k: int, r: int) -> NamedIdeal:
    """The boundary shell S_(k, 2r), k = 1..2r-1, as a member set.

    Every cssc ideal furthest from the staircase center wears one of
    these shells around its core.  The shell is determined by its trace
    on the boundary of the low-low-high octant: the a2 = 1 slab, plus
    the points of the side layer (a1 = 1) and top layer (a3 = 2r)
    whose image in the swung [2r-1] x [r-1] rectangle lands in the
    first r-1-kk columns or the first kk rows, where kk = 2r-1-k.
    Shells with k < r are the coordinate transposes of their mirrors
    S_(2r-k); S_(r, 2r) is self-transposed.  The rest of the shell
    follows by cyclic closure, the complement rule on dual pairs, and
    the fact that every sc ideal contains the whole low octant: a
    boundary point with no coordinate above r is in, one with three is
    out, one with one is in iff its rotation with the high coordinate
    last is in the trace, and one with two iff its dual is not.
    """
    n = even_cube(r).dims[0]
    k = as_index(k, "shell index")
    if k not in range(1, n):
        raise ValueError(f"shell index must be in 1..{n - 1}, got {k}")
    kk = 2 * r - 1 - k if k >= r else k - 1

    def kept(a: Coords) -> bool:
        if 1 not in a and n not in a:
            return False  # off the boundary
        if k < r:
            a = (a[1], a[0], a[2])
        count = sum(c > r for c in a)
        if count in (0, 3):
            return count == 0
        if count == 2:  # the dual has the one coordinate above r
            a = tuple(n + 1 - c for c in a)
        x1, x2, x3 = next(b for b in _rotations(a) if b[2] > r)
        # the a2 = 1 slab and the first kk rows, or on the side layer
        # the first r-1-kk columns
        traced = x2 <= kk + 1 or (x1 == 1 and x3 <= n - 1 - kk)
        return traced != (count == 2)

    members = tuple(filter(kept, cube(n).elements()))
    assert len(members) * 2 == n**3 - (n - 2) ** 3, (k, r, len(members))
    return NamedIdeal(
        "shell", {"r": r, "k": k}, None, None,
        note="boundary member set, not itself an ideal",
        members=members,
    )


def _core_cube(side: int) -> ChainProduct:
    """Where the core of ``[side]^3`` lives: ``[side-2]^3``, whose
    ``(1,1,1)`` sits at ``(2,2,2)`` of the cube.  Side 2 has no interior;
    its empty core sits on ``[1]^3``."""
    return cube(max(side - 2, 1))


def core_shell(ideal: Ideal) -> tuple[Ideal, frozenset[Coords]]:
    """Split an ideal of ``[2r]^3`` into its core and its shell.

    The core is the sub-cube ``2 <= a_k <= 2r-1``, reindexed to
    ``[2r-2]^3``; the shell is every member with some coordinate equal
    to 1 or 2r.  The core of an ideal is again an ideal, and for the
    symmetric classes it inherits the class.
    """
    side = 2 * even_cube_r(ideal.poset.dims, "the core/shell split")
    members = ideal.members()
    core = [a for a in members if all(2 <= c < side for c in a)]
    inner = _core_cube(side)
    core_mask = inner.mask_of(tuple(c - 1 for c in a) for a in core)
    return Ideal(inner, core_mask), frozenset(members).difference(core)


def compose_shell(core: Ideal, members) -> Ideal:
    """Wrap the shell ``members`` around ``core``: the inverse of
    `core_shell`.

    The shell fixes the cube side 2r, since it always reaches the top
    boundary layer; the core must live on ``[2r-2]^3``.
    """
    members = tuple(members)
    n = max(max(a) for a in members)
    inner = _core_cube(n)
    if core.poset.dims != inner.dims:
        raise ShapeError(
            f"core must live on {inner.dims}, got {core.poset.dims}"
        )
    p = cube(n)
    mask = p.mask_of(members)
    mask |= p.mask_of(tuple(c + 1 for c in a) for a in core.members())
    out = Ideal(p, mask)
    if not out.is_ideal():
        raise SymmetryError("this shell does not fit that core")
    return out


# ----------------------------------------------------------------------
# tssc constructions


def _mandatory(a: Coords, r: int) -> bool:
    return any(x <= r and y + z <= 2 * r + 1 for x, y, z in _rotations(a))


def tssc_mandatory(r: int) -> Ideal:
    """The region contained in every tssc ideal (an ideal, but not sc).

    Union of the three rotations of {2 a1 <= 2r + 1 and a2 + a3 <=
    2r + 1}; symmetric and downward closed, but strictly smaller than
    half the cube for r >= 2.
    """
    return _rule_ideal(even_cube(r), lambda a: _mandatory(a, r), None)


def tssc_extremes(r: int) -> tuple[Ideal, Ideal]:
    """The minimal and maximal tssc ideals; a diametral pair.

    The minimal ideal keeps exactly the mandatory region in the four
    low octants and, in the mixed high octants (two coordinates above
    r), only the duals of the low points it had to give up; the
    maximal one is the octant ideal.  Their distance is
    (r-1) r (2r-1) / 6, the tssc diameter.
    """
    p = even_cube(r)
    n = 2 * r

    def kept(a: Coords) -> bool:
        return _mandatory(a, r) or (
            sum(c > r for c in a) == 2
            and not _mandatory(tuple(n + 1 - c for c in a), r)
        )

    return _rule_ideal(p, kept, TSSC), octant_ideal_cssc(r)


# ----------------------------------------------------------------------
# CLI-facing registry


def _one(build, symmetry: str, note: str = ""):
    """A construction of one ideal, recorded with the parameters it took."""
    return lambda name, params: [
        NamedIdeal(name, params, build(**params), symmetry, note=note)
    ]


def _pair(build, symmetry: str, diameter):
    """A diametral pair: one record per end, noting the diameter."""
    return lambda name, params: [
        NamedIdeal(name, {**params, "end": end}, ideal, symmetry,
                   note=f"distance realizes the {symmetry} diameter "
                        f"{diameter(**params)}")
        for end, ideal in enumerate(build(**params))
    ]


#: CLI name -> (the parameters it needs, in order; what builds its records)
_CONSTRUCTIONS = {
    "halfspace": (("dims", "axis"), _one(halfspace, SC)),
    "sc-diameter-pair":
        (("dims",), _pair(sc_diameter_pair, SC, sc_diameter_value)),
    "majority": (("dims",), _one(majority_ideal, SC)),
    "mod4-center": (("dims",), _one(mod4_center, SC)),
    "partitioned-center":
        (("dims",), lambda name, params: [partitioned_center(**params)]),
    "c2r": (("r",), _one(staircase_c2r, TSSC, "cssc center witness; "
                         "center uniqueness is conjectural")),
    "pyramid": (("r",), _one(pyramid_ideal, CSSC)),
    "octant": (("r",), _one(octant_ideal_cssc, TSSC)),
    "shell": (("r", "k"), lambda name, params: [shell_ideal(**params)]),
    "tssc-extremes":
        (("r",), _pair(tssc_extremes, TSSC, tssc_diameter_value)),
}

CONSTRUCTION_NAMES = tuple(_CONSTRUCTIONS)


def build_named(name: str, **params) -> list[NamedIdeal]:
    """Build a construction by CLI name; pairs return two entries.
    Every parameter it needs must be given, and any other must be
    ``None``, so no record names a parameter its ideal ignored."""
    if name not in _CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}")
    needs, build = _CONSTRUCTIONS[name]
    for key in needs:
        if params.get(key) is None:
            raise ValueError(f"construction {name!r} needs --{key}")
    for key, value in params.items():
        if value is not None and key not in needs:
            raise ValueError(f"construction {name!r} does not take --{key}")
    return build(name, {key: params[key] for key in needs})
