"""Counting and enumerating the symmetric ideal classes.

Closed-form counts
------------------
For ``d = 3`` the self-complementary ideals of ``[l_1] x [l_2] x [l_3]``
are counted by a product of two boxed plane-partition counts: with the
last even dimension rotated into third place,

    PP(floor(l_1/2), ceil(l_2/2), l_3/2)
    * PP(ceil(l_1/2), floor(l_2/2), l_3/2),

where ``PP(a, b, c)`` is the number of plane partitions in an
``a x b x c`` box (MacMahon's product, evaluated here as one exact
integer division).  A shape with ``d < 3`` is counted as the same shape
with unit axes padded in front.  Since ``PP(0, b, c) = 1`` and
``PP(1, b, c) = C(b + c, c)``, that gives 1 for ``d = 1`` (``l_1``
even) and ``C(floor(l_1/2) + floor(l_2/2), floor(l_1/2))`` for
``d = 2``.  An all-odd product has odd volume, hence no sc ideals at
all.  No closed form is implemented for ``d >= 4`` with even volume.

On even cubes ``[2r]^3`` the cyclically symmetric sc ideals are counted
by the square of ``prod_{j<r} (3j+1)!/(r+j)!`` and the totally
symmetric ones by the same product unsquared: 1, 2, 7, 42, 429, 7436
for ``r = 1..6``.

Enumeration
-----------
``enumerate_ideals`` and ``enumerate_count`` run a flip closure of the
class seed ``S``.  The key of a vertex ``J`` is ``|S \\ J|`` (divided
by 3 for cssc and tssc), which by the distance formula is its flip
distance from ``S``.  ``S`` is self-complementary (and symmetric for
cssc and tssc), so a flip either moves out members of ``S`` and raises
the key by its weight (a forward flip), or moves in members of ``S``
and lowers the key by its weight (a backward flip).  Along a geodesic
from ``J`` back to ``S`` the key falls strictly, so every vertex but
the seed has a backward flip.

It is a reverse search (Avis and Fukuda, *Discrete Appl. Math.* 65,
1996): the parent of ``J`` is ``J`` with its highest backward flip
undone, which lowers the key, so every vertex is joined to ``S`` by a
chain of parents.  The kernels, given the seed, return only the
children whose parent that is.  A backward flip is ranked by the
least rank it moves out, and a forward flip is kept iff its incoming
dual outranks every backward flip of the parent; the kernel docstring
(`metric.sc_flip_masks`) shows that this makes the incoming dual the
child's highest backward flip, so every vertex but the seed is made
exactly once, by its one parent.  The test reads the parent and the
flip alone, so the tree is fixed and any order of expansion makes each
vertex once, even in the list that holds its parent: no visited set
is needed.  The closure expands it depth-first over a stack of
batches: one kernel call expands a popped batch in place, appending
the children to it, up to `_BATCH` expanded masks, and pushes back
the unexpanded tail.  So a class of at most `_BATCH` members, such as
the path sc (2, 61) of 31, is one call, and ``enumerate_count`` holds
a stack of batches, never the whole class.  `metric` owns the
kernels' tables (the movable ranks split by the seed, the cuts of the
forward ranks, the list of flip XORs); they are built once per
closure, as one `metric.flip_table` from the fresh poset.

An `EnumerationResult` holds one class as its sorted member masks; its
constructor alone checks the tag and, for cssc and tssc, the even cube.
Everything computed over a class (the vertex index, the metric report,
the flip graph, the exports) reads the masks; ``vertices`` builds an
`Ideal` view only for the index that is read.

Completeness leans on the distance formula, but a count check does
not: the kernels map members to members, the parent rule above makes
the closure yield each of them once, and when their number equals the
closed-form count they are the whole class.  The tests check the rule
(the closure repeats no member, and each member has one parent) against
a two-way search over all flips on small shapes, and the verification
suites check the count at scale.  ``oracle_ideal_masks`` is the slow
reference: a depth-first scan over all downward-closed sets (in rank
order, each element may join only when its lower covers already
have), and ``oracle_enumerate`` filters it by class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterator, Sequence

from . import metric
from .ideal import CSSC, SC, Ideal, check_class, validate_mask
from .poset import (
    ChainProduct, ShapeError, as_dims, as_index, even_cube_r, ranks
)

BFS_FLIP = "bfs_flip"
ORACLE_DFS = "oracle_dfs"

#: refuse flip enumerations expected to exceed this many vertices
DEFAULT_VERTEX_GUARD = 2_000_000
#: refuse flip enumerations of unknown size above this many poset elements
DEFAULT_VOLUME_GUARD = 36
#: refuse the brute-force ideal scan above this many poset elements,
#: filtered or not: the scan visits (and sorts) every ideal either way
ORACLE_VOLUME_GUARD = 36


class EnumerationGuardError(RuntimeError):
    """The requested enumeration looks too large; pass force to insist."""


class PartialEnumerationError(RuntimeError):
    """A caller-supplied cap was hit; carries the progress made."""

    def __init__(self, visited: int, cap: int):
        super().__init__(
            f"enumeration exceeded cap={cap} ({visited} vertices reached)"
        )
        self.visited = visited
        self.cap = cap


class EmptyClassError(ValueError):
    """The class has no members on this poset (e.g. odd volume)."""


# ----------------------------------------------------------------------
# closed-form counts


def _plane_partition_box(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box, by MacMahon's product.

    ``prod (i + j + c - 1) / (i + j - 1)`` over ``i <= a, j <= b``,
    taken as one exact division of the two integer products.
    """
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num *= i + j + c - 1
            den *= i + j - 1
    return num // den


def _symmetric_count(r: int) -> int:
    """``prod_{j<r} (3j+1)! / (r+j)!`` as one exact integer division."""
    num = den = 1
    for j in range(r):
        num *= math.factorial(3 * j + 1)
        den *= math.factorial(r + j)
    return num // den


def count_closed(dims: Sequence[int], cls: str = SC) -> int:
    """Closed-form vertex count of the class on the given poset.

    Raises ShapeError when no closed form applies (sc with d >= 4 and
    even volume, or a symmetric class off an even cube).
    """
    dims = as_dims(dims)
    if check_class(cls):
        n = _symmetric_count(even_cube_r(dims, f"the {cls} class"))
        return n * n if cls == CSSC else n

    volume = math.prod(dims)
    if volume % 2:
        return 0  # odd volume: membership of the fixed point is undecidable
    d = len(dims)
    if d > 3:
        raise ShapeError(
            f"no closed-form sc count for d = {d} dims {dims}; "
            "enumerate instead"
        )
    # d < 3 is the d = 3 product with unit axes in front; then rotate
    # the last even dimension into third place
    box = (1,) * (3 - d) + dims
    k = max(i for i, l in enumerate(box) if l % 2 == 0)
    m1, m2 = (box[i] for i in range(3) if i != k)
    half = box[k] // 2
    return _plane_partition_box(
        m1 // 2, (m2 + 1) // 2, half
    ) * _plane_partition_box((m1 + 1) // 2, m2 // 2, half)


# ----------------------------------------------------------------------
# seeds


def seed(dims: Sequence[int], cls: str = SC) -> Ideal:
    """A canonical member of the class, the start of the flip closure.

    sc uses the halfspace on the first even axis; the symmetric cube
    classes use the staircase ideal ``a_1 + a_2 + a_3 <= 3r + 1``,
    which is totally symmetric hence a member of all three classes.
    """
    return Ideal(*_seed(as_dims(dims), cls))


def _seed(dims: tuple[int, ...], cls: str) -> tuple[ChainProduct, int]:
    """The poset and the seed's mask.  The shape is checked first: the
    poset's masks grow with its volume, even when the class is empty."""
    if not check_class(cls):
        axis = _even_axes(dims)[0]
        p = ChainProduct(dims)
        return p, _halfspace(p, axis)
    r = even_cube_r(dims, f"the {cls} class")
    p = ChainProduct(dims)
    return p, _staircase(p, r)


def _even_axes(dims: tuple[int, ...]) -> list[int]:
    """The even axes of a shape, which has no sc ideal without one."""
    evens = [i for i, l in enumerate(dims) if l % 2 == 0]
    if not evens:
        raise EmptyClassError(f"no sc ideals on {dims}")
    return evens


def _halfspace(p: ChainProduct, axis: int) -> int:
    """Mask of the sc ideal a_axis <= l_axis / 2 (axis must be even)."""
    l = p.dims[axis]
    if l % 2:
        raise ShapeError(f"halfspace needs an even axis, got l = {l}")
    return p.below_mask(axis, l // 2)


def _staircase(p: ChainProduct, r: int) -> int:
    """Mask of the ideal a_1 + a_2 + a_3 <= 3r + 1 (three dimensions).

    For fixed ``a_1, a_2`` the members are the ``a_3`` up to
    ``3r + 1 - a_1 - a_2``: one run of consecutive ranks per pair.
    """
    l1, l2, l3 = p.dims
    s1, s2, _ = p.strides
    mask = 0
    for x in range(l1):
        for y in range(l2):
            n = min(l3, 3 * r - 1 - x - y)  # zero-based: z <= 3r - 2 - x - y
            if n > 0:
                mask |= ((1 << n) - 1) << (x * s1 + y * s2)
    return mask


# ----------------------------------------------------------------------
# results


class _Views(Sequence):
    """The masks of a class as `Ideal` views, each built when read."""

    __slots__ = ("poset", "masks")

    def __init__(self, poset: ChainProduct, masks: tuple[int, ...]):
        self.poset = poset
        self.masks = masks

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i: int | slice) -> Ideal | _Views:
        if isinstance(i, slice):
            return _Views(self.poset, self.masks[i])
        return Ideal(self.poset, self.masks[i])

    def __iter__(self) -> Iterator[Ideal]:
        return (Ideal(self.poset, m) for m in self.masks)


@dataclass(frozen=True)
class EnumerationResult:
    """A fully enumerated vertex class, in canonical (ascending-mask) order.

    The member masks are the data; ``vertices`` is indexable by vertex
    id like ``masks``, and wraps only the masks it is asked for as
    `Ideal` views.  The class tag must be one of `CLASSES`, and a cssc
    or tssc result must lie on an even cube ``[2r]^3``.
    """

    poset: ChainProduct
    symmetry: str
    masks: tuple[int, ...]
    method: str

    def __post_init__(self) -> None:
        if check_class(self.symmetry):
            even_cube_r(self.poset.dims, f"the {self.symmetry} class")

    @property
    def vertices(self) -> Sequence[Ideal]:
        return _Views(self.poset, self.masks)

    @cached_property
    def index(self) -> dict[int, int]:
        """mask -> vertex id (the position in canonical order)."""
        return {m: i for i, m in enumerate(self.masks)}

    def __len__(self) -> int:
        return len(self.masks)


# ----------------------------------------------------------------------
# flip-closure enumeration


def _check_guard(dims: tuple[int, ...], cls: str, force: bool) -> None:
    """Without ``force``, refuse a class that looks too large: by its
    closed-form count, or by its volume where there is none.  An empty
    class passes; its seed refuses it."""
    if force:
        return
    try:
        count = count_closed(dims, cls)
    except ShapeError:
        if check_class(cls):
            raise  # a symmetric class has a closed form on every legal shape
        volume = math.prod(dims)
        if volume > DEFAULT_VOLUME_GUARD:
            raise EnumerationGuardError(
                f"no closed-form count for {cls} on {dims} and volume "
                f"{volume} > {DEFAULT_VOLUME_GUARD}; pass force=True to insist"
            ) from None
        return
    if count > DEFAULT_VERTEX_GUARD:
        raise EnumerationGuardError(
            f"{cls} on {dims} has {count} vertices "
            f"(> {DEFAULT_VERTEX_GUARD}); pass force=True to insist"
        )


#: the most masks one kernel call expands
_BATCH = 4096


def _closure(
    p: ChainProduct, cls: str, start: int, cap: int | None = None
) -> Iterator[list[int]]:
    """The class reached from ``start``, each member once, in batches of
    at most ``width`` masks: `_BATCH`, or ``cap + 1`` if that is fewer.
    One kernel call expands a popped batch in place, and the children
    landing within its first ``width`` masks; that prefix is yielded and
    the tail pushed back in ``width`` slices, so the first batch is the
    first ``width`` members, or the whole class if it is smaller.  The
    kernels make only the reverse-search children, each vertex by its
    one parent, so any order of expansion is complete."""
    width = _BATCH if cap is None else min(_BATCH, cap + 1)
    table = metric.flip_table(p, cls, start)
    kernel = metric.sc_flip_masks if cls == SC else metric.orbit_flip_masks
    stack = [[start]]
    while stack:
        batch = kernel(table, stack.pop(), width)
        if len(batch) > width:
            stack.extend(batch[i:i + width]
                         for i in range(width, len(batch), width))
            del batch[width:]
        yield batch


def enumerate_ideals(
    dims: Sequence[int],
    cls: str = SC,
    cap: int | None = None,
    force: bool = False,
) -> EnumerationResult:
    """Flip closure of the class seed, canonically sorted.

    ``cap`` is checked after each batch, and a cap below `_BATCH`
    narrows the batches to ``cap + 1`` masks, so a larger class stops
    at ``cap + 1`` vertices.  A ``cap`` that is not a non-negative
    integer is refused before any work.
    """
    if cap is not None:
        cap = as_index(cap, "cap")
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
    dims = as_dims(dims)
    _check_guard(dims, cls, force)
    p, start = _seed(dims, cls)
    masks: list[int] = []
    for batch in _closure(p, cls, start, cap):
        masks.extend(batch)
        if cap is not None and len(masks) > cap:
            raise PartialEnumerationError(len(masks), cap)
    masks.sort()
    return EnumerationResult(p, cls, tuple(masks), BFS_FLIP)


def enumerate_count(
    dims: Sequence[int],
    cls: str = SC,
    force: bool = False,
) -> int:
    """Vertex count by flip closure, holding only the stack of batches."""
    dims = as_dims(dims)
    _check_guard(dims, cls, force)
    p, start = _seed(dims, cls)
    return sum(len(b) for b in _closure(p, cls, start))


# ----------------------------------------------------------------------
# brute-force oracle


def oracle_ideal_masks(dims: Sequence[int], force: bool = False) -> list[int]:
    """Every ideal of the poset as a sorted mask, by depth-first rank
    scan.  Guarded by volume, since the scan touches every ideal."""
    p = ChainProduct(dims)
    if not force and p.volume > ORACLE_VOLUME_GUARD:
        raise EnumerationGuardError(
            f"oracle scan of {p.dims} (volume {p.volume}) exceeds the "
            f"default guard of {ORACLE_VOLUME_GUARD} elements; "
            "pass force=True to insist"
        )
    V = p.volume
    lower = [0] * V
    for s, up in p.cover_axes:
        for r in ranks(up):
            lower[r + s] |= 1 << r
    out: list[int] = []
    # stack of (next rank to decide, mask so far); exclusion first so
    # inclusion is popped first and masks come out roughly ascending
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        r, mask = stack.pop()
        while r < V:
            if lower[r] & ~mask:
                r += 1  # some lower cover missing: r can never join
                continue
            stack.append((r + 1, mask | (1 << r)))
            r += 1
        out.append(mask)
    out.sort()
    return out


def oracle_enumerate(
    dims: Sequence[int], cls: str, force: bool = False
) -> EnumerationResult:
    """Reference enumeration of a class: the ideals of the scan
    (`oracle_ideal_masks`, with its guard) that validate for ``cls``."""
    p = ChainProduct(dims)
    masks = oracle_ideal_masks(p.dims, force)
    members = tuple(m for m in masks if validate_mask(p, m, cls))
    return EnumerationResult(p, cls, members, ORACLE_DFS)
