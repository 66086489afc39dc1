"""Chain-product posets and their self-dual structure.

A chain product is the coordinatewise partial order on tuples
``(a_1, ..., a_d)`` with ``1 <= a_k <= l_k``.  Every element is
identified with its mixed-radix rank (coordinate 1 most significant),
and that rank fixes a bit position: subsets of the poset are plain
Python integers throughout the package, with bit ``r`` set iff the
element of rank ``r`` belongs to the subset.  `ranks` walks the set
bits of a mask in ascending order, and `ChainProduct.mask_of` is its
inverse on elements.

The order-reversing involution ``phi(a) = (l_1+1-a_1, ..., l_d+1-a_d)``
sends rank ``r`` to ``V-1-r`` where ``V`` is the number of elements, so
the dual image of a mask is its bit reversal and a self-complementary
set is one whose bit reversal equals its complement.  The axis table
set at construction (`cover_axes`) makes downward-closure checks and
maximal-element extraction a handful of big-integer shifts instead of
per-element loops.  Each of its masks is a run of ones times a repunit
(`below_mask`), so the shape tables cost O(d) big-integer operations.
Only this module decides which shapes are legal: `as_dims` checks
every shape, `even_cube_r` and `even_cube` the cube ``[2r]^3`` of the
symmetric classes.  A poset holds the order only.  Which elements and orbits
may flip is the flip kernels' knowledge: `metric.flip_table` builds
those tables, once per enumeration or graph, from the cover axes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator

Coords = tuple[int, ...]


class ShapeError(ValueError):
    """The poset's shape does not support the requested operation."""


class ElementError(ValueError):
    """A coordinate tuple or rank lies outside the poset."""


@dataclass(frozen=True)
class ChainProduct:
    """The poset [l_1] x ... x [l_d] with all l_k >= 1.

    The shape tables, each O(d) integers, are set at construction:
    ``volume``, the mixed-radix ``strides`` (coordinate 1 most
    significant), ``full_mask`` and the axis table ``cover_axes``: per
    axis of length at least 2, its stride ``s`` and up mask, the ranks
    ``r`` whose coordinate on that axis can increase, to ``r + s``.  A
    unit axis covers nothing, so the table and its walks leave it out.
    """

    dims: Coords
    volume: int = field(init=False, repr=False, compare=False)
    strides: Coords = field(init=False, repr=False, compare=False)
    full_mask: int = field(init=False, repr=False, compare=False)
    cover_axes: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        dims = as_dims(self.dims)
        volume = math.prod(dims)
        full = (1 << volume) - 1
        strides = []
        axes = []
        block = volume  # l_k s_k, the ranks with coordinates before k fixed
        for l in dims:
            s = block // l
            strides.append(s)
            if l > 1:  # the up mask is below_mask(k, l - 1), inlined
                repunit = full // ((1 << block) - 1)
                axes.append((s, ((1 << (block - s)) - 1) * repunit))
            block = s
        put = object.__setattr__
        put(self, "dims", dims)
        put(self, "strides", tuple(strides))
        put(self, "volume", volume)
        put(self, "full_mask", full)
        put(self, "cover_axes", tuple(axes))

    # ------------------------------------------------------------------
    # shape

    @property
    def d(self) -> int:
        return len(self.dims)

    # ------------------------------------------------------------------
    # elements <-> ranks

    def check_element(self, a: Coords) -> Coords:
        a = tuple(a)
        if len(a) != self.d or any(
            not (1 <= c <= l) for c, l in zip(a, self.dims)
        ):
            raise ElementError(f"{a} is not an element of {self.dims}")
        return a

    def rank(self, a: Coords) -> int:
        a = self.check_element(a)
        return sum((c - 1) * s for c, s in zip(a, self.strides))

    def unrank(self, r: int) -> Coords:
        if not (0 <= r < self.volume):
            raise ElementError(f"rank {r} out of range for {self.dims}")
        out = []
        for s, l in zip(self.strides, self.dims):
            q, r = divmod(r, s)
            out.append(q + 1)
        return tuple(out)

    def elements(self) -> Iterator[Coords]:
        """All elements in rank order."""
        return itertools.product(*(range(1, l + 1) for l in self.dims))

    def mask_of(self, elements: Iterable[Coords]) -> int:
        """The mask of some elements, the inverse of `ranks`; each goes
        through `rank`, so one outside the poset raises ElementError."""
        mask = 0
        for a in elements:
            mask |= 1 << self.rank(a)
        return mask

    # ------------------------------------------------------------------
    # duality

    def reverse_mask(self, mask: int) -> int:
        """Image of a member mask under the order-reversing involution.

        Rank ``r`` goes to ``V-1-r``: the bit reversal of the mask
        written out in ``V`` binary digits.
        """
        return int(format(mask, f"0{self.volume}b")[::-1], 2)

    # ------------------------------------------------------------------
    # axis masks: the bit-parallel machinery

    def below_mask(self, k: int, c: int) -> int:
        """Mask of the ranks whose k-th coordinate is at most ``c``.

        Within one block of ``l_k * s_k`` ranks (all coordinates before
        ``k`` fixed) these are the lowest ``c * s_k`` ranks, so the mask
        is that run of ones times the repunit with one bit per block,
        ``full_mask // (2^(l_k s_k) - 1)``.
        """
        s = self.strides[k]
        run = (1 << (c * s)) - 1
        return run * (self.full_mask // ((1 << (self.dims[k] * s)) - 1))

    def is_downward_closed(self, mask: int) -> bool:
        """True iff the member mask is closed under lower covers."""
        if mask < 0 or mask > self.full_mask:
            raise ElementError("mask has bits outside the poset")
        for s, up in self.cover_axes:
            if (mask >> s) & up & ~mask:
                return False
        return True

    def maximal_mask(self, mask: int) -> int:
        """Mask of members with no member strictly above them.

        The flip kernels run this walk of `cover_axes` inline, once per
        vertex; this method is the reference the tests compare with.
        """
        covered = 0
        for s, up in self.cover_axes:
            covered |= up & (mask >> s)
        return mask & ~covered

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChainProduct{self.dims}"


def as_dims(dims: Iterable[int]) -> Coords:
    """``dims`` as a tuple of at least one int, each at least 1, or
    ShapeError: every shape a public function takes passes through here.

    `operator.index` accepts ints and integer types such as numpy's and
    refuses a float or a string, where `int` would truncate 2.5 or parse
    ``'2'``.
    """
    try:
        dims = tuple(map(operator.index, dims))
    except TypeError:
        raise ShapeError(
            f"dimensions must be integers, got {dims!r}"
        ) from None
    if not dims:
        raise ShapeError("at least one dimension is required")
    if min(dims) < 1:
        raise ShapeError(f"dimensions must be positive, got {dims}")
    return dims


def as_index(value, what: str) -> int:
    """``value`` through `operator.index`, or a ValueError naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def cube(side: int) -> ChainProduct:
    """The cube [side]^3, home of the symmetric ideal classes."""
    return ChainProduct((side, side, side))


def even_cube_r(dims: Coords, what: str) -> int:
    """``r`` if the checked ``dims`` are the even cube ``[2r]^3`` that
    ``what`` needs (a symmetric class, the core/shell split)."""
    if len(dims) != 3 or len(set(dims)) != 1 or dims[0] % 2:
        raise ShapeError(f"{what} needs an even cube [2r]^3, got {dims}")
    return dims[0] // 2


def even_cube(r: int) -> ChainProduct:
    """The cube ``[2r]^3`` for an integer ``r >= 1``, else ShapeError."""
    try:
        r = operator.index(r)
    except TypeError:
        raise ShapeError(f"r must be an integer, got {r!r}") from None
    if r < 1:
        raise ShapeError("r must be >= 1")
    return cube(2 * r)


def ranks(mask: int) -> Iterator[int]:
    """The set-bit positions of a mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

