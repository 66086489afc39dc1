"""Order ideals of chain products and their symmetry classes.

An ideal is a downward-closed member set, stored as a bit mask over the
poset's rank order.  The mask is the data: an enumerated class is a
tuple of masks, and `validate_mask` checks one mask without wrapping
it.  `Ideal` is a view of one mask, for printing, records and heights
matrices; the flip kernels and the metrics work on masks directly.
The three symmetry classes build on each other:

* ``sc``    self-complementary: ``a`` is a member iff its dual is not,
            so the mask's bit reversal equals its complement and the
            ideal holds exactly half the poset;
* ``cssc``  additionally invariant under cyclic coordinate rotation
            (cubes ``[2r]^3`` only);
* ``tssc``  additionally invariant under every coordinate permutation.

For three-dimensional posets an ideal is equivalently a heights matrix:
entry ``(i, j)`` counts the members with first coordinate ``i+1`` and
second coordinate ``j+1``.  Downward closure makes the entries weakly
decreasing along rows and columns, which is the form the JSON heights
record round-trips.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poset import (
    ChainProduct, Coords, ShapeError, as_index, even_cube_r, ranks
)

SC = "sc"
CSSC = "cssc"
TSSC = "tssc"
CLASSES = (SC, CSSC, TSSC)

HeightsMatrix = tuple[tuple[int, ...], ...]


class SymmetryError(ValueError):
    """A member set violates the requested symmetry class."""


def check_class(cls: str) -> None:
    """Refuse a class tag that is not one of `CLASSES`."""
    if cls not in CLASSES:
        raise ValueError(f"unknown ideal class {cls!r}")


@dataclass(frozen=True)
class Ideal:
    """A downward-closed member set of a chain product, as a bit mask."""

    poset: ChainProduct
    mask: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", as_index(self.mask, "mask"))
        if self.mask < 0 or self.mask > self.poset.full_mask:
            raise ValueError("mask has bits outside the poset")

    # ------------------------------------------------------------------
    # membership

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, a: Coords) -> bool:
        return bool(self.mask >> self.poset.rank(a) & 1)

    def members(self) -> list[Coords]:
        """Member tuples in rank order."""
        return [self.poset.unrank(r) for r in self.member_ranks()]

    def member_ranks(self) -> list[int]:
        return list(ranks(self.mask))

    @property
    def density(self) -> Fraction:
        """Normalized size |I| / V; exactly 1/2 for every sc ideal."""
        return Fraction(self.size, self.poset.volume)

    # ------------------------------------------------------------------
    # structure

    def is_ideal(self) -> bool:
        return self.poset.is_downward_closed(self.mask)

    def validate(self, cls: str | None = None) -> bool:
        """Check downward closure plus the symmetry of ``cls``."""
        return validate_mask(self.poset, self.mask, cls)

    def difference_size(self, other: "Ideal") -> int:
        """|self \\ other|, the flip distance numerator."""
        if self.poset.dims != other.poset.dims:
            raise ShapeError("ideals live on different posets")
        return (self.mask & ~other.mask).bit_count()

    # ------------------------------------------------------------------
    # heights matrices (three-dimensional posets)

    def to_heights(self) -> HeightsMatrix:
        """Heights matrix: entry (i, j) counts members over (i+1, j+1)."""
        p = self.poset
        if p.d != 3:
            raise ShapeError(f"heights matrices need d = 3, got d = {p.d}")
        l1, l2, l3 = p.dims
        rows = []
        for i in range(l1):
            row = []
            for j in range(l2):
                base = i * p.strides[0] + j * p.strides[1]
                col = (self.mask >> base) & ((1 << l3) - 1)
                h = col.bit_count()
                if col != (1 << h) - 1:
                    raise SymmetryError(
                        "member set is not column-closed; not an ideal"
                    )
                row.append(h)
            rows.append(tuple(row))
        return tuple(rows)

    # ------------------------------------------------------------------
    # serialization

    def to_record(self, fmt: str = "members") -> dict:
        """JSON-ready record; ``fmt`` is ``members`` or ``heights``."""
        if fmt == "members":
            return {"dims": list(self.poset.dims), "members": self.member_ranks()}
        if fmt == "heights":
            return {
                "dims": list(self.poset.dims),
                "heights": [list(row) for row in self.to_heights()],
            }
        raise ValueError(f"unknown ideal record format {fmt!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ideal(dims={self.poset.dims}, size={self.size})"


def validate_mask(
    p: ChainProduct, mask: int, cls: str | None = None
) -> bool:
    """Check downward closure plus the symmetry of ``cls``.

    ``None`` checks closure only.  The classes nest, so a tssc mask
    validates for cssc and sc as well.  Cube symmetry is read off the
    bit cube, bit ``x l^2 + y l + z`` at ``(x, y, z)``, whose transposes
    rotate and swap the coordinates: no flip-kernel orbit table is read,
    so the scan oracle's filter is independent of the kernels.
    """
    if not p.is_downward_closed(mask):
        return False
    if cls is None:
        return True
    check_class(cls)
    if p.reverse_mask(mask) != p.full_mask & ~mask:
        return False
    if cls == SC:
        return True
    l = 2 * even_cube_r(p.dims, f"the {cls} class")
    V = p.volume
    raw = np.frombuffer(mask.to_bytes((V + 7) // 8, "little"), np.uint8)
    cube = np.unpackbits(raw, count=V, bitorder="little").reshape(l, l, l)
    if (cube.transpose(1, 2, 0) != cube).any():
        return False
    # full S3 invariance = cyclic invariance + one transposition
    return cls == CSSC or bool((cube.transpose(0, 2, 1) == cube).all())


# ----------------------------------------------------------------------
# constructors


def from_heights(
    dims: Sequence[int], heights: Sequence[Sequence[int]]
) -> Ideal:
    """Inverse of :meth:`Ideal.to_heights` (d = 3 only, checked)."""
    p = ChainProduct(tuple(dims))
    if p.d != 3:
        raise ShapeError(f"heights matrices need d = 3, got d = {p.d}")
    l1, l2, l3 = p.dims
    if len(heights) != l1 or any(len(row) != l2 for row in heights):
        raise ShapeError(
            f"heights matrix must be {l1} x {l2} for dims {p.dims}"
        )
    mask = 0
    for i, row in enumerate(heights):
        for j, h in enumerate(row):
            try:
                h = operator.index(h)
            except TypeError:
                raise ValueError(
                    f"height {h!r} at ({i}, {j}) is not an integer"
                ) from None
            if not 0 <= h <= l3:
                raise ValueError(f"height {h} out of range at ({i}, {j})")
            base = i * p.strides[0] + j * p.strides[1]
            mask |= ((1 << h) - 1) << base
    if not p.is_downward_closed(mask):
        raise SymmetryError("heights matrix is not weakly decreasing")
    return Ideal(p, mask)
