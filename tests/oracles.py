"""Slow, independent references for the closed-form counts, the flip
kernels, the flip closure and the metric report.

These are the straightforward forms the fast code in ``scideals`` must
agree with: the closed-form counts as products of rationals, the sc
kernel as an explicit per-axis shifted-complement test, the orbit
kernel as a loop over orbits with a whole-mask closure check (and
``flip_masks`` choosing between the two by class), upper
covers element by element (the reference for ``maximal_mask``), orbits
found from ``unrank``/``rank`` and coordinate permutations, the axis
masks as one shift per block, the halfspace and staircase seeds and the
octant masks element by element (the references for the seeds' closed
forms and for the octant rules of the constructions), the closure
as a two-way breadth-first search with a global visited set, the
metric report as the full n x n AND-NOT/popcount sweep, and shortest
paths as heap Dijkstra over the graph's edge list.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from scideals.ideal import CSSC, SC, TSSC
from scideals.metric import MetricReport
from scideals.poset import ChainProduct

#: the symmetry groups of a cube's coordinates: the rotations (Z3) and
#: all permutations (S3)
CYCLIC = "cyclic"
FULL = "full"

#: soft bound (bytes) on one pairwise block of the metric sweep
SWEEP_BLOCK_BYTES = 32 << 20


def plane_partition_box(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box, by MacMahon's product
    ``prod (i + j + k - 1) / (i + j + k - 2)`` in exact rationals."""
    f = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                f *= Fraction(i + j + k - 1, i + j + k - 2)
    assert f.denominator == 1, (a, b, c, f)
    return int(f)


def symmetric_count(r: int) -> int:
    """``prod_{j<r} (3j+1)! / (r+j)!`` in exact rationals."""
    f = Fraction(1)
    for j in range(r):
        f *= Fraction(math.factorial(3 * j + 1), math.factorial(r + j))
    assert f.denominator == 1, (r, f)
    return int(f)


def sc_flip_masks(p: ChainProduct, mask: int) -> list[int]:
    """Masks one sc flip away: maximal members passing the cover test.

    ``a`` may flip iff along every axis where its dual ``b`` has a
    lower cover, that cover is a member of ``I minus a``; with ``comp``
    the complement (the dual image), the cover of axis ``k`` is a
    member iff rank ``ra`` is set in ``comp >> s_k``, except at the
    corner ``2 ra = V - 1 - s_k`` where the cover is ``a`` itself.
    """
    V = p.volume
    comp = p.full_mask & ~mask
    flip = p.maximal_mask(mask)
    if V % 2:
        flip &= ~(1 << ((V - 1) // 2))
    for s, up in zip(p.strides, axis_masks(p)):
        cond = comp >> s
        t = V - 1 - s
        if t % 2 == 0:
            cond &= ~(1 << (t // 2))
        flip &= ~up | cond
    out = []
    v1 = V - 1
    while flip:
        low = flip & -flip
        flip ^= low
        ra = low.bit_length() - 1
        out.append(mask ^ low ^ (1 << (v1 - ra)))
    return out


def axis_masks(p: ChainProduct) -> tuple[int, ...]:
    """The up mask of each axis, one run per block of ``l_k * s_k``
    ranks: the ranks with ``a_k < l_k``, 0 on a unit axis."""
    up = []
    for l, s in zip(p.dims, p.strides):
        unit = (1 << ((l - 1) * s)) - 1
        m = 0
        for start in range(0, p.volume, l * s):
            m |= unit << start
        up.append(m)
    return tuple(up)


def halfspace_mask(p: ChainProduct, axis: int) -> int:
    """The ideal ``a_axis <= l_axis / 2``, element by element."""
    half = p.dims[axis] // 2
    return sum(1 << r for r, a in enumerate(p.elements()) if a[axis] <= half)


def staircase_mask(p: ChainProduct, r: int) -> int:
    """The ideal ``a_1 + a_2 + a_3 <= 3r + 1``, element by element."""
    return sum(
        1 << q for q, a in enumerate(p.elements()) if sum(a) <= 3 * r + 1
    )


def octant_masks(p: ChainProduct) -> dict[tuple[int, ...], int]:
    """Each octant's mask keyed by its 0/1 half-tuple, element by
    element: ``t_k = 1`` where ``a_k`` lies in the upper half."""
    masks = {t: 0 for t in itertools.product((0, 1), repeat=p.d)}
    for r, a in enumerate(p.elements()):
        t = tuple(int(2 * c > l) for c, l in zip(a, p.dims))
        masks[t] |= 1 << r
    return masks


def upper_covers(p: ChainProduct, a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The elements ``a + e_k`` inside the poset, one per axis."""
    return [
        a[:k] + (c + 1,) + a[k + 1:]
        for k, c in enumerate(a)
        if c < p.dims[k]
    ]


def orbits(p: ChainProduct, group: str) -> list[tuple[int, ...]]:
    """Every orbit as sorted ranks, by permuting unranked coordinates."""
    perms = (
        [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        if group == CYCLIC
        else list(itertools.permutations(range(3)))
    )
    out = set()
    for r in range(p.volume):
        a = p.unrank(r)
        out.add(tuple(sorted({p.rank(tuple(a[i] for i in g)) for g in perms})))
    return sorted(out)


def orbit_flip_masks(
    p: ChainProduct, mask: int, group: str, orbit_list=None
) -> list[tuple[int, int]]:
    """(mask, weight) pairs: swap each orbit of maximal members for its
    dual orbit and keep the result if it is downward closed."""
    maximal = p.maximal_mask(mask)
    v1 = p.volume - 1
    out = []
    for ranks in orbit_list or orbits(p, group):
        if len(ranks) == 1:
            continue
        ob = sum(1 << r for r in ranks)
        if ob & maximal != ob:
            continue
        dual = sum(1 << (v1 - r) for r in ranks)
        j = (mask & ~ob) | dual
        if p.is_downward_closed(j):
            out.append((j, len(ranks) // 3))
    return out


#: the symmetry group whose orbits flip in each symmetric class
GROUPS = {CSSC: CYCLIC, TSSC: FULL}


@functools.cache
def _orbits(dims: tuple[int, ...], group: str) -> list[tuple[int, ...]]:
    return orbits(ChainProduct(dims), group)


def flip_masks(p: ChainProduct, mask: int, cls: str) -> list[tuple[int, int]]:
    """Sorted (mask, weight) pairs one flip away, for any class: the sc
    kernel, or the orbit kernel under the group the class flips by."""
    if cls == SC:
        return sorted((m, 1) for m in sc_flip_masks(p, mask))
    if cls not in GROUPS:
        raise ValueError(f"unknown ideal class {cls!r}")
    group = GROUPS[cls]
    return sorted(orbit_flip_masks(p, mask, group, _orbits(p.dims, group)))


def bfs_masks(p: ChainProduct, cls: str, start: int) -> set[int]:
    """Closure of ``start`` under all flips, with a global visited set."""
    visited = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for m in frontier:
            for nm, _ in flip_masks(p, m, cls):
                if nm not in visited:
                    visited.add(nm)
                    fresh.append(nm)
        frontier = fresh
    return visited


def _ecc_block(
    arr: np.ndarray, comp: np.ndarray, lo: int, hi: int, divisor: int
) -> np.ndarray:
    diff = arr[lo:hi, None, :] & comp[None, :, :]
    counts = np.bitwise_count(diff).sum(axis=2, dtype=np.int64)
    if divisor != 1:
        if (counts % divisor).any():
            raise ValueError(
                "pairwise difference not divisible by the orbit size; "
                "vertex set is not closed under the symmetry"
            )
        counts //= divisor
    return counts.max(axis=1)


def metric_report(enum) -> MetricReport:
    """The report from every pairwise distance, swept in row blocks."""
    p = enum.poset
    cls = enum.symmetry
    n = len(enum)
    if n == 0:
        return MetricReport(p.dims, cls, (), 0, 0, (), ())
    divisor = 3 if cls in (CSSC, TSSC) else 1
    limbs = (p.volume + 63) // 64
    arr = np.empty((n, limbs), dtype=np.uint64)
    for i, m in enumerate(enum.masks):
        arr[i] = np.frombuffer(m.to_bytes(limbs * 8, "little"), dtype=np.uint64)
    comp = ~arr  # junk high bits are harmless: every mask is 0 there
    block = max(1, SWEEP_BLOCK_BYTES // (n * limbs * 8))
    ecc = np.concatenate([
        _ecc_block(arr, comp, lo, min(lo + block, n), divisor)
        for lo in range(0, n, block)
    ])
    diameter = int(ecc.max())
    radius = int(ecc.min())
    return MetricReport(
        p.dims,
        cls,
        tuple(int(e) for e in ecc),
        diameter,
        radius,
        tuple(int(i) for i in np.flatnonzero(ecc == radius)),
        tuple(int(i) for i in np.flatnonzero(ecc == diameter)),
        n,
    )


def dijkstra_lengths(graph, source: int) -> list[int]:
    """Heap Dijkstra from one vertex, on adjacency built from ``edges``."""
    adj = [[] for _ in range(graph.n)]
    for u, v, w in graph.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = [math.inf] * graph.n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist
