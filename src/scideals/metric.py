"""Flip graphs on the symmetric ideal classes, and their exact metrics.

Vertices are the ideals of one class on one poset.  Edges:

* ``sc``    swap one maximal member ``a`` for its dual (weight 1);
* ``cssc``  swap a full cyclic orbit (three elements, never a diagonal
            point) for its dual orbit (weight 1);
* ``tssc``  swap a full S3 orbit for its dual orbit; weight 1 when the
            orbit has three elements (two equal coordinates), weight 2
            when it has six.

The key fact driving everything here is that the geodesic distance has
a closed form: ``|I \\ J|`` for sc, and ``|I \\ J| / 3`` for the two
symmetric classes (the difference set is a union of non-diagonal
orbits, so the division is exact).  Every member of a class is sc, so
it is fixed by its low half ``h = mask & (2^(V/2) - 1)``, and each
rank ``r < V/2`` that two members disagree on puts exactly one of ``r``
and ``V - 1 - r`` into ``I \\ J``: ``|I \\ J| = popcount(h_I ^ h_J)``.
A cssc or tssc member is fixed by less: it holds one whole orbit of
each dual pair of non-diagonal Z3 orbits, so one witness bit per pair,
about V/6 bits, fixes it, and the popcount of the XOR of two members'
witness bits is ``|I \\ J| / 3`` itself.
One row of distances is therefore one XOR and popcount of half masks
(sc) or witness bits (cssc, tssc) over a limb-major numpy uint64
array, with no division.  Every member of a class has the
same size, so ``|I \\ J| = |J \\ I|`` and the distance is a metric;
`metric_report` uses that to get every eccentricity exactly from a few
rows, by the lower and upper bounds of Takes and Kosters (*Determining
the diameter of small world networks*, CIKM 2011; *Computing the
eccentricity distribution of large graphs*, Algorithms 2013), instead
of all n.  A small class is one n x n block, with no bounds at all.
Past that, each step computes as many rows as a fixed memory bound
holds, as one numpy block (one XOR, one popcount and one sum), and the
step whose unresolved vertices all fit is the last: a class of a few
thousand refines its bounds a block of rows at a time, and a class too
large for two rows in the bound takes them one at a time.  For cssc
and tssc it first checks, in O(n V), that the masks are sc and closed
under the symmetry, which is what makes a witness bit fix an orbit
pair, and reads the witness bits from the bits that check unpacks.
The graph itself is kept as the slow cross-check: `build_graph` calls
the class kernel directly at every vertex, and `single_source_lengths`
searches it one distance level at a time (the weights are 1 or 2, so
level ``d + 1`` comes from levels ``d`` and ``d - 1``; sc and cssc
graphs have no weight-2 edge, and their search skips level ``d - 1``);
heap Dijkstra is the test oracle in ``tests/oracles.py``.
`graph_dot` and `graph_record` give a built graph as DOT text or as a
JSON-ready dict; `eccentricity_csv` needs only the report.

The flip kernels are bit-parallel: for a self-complementary mask the
dual image equals the complement, so "every lower cover of the incoming
dual is already present" becomes a shifted-complement test, which for a
maximal member always holds.  The only sharp corners are the elements
one step below their own dual (sc), or below an element whose dual lies
in their own orbit (cssc, tssc); these never flip, because the needed
cover would be removed by the flip itself.  This module owns that
knowledge: a kernel reads a `FlipTable`, which `flip_table` builds
from the poset's cover axes for one class and seed, with the movable
ranks split by the seed and two lists filled on first use, the
reverse-search cuts and the flip XORs; the poset itself holds only the
order.  The closure builds one table per enumeration and `build_graph`
one per graph, so a kernel call does no set-up of its own.
`sc_flip_masks` and `orbit_flip_masks` are one loop at two
granularities: an sc flip swaps a maximal member for its dual, a cssc
or tssc flip a whole orbit for its dual orbit, and one rank stands for
each orbit, so both kernels take the flips of a mask as one contiguous
cut of its maximal members and apply each as one XOR from the table.
They differ only in how a missing XOR is made.  Each kernel expands
the first ``limit`` masks of a list in place, appending the children
to the list, which a list iterator sees, so one call also expands the
children landing within those positions and never more than ``limit``
masks: the closure makes one call per `enumeration._BATCH` expansions.
`build_graph` passes one mask with a limit of one, reads the hits after
it, and reads a flip's weight off the XOR by the distance formula.  A
table built without a seed makes its kernel return every flip; with
the closure's seed it returns only the reverse-search children, those
whose highest backward flip undoes the flip that made them, so the
closure in `enumeration` makes each class member once.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .ideal import CSSC, SC, TSSC, Ideal, check_class
from .poset import ChainProduct, ShapeError, even_cube_r, ranks

if TYPE_CHECKING:
    from .enumeration import EnumerationResult

# ----------------------------------------------------------------------
# flip kernels


class FlipTable(NamedTuple):
    """What a flip kernel reads, for one poset, class and seed.

    ``axes`` is the poset's ``cover_axes`` and ``volume`` its V.
    ``forward`` holds the movable ranks inside the seed (the flips that
    may move a member out) and ``backward`` those outside it; without a
    seed every movable rank is forward and none backward.  ``cuts[h]``
    is ``forward & (2^(V - h) - 1)``, the flips kept for a mask whose
    maximal backward ranks have bit length ``h``; the list starts as
    V + 1 Nones and a kernel fills entry ``h`` on first use, once per
    table, not once per vertex (without a seed ``h`` is always 0).

    For sc every rank is movable but the corners, each one step below
    its own dual along some axis (``2 r = V - 1 - s_k``: flipping it
    would add the dual without its lower cover, the corner itself), and
    the self-dual centre of an odd volume.

    For cssc and tssc the movable orbits (cyclic, resp. S3) are those
    that may ever flip: neither a fixed diagonal point, which cannot
    swap with its dual one element at a time, nor an orbit of corners,
    elements ``a`` with an upper cover ``a + e_k`` whose dual lies in
    the orbit of ``a`` (the incoming dual orbit would need, as a lower
    cover, an element the flip removes).  One rank stands for each
    orbit: its top (largest) rank in ``forward`` and its rep (least)
    rank in ``backward``.  ``group`` holds one triple ``(c_x, c_y,
    c_z)`` per group element, the identity ``(l^2, l, 1)`` first: the
    image of ``(x, y, z)`` (zero-based) has rank ``x c_x + y c_y + z
    c_z``; it is None for sc.

    ``xors[b]`` is the XOR that flips rank ``b - 1``: that rank and its
    dual ``V - b`` for sc, the orbit whose top is rank ``b - 1`` and its
    dual orbit for cssc and tssc.  The list starts as V + 1 zeros (0:
    not filled yet; entry 0 stays 0) and a kernel fills entry ``b`` on
    the first flip of that rank, so a class that flips few ranks builds
    few big integers.
    """

    axes: tuple[tuple[int, int], ...]
    forward: int
    backward: int
    volume: int
    cuts: list[int | None]
    xors: list[int]
    group: tuple[tuple[int, int, int], ...] | None


def flip_table(
    p: ChainProduct, cls: str, seed: int | None = None
) -> FlipTable:
    """The flip table of ``cls`` on ``p``, cut by ``seed`` if one is given.

    Built once per closure (with the closure's seed) or per graph
    (without one), and passed to every kernel call that follows, so no
    call reads the poset or cuts the movable ranks itself.  Only the
    cut and XOR lists are O(V), and both start empty; the orbit
    masks are O(l^2) runs of ranks (`_orbit_table`), not one mask per
    orbit.
    """
    check_class(cls)
    V = p.volume
    group = None
    if cls == SC:
        stuck = 1 << (V // 2) if V % 2 else 0
        for s, m in p.cover_axes:
            t = V - 1 - s
            if t % 2 == 0:
                stuck |= m & (1 << (t // 2))
        # an element is its own orbit: its rank is both top and rep
        tops = reps = p.full_mask & ~stuck
    else:
        reps, tops, group = _orbit_table(p, cls)
    if seed is None:
        forward, backward = tops, 0
    else:
        forward, backward = tops & seed, reps & ~seed
    return FlipTable(p.cover_axes, forward, backward, V, [None] * (V + 1),
                     [0] * (V + 1), group)


def _orbit_table(
    p: ChainProduct, cls: str
) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """The rep mask and the top mask of the movable orbits of the even
    cube ``p`` under the group of ``cls`` (S3 for tssc, the rotations Z3
    for cssc), one bit at the least, resp. largest, rank of each orbit, and
    the `FlipTable` ``group`` of ``cls``.

    With zero-based coordinates the rank of ``(x, y, z)`` is
    ``x l^2 + y l + z``, so an orbit's least rank belongs to its
    lexicographically least element: the sorted triple under S3, the
    least rotation under Z3.  Off the diagonal, those with a given
    ``x <= y`` are one run of ``z``: ``y <= z`` (``y < z`` when ``y =
    x``) under S3, and ``x < z`` under Z3 (of ``(x, y, x)`` and ``(x,
    x, y)`` only the second is least).  So the reps are l (l + 1) / 2
    runs.  The dual orbit holds the ranks ``V - 1 - q``, so the top of
    an orbit is ``V - 1`` minus the rep of its dual: the tops are the
    reps reversed.  A corner orbit holds the dual of an upper cover of
    its rep ``a`` (rank ``V - 1 - r - s_k``).  Its elements share one
    coordinate sum ``s``, and that dual has sum ``3 (l - 1) - s - 1``,
    so corner orbits lie on the level ``2 s = 3 (l - 1) - 1`` alone;
    only the reps of that level are tested, and a corner orbit leaves
    both masks.
    """
    l = 2 * even_cube_r(p.dims, f"the {cls} class")
    ll = l * l
    m = l - 1
    reps = 0
    for x in range(l):
        for y in range(x, l):
            z = y + (y == x) if cls == TSSC else x + 1
            reps |= ((1 << (l - z)) - 1) << (x * ll + y * l + z)
    tops = p.reverse_mask(reps)
    order = (ll, l, 1)
    if cls == CSSC:
        group = tuple(order[i:] + order[:i] for i in range(3))
    else:
        group = tuple(itertools.permutations(order))
    v1 = p.volume - 1
    s = (3 * m - 1) // 2  # exact: l is even
    corners = 0
    for x, y in itertools.product(range(l), repeat=2):
        z = s - x - y
        r = x * ll + y * l + z
        if not 0 <= z < l or not reps >> r & 1:
            continue
        orbit = {x * cx + y * cy + z * cz for cx, cy, cz in group}
        if any(c < m and v1 - r - o in orbit
               for c, o in zip((x, y, z), order)):
            for q in orbit:
                corners |= 1 << q
    return reps & ~corners, tops & ~corners, group


def _flip_kernel(name: str, fill: Callable[..., int]):
    """A flip kernel named ``name`` that fills a missing ``xors[b]`` of
    its table as ``fill(group, V, b - 1)``."""

    def kernel(table: FlipTable, masks: list[int], limit: int) -> list[int]:
        """Expand the first ``limit`` masks of ``masks`` in place and
        return ``masks``: append every mask one flip away from each, an
        element flip (sc) or an orbit flip (cssc, tssc, under the
        table's group).  A child landing within the first ``limit``
        positions is expanded too; the masks past them are not.

        The masks must be class members, as the closure and
        `build_graph` pass: sc, and for cssc or tssc fixed by the group,
        so an orbit is either inside a mask or outside it, and one rank
        of an orbit tells both.  A member is downward closed, so each
        covered rank (one with a member just above it) is a member, and
        the maximal members are ``mask ^ covered``, one XOR where
        `ChainProduct.maximal_mask` takes ``mask & ~covered``; the
        covered ranks come from one inline walk of the table's cover
        axes, the walk of `ChainProduct.maximal_mask` without its call.

        A maximal member ``a`` is flippable iff for every axis ``k``
        along which its dual ``b`` has a lower cover, that cover lies in
        ``I`` minus ``a``.  That cover is the dual of ``a + e_k``, and
        for a self-complementary mask it is a member exactly when ``a +
        e_k`` is not: the cover test is maximality itself, save at the
        corners left out of the table's movable ranks, where the needed
        cover is ``a`` or another element of its orbit.  An orbit flips
        iff all its elements are maximal members: they share their
        coordinate sum, hence are incomparable, so removing them all is
        safe.  The group permutes the coordinates, an automorphism of
        the cube, and fixes the mask, so if one element of an orbit is
        a maximal member, every element is: an orbit flips iff its top
        is maximal and movable (for sc an element is its own orbit).

        With a table built without a seed every flip is returned.  With
        a table cut by the seed ``S`` only the reverse-search children
        are.  Rank an orbit by its rep (an element by its rank).  A
        child ``J = P - O + O*`` moves out an orbit ``O`` inside ``S``,
        and is kept iff its incoming dual ``O*`` outranks every
        backward flip of ``P`` (a flippable orbit outside ``S``).  The
        backward flips of ``J`` are those of ``P`` minus any that touch
        a lower cover of ``O*``, plus ``O*`` itself: ``O*`` is maximal
        and movable in ``J``, and the members that ``O`` uncovers lie
        in ``S``.  An orbit touching a lower cover ``c = a* - e_k`` has
        a smaller rep than ``O*``: the group permutation taking ``a*``
        to the rep of ``O*`` takes ``c`` to a lower cover of that rep.
        So the rule holds iff ``O*`` is the highest backward flip of
        ``J``, and each ``J`` but ``S`` is made by one parent only:
        ``J`` with that flip undone.  The rep of ``O*`` is ``V - 1 -
        top(O)``, so with ``h`` the bit length of the maximal backward
        reps the rule keeps the tops below ``V - h``: the table's
        ``cuts[h]``, filled here on the first mask with that ``h``.

        Each mask's children come in descending top rank of the orbit
        moved out.  A flip is one XOR with an entry of the table's
        ``xors``, filled here on the first flip of its rank.
        """
        axes, forward, backward, V, cuts, xors, group = table
        append = masks.append
        for mask in itertools.islice(masks, limit):
            covered = 0
            for s, up in axes:
                covered |= up & (mask >> s)
            mx = mask ^ covered
            h = (mx & backward).bit_length()
            cut = cuts[h]
            if cut is None:
                cut = cuts[h] = forward & ((1 << (V - h)) - 1)
            flip = mx & cut
            while flip:
                b = flip.bit_length()
                flip ^= 1 << (b - 1)
                # read from the table, not built per flip: building the
                # sc pair inline cost about 10 % of closure vertices/s
                # (2 cores)
                xor = xors[b]
                if not xor:
                    xor = xors[b] = fill(group, V, b - 1)
                append(mask ^ xor)
        return masks

    kernel.__name__ = kernel.__qualname__ = name
    return kernel


def _orbit_swap(
    group: tuple[tuple[int, int, int], ...], V: int, top: int
) -> int:
    """The orbit whose top is rank ``top``, OR its dual orbit, from the
    images of its coordinates under ``group`` (repeated images set the
    same bit)."""
    ll, l, _ = group[0]
    x, y, z = top // ll, top // l % l, top % l
    swap = 0
    for cx, cy, cz in group:
        q = x * cx + y * cy + z * cz
        swap |= 1 << q | 1 << (V - 1 - q)
    return swap


sc_flip_masks = _flip_kernel(
    "sc_flip_masks", lambda group, V, r: 1 << r | 1 << (V - 1 - r)
)
orbit_flip_masks = _flip_kernel("orbit_flip_masks", _orbit_swap)


# ----------------------------------------------------------------------
# closed-form distance


def distance(i: Ideal, j: Ideal, cls: str = SC) -> int:
    """Geodesic flip distance between two ideals of the same class."""
    check_class(cls)
    diff = i.difference_size(j)
    if cls == SC:
        return diff
    if diff % 3:
        raise ValueError(
            "difference size not divisible by 3; "
            "are both ideals in the symmetric class?"
        )
    return diff // 3


# ----------------------------------------------------------------------
# explicit graphs


@dataclass(frozen=True)
class FlipGraph:
    """A fully built flip graph over a canonical enumeration."""

    enumeration: EnumerationResult
    edges: tuple[tuple[int, int, int], ...]  # (u, v, weight) with u < v

    @property
    def n(self) -> int:
        return len(self.enumeration)

    @cached_property
    def adjacency(self) -> tuple[list[list[int]], list[list[int]] | None]:
        """Neighbor lists per vertex, one table per edge weight (1, 2).

        The weight-2 table is None when the graph has no weight-2 edge,
        as on every sc and cssc graph.
        """
        adj = tuple([[] for _ in range(self.n)] for _w in (1, 2))
        for u, v, w in self.edges:
            by_weight = adj[w - 1]
            by_weight[u].append(v)
            by_weight[v].append(u)
        one, two = adj
        return one, (two if any(two) else None)


def build_graph(enum: EnumerationResult) -> FlipGraph:
    """Materialize edges by running the flip kernel at every vertex.

    Every neighbor must land back in the vertex set, and every edge must
    be discovered exactly once from each endpoint, with the same weight;
    anything else means the kernel and the enumeration disagree, which
    is a bug worth crashing on.  Each hit ``(u, v, w)`` goes to ``fwd``
    when ``u < v`` and, as ``(v, u, w)``, to ``bwd`` otherwise; the
    check is that the two sorted lists are equal and repeat no pair.
    One flip table without a seed serves the whole graph, and the class
    kernel is called directly, one mask at a time.  Every sc hit has
    weight 1.  An orbit flip ``m -> n`` weighs |orbit| / 3, which is
    ``popcount(m ^ n) / 6``: the XOR is the orbit and its dual orbit,
    which are disjoint because no orbit of an even cube is its own dual
    (an orbit keeps its coordinate sum ``s``, and its dual's ``3 (l -
    1) - s`` has the other parity).
    """
    cls = enum.symmetry
    if cls is None:
        raise ValueError("build_graph needs a class-filtered enumeration")
    table = flip_table(enum.poset, cls)
    idx = enum.index
    fwd: list[tuple[int, int, int]] = []
    bwd: list[tuple[int, int, int]] = []
    escaped = "flip neighbor of vertex {} escaped the vertex set"
    for u, m in enumerate(enum.masks):
        # one hit loop for both kernels, zipping the sc hits with weight
        # 1, cost about 5 % of graph vertices/s (2 cores): keep both
        if cls == SC:
            hits = iter(sc_flip_masks(table, [m], 1))
            next(hits)  # the expanded mask itself
            for nm in hits:
                v = idx.get(nm)
                if v is None:
                    raise RuntimeError(escaped.format(u))
                if u < v:
                    fwd.append((u, v, 1))
                else:
                    bwd.append((v, u, 1))
        else:
            hits = iter(orbit_flip_masks(table, [m], 1))
            next(hits)  # the expanded mask itself
            for nm in hits:
                v = idx.get(nm)
                if v is None:
                    raise RuntimeError(escaped.format(u))
                w = (m ^ nm).bit_count() // 6
                if u < v:
                    fwd.append((u, v, w))
                else:
                    bwd.append((v, u, w))
    fwd.sort()
    bwd.sort()
    if fwd != bwd or len({(u, v) for u, v, _w in fwd}) != len(fwd):
        raise RuntimeError(_first_asymmetric(fwd, bwd))
    return FlipGraph(enum, tuple(fwd))


def _first_asymmetric(fwd: list, bwd: list) -> str:
    """The message for the first pair not hit exactly once from each end."""
    hits: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for side, found in enumerate((fwd, bwd)):
        for u, v, w in found:
            hits.setdefault((u, v), ([], []))[side].append(w)
    return next(
        f"asymmetric flip between vertices {u} and {v}: {ws_u + ws_v}"
        for (u, v), (ws_u, ws_v) in sorted(hits.items())
        if len(ws_u) != 1 or ws_u != ws_v
    )


def single_source_lengths(graph: FlipGraph, source: int) -> list[int]:
    """Shortest path lengths from one vertex, one distance level at a time.

    Edge weights are 1 or 2, so a vertex at distance ``d + 1`` is a
    weight-1 neighbor of level ``d`` or a weight-2 neighbor of level
    ``d - 1``.  Level ``d + 1`` is the unreached part of those
    neighbors: the search of Dial's bucket queue (*Algorithm 360*, CACM
    1969) with no stale entries.  This is the search that cross-checks
    the distance formula; unreached vertices keep ``math.inf``, the one
    object every unreached entry holds, so the test is by identity.
    Without weight-2 edges the weight-2 pass is skipped.  A source
    outside ``0..n-1`` raises ValueError (a negative one would wrap).
    """
    n = graph.n
    try:
        ok = 0 <= operator.index(source) < n
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"source must be in 0..{n - 1}, got {source!r}")
    inf = math.inf
    dist = [inf] * n
    dist[source] = 0
    one, two = graph.adjacency
    prev: list[int] = []
    level = [source]
    d = 0
    while level or prev:
        d += 1
        reached = []
        for u in level:
            for v in one[u]:
                if dist[v] is inf:
                    dist[v] = d
                    reached.append(v)
        if two is not None:
            for u in prev:
                for v in two[u]:
                    if dist[v] is inf:
                        dist[v] = d
                        reached.append(v)
        prev, level = level, reached
    return dist


# ----------------------------------------------------------------------
# all-pairs metrics


@dataclass(frozen=True)
class MetricReport:
    """Exact flip-graph metrics, all derived from the eccentricities.

    An empty class reports zero diameter and radius with empty center
    and perimeter; a single vertex is both central and peripheral.
    ``rows`` is the number of distance rows computed, each row of each
    block counted, so at most the vertex count: bookkeeping only, so it
    takes no part in equality and stays out of the record.
    """

    dims: tuple[int, ...]
    symmetry: str | None
    eccentricities: tuple[int, ...]
    diameter: int
    radius: int
    center: tuple[int, ...]
    perimeter: tuple[int, ...]
    rows: int = field(default=0, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.eccentricities)

    def to_record(self) -> dict:
        return {
            "dims": list(self.dims),
            "class": self.symmetry,
            "n_vertices": self.n_vertices,
            "diameter": self.diameter,
            "radius": self.radius,
            "center": list(self.center),
            "perimeter": list(self.perimeter),
            "eccentricities": list(self.eccentricities),
        }


#: soft bound (bytes) on the bits unpacked at once by the closure check
_UNPACK_BYTES = 8 << 20
#: soft bound (bytes) on the uint64 XOR temporary of each block of rows
#: in `_eccentricities`, which sets how many rows a step takes; the
#: popcount and the summed rows are smaller.  Near 128 KiB a block covers
#: most small classes whole and leaves the peak memory of a larger class
#: where its single rows put it
_BLOCK_BYTES = 128 << 10


def _pack_masks(masks: tuple[int, ...], bits: int) -> np.ndarray:
    """The low ``bits`` bits of the masks as an (n, limbs) uint64 array;
    rank r is bit r."""
    limbs = (bits + 63) // 64
    nbytes = limbs * 8
    low = (1 << bits) - 1
    buf = b"".join((m & low).to_bytes(nbytes, "little") for m in masks)
    return np.frombuffer(buf, dtype=np.uint64).reshape(len(masks), limbs)


def _witnesses(p: ChainProduct) -> np.ndarray:
    """One rank per dual pair of non-diagonal Z3 orbits of the even cube
    ``p``, ascending: the rep (least rank) of the orbit of the pair that
    lies below the middle level.

    The rep ``(x, y, z)`` of a non-diagonal orbit is its least rotation:
    ``x <= y`` and ``x < z``.  An orbit keeps its coordinate sum ``s``,
    and its dual has sum ``3 (l - 1) - s``; on an even cube that total is
    odd, so of each pair exactly one orbit has ``2 s < 3 (l - 1)``.
    """
    l = p.dims[0]
    a = np.arange(l)
    x, y, z = a[:, None, None], a[:, None], a  # broadcast to the cube
    below = 2 * (x + y + z) < 3 * (l - 1)
    return np.flatnonzero((x <= y) & (x < z) & below)


def _check_orbit_closed(p: ChainProduct, arr: np.ndarray) -> np.ndarray:
    """Raise unless every mask is sc and every ``I \\ J`` a union of
    3-orbits; return the masks' bits at the `_witnesses`, packed
    limb-major as a (limbs, n) uint64 array.

    A mask is sc when bit ``r`` differs from bit ``V - 1 - r`` for every
    rank ``r``.  A difference is a union of 3-orbits when every mask is
    fixed by the rotation ``(x,y,z)->(y,z,x)`` and all masks agree on
    the diagonal points ``(a,a,a)``, the only points the rotation fixes:
    it is then rotation-closed and off the diagonal, so its size
    divides by 3.  Such a mask holds, of each dual pair of non-diagonal
    orbits, exactly one whole orbit, which its bit at the pair's
    witness names; so ``|I \\ J| / 3`` is the number of witnesses at
    which two masks differ, and a distance row is one XOR and popcount
    of the packed witness bits, with no division.
    ``arr`` holds the full masks, row-major; their bits are unpacked a
    slab of rows at a time.  Bit ``x l^2 + y l + z`` of a row is entry
    ``(x, y, z)`` of an ``l x l x l`` cube, so the rotated mask is a
    transposed view of that cube and the diagonal a strided view of the
    row: no bit is gathered but the witnesses.
    """
    V = p.volume
    l = p.dims[0]  # an even cube, as `metric_report` checks
    diag = slice(None, None, l * l + l + 1)
    columns = _witnesses(p)
    limbs = (len(columns) + 63) // 64
    packed = np.empty((len(arr), limbs), dtype=np.uint64)

    def unpack(rows: np.ndarray) -> np.ndarray:
        return np.unpackbits(
            rows.view(np.uint8), axis=1, count=V, bitorder="little"
        )

    first = unpack(arr[:1])[0, diag]
    step = max(1, _UNPACK_BYTES // V)
    for lo in range(0, len(arr), step):
        bits = unpack(arr[lo:lo + step])
        if (bits[:, ::-1] == bits).any():
            raise ValueError(
                "mask is not self-complementary; "
                "vertex set is not a symmetric class"
            )
        cube = bits.reshape(-1, l, l, l)
        rotated = cube.transpose(0, 3, 1, 2)
        if (rotated != cube).any() or (bits[:, diag] != first).any():
            raise ValueError(
                "pairwise difference not divisible by the orbit size; "
                "vertex set is not closed under the symmetry"
            )
        # one flat packbits over whole limbs: along axis 1 it is slower
        wide = np.zeros((len(bits), 64 * limbs), dtype=np.uint8)
        wide[:, :len(columns)] = bits[:, columns]
        packed[lo:lo + step] = np.packbits(wide, bitorder="little").view(
            np.uint64
        ).reshape(-1, limbs)
    return packed.T.copy()


def _eccentricities(packed: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact eccentricities by bound-and-refine, and the rows it took.

    ``packed`` holds one column of bits per vertex, limb-major, shape
    (limbs, n), and a distance is the popcount of the XOR of two
    columns, so a row from ``v`` is one XOR against column ``v``, a
    popcount, and a sum over the short limb axis that adds whole rows
    of the array.
    Each vertex ``w`` carries bounds ``lo[w] <= ecc(w) <= hi[w]``.  One
    distance row from ``v`` gives ``ecc(v) = max d`` and, by the
    triangle inequality, ``max(d, ecc(v) - d) <= ecc <= ecc(v) + d``
    everywhere.  Each step takes the rows of ``fit`` unresolved vertices
    (``lo < hi``), as many as `_BLOCK_BYTES` holds and at least one, as
    one (fit, n) block, and meets the bounds of all its rows at once.
    They are the ``fit`` that rank first by largest ``hi`` on even steps
    and by smallest ``lo`` on odd ones, ties to the lowest id; the first
    step takes one row, since every bound is equal before it.  A class
    whose two rows pass the bound takes one row a step.  Once the ``left``
    unresolved vertices fit one block, their rows are computed, each
    takes its exact eccentricity as the maximum of its row, and the loop
    ends.  Every row is counted, so the count is at most n.
    """
    limbs, n = packed.shape
    cap = 2 * 64 * limbs  # above every d + ecc(v)
    fit = max(1, _BLOCK_BYTES // (8 * n * limbs))
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, cap, dtype=np.int64)
    rows = step = 0
    while True:
        unresolved = lo < hi
        left = int(np.count_nonzero(unresolved))
        if left <= fit:
            break
        # resolved vertices rank last, ties to the lowest id
        if step % 2:
            key = np.where(unresolved, lo, cap)
        else:
            key = np.where(unresolved, cap - hi, cap)
        k = fit if step else 1
        if k == 1:  # the same pick; argpartition slows tssc r=6 by a fifth
            sel = key.argmin(keepdims=True)
        else:
            sel = np.argpartition(key * n + np.arange(n), k - 1)[:k]
        d = _rows(packed, sel)
        e = d.max(axis=1, keepdims=True)
        np.maximum(lo, np.maximum(d, e - d).max(axis=0), out=lo)
        np.minimum(hi, (d + e).min(axis=0), out=hi)
        rows += k
        step += 1
    sel = np.flatnonzero(unresolved)
    lo[sel] = _rows(packed, sel).max(axis=1)
    return lo, rows + left


def _rows(packed: np.ndarray, sel: np.ndarray | slice) -> np.ndarray:
    """The distance rows from the vertices ``sel``, one block.

    The sums are int32, which holds every distance (at most V/2) in half
    the bytes of int64, so the row arithmetic moves half the memory.
    """
    return np.bitwise_count(packed[:, sel, None] ^ packed[:, None, :]).sum(
        axis=0, dtype=np.int32
    )


def metric_report(enum: EnumerationResult) -> MetricReport:
    """Diameter, radius, center and perimeter from a few distance rows.

    Every mask must be sc (cssc and tssc masks are sc too): then
    ``|I \\ J| = popcount(h_I ^ h_J)`` over the low halves ``h`` of
    the masks, one vectorized XOR and popcount over a limb-major uint64
    array of half masks.  For cssc and tssc the full masks are first
    checked to be sc and closed under the symmetry, and the rows come
    from their witness bits instead (`_check_orbit_closed`), a third of
    the half mask, whose popcount is the distance ``|I \\ J| / 3``
    itself; an sc-tagged enumeration is taken to hold sc masks, as flip
    closure makes them.  Every member of a class has the same size, so
    ``|I \\ J| = |J \\ I|``: the distance is a metric, and the
    eccentricity bounds of Takes and Kosters (`_eccentricities`)
    resolve every vertex exactly.  A large class takes far fewer than n
    rows, each step a block of as many as `_BLOCK_BYTES` holds; a small
    class is a single block of all n rows, with no bounds.  ``rows``
    counts every row of every block.
    """
    cls = enum.symmetry
    if cls is None:
        raise ValueError("metric_report needs a class-filtered enumeration")
    p = enum.poset
    if cls in (CSSC, TSSC):
        even_cube_r(p.dims, f"the {cls} class")
    if not enum.masks:
        return MetricReport(p.dims, cls, (), 0, 0, (), ())
    if cls in (CSSC, TSSC):
        packed = _check_orbit_closed(p, _pack_masks(enum.masks, p.volume))
    else:
        # packing only the low halves: packing full masks and cutting
        # them made all-pairs items 4 % slower (2 cores)
        bits = p.volume // 2
        packed = np.ascontiguousarray(_pack_masks(enum.masks, bits).T)
    limbs, n = packed.shape
    if 8 * n * n * limbs <= _BLOCK_BYTES:
        # one block, every row at once, and no bounds; below about a
        # hundred vertices a list is cheaper to scan than numpy to call
        ecc = _rows(packed, slice(None)).max(axis=1).tolist()
        diameter, radius = max(ecc), min(ecc)
        center = tuple(i for i, e in enumerate(ecc) if e == radius)
        perimeter = tuple(i for i, e in enumerate(ecc) if e == diameter)
        rows = n
    else:
        lo, rows = _eccentricities(packed)
        diameter, radius = int(lo.max()), int(lo.min())
        ecc = lo.tolist()
        center = tuple(np.flatnonzero(lo == radius).tolist())
        perimeter = tuple(np.flatnonzero(lo == diameter).tolist())
    return MetricReport(
        p.dims, cls, tuple(ecc), diameter, radius, center, perimeter, rows
    )


def distances_from(enum: EnumerationResult, ideal: Ideal) -> list[int]:
    """Distances from one ideal to every enumerated vertex (exact).

    ``|I \\ J|``, a distance between ideals of one size as in a class,
    is taken as ``|I| - |I & J|``: no mask is complemented.
    """
    if enum.symmetry is None:
        raise ValueError("distances_from needs a class-filtered enumeration")
    if ideal.poset.dims != enum.poset.dims:
        raise ShapeError("ideals live on different posets")
    m = ideal.mask
    size = m.bit_count()
    row = [size - (m & o).bit_count() for o in enum.masks]
    if enum.symmetry not in (CSSC, TSSC):
        return row
    if any(d % 3 for d in row):
        raise ValueError("difference size not divisible by orbit size")
    return [d // 3 for d in row]


# ----------------------------------------------------------------------
# output


def graph_dot(graph: FlipGraph, report: MetricReport) -> str:
    """The graph in DOT, coloring center and perimeter.

    Center vertices are filled blue and perimeter vertices red (center
    wins when the graph is so small a vertex is both), and the edge
    weight is written as an attribute.
    """
    center = set(report.center)
    perimeter = set(report.perimeter)
    lines = ["graph flips {", "  node [style=filled fillcolor=white];"]
    for u in range(graph.n):
        attrs = []
        if u in center:
            attrs.append('color=blue fillcolor="#c8d8f8"')
        elif u in perimeter:
            attrs.append('color=red fillcolor="#f8d0c8"')
        body = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f"  v{u}{body};")
    for u, v, w in graph.edges:
        lines.append(f"  v{u} -- v{v} [weight={w}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_record(graph: FlipGraph, report: MetricReport) -> dict:
    """The graph as a JSON-ready record: member ranks, edges, report."""
    enum = graph.enumeration
    return {
        "dims": list(enum.poset.dims),
        "class": enum.symmetry,
        "vertices": [list(ranks(m)) for m in enum.masks],
        "edges": [list(e) for e in graph.edges],
        "report": report.to_record(),
    }


def eccentricity_csv(report: MetricReport) -> str:
    """The per-vertex eccentricity table as CSV."""
    lines = ["vertex_id,eccentricity"]
    lines += [f"{i},{e}" for i, e in enumerate(report.eccentricities)]
    return "\n".join(lines) + "\n"
