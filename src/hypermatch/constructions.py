"""Extremal families for the matching-number problem, with closed-form counts.

Four families on [n], all with matching number s:

* cover family        -- every edge meeting a fixed s-set W
* clique family       -- the complete k-graph on a fixed (k(s+1)-1)-set U
* Hilton-Milner family-- edges meeting [s-1], plus the block S = {s+1..s+k},
                         plus edges through s that meet S
* prefix overlap family (index i) -- edges meeting [(s+1)i-1] in >= i vertices

plus the universal-vertex augmentation that adds r new vertices adjacent to
everything. Counts are exact integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .core import Hypergraph, _check_shape, lex_codes


def _check_range(n: int, k: int, s: int) -> None:
    _check_shape(n, k)
    if s < 0:
        raise ValueError(f"s={s} must be nonnegative")


@dataclass(frozen=True)
class PartitionSpec:
    """A two-block split of [n]; the second block is the complement of w."""

    n: int
    w: frozenset

    def __post_init__(self):
        if not all(1 <= v <= self.n for v in self.w):
            raise ValueError(f"W={sorted(self.w)} leaves 1..{self.n}")

    @property
    def u(self) -> frozenset:
        return frozenset(v for v in range(1, self.n + 1) if v not in self.w)


# -- generators -------------------------------------------------------------


def cover_family(n: int, k: int, s: int, w: tuple[int, ...] | None = None) -> Hypergraph:
    """All k-sets meeting W (default W = [s]); edge count C(n,k) - C(n-s,k)."""
    _check_range(n, k, s)
    w = tuple(range(1, s + 1)) if w is None else tuple(sorted(w))
    if len(w) != s or len(set(w)) != s:
        raise ValueError(f"W must have exactly s={s} distinct vertices, got {w}")
    if w and (w[0] < 1 or w[-1] > n):
        raise ValueError(f"W={w} leaves 1..{n}")
    wset = set(w)
    edges = [e for e in combinations(range(1, n + 1), k) if wset.intersection(e)]
    return Hypergraph(n, k, edges)


def clique_family(n: int, k: int, s: int, u: tuple[int, ...] | None = None) -> Hypergraph:
    """Complete k-graph on U with |U| = k(s+1)-1, embedded in [n]."""
    _check_range(n, k, s)
    size = k * (s + 1) - 1
    u = tuple(range(1, size + 1)) if u is None else tuple(sorted(u))
    if len(u) != size or len(set(u)) != size:
        raise ValueError(f"U must have exactly k(s+1)-1={size} distinct vertices")
    if size > n:
        raise ValueError(f"|U|={size} exceeds n={n}")
    if u[0] < 1 or u[-1] > n:
        raise ValueError(f"U={u} leaves 1..{n}")
    return Hypergraph(n, k, combinations(u, k))


def hilton_milner_family(n: int, k: int, s: int) -> Hypergraph:
    """Edges meeting [s-1], the block S = {s+1..s+k}, and S-meeting edges through s."""
    _check_range(n, k, s)
    if s < 1:
        raise ValueError("Hilton-Milner family needs s >= 1")
    if n < s + k:
        raise ValueError(f"n={n} too small: need n >= s+k = {s + k}")
    head = set(range(1, s))
    block = tuple(range(s + 1, s + k + 1))
    block_set = set(block)
    edges = [block]
    for e in combinations(range(1, n + 1), k):
        if head.intersection(e):
            edges.append(e)
        elif s in e and block_set.intersection(e):
            edges.append(e)
    return Hypergraph(n, k, edges)


def prefix_overlap_family(n: int, k: int, s: int, i: int) -> Hypergraph:
    """Edges whose overlap with [(s+1)i - 1] has at least i vertices."""
    _check_range(n, k, s)
    if not 2 <= i <= k:
        raise ValueError(f"index i={i} outside 2..k={k}")
    size = (s + 1) * i - 1
    if size > n:
        raise ValueError(f"prefix size (s+1)i-1 = {size} exceeds n={n}")
    prefix = set(range(1, size + 1))
    edges = [e for e in combinations(range(1, n + 1), k) if len(prefix.intersection(e)) >= i]
    return Hypergraph(n, k, edges)


def _with_tops(prev: np.ndarray, j: int, tops: range) -> np.ndarray:
    """The j-sets whose top vertex is in ``tops``, in colex order.

    ``prev`` holds the (j-1)-sets in colex order, where the (j-1)-sets of
    [x-1] are the first C(x-1, j-1) rows; each is extended by its top x.
    """
    counts = [comb(x - 1, j - 1) for x in tops]
    first = np.repeat(np.cumsum(counts) - counts, counts)  # where each top's rows start
    rows = np.arange(len(first)) - first
    return np.column_stack([prev[rows], np.repeat(np.arange(tops.start, tops.stop), counts)])


def augment_universal(h: Hypergraph, r: int) -> Hypergraph:
    """Add r universal vertices n+1..n+r; every k-set meeting them is an edge."""
    if r < 0:
        raise ValueError(f"r={r} must be nonnegative")
    if r == 0:
        return h
    n, k, top, allv = h.n, h.k, h.n + r, h.vertex_array()
    # a k-set meets a universal vertex iff its top vertex t exceeds n: it is
    # a (k-1)-set of [t-1] plus t
    low = np.zeros((1, 0), dtype=np.intp)
    for j in range(1, k):
        low = _with_tops(low, j, range(j, top))
    new = _with_tops(low, k, range(n + 1, top + 1))
    # lex order on k-sets of [top] is the order of their codes
    old_codes, new_codes = lex_codes(allv, top), lex_codes(new, top)
    order = np.argsort(new_codes)
    new, new_codes = new[order], new_codes[order]
    # h's edges are in lex order too; the new rows land between them
    is_new = np.zeros(len(allv) + len(new), dtype=bool)
    is_new[np.searchsorted(old_codes, new_codes) + np.arange(len(new))] = True
    is_old = ~is_new
    verts = np.empty((len(is_new), k), dtype=np.intp)
    col = np.empty(len(is_new), dtype=np.intp)
    for j in range(k):  # column by column: 1-D masked writes are the fast ones
        col[is_new], col[is_old] = new[:, j], allv[:, j]
        verts[:, j] = col
    return Hypergraph(top, k, verts)


# -- closed-form counts ------------------------------------------------------


def cover_count(n: int, k: int, s: int) -> int:
    return comb(n, k) - comb(n - s, k)


def clique_count(k: int, s: int) -> int:
    return comb(k * (s + 1) - 1, k)


def hm_count(n: int, k: int, s: int) -> int:
    return comb(n, k) - comb(n - s, k) - comb(n - s - k, k - 1) + 1


def prefix_overlap_count(n: int, k: int, s: int, i: int) -> int:
    size = (s + 1) * i - 1
    return sum(comb(size, j) * comb(n - size, k - j) for j in range(i, k + 1))


@dataclass
class BoundReport:
    """The closed-form edge-count bounds for parameters (n, k, s).

    a_bounds holds the prefix-overlap counts for 2 <= i <= k-1 (a single
    entry for k=3, more for k >= 4); max_nontrivial is the largest of the
    Hilton-Milner, clique, and prefix-overlap counts.
    """

    n: int
    k: int
    s: int
    cover_bound: int
    clique_bound: int
    hm_bound: int
    a_bounds: list[int] = field(default_factory=list)
    max_nontrivial: int = 0


def bound_report(n: int, k: int, s: int) -> BoundReport:
    _check_shape(n, k)
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    if n < k * s + k - 1:
        raise ValueError(f"n={n} below k(s+1)-1 = {k * s + k - 1}")
    a_bounds = [prefix_overlap_count(n, k, s, i) for i in range(2, k)]
    hm = hm_count(n, k, s)
    clique = clique_count(k, s)
    return BoundReport(
        n=n,
        k=k,
        s=s,
        cover_bound=cover_count(n, k, s),
        clique_bound=clique,
        hm_bound=hm,
        a_bounds=a_bounds,
        max_nontrivial=max([hm, clique, *a_bounds]),
    )
