"""Extremal families for the matching-number problem, with closed-form counts.

Four families on [n], all with matching number s:

* cover family        -- every edge meeting a fixed s-set W
* clique family       -- the complete k-graph on a fixed (k(s+1)-1)-set U
* Hilton-Milner family-- edges meeting [s-1], plus the block S = {s+1..s+k},
                         plus edges through s that meet S
* prefix overlap family (index i) -- edges meeting [(s+1)i-1] in >= i vertices

plus the universal-vertex augmentation that adds r new vertices adjacent to
everything. Each family is its definition written as a row mask over
``core.k_sets``, the k-sets of [n] in lex order, so its rows come out in
canonical order; the clique family maps the k-sets of [|U|] into U. Counts
are exact integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import Hypergraph, _check_shape, k_sets, lex_codes


def _check_range(n: int, k: int, s: int) -> None:
    _check_shape(n, k)
    if s < 0:
        raise ValueError(f"s={s} must be nonnegative")


# -- generators -------------------------------------------------------------


def cover_family(n: int, k: int, s: int, w: tuple[int, ...] | None = None) -> Hypergraph:
    """All k-sets meeting W (default W = [s]); edge count C(n,k) - C(n-s,k)."""
    _check_range(n, k, s)
    w = tuple(range(1, s + 1)) if w is None else tuple(sorted(w))
    if len(w) != s or len(set(w)) != s:
        raise ValueError(f"W must have exactly s={s} distinct vertices, got {w}")
    if w and (w[0] < 1 or w[-1] > n):
        raise ValueError(f"W={w} leaves 1..{n}")
    v = k_sets(n, k)
    return Hypergraph(n, k, v[np.isin(v, w).any(1)])


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
    return Hypergraph(n, k, np.asarray(u)[k_sets(size, k) - 1])


def hilton_milner_family(n: int, k: int, s: int) -> Hypergraph:
    """Edges meeting [s-1], the block S = {s+1..s+k}, and S-meeting edges through s."""
    _check_range(n, k, s)
    if s < 1:
        raise ValueError("Hilton-Milner family needs s >= 1")
    if n < s + k:
        raise ValueError(f"n={n} too small: need n >= s+k = {s + k}")
    v = k_sets(n, k)
    block = np.arange(s + 1, s + k + 1)
    keep = (v < s).any(1) | ((v == s).any(1) & ((v > s) & (v <= s + k)).any(1))
    return Hypergraph(n, k, v[keep | (v == block).all(1)])


def prefix_overlap_family(n: int, k: int, s: int, i: int) -> Hypergraph:
    """Edges whose overlap with [(s+1)i - 1] has at least i vertices."""
    _check_range(n, k, s)
    if not 2 <= i <= k:
        raise ValueError(f"index i={i} outside 2..k={k}")
    size = (s + 1) * i - 1
    if size > n:
        raise ValueError(f"prefix size (s+1)i-1 = {size} exceeds n={n}")
    v = k_sets(n, k)
    return Hypergraph(n, k, v[(v <= size).sum(1) >= i])


def augment_universal(h: Hypergraph, r: int) -> Hypergraph:
    """Add r universal vertices n+1..n+r; every k-set meeting them is an edge."""
    if r < 0:
        raise ValueError(f"r={r} must be nonnegative")
    if r == 0:
        return h
    n, k, top = h.n, h.k, h.n + r
    v = k_sets(top, k)
    keep = v[:, -1] > n  # a k-set meets a universal vertex iff its top vertex does
    # h's edges are k-sets of [top] too: one search of lex codes finds their rows
    keep[np.searchsorted(lex_codes(v, top), lex_codes(h.vertex_array(), top))] = True
    # h complete: every k-set of [top] is kept, so the array is handed over, not copied
    return Hypergraph(top, k, v if keep.all() else v[keep])


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
    entry for k=3, more for k >= 4); max_nontrivial is the paper's maximum,
    the largest of the Hilton-Milner, clique, and prefix-overlap counts, and
    argmax names every family at it, comma-separated in the order hm,
    clique, a2, ..., a{k-1}, ties included (``hm,a2``).
    """

    n: int
    k: int
    s: int
    cover_bound: int
    clique_bound: int
    hm_bound: int
    a_bounds: list[int]
    max_nontrivial: int
    argmax: str


def bound_report(n: int, k: int, s: int) -> BoundReport:
    _check_shape(n, k)
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    if n < k * s + k - 1:
        raise ValueError(f"n={n} below k(s+1)-1 = {k * s + k - 1}")
    a_bounds = [prefix_overlap_count(n, k, s, i) for i in range(2, k)]
    counts = {"hm": hm_count(n, k, s), "clique": clique_count(k, s),
              **{f"a{i}": a for i, a in enumerate(a_bounds, 2)}}
    top = max(counts.values())
    return BoundReport(
        n=n,
        k=k,
        s=s,
        cover_bound=cover_count(n, k, s),
        clique_bound=counts["clique"],
        hm_bound=counts["hm"],
        a_bounds=a_bounds,
        max_nontrivial=top,
        argmax=",".join(name for name, c in counts.items() if c == top),
    )
