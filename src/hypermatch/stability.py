"""Closeness-to-extremal diagnostics and the bound-crossover analysis.

Closeness to a target family is measured one-sidedly as the number of
target edges missing from the graph, normalized by n^k. The partition that
realizes the measure is chosen either heuristically (highest-degree
vertices) or by exhaustive search over all placements at small n, which
reads every placement's count from one table of edges per vertex subset.

The crossover functions track where the Hilton-Milner-type count and the
clique count trade places as s/n grows: the gap density is

    g(x) = (1 - (1-x)^3)/6 - 9 x^3 / 2,   g'(x) = (1 - 2x - 26 x^2)/2,

positive for small x, with a single root (sqrt(321) - 3)/52 in (0, 1/3).

Each row of the bound table is one ``bound_report``, with the prefix-overlap
counts A_i (i = 2..k-1) and every family at the paper's maximum, ties
included. At k = 3, A_2 has density 2x^2 - 8x^3/3: below Hilton-Milner's for
x < (15 - sqrt(21))/34 ~ 0.3064 and below the clique's for x > 12/43 ~ 0.2791,
so it is never the maximum at leading order. Its wins are a small-n window:
for n < 200 it is the strict maximum at (n, s) = (10, 2), (11, 2), (14, 3),
(15, 3), (17, 4), (18, 4), (21, 5), (24, 6), (25, 6), (28, 7) and (35, 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constructions import BoundReport, bound_report, clique_count, cover_count, hm_count
from .core import BudgetExceeded, Hypergraph, _check_shape, k_sets

EXHAUSTIVE_GUARD_N = 16


@dataclass
class ClosenessReport:
    target: str  # "cover" or "clique"
    partition: tuple[int, ...]  # the chosen W (cover) or U (clique)
    missing_edges: int
    epsilon_effective: float
    exhaustive: bool
    n: int = 0


@dataclass
class GoodnessReport:
    theta: float
    good: frozenset[int]
    bad: frozenset[int]
    deficiency: dict[int, int] = field(default_factory=dict)


def missing_edges(h: Hypergraph, target: Hypergraph) -> int:
    """|E(target) \\ E(h)|, the one-sided closeness distance."""
    if h.n != target.n or h.k != target.k:
        raise ValueError("graphs must share n and k")
    return len(target.edge_set - h.edge_set)


def _top_degree_vertices(h: Hypergraph, count: int) -> tuple[int, ...]:
    deg = np.bincount(h.vertex_array().ravel(), minlength=h.n + 1)[1:]
    ranked = np.argsort(-deg, kind="stable")[:count] + 1  # stable: equal degrees stay in label order
    return tuple(sorted(ranked.tolist()))


def _inside(h: Hypergraph, vertices: set[int]) -> int:
    """The number of edges of h inside the vertex set."""
    inside = np.zeros(h.n + 1, dtype=bool)
    inside[list(vertices)] = True
    return int(inside[h.vertex_array()].all(axis=1).sum())


def _subset_counts(h: Hypergraph) -> np.ndarray:
    """f[S] = the number of edges inside S, for every vertex bitmask S (bit v-1 for v).

    A 1 at each edge mask (the edges are distinct), then the subset-sum (zeta)
    transform: the pass for bit b adds f[S] into f[S | b] for every S without
    b. The passes commute, so they run in two blocks. Seen as a (2^hi, 2^lo)
    matrix, lo = n // 2, the table indexes rows by S's high bits and columns
    by its low bits. The 1s go into its transpose, where the low bits' passes
    run; one contiguous copy turns it back for the high bits' passes. So
    every pass adds runs of at least 2^lo entries. No count exceeds
    C(n, n // 2) <= C(16, 8) = 12 870 under the guard, so the counts are int16.
    """
    n = h.n
    if n > EXHAUSTIVE_GUARD_N:
        raise BudgetExceeded(f"exhaustive closeness capped at n={EXHAUSTIVE_GUARD_N}")
    lo = n // 2
    hi = n - lo
    # vertex v's bit in the transposed layout, whose index is S's low bits above its high ones
    shift = np.concatenate([np.arange(hi, n), np.arange(hi)]).astype(np.int64)
    t = np.zeros(1 << n, dtype=np.int16)
    t[(np.int64(1) << shift[h.vertex_array() - 1]).sum(axis=1)] = 1
    for b in range(hi, n):
        pairs = t.reshape(-1, 2, 1 << b)
        pairs[:, 1] += pairs[:, 0]
    f = t.reshape(1 << lo, 1 << hi).T.ravel()  # a copy: the transpose is not contiguous
    for b in range(lo, n):
        pairs = f.reshape(-1, 2, 1 << b)
        pairs[:, 1] += pairs[:, 0]
    return f


def _closest(h: Hypergraph, target: str, size: int, search: str) -> ClosenessReport:
    """The placement of a size-set with the fewest target edges missing.

    A W misses cover_count - (m - inside(V \\ W)) cover edges and a U misses
    clique_count - inside(U) clique edges, where inside(S) counts the edges
    inside S. The heuristic takes the highest-degree vertices and counts
    with `_inside`. The exhaustive search reads every placement's count off
    one subset-count table f, f[S] = inside(S). Its placements are masks in
    lex order, listed by `k_sets` on the smaller side: the size-sets, or
    their complements reversed (complementing reverses lex order), and
    argmin keeps the first of the fewest.
    """
    def misses(inside):
        if target == "cover":
            return cover_count(h.n, h.k, size) - h.e() + inside
        return clique_count(h.k, (size + 1) // h.k - 1) - inside

    if search == "heuristic":
        best = _top_degree_vertices(h, size)
        kept = set(best) if target == "clique" else set(h.vertices()).difference(best)
        miss = misses(_inside(h, kept))
    elif search != "exhaustive":
        raise ValueError(f"unknown search mode {search!r}")
    else:
        f = _subset_counts(h)  # refuses n past EXHAUSTIVE_GUARD_N
        full = (1 << h.n) - 1
        flip = 2 * size > h.n
        places = (np.int64(1) << (k_sets(h.n, h.n - size if flip else size) - 1)).sum(axis=1)
        if flip:
            places = full ^ places[::-1]
        every = misses(f[full ^ places if target == "cover" else places].astype(np.int64))
        at = int(np.argmin(every))
        miss = int(every[at])
        mask = int(places[at])
        best = tuple(v + 1 for v in range(h.n) if mask >> v & 1)
    return ClosenessReport(target, best, miss, miss / h.n**h.k, search == "exhaustive", h.n)


def closeness_to_cover(h: Hypergraph, s: int, search: str = "heuristic") -> ClosenessReport:
    """Fewest cover-family edges missing over placements of the s-set W."""
    if not 0 <= s <= h.n:
        raise ValueError(f"s={s} outside 0..{h.n}")
    return _closest(h, "cover", s, search)


def closeness_to_clique(h: Hypergraph, s: int, search: str = "heuristic") -> ClosenessReport:
    """Fewest clique-family edges missing over placements of the core set U."""
    if s < 0:
        raise ValueError(f"s={s} must be at least 0")
    size = h.k * (s + 1) - 1
    if size > h.n:
        raise ValueError(f"clique core k(s+1)-1 = {size} exceeds n={h.n}")
    return _closest(h, "clique", size, search)


def goodness_partition(h: Hypergraph, target: Hypergraph, theta: float) -> GoodnessReport:
    """Split vertices by neighborhood deficiency against the target.

    A vertex is good when it sits in at most theta * n^(k-1) edges of
    target-minus-h; the deficiencies sum to k times the missing-edge count.
    """
    if h.n != target.n or h.k != target.k:
        raise ValueError("graphs must share n and k")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    deficiency = {v: 0 for v in h.vertices()}
    for e in target.edge_set - h.edge_set:
        for v in e:
            deficiency[v] += 1
    cut = theta * h.n ** (h.k - 1)
    good = frozenset(v for v in h.vertices() if deficiency[v] <= cut)
    bad = frozenset(v for v in h.vertices() if v not in good)
    return GoodnessReport(theta, good, bad, deficiency)


# -- crossover of the two bounds ----------------------------------------------


def crossover_gap(x: float) -> float:
    """Leading-order density of (Hilton-Milner count) - (clique count) at s = xn."""
    if not 0 <= x <= 1 / 3:
        raise ValueError(f"x={x} outside [0, 1/3]")
    return (1 - (1 - x) ** 3) / 6 - 4.5 * x**3


def crossover_gap_derivative(x: float) -> float:
    if not 0 <= x <= 1 / 3:
        raise ValueError(f"x={x} outside [0, 1/3]")
    return (1 - 2 * x - 26 * x**2) / 2


def crossover_root(tol: float = 1e-12) -> float:
    """The positive root of the gap density in (0, 1/3), by bisection."""
    lo, hi = 0.1, 1 / 3  # gap > 0 at 0.1, < 0 at 1/3
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if crossover_gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def crossover_root_closed_form() -> float:
    return (math.sqrt(321) - 3) / 52


def bound_table(n: int, k: int = 3) -> list[BoundReport]:
    """``bound_report(n, k, s)`` for every s with a row, s = 1..(n-k+1)//k."""
    return [bound_report(n, k, s) for s in range(1, (n - k + 1) // k + 1)]


def clique_overtakes_at(n: int, k: int = 3) -> int | None:
    """Smallest s of ``bound_table``'s range with clique count strictly above the
    Hilton-Milner count; stops there, holding no table."""
    top = (n - k + 1) // k
    if top >= 1:
        _check_shape(n, k)  # bound_report's refusal, for any table with a row
    for s in range(1, top + 1):
        if clique_count(k, s) > hm_count(n, k, s):
            return s
    return None
