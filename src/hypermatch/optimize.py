"""Exact and fractional matching/cover solvers.

Exact values come from one edge-bitset search kernel (``EdgeIndex``, shared
with ``verify`` and ``rounding``) run by iterative deepening; a pure
enumeration oracle (no pruning at all) sits behind ``exhaustive=True`` and
is the ground truth in tests. The deepening for nu stops at floor(tau*) of
the certified LP pair below, so the last, failing search is skipped
whenever that floor is reached. The cover search skips, below the later
branches of a node, every vertex whose own branch there failed; those
branches could only fail, so it returns what the plain search returns. The
fractional matching and cover numbers come together from one sparse HiGHS
solve of the cover LP, on the edge rows that bind (row generation); in
rational mode its answer is rounded over one common denominator and checked
in integers over every edge, and the rational simplex
(``_matching_simplex``, ``_cover_simplex``) is both the fallback and the
ground truth in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, floor, lcm
from typing import Iterable

import numpy as np

from . import lp
from .core import BudgetExceeded, Edge, Hypergraph, bit_positions, edge_mask, k_sets

ORACLE_GUARD = 20_000_000


class DualityError(RuntimeError):
    """The two fractional optima disagree: a solver bug by construction."""


@dataclass(frozen=True)
class Matching:
    edges: tuple[Edge, ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def validate(self, h: Hypergraph) -> None:
        used: set[int] = set()
        for e, present in zip(self.edges, h.has_edges(self.edges)):
            if not present:
                raise ValueError(f"matching edge {e} not in the graph")
            if used.intersection(e):
                raise ValueError(f"matching edge {e} reuses a vertex")
            used.update(e)


@dataclass(frozen=True)
class VertexCover:
    vertices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def validate(self, h: Hypergraph) -> None:
        for v in self.vertices:
            if not 1 <= v <= h.n:
                raise ValueError(f"cover vertex {v} outside 1..{h.n}")
        for e in h.edges:
            if not self.vertices.intersection(e):
                raise ValueError(f"edge {e} escapes the cover")


@dataclass
class FractionalAssignment:
    """Weights on edges (kind='matching') or vertices (kind='cover').

    ``weights`` is one 1-D array, indexed like ``h.edges`` for a matching
    and like ``h.vertices()`` for a cover: float64 in float mode, an object
    array of ``Fraction``s in rational mode.
    """

    kind: str
    weights: np.ndarray
    value: Fraction | float
    mode: str = "rational"
    residual: float | None = None
    lp_path: str | None = None  # for nu* and tau*: LP_HIGHS, LP_CERTIFIED or LP_SIMPLEX
    lp_solves: int | None = None  # on the HiGHS paths: HiGHS calls of the row generation
    lp_rows: int | None = None  # on the HiGHS paths: edge rows in the last of them
    lp_iterations: int | None = None  # on the HiGHS paths: simplex iterations of all of them

    def slack(self, tol: float) -> float:
        """How far a bound may be missed: 0 in rational mode, ``tol`` in float mode."""
        return 0 if self.mode == "rational" else tol

    def validate(self, h: Hypergraph, tol: float = 1e-9) -> None:
        slack = self.slack(tol)
        if self.kind == "matching":
            keys, what = h.edges, "edges"
        elif self.kind == "cover":
            keys, what = h.vertices(), "vertices"
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        if len(self.weights) != len(keys):
            raise ValueError(f"{len(self.weights)} weights for {len(keys)} {what}")
        # each test is written so that NaN, which fails every comparison, fails it
        for key, w in zip(keys, self.weights):
            if not -slack <= w <= 1 + slack:
                raise ValueError(f"weight {w} on {key} outside [0, 1]")
        if self.kind == "matching":
            load = [0] * (h.n + 1)
            for e, w in zip(h.edges, self.weights):
                if w:
                    for v in e:
                        load[v] += w
            for v in h.vertices():
                if not load[v] <= 1 + slack:
                    raise ValueError(f"vertex {v} carries weight {load[v]} > 1")
        else:
            for e in h.edges:
                tot = sum(self.weights[v - 1] for v in e)
                if not tot >= 1 - slack:
                    raise ValueError(f"edge {e} has cover weight {tot} < 1")


# -- exact matching and cover: one edge-bitset kernel ------------------------


# Bytes the transient boolean (n+1) x block matrix of the incidence build may
# take, however many edges or vertices there are: blocks of 11 520 edges at
# n 90 and 6944 at n 150. A block is a multiple of 8 edges, so it packs into
# whole bytes.
INC_BLOCK_BYTES = 1 << 20


class EdgeIndex:
    """Edge bitsets over a fixed edge list: bit i of a set stands for edge i.

    Edge i is row i of ``verts``, an (m, k) integer array over the vertices
    1..n. ``inc[v]`` holds the edges through vertex v; ``disj[i]``, the edges
    disjoint from edge i, and ``rows``, the edges' vertex lists, are built on
    first use. ``packing`` and ``cover`` answer the paper's two questions,
    nu <= s and tau > s, on any edge subset, ``addable_after`` keeps
    ``verify``'s walk below a matching ceiling, ``meeting_counts`` gives it
    the edge orbits of its symmetry group, and ``perfect`` finds the
    rounding pipeline's perfect matchings. Only this class reads its tables.
    """

    __slots__ = ("n", "k", "verts", "full", "inc", "disj", "rows")

    def __init__(self, n: int, verts: np.ndarray):
        self.n, self.k = n, verts.shape[1]
        self.verts = verts
        m = len(verts)
        self.full = (1 << m) - 1
        # row v of packed is inc[v] as little-endian bytes: edge i is bit i & 7 of byte i >> 3
        packed = np.zeros((n + 1, (m + 7) // 8), dtype=np.uint8)
        size = max(8, INC_BLOCK_BYTES // (n + 1) // 8 * 8)
        for lo in range(0, m, size):
            block = verts[lo:lo + size]
            hit = np.zeros((n + 1, len(block)), dtype=bool)
            hit[block.T, np.arange(len(block))] = True
            packed[:, lo >> 3:(lo + len(block) + 7) >> 3] = np.packbits(
                hit, axis=1, bitorder="little"
            )
        self.inc = [int.from_bytes(row, "little") for row in packed]
        # m^2 bits in all, so left to the first search that needs them
        self.disj: list[int] | None = None
        self.rows: list[list[int]] | None = None

    def ids(self, bits: int) -> list[int]:
        """The edges of the bitset, ascending, as Python ints."""
        return bit_positions((bits,), len(self.verts)).tolist()

    def meeting(self, vs) -> int:
        """The edges through any of the vertices vs."""
        inc, row = self.inc, 0
        for v in vs:
            row |= inc[v]
        return row

    def containing(self, vs) -> int:
        """The edges through every one of the vertices vs."""
        inc, row = self.inc, self.full
        for v in vs:
            row &= inc[v]
        return row

    def meeting_counts(self, vs) -> list[int]:
        """Entry c holds the edges meeting the distinct vertices vs in exactly
        c of them, for c = 0..k."""
        inc, counts = self.inc, [self.full] + [0] * self.k
        for v in vs:
            row = inc[v]
            # an edge through v moves up one entry, from the top entry down
            for c in range(self.k, 0, -1):
                counts[c] = counts[c] & ~row | counts[c - 1] & row
            counts[0] &= ~row
        return counts

    def without_pairs(self, live: int, pairs) -> int:
        """The edges of `live` that hold none of the vertex pairs."""
        inc = self.inc
        for x, y in pairs:
            live &= ~(inc[x] & inc[y])
        return live

    def vertex_rows(self) -> list[list[int]]:
        """``rows``, built on first use: row i lists the vertices of edge i."""
        if self.rows is None:
            self.rows = self.verts.tolist()
        return self.rows

    def disjoint_rows(self) -> list[int]:
        """``disj``, built on first use: row i holds the edges disjoint from edge i."""
        if self.disj is None:
            self.disj = [self.full & ~self.meeting(vs) for vs in self.vertex_rows()]
        return self.disj

    def packing(self, sub: int, need: int, nodes: int | None = None) -> list[int] | None:
        """`need` pairwise disjoint edges of the subset, or None.

        With ``nodes``, the search raises BudgetExceeded when it would enter
        more than that many nodes (calls of its recursion).
        """
        if need <= 0:
            return []
        disj = self.disjoint_rows()
        left = -1 if nodes is None else nodes + 1  # -1 counts down and never reaches 0

        def rec(avail: int, need: int) -> list[int] | None:
            nonlocal left
            left -= 1
            if not left:
                raise BudgetExceeded(f"packing search passed {nodes} nodes")
            while avail:
                if avail.bit_count() < need:
                    return None
                i = (avail & -avail).bit_length() - 1
                avail &= avail - 1  # also covers the skip-i branch
                if need == 1:
                    return [i]
                got = rec(avail & disj[i], need - 1)
                if got is not None:
                    got.append(i)
                    return got
            return None

        try:
            return rec(sub, need)
        finally:
            del rec  # rec reaches itself through its cell: free it without the cyclic GC

    def addable_after(self, s: int, sub: int, i: int, pool: int) -> int:
        """The edges of `pool` that stay addable once edge i joins `sub`.

        Assumes nu(sub | i) <= s and nu(sub | j) <= s for every j in `pool`.
        A matching of s+1 edges in sub | i | j must then use both i and j, so j
        stays addable unless it is disjoint from i and ``sub & disj[i] & disj[j]``
        holds s-1 disjoint edges.
        """
        disj = self.disjoint_rows()
        row = disj[i]
        threatened = pool & row
        if not threatened:
            return pool
        keep = pool & ~row
        if s == 1:
            return keep
        if s == 2:
            holds = bool  # any one edge is a packing of s-1 = 1
        else:
            def holds(edges: int) -> bool:
                return self.packing(edges, s - 1) is not None
        base = sub & row
        if not holds(base):
            return pool
        while threatened:
            low = threatened & -threatened
            threatened ^= low
            if not holds(base & disj[low.bit_length() - 1]):
                keep |= low
        return keep

    def cover(self, sub: int, budget: int) -> list[int] | None:
        """At most `budget` vertices meeting every edge of the subset, or None.

        The search branches on the vertices of the lowest edge left. Once the
        branch on v fails, no cover of the subset within the budget holds v,
        so the later branches and everything below them skip v: bit v of
        ``failed`` says so. Skipped branches can only fail, so the search
        returns what it would without the skip.
        """
        inc, rows = self.inc, self.vertex_rows()

        def rec(sub: int, budget: int, failed: int) -> list[int] | None:
            if sub == 0:
                return []
            if budget == 0:
                return None
            i = (sub & -sub).bit_length() - 1
            for v in rows[i]:
                bit = 1 << v
                if failed & bit:
                    continue
                got = rec(sub & ~inc[v], budget - 1, failed)
                if got is not None:
                    got.append(v)
                    return got
                failed |= bit
            return None

        try:
            return rec(sub, budget, 0)
        finally:
            del rec  # rec reaches itself through its cell: free it without the cyclic GC

    def perfect(
        self, live: int, free: list[int], nodes: int = 200_000
    ) -> tuple[str, list[int] | None, int]:
        """Edges of `live` that cover each vertex of `free` once and no other.

        Branches on the vertex of `free` with the fewest live edges left (the
        fewest-options rule of exact cover), the first such in `free`'s
        order, trying its edges in index order; a vertex with none ends the
        branch at once. Returns (outcome, edge ids ascending, nodes entered):
        outcome "found", "none" when no such matching exists, or "budget"
        when the search would enter more than `nodes` nodes.
        """
        if len(free) % self.k:
            return "none", None, 0
        inc, verts, meeting = self.inc, self.verts, self.meeting
        live &= ~meeting(set(range(1, self.n + 1)).difference(free))
        left = nodes + 1

        def dfs(free: list[int], live: int) -> list[int] | None:
            nonlocal left
            left -= 1
            if not left:
                raise BudgetExceeded(f"perfect-matching search passed {nodes} nodes")
            if not free:
                return []
            fewest = None
            for v in free:
                opts = live & inc[v]
                c = opts.bit_count()
                if c == 0:
                    return None
                if fewest is None or c < fewest:
                    fewest, best = c, opts
            while best:
                low = best & -best
                best ^= low
                i = low.bit_length() - 1
                vs = verts[i].tolist()
                got = dfs([u for u in free if u not in vs], live & ~meeting(vs))
                if got is not None:
                    got.append(i)
                    return got
            return None

        try:
            picks = dfs(free, live)
        except BudgetExceeded:
            return "budget", None, nodes
        finally:
            del dfs  # dfs reaches itself through its cell: free it without the cyclic GC
        if picks is None:
            return "none", None, nodes + 1 - left
        return "found", sorted(picks), nodes + 1 - left


def _greedy_matching(edges: Iterable[Iterable[int]]) -> list[int]:
    """A maximal matching: each edge in turn if it avoids those taken."""
    used: set[int] = set()
    sel = []
    for i, e in enumerate(edges):
        if used.isdisjoint(e):
            used.update(e)
            sel.append(i)
    return sel


# Nodes a deepening step of ``max_matching`` may search before the ceiling
# is asked for: small searches finish well inside it (n <= 10 takes tens of
# nodes), while one HiGHS solve for the ceiling costs about a millisecond.
PACKING_NODES = 2000


def max_matching(
    h: Hypergraph, limit: int | None = None, exhaustive: bool = False
) -> tuple[int, Matching]:
    """Largest set of pairwise disjoint edges.

    With ``limit`` the search stops as soon as `limit` disjoint edges are
    found (the reported value is min(nu, limit)). Past the greedy start,
    each size is searched within ``PACKING_NODES`` nodes; a search that runs
    out asks once for ``_matching_ceiling``, a proven bound nu <= floor(tau*),
    then goes on without a budget and stops at that bound, so it never runs
    the size that must fail. If the bound is not proven, the search alone
    decides. Every search that finishes returns the same witness, budget or
    not. A negative ``limit`` raises ``ValueError``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit={limit} must be at least 0")
    if exhaustive:
        return _matching_oracle(h, limit)
    verts = h.vertex_array()
    # c disjoint edges cover kc distinct vertices, each on some edge
    cap = np.count_nonzero(np.bincount(verts.ravel())) // h.k
    if limit is not None:
        cap = min(cap, limit)
    best = _greedy_matching(verts.tolist())[:cap]
    if len(best) < cap:
        index = EdgeIndex(h.n, verts)
        nodes = PACKING_NODES
        while len(best) < cap:
            try:
                got = index.packing(index.full, len(best) + 1, nodes)
            except BudgetExceeded:
                # nu never exceeds the ceiling, so the search that would fail above it is skipped
                nodes = None
                ceiling = _matching_ceiling(h)
                if ceiling is not None:
                    cap = min(cap, ceiling)
                continue
            if got is None:
                break
            best = got
    return len(best), Matching(tuple(map(tuple, verts[sorted(best)].tolist())))


def _matching_oracle(h: Hypergraph, limit: int | None) -> tuple[int, Matching]:
    masks = list(map(edge_mask, h.edges))
    cap = h.n // h.k
    if limit is not None:
        cap = min(cap, limit)
    for size in range(cap, 0, -1):
        if comb(len(masks), size) > ORACLE_GUARD:
            raise BudgetExceeded(f"oracle would scan C({len(masks)},{size}) subsets")
        for combo in combinations(range(len(masks)), size):
            used = 0
            for i in combo:
                if masks[i] & used:
                    break
                used |= masks[i]
            else:
                return size, Matching(tuple(h.edges[i] for i in combo))
    return 0, Matching(())


def min_vertex_cover(
    h: Hypergraph, limit: int | None = None, exhaustive: bool = False
) -> tuple[int, VertexCover | None]:
    """Smallest vertex set meeting every edge.

    With ``limit``: if tau <= limit the exact value and witness come back,
    otherwise (limit+1, None) signals tau > limit. A negative ``limit``
    raises ``ValueError``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit={limit} must be at least 0")
    if exhaustive:
        return _cover_oracle(h, limit)
    cap = h.n if limit is None else limit
    index = EdgeIndex(h.n, h.vertex_array())
    # a matching needs one cover vertex per edge, so its size bounds tau below
    for budget in range(len(_greedy_matching(index.vertex_rows())), cap + 1):
        got = index.cover(index.full, budget)
        if got is not None:
            return len(got), VertexCover(frozenset(got))
    return cap + 1, None


def _cover_oracle(h: Hypergraph, limit: int | None) -> tuple[int, VertexCover | None]:
    if not h.edges:
        return 0, VertexCover(frozenset())
    cap = h.n if limit is None else min(limit, h.n)
    masks = list(map(edge_mask, h.edges))
    scanned = 0
    for size in range(0, cap + 1):
        scanned += comb(h.n, size)
        if scanned > ORACLE_GUARD:
            raise BudgetExceeded(f"oracle would scan {scanned} vertex subsets")
        for combo in combinations(range(1, h.n + 1), size):
            cm = edge_mask(combo)
            if all(m & cm for m in masks):
                return size, VertexCover(frozenset(combo))
    return cap + 1, None


def max_independent_set(
    h: Hypergraph, exhaustive: bool = False
) -> tuple[int, frozenset[int]]:
    """Largest vertex set containing no edge: the complement of a minimum cover."""
    tau, cover = min_vertex_cover(h, exhaustive=exhaustive)
    assert cover is not None
    witness = frozenset(v for v in h.vertices() if v not in cover.vertices)
    return h.n - tau, witness


# -- fractional solvers -------------------------------------------------------

# Which LP path produced a fractional result.
LP_HIGHS = "highs"  # float mode: HiGHS on the cover LP, by row generation
LP_CERTIFIED = "highs-certified"  # exact mode: that solve, rounded and checked exactly
LP_SIMPLEX = "simplex"  # exact mode: the rational simplex fallback

# An edge left out of the cover LP joins when its cover sum is below
# 1 - ROW_TOL; at y = 1/3 a sum reads 0.9999999999999999, and without the
# slack nearly every row would re-enter as solver noise.
ROW_TOL = 1e-12

# Largest denominator HiGHS's floats are rounded to before the exact check.
# The optima are vertices whose denominators divide a subdeterminant of the
# incidence matrix, small at desk scale; a rounding that misses one fails the
# check and the simplex runs instead.
CERT_DENOMINATOR = 10**6


def _lp_columns(h: Hypergraph) -> np.ndarray:
    """The vertex array made 0-based: row i holds the cover LP's columns in edge i's row."""
    return h.vertex_array() - 1


def _cover_csc(cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-A^T on the rows ``cols`` as a CSC triplet: -1 where row r holds column v.

    A stable argsort of the flattened rows by column lists each column's
    rows in ascending order, the canonical CSC form; HiGHS's vertex depends
    on the form of the rows (see ``_cover_rows``).
    """
    flat = cols.ravel()
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(flat, minlength=n), out=start[1:])
    index = (np.argsort(flat, kind="stable") // cols.shape[1]).astype(np.int32)
    return start, index, np.full(len(flat), -1.0)


def _cover_sums(y: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each row's cover sum, added column by column from the first.

    The row generation ranks these sums, so their last bit must not depend
    on k: this is the order of a sparse row product, while
    ``y[cols].sum(axis=1)`` adds pairwise from k = 8 on.
    """
    at = y[cols]
    sums = at[:, 0].copy()
    for j in range(1, at.shape[1]):
        sums += at[:, j]
    return sums


def _floored(x: np.ndarray) -> np.ndarray:
    """Float matching weights with the solver's noise, entries <= 1e-12, set to 0."""
    return np.where(x > 1e-12, x, 0.0)


def _cover_rows(cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, float, int, int, int]:
    """Solve the cover LP on the edge rows that bind, by row generation.

    ``cols`` is the 0-based (m, k) vertex array (``_lp_columns``) and n the
    vertex count. Start from ``min(m, 4n)`` rows evenly spaced over the edge
    list; after each solve, the edges left out whose cover sum is below
    ``1 - ROW_TOL`` join, most violated first, at most a batch of them (4n,
    doubling each round). The loop ends when none joins, so the last y is a
    cover of every edge up to ``ROW_TOL``. Returns (y, x, value, solves,
    rows, iterations): the last solve's cover and value, its negated row
    duals spread over all edges (0 on every edge left out), the number of
    HiGHS calls, the rows of the last one and the simplex iterations of them
    all.
    """
    m = len(cols)
    active = np.zeros(m, dtype=bool)
    active[np.linspace(0, m - 1, min(m, 4 * n)).astype(np.intp)] = True
    batch, solves, iterations = 4 * n, 0, 0
    while True:
        rows = np.flatnonzero(active)
        # -A^T y <= -1, not A^T y >= 1: HiGHS's optimal vertex, and so every
        # digit printed, depends on the form of the rows
        status, y, duals, tau, its = lp.highs_solve(
            np.ones(n), _cover_csc(cols[rows], n), np.full(len(rows), -np.inf),
            np.full(len(rows), -1.0),
        )
        solves += 1
        iterations += its
        if status != lp.OPTIMAL:  # y = 1 is feasible and y >= 0 bounds the sum
            raise RuntimeError(f"cover LP came back {status}")
        sums = _cover_sums(y, cols)
        short = np.flatnonzero(~active & (sums < 1 - ROW_TOL))
        if not short.size:
            x = np.zeros(m)
            x[rows] = -duals
            return y, x, tau, solves, len(rows), iterations
        active[short[np.argsort(sums[short], kind="stable")[:batch]]] = True
        batch *= 2


def _over_common_denominator(v: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Numerators of v over a common denominator L, and L; None on NaN or inf.

    Each nonzero entry is rounded with ``limit_denominator(CERT_DENOMINATOR)``. The
    numerators are int64 while max(L, |numerator|) * len(v) < 2**62, else Python ints.
    """
    if not np.isfinite(v).all():
        return None
    nonzero = np.flatnonzero(v)
    rounded = [Fraction(f).limit_denominator(CERT_DENOMINATOR) for f in v[nonzero].tolist()]
    den = lcm(*(f.denominator for f in rounded))
    nums = [f.numerator * (den // f.denominator) for f in rounded]
    top = max([den, *map(abs, nums)])
    num = np.zeros(len(v), dtype=np.int64 if top * len(v) < 2**62 else object)
    num[nonzero] = nums
    return num, den


def _certified_numerators(h: Hypergraph) -> tuple[np.ndarray, int, list[int]] | None:
    """HiGHS's cover y and matching x, checked exactly over a common denominator L.

    Returns the numerators of (y, x) over L, L, and the solve's (solves, rows,
    iterations).
    The check runs on the integers: x >= 0, vertex loads <= L, 0 <= y <= L,
    edge sums >= L and sum(x) == sum(y), which by weak duality proves both
    optimal. A failed check, a NaN or inf, or a HiGHS solve that fails or
    comes back other than optimal gives None.
    """
    edges = _lp_columns(h)
    try:
        y, x, _tau, *stats = _cover_rows(edges, h.n)
    except RuntimeError:
        return None
    rounded = _over_common_denominator(np.concatenate([y, x]))
    if rounded is None:
        return None
    num, den = rounded
    yn, xn = num[:h.n], num[h.n:]
    used = np.flatnonzero(xn)
    load = np.zeros(h.n, dtype=num.dtype)
    np.add.at(load, edges[used], xn[used, None])
    if not ((num >= 0).all() and (load <= den).all() and (yn <= den).all()
            and (yn[edges].sum(axis=1) >= den).all() and xn.sum() == yn.sum()):
        return None
    return num, den, stats


def _matching_ceiling(h: Hypergraph) -> int | None:
    """floor(tau*) from the certified numerators of HiGHS's cover, or None without them.

    The edges of a matching are disjoint and each has cover weight >= 1, so nu <= floor(tau*).
    """
    cert = _certified_numerators(h)
    return None if cert is None else int(cert[0][:h.n].sum()) // cert[1]


def _highs_pair(
    h: Hypergraph, mode: str
) -> tuple[FractionalAssignment, FractionalAssignment] | None:
    """An optimal fractional matching and cover from HiGHS, by row generation.

    The solve is of the cover LP, min sum(y) subject to A^T y >= 1 and
    y >= 0, on a growing subset of its edge rows (see ``_cover_rows``); the
    negated row duals of the last solve, 0 on every edge left out, are the
    matching weights. In rational mode both sides are the exactly checked
    fractions of ``_certified_numerators``, or None when that check fails;
    in float mode a failed solve raises ``RuntimeError``. A mode other than
    "rational" or "float" raises ``ValueError``.
    """
    if mode not in ("rational", "float"):
        raise ValueError(f"unknown LP mode {mode!r}: use 'rational' or 'float'")
    if mode == "rational":
        cert = _certified_numerators(h)
        if cert is None:
            return None
        num, den, stats = cert
        nonzero = np.flatnonzero(num)
        fracs = np.full(len(num), Fraction(0), dtype=object)
        fracs[nonzero] = [Fraction(a, den) for a in num[nonzero].tolist()]
        value = Fraction(int(num[:h.n].sum()), den)
        return (
            FractionalAssignment(
                "matching", fracs[h.n:], value, "rational", 0.0, LP_CERTIFIED, *stats
            ),
            FractionalAssignment("cover", fracs[:h.n], value, "rational", 0.0, LP_CERTIFIED, *stats),
        )
    cols = _lp_columns(h)
    y, x, tau, *stats = _cover_rows(cols, h.n)
    # each vertex's load added up in edge order
    load = np.bincount(cols.ravel(), weights=np.repeat(x, h.k), minlength=h.n)
    # np.max, unlike the builtin, carries a NaN through to the residual
    resid_m = float(np.max([0.0, np.max(load, initial=1.0) - 1.0, np.max(-x, initial=0.0)]))
    resid_c = float(np.max([0.0, np.max(-_cover_sums(y, cols), initial=-1.0) + 1.0]))
    return (
        FractionalAssignment(
            "matching", _floored(x), float(x.sum()), "float", resid_m, LP_HIGHS, *stats
        ),
        FractionalAssignment("cover", y, tau, "float", resid_c, LP_HIGHS, *stats),
    )


def _matching_simplex(h: Hypergraph) -> FractionalAssignment:
    """The matching LP over the live vertices, by the rational simplex."""
    live = sorted(set(chain.from_iterable(h.edges)))
    rows = [[Fraction(int(v in e)) for e in h.edges] for v in live]
    status, x, value = lp.simplex_rational([Fraction(1)] * h.e(), rows, [Fraction(1)] * len(live))
    if status != lp.OPTIMAL:
        raise RuntimeError(f"matching LP came back {status}")
    weights = np.array(x, dtype=object)  # on the empty graph too: no row, no column
    return FractionalAssignment("matching", weights, value, "rational", 0.0, LP_SIMPLEX)


def _cover_simplex(h: Hypergraph) -> FractionalAssignment:
    """The cover LP by the rational simplex, in the slack-basis substitution."""
    n, k = h.n, h.k
    # substitute w = 1 - u so the feasible start is the slack basis:
    # min sum(w) == n - max sum(u) with sum_{v in e} u_v <= k-1, u <= 1
    rows = [[Fraction(int(v in e)) for v in h.vertices()] for e in h.edges]
    rhs = [Fraction(k - 1)] * h.e()
    for v in h.vertices():
        rows.append([Fraction(int(u == v)) for u in h.vertices()])
        rhs.append(Fraction(1))
    status, u, value = lp.simplex_rational([Fraction(1)] * n, rows, rhs)
    if status != lp.OPTIMAL:
        raise RuntimeError(f"cover LP came back {status}")
    weights = Fraction(1) - np.array(u, dtype=object)
    return FractionalAssignment("cover", weights, Fraction(n) - value, "rational", 0.0, LP_SIMPLEX)


def fractional_matching(h: Hypergraph, mode: str = "rational") -> FractionalAssignment:
    """Optimal fractional matching; its value is the fractional matching number.

    Read off the HiGHS solve of the cover LP; in rational mode, when the
    exact check fails, the rational simplex solves the matching LP instead.
    ``lp_path`` says which ran.
    """
    pair = _highs_pair(h, mode)
    return pair[0] if pair else _matching_simplex(h)


def fractional_cover(h: Hypergraph, mode: str = "rational") -> FractionalAssignment:
    """Optimal fractional vertex cover; its value equals the matching LP optimum.

    The same solve as ``fractional_matching``, with the same fallback.
    """
    pair = _highs_pair(h, mode)
    return pair[1] if pair else _cover_simplex(h)


@dataclass
class DualityReport:
    nu_star: Fraction | float
    tau_star: Fraction | float
    gap: Fraction | float
    mode: str
    matching: FractionalAssignment
    cover: FractionalAssignment


def check_lp_duality(
    h: Hypergraph, mode: str = "rational", tol: float = 1e-9
) -> DualityReport:
    """Both fractional optima, and insist they agree.

    They come from one solve (certified together in rational mode); on the
    simplex fallback the two programs are solved independently. In float
    mode both weightings must also be feasible within ``tol``, so equal
    values are a duality certificate and not just the solver's own gap.
    """
    pair = _highs_pair(h, mode)
    fm, fc = pair if pair else (_matching_simplex(h), _cover_simplex(h))
    gap = fc.value - fm.value
    if mode == "rational":
        bad = gap != 0
    else:
        # a NaN gap or residual fails every comparison, so it reads as bad
        bad = not (abs(gap) <= tol and fm.residual <= tol and fc.residual <= tol)
    if bad:
        raise DualityError(
            f"fractional optima disagree or are infeasible: matching {fm.value} "
            f"(residual {fm.residual}) vs cover {fc.value} (residual {fc.residual})"
        )
    return DualityReport(fm.value, fc.value, gap, mode, fm, fc)


def fractional_perfect_matching(
    h: Hypergraph, objective: np.ndarray | None = None
) -> FractionalAssignment | None:
    """A float fractional matching with every vertex constraint tight, or None.

    An optional objective, a vector indexed like ``h.edges``, is maximized
    to pick among the (many) solutions.
    """
    c = np.zeros(h.e())
    if objective is not None:
        c = np.asarray(objective, dtype=np.float64)
        if c.shape != (h.e(),):
            raise ValueError(f"objective has shape {c.shape}, the graph has {h.e()} edges")
    if h.e() == 0 or h.n == 0:
        return None
    # the vertex x edge incidence as dense (n, m) rows (see notes/decisions.md),
    # in column order: the residual's product a_eq @ x adds in the order of
    # the array's layout
    a_eq = np.zeros((h.n, h.e()), order="F")
    a_eq[_lp_columns(h), np.arange(h.e())[:, None]] = 1.0
    status, x, _val, resid = lp.linprog_float(
        c, a_eq=a_eq, b_eq=[1.0] * h.n, maximize=objective is not None
    )
    if status != lp.OPTIMAL:
        return None
    return FractionalAssignment("matching", _floored(x), h.n / h.k, "float", resid)


# -- proof-procedure operations ----------------------------------------------


def greedy_rainbow_matching(
    h: Hypergraph, anchors: Iterable[int], exact: bool = False
) -> Matching:
    """A matching whose every edge meets the anchor set in exactly one vertex.

    exact=True searches for the maximum such matching; otherwise anchors are
    served in ascending order, each taking the lexicographically first edge
    that avoids used vertices.
    """
    aset = set(anchors)
    for v in aset:
        if not 1 <= v <= h.n:
            raise ValueError(f"anchor {v} outside 1..{h.n}")
    rainbow = [e for e in h.edges if len(aset.intersection(e)) == 1]
    if exact:
        sub = Hypergraph(h.n, h.k, rainbow)
        _, witness = max_matching(sub)
        return witness
    used = 0
    picked: list[Edge] = []
    for v in sorted(aset):
        for e in rainbow:
            if v in e:
                m = edge_mask(e)
                if m & used == 0:
                    picked.append(e)
                    used |= m
                    break
    return Matching(tuple(picked))


def threshold_cover_graph(
    h: Hypergraph, cover: FractionalAssignment, tol: float = 1e-9
) -> tuple[Hypergraph, dict[int, int]]:
    """Relabel by nonincreasing cover weight and keep every k-set of weight >= 1.

    The result contains the (relabeled) input graph, inherits its fractional
    cover, and is a down-set under the new labels, hence shift-stable.
    """
    if cover.kind != "cover":
        raise ValueError("need a cover-kind assignment")
    cover.validate(h, tol)
    w = np.asarray(cover.weights)
    order = sorted(h.vertices(), key=lambda v: (-w[v - 1], v))
    old_to_new = {v: i + 1 for i, v in enumerate(order)}
    # indexed by new label - 1; Fractions sum exactly in an object array
    w_new = w[np.array(order, dtype=np.intp) - 1]
    sets = k_sets(h.n, h.k)
    out = Hypergraph(h.n, h.k, sets[_cover_sums(w_new, sets - 1) >= 1 - cover.slack(tol)])
    kept = out.has_edges([old_to_new[v] for v in e] for e in h.edges)
    for e, hit in zip(h.edges, kept):
        if not hit:
            raise ValueError(f"edge {e} fell below the threshold; cover invalid")
    return out, old_to_new
