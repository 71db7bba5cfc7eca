"""Compression by (i, j)-shifts, full stabilization, and stability tests.

The shift with i < j replaces j by i inside an edge whenever i is absent
and the replacement is not already an edge; applied simultaneously it
preserves the edge count and never increases the matching number. A graph
fixed by all shifts is exactly a down-set under componentwise domination
of sorted edges, and stabilization reaches such a fixpoint because each
moved edge strictly lowers the vertex-label sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .core import Edge, Hypergraph, edge_mask


@dataclass
class ShiftTrace:
    """Per-step (i, j, moved edge count) log plus the number of full sweeps."""

    steps: list[tuple[int, int, int]] = field(default_factory=list)
    rounds: int = 0


def _shift_image(e: Edge, i: int, j: int, edge_set) -> Edge:
    if j not in e or i in e:
        return e
    replaced = tuple(sorted([v for v in e if v != j] + [i]))
    return e if replaced in edge_set else replaced


def shift_edge(h: Hypergraph, i: int, j: int, e) -> Edge:
    """Image of one edge under the (i, j)-shift of h."""
    if not 1 <= i < j <= h.n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    t = tuple(sorted(e))
    if t not in h:
        raise ValueError(f"{t} is not an edge of the graph")
    return _shift_image(t, i, j, h.edge_set)


def shift_graph(h: Hypergraph, i: int, j: int) -> Hypergraph:
    """Simultaneous image of every edge; edge count is preserved."""
    if not 1 <= i < j <= h.n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    images = [_shift_image(e, i, j, h.edge_set) for e in h.edges]
    out = Hypergraph(h.n, h.k, images)
    assert out.e() == h.e(), "shift must preserve the edge count"
    return out


def _label_sum(h: Hypergraph) -> int:
    return sum(sum(e) for e in h.edges)


def _mask_edge(m: int) -> Edge:
    """Ascending vertex tuple of an edge bitmask (bit v-1 for vertex v)."""
    e = []
    while m:
        low = m & -m
        e.append(low.bit_length())
        m ^= low
    return tuple(e)


def stabilize(h: Hypergraph) -> tuple[Hypergraph, ShiftTrace]:
    """Sweep all (i, j) in lexicographic order until nothing moves.

    Works in place on one set of edge bitmasks. An (i, j) step moves every
    mask holding j but not i whose image (j swapped for i) is absent; the
    images all hold i and not j, so none moves again in the same step and
    no two collide, which is exactly `shift_graph`'s simultaneous image.
    During i's steps a mask without i can only leave (its image holds i), so
    the masks without i are bucketed once per i by each vertex j > i they
    hold, and step (i, j) scans bucket j for the masks still present.
    Each moved edge lowers the vertex-label sum by j - i, so termination is
    unconditional; the running total is checked against the output.
    """
    trace = ShiftTrace()
    masks = set(map(edge_mask, h.edges))
    potential = _label_sum(h)
    while True:
        trace.rounds += 1
        moved_this_round = 0
        for i in range(1, h.n):
            bi = 1 << (i - 1)
            buckets = [[] for _ in range(h.n + 1)]  # buckets[j]: masks without i, with j
            for m in masks:
                if not m & bi:
                    high = m >> i << i  # the bits of the vertices above i
                    while high:
                        bj = high & -high
                        buckets[bj.bit_length()].append(m)
                        high ^= bj
            for j in range(i + 1, h.n + 1):
                bij = bi | 1 << (j - 1)
                movers = [m for m in buckets[j] if m in masks and m ^ bij not in masks]
                moved = len(movers)
                trace.steps.append((i, j, moved))
                if moved:
                    masks.difference_update(movers)
                    masks.update(m ^ bij for m in movers)
                    potential -= (j - i) * moved
                    moved_this_round += moved
        if moved_this_round == 0:
            # distinct masks of k bits inside 1..n: ascending tuples, sorted into lex order
            out = Hypergraph.from_canonical(h.n, h.k, sorted(map(_mask_edge, masks)))
            assert out.e() == h.e(), "shifts must preserve the edge count"
            assert _label_sum(out) == potential, "label sum must drop by j - i per move"
            return out, trace


def is_stable(h: Hypergraph) -> bool:
    """True iff every (i, j)-shift is the identity."""
    masks = set(map(edge_mask, h.edges))
    for m in masks:
        rest = m
        while rest:
            bj = rest & -rest
            rest ^= bj
            # for every absent i < j, the image (j swapped for i) must be an edge
            free = (bj - 1) & ~m
            while free:
                bi = free & -free
                free ^= bi
                if m ^ bj | bi not in masks:
                    return False
    return True


def is_downset(h: Hypergraph) -> bool:
    """True iff edges are closed under lowering any single vertex by one.

    Single-step closure is equivalent to closure under full componentwise
    domination of sorted edges, and to stability.
    """
    for e in h.edges:
        present = set(e)
        for v in e:
            u = v - 1
            if u >= 1 and u not in present:
                lowered = tuple(sorted([x for x in e if x != v] + [u]))
                if lowered not in h:
                    return False
    return True


def dominated_edges(e: Edge, n: int):
    """All sorted k-tuples u with u[t] <= e[t] for every coordinate."""
    k = len(e)
    for u in combinations(range(1, n + 1), k):
        if all(a <= b for a, b in zip(u, e)):
            yield u
