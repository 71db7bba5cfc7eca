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

from .core import Edge, Hypergraph, bit_positions, edge_mask


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
    return int(h.vertex_array().sum())


def _closed(masks) -> bool:
    """True iff lowering any vertex v > 1 of a mask to an absent v - 1 stays inside.

    Closure under these one-step lowerings is the down-set property, and so
    stability under every (i, j)-shift.
    """
    for m in masks:
        low = m & ~(m << 1) & ~1  # the vertices v > 1 of m with v - 1 absent
        while low:
            bv = low & -low
            low ^= bv
            if m ^ (bv | bv >> 1) not in masks:
                return False
    return True


def stabilize(h: Hypergraph) -> tuple[Hypergraph, ShiftTrace]:
    """Sweep all (i, j) in lexicographic order until nothing moves.

    Works in place on one set of edge bitmasks. An (i, j) step moves every
    mask holding j but not i whose image (j swapped for i) is absent; the
    images all hold i and not j, so none moves again in the same step and
    no two collide, which is exactly `shift_graph`'s simultaneous image.
    Each edge keeps a fixed slot: ``slot[s]`` is its current mask and
    ``has[v]`` the slots holding v. A move changes only i and j in the
    masks it moves, so it updates ``has[i]`` and ``has[j]`` alone.
    A sweep starts only on a family that is not closed (`_closed`), and such
    a sweep moves an edge: the first pair whose shift moves something acts
    before any earlier step has changed the family. A closed family is
    fixed by every shift, so its sweep is logged as all zeros unrun.
    Each moved edge lowers the vertex-label sum by j - i, so termination is
    unconditional; the running total is checked against the output.
    """
    trace = ShiftTrace()
    rows = h.vertex_array().tolist()
    slot = list(map(edge_mask, rows))
    masks = set(slot)
    has: list[set[int]] = [set() for _ in range(h.n + 1)]
    for s, e in enumerate(rows):
        for v in e:
            has[v].add(s)
    potential = _label_sum(h)
    while True:
        trace.rounds += 1
        if _closed(masks):
            trace.steps.extend(
                (i, j, 0) for i in range(1, h.n) for j in range(i + 1, h.n + 1)
            )
            out = Hypergraph(h.n, h.k, bit_positions(masks, h.n).reshape(-1, h.k) + 1)
            assert out.e() == h.e(), "shifts must preserve the edge count"
            assert _label_sum(out) == potential, "label sum must drop by j - i per move"
            return out, trace
        moved_this_round = 0
        for i in range(1, h.n):
            has_i = has[i]
            bi = 1 << (i - 1)
            for j in range(i + 1, h.n + 1):
                bij = bi | 1 << (j - 1)
                movers = [s for s in has[j] - has_i if slot[s] ^ bij not in masks]
                moved = len(movers)
                trace.steps.append((i, j, moved))
                if moved:
                    for s in movers:
                        masks.remove(slot[s])
                        slot[s] ^= bij
                        masks.add(slot[s])
                    has[j].difference_update(movers)
                    has_i.update(movers)
                    potential -= (j - i) * moved
                    moved_this_round += moved
        assert moved_this_round, "a sweep from a family that is not closed moves an edge"


def is_stable(h: Hypergraph) -> bool:
    """True iff every (i, j)-shift is the identity."""
    return _closed(set(map(edge_mask, h.vertex_array().tolist())))


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
                if lowered not in h.edge_set:
                    return False
    return True


def dominated_edges(e: Edge, n: int):
    """All sorted k-tuples u with u[t] <= e[t] for every coordinate."""
    k = len(e)
    for u in combinations(range(1, n + 1), k):
        if all(a <= b for a, b in zip(u, e)):
            yield u
