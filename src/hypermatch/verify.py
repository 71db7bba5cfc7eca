"""Exhaustive desk-scale verification of the extremal edge-count bounds.

verify_extremal maximizes e(H) over every H on [n] that satisfies the
requested matching/cover constraint, then compares against the closed-form
bounds. Both paths are clients of one ``EdgeIndex`` over the k-sets of [n]
and test families with its ``packing`` and ``cover`` kernel. The default
path enumerates all 2^C(n,k) edge subsets from the densest down and is the
reference for the pruned path's enumeration; ``revalidate_witnesses`` is the
audit that shares no code with the kernel. The pruned path walks maximal
constraint-satisfying families instead (the maximum is attained at one).
For n >= k(s+1) it walks only the families that contain the fixed
s-matching M0 = {1..k}, ..., {(s-1)k+1..sk}: every maximal family there
has nu = s, and relabeling moves any s-matching onto M0, so the maximum
is the same and the witnesses are extremal families holding M0. The walk
branches on edge orbits (orbital branching): the relabelings that map each
of M0's blocks and [ks+1..n] onto itself map every node's families onto
themselves, so a node either takes its lowest candidate edge or bans that
edge's whole orbit, and each include branch refines the group to the
edge's stabilizer. The maximum stays exact, and the witnesses are a
non-empty subset of the extremal families holding M0 with, below
WITNESS_CAP, at least one per class under that group. Such a family has
a cover of s vertices exactly when one of the k^s transversals of M0's
blocks is one, so under the tau floor every node, leaf or not, is cut when
its largest family passes that test. Once the walk holds WITNESS_CAP
families of the best size, it cuts every subtree that can only tie that
size, since no such leaf would be reported; ``subsets_checked`` counts the
maximal families it still visits and ``search_nodes`` the nodes it enters.
Below n = k(s+1), nu(K_n^k) = floor(n/k) <= s, so K_n^k is the one
maximal family, and the one checked.
Both paths refuse, before they list a k-set, a C(n, k) past their guard;
the pruned path under the tau floor also refuses k^s > C(n, k) transversal
masks at n >= k(s+1).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations, product

from .constructions import bound_report
from .core import BudgetExceeded, Hypergraph, _check_shape, k_sets
from .optimize import EdgeIndex, max_matching, min_vertex_cover

EXHAUSTIVE_EDGE_GUARD = 24
# the pruned search's disjointness table holds C(n, k)^2 bits: 32 MiB here
PRUNED_EDGE_GUARD = 16384
WITNESS_CAP = 4  # extremal families reported per call

NU_LE_S = "nu_le_s"
NU_LE_S_TAU_GT_S = "nu_le_s_and_tau_gt_s"


@dataclass
class VerifyResult:
    n: int
    k: int
    s: int
    constraint: str
    max_edges_found: int | None
    extremal_witnesses: list[Hypergraph] = field(default_factory=list)
    matches_bound: bool | None = None
    bound_value: int | None = None
    method: str = "exhaustive"
    subsets_checked: int = 0
    search_nodes: int = 0  # nodes the pruned walk entered; 0 for the exhaustive method
    status: str = "complete"


def _bound_target(n: int, k: int, s: int, constraint: str) -> int | None:
    try:
        rep = bound_report(n, k, s)
    except ValueError:
        return None
    if constraint == NU_LE_S:
        return max(rep.cover_bound, rep.clique_bound)
    return rep.max_nontrivial


def verify_extremal(
    n: int,
    k: int,
    s: int,
    constraint: str = NU_LE_S_TAU_GT_S,
    method: str = "exhaustive",
    budget_ms: float | None = None,
) -> VerifyResult:
    """Maximize e(H) under the constraint and compare to the bounds."""
    _check_shape(n, k)
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    # NaN would never trip the deadline, and a negative budget is no budget
    if budget_ms is not None and not (math.isfinite(budget_ms) and budget_ms >= 0):
        raise ValueError(f"budget_ms={budget_ms} must be a finite number >= 0")
    if constraint not in (NU_LE_S, NU_LE_S_TAU_GT_S):
        raise ValueError(f"unknown constraint {constraint!r}")
    if method == "exhaustive":
        search, guard = _search_exhaustive, EXHAUSTIVE_EDGE_GUARD
    elif method == "pruned":
        search, guard = _search_maximal, PRUNED_EDGE_GUARD
    else:
        raise ValueError(f"unknown method {method!r}")
    # refused before the k-sets and their index are built, and before the
    # budget's clock starts: both grow as C(n, k)
    edges = math.comb(n, k)
    if edges > guard:
        raise BudgetExceeded(f"{method} search refuses C(n,k)={edges} > {guard} edges")
    tau_floor = constraint == NU_LE_S_TAU_GT_S
    # the tau floor's k^s transversal masks of C(n, k) bits each would
    # outgrow the disjointness table the guard above bounds
    if method == "pruned" and tau_floor and n >= k * (s + 1) and k**s > edges:
        raise BudgetExceeded(
            f"pruned search refuses k^s={k**s} transversal masks > C(n,k)={edges} edges"
        )
    index = EdgeIndex(n, k_sets(n, k))
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    max_edges, subs, checked, nodes, status = search(index, s, tau_floor, deadline)
    witnesses = [Hypergraph(n, k, index.verts[index.ids(sub)]) for sub in subs]
    bound = _bound_target(n, k, s, constraint)
    return VerifyResult(
        n, k, s, constraint, max_edges, witnesses,
        None if bound is None or max_edges is None else max_edges == bound,
        bound, method, checked, nodes, status,
    )


# Both searches return (max_edges, witness subsets, subsets checked, search
# nodes, status); max_edges is None when no family qualifies or the budget ran
# out. The exhaustive search walks no tree, so its node count is 0.
_Found = tuple[int | None, list[int], int, int, str]


def _search_exhaustive(index: EdgeIndex, s: int, tau_floor: bool, deadline: float | None) -> _Found:
    m = len(index.verts)
    checked = 0
    for size in range(m, -1, -1):
        hits: list[int] = []
        for combo in combinations(range(m), size):
            checked += 1
            if deadline is not None and checked % 4096 == 0 and time.monotonic() > deadline:
                return None, [], checked, 0, f"budget refusal: stopped inside size {size} of {m}"
            sub = 0
            for i in combo:
                sub |= 1 << i
            if index.packing(sub, s + 1) is not None:
                continue
            if tau_floor and index.cover(sub, s) is not None:
                continue
            hits.append(sub)
            if len(hits) >= WITNESS_CAP:
                break
        if hits:
            return size, hits, checked, 0, "complete"
    return None, [], checked, 0, "complete"


def _transversal_hits(index: EdgeIndex, blocks: list[range]) -> list[int]:
    """The edges meeting T, for each transversal T of M0's blocks (n >= k(s+1)).

    A family holding M0 has a cover of at most s vertices exactly when
    one of these masks holds the whole family: such a cover meets each
    of M0's s disjoint blocks, so it takes one vertex from each.
    """
    return [index.meeting(t) for t in product(*blocks)]


def _search_maximal(index: EdgeIndex, s: int, tau_floor: bool, deadline: float | None) -> _Found:
    """Walk maximal constraint-satisfying families, one edge orbit at a time.

    The edge-count maximum under a matching ceiling plus a cover floor is
    attained at a family maximal under the (downward-closed) matching
    ceiling, because enlarging a family never lowers its cover number.

    Below n = k(s+1), nu(K_n^k) = floor(n/k) <= s, so K_n^k is the one
    maximal family and is checked directly.

    For n >= k(s+1) the search starts at `sub` = M0 (each block of M0 is the one
    edge containing all its vertices) with `cand` the edges that meet [ks]:
    a maximal family has nu = s, and a relabeling of [n] moves any of its
    s-matchings onto M0 and keeps both constraints, so the maximum is
    attained at a family holding M0. The edges addable to M0 are exactly
    those meeting [ks], so the invariants below hold at the root.

    `cand` and `banned` are edge bitsets, taken lowest bit first. The
    search keeps two invariants: the family `sub` has nu <= s, and every
    edge in `cand` or `banned` can be added to `sub` keeping nu <= s. So
    adding an edge filters both sets with `EdgeIndex.addable_after` alone,
    and a leaf (`cand` empty) is maximal exactly when `banned` is empty.
    Every leaf is a different family, so the witnesses are distinct.

    Orbital branching: each node also carries `cells`, a partition of [n]
    whose Young subgroup H (the relabelings that map every cell onto
    itself) maps `sub`, `cand` and `banned` each onto itself. At the root
    the cells are M0's s blocks and [ks+1..n]. A node takes the lowest edge
    e of `cand` (the include branch) or bans e's whole H-orbit (the exclude
    branch): the orbit is the edges meeting every cell C in |e & C|
    vertices, the AND over the cells of `EdgeIndex.meeting_counts`. A leaf
    below this node holding some f = h(e) of the orbit is mapped by h^-1,
    which keeps the node's sets and both constraints, onto a leaf holding
    e, so the include branch sees every leaf holding an orbit edge up to H
    and the exclude branch every other leaf. The include branch splits
    each cell C into C & e and C - e, whose Young subgroup is e's
    stabilizer in H: it maps `sub | e` onto itself and, since the matching
    ceiling is invariant under relabeling, the filtered `cand` and `banned`
    too. Once every cell is one vertex, H is trivial, the orbit is e alone
    and the node runs the plain walk (`cells` is None). So the maximum is
    exact and the witnesses are extremal families holding M0: below
    WITNESS_CAP, at least one per class under the root's H, which may list
    one class more than once.

    Under the tau floor every node is cut when ``sub | cand`` has a cover
    of s vertices, which is then a transversal of M0
    (`_transversal_hits`): every leaf below is a subset of it, and
    tau never drops as edges are added, so none of them has tau > s. At a
    leaf ``sub | cand`` is `sub`, so the same test decides the leaf.
    """
    k, n = index.k, index.n
    if n < k * (s + 1):
        if tau_floor and index.cover(index.full, s) is not None:
            return None, [], 1, 1, "complete"
        return len(index.verts), [index.full], 1, 1, "complete"
    blocks = [range(j * k + 1, j * k + k + 1) for j in range(s)]  # M0's edges
    hits = _transversal_hits(index, blocks) if tau_floor else []
    rows = index.vertex_rows()
    counts: dict[int, list[int]] = {}  # cell (a vertex bitmask) -> its meeting_counts
    best_size = -1
    best_subs: list[int] = []
    checked = nodes = 0

    def expand(sub: int, size: int, cand: int, banned: int, cells: list[int] | None) -> None:
        nonlocal best_size, best_subs, checked, nodes
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("pruned search ran over budget")
        # leaves below hold at most size + |cand| edges; once the witness list
        # is full, a leaf that only ties best_size changes nothing either
        if size + cand.bit_count() < best_size + (len(best_subs) >= WITNESS_CAP):
            return
        top = sub | cand
        for hit in hits:
            if top & hit == top:
                return
        if not cand:
            if not banned:
                checked += 1
                if size > best_size:
                    best_size, best_subs = size, [sub]
                else:  # a tie: the bound above let it through only with room left
                    best_subs.append(sub)
            return
        low = cand & -cand
        i = low.bit_length() - 1
        rest = cand ^ low
        kept = index.addable_after(s, sub, i, rest | banned)
        if cells is None:
            orbit, split = low, None
        else:
            e = sum(1 << v for v in rows[i])
            orbit, split = index.full, []
            for cell in cells:
                got = counts.get(cell)
                if got is None:
                    got = counts[cell] = index.meeting_counts(v for v in range(1, n + 1) if cell >> v & 1)
                inside = cell & e
                orbit &= got[inside.bit_count()]
                split += [part for part in (inside, cell ^ inside) if part]
            if len(split) == n:
                split = None
        expand(sub | low, size + 1, kept & rest, kept & banned, split)
        expand(sub, size, cand & ~orbit, banned | orbit, cells)

    fixed = sum(index.containing(block) for block in blocks)
    meets = index.meeting(range(1, k * s + 1))
    # k >= 2, so no cell of the root is one vertex
    cells = [sum(1 << v for v in cell) for cell in blocks + [range(k * s + 1, n + 1)] if cell]
    try:
        expand(fixed, s, meets & ~fixed, 0, cells)
    except BudgetExceeded:
        return None, [], checked, nodes, "budget refusal"
    finally:
        del expand  # expand reaches itself through its cell: free it without the cyclic GC
    if best_size < 0:
        return None, [], checked, nodes, "complete"
    return best_size, best_subs, checked, nodes, "complete"


def revalidate_witnesses(result: VerifyResult) -> bool:
    """Check every witness against the enumeration oracles.

    The oracles share no code with the search kernel, so a kernel fault
    cannot pass its own audit.
    """
    for w in result.extremal_witnesses:
        nu, _ = max_matching(w, limit=result.s + 1, exhaustive=True)
        if nu > result.s:
            return False
        if result.constraint == NU_LE_S_TAU_GT_S:
            tau, _ = min_vertex_cover(w, limit=result.s, exhaustive=True)
            if tau <= result.s:
                return False
    return True
