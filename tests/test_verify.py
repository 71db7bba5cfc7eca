import dataclasses
import json
import math
import random
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch.cli import render_report
from hypermatch.constructions import clique_family, hilton_milner_family
from hypermatch.core import BudgetExceeded, Hypergraph, complete_graph, lex_codes, to_json_dict
from hypermatch.optimize import EdgeIndex, max_matching, min_vertex_cover
import hypermatch.verify as verify
from hypermatch.verify import (
    NU_LE_S,
    NU_LE_S_TAU_GT_S,
    WITNESS_CAP,
    revalidate_witnesses,
    verify_extremal,
)

from conftest import cyclic_garbage

# (max_edges_found, subsets_checked, witnesses, witness masks, search_nodes)
# of the pruned search, pinned. Every row has n >= k(s+1), so the search starts
# from the fixed s-matching M0 and reports only extremal families that hold
# it. It branches on edge orbits of the Young subgroup H of M0's blocks and
# [ks+1..n]: (7,2,2) under the tau floor and (8,3,1) under nu <= s have one
# extremal family up to H, and so one witness (the walk of one branch per
# edge, `reference_search_maximal`, listed three); the other rows have at
# least WITNESS_CAP = 4 and report the reference's four. Once the witness
# list is full, the search cuts every subtree that can only tie the best
# size, so subsets_checked counts the maximal families it still visits; a
# faster addability test must leave that count, the node count and so the
# search tree as they are. Under the tau floor it counts only the maximal
# families that pass the transversal test.
# The masks are the witnesses in the order the search reports them, bit i
# standing for the i-th k-set of [n] in lex order; neither the tied-subtree
# cut, the skipped failed cover vertices nor the tau-floor cut may move them
# or the maximum.
# Each id keeps the subsets_checked count of the search before any cut, so
# the test names stay as they were.
PINNED_TREES = [
    pytest.param(
        6, 3, 1, NU_LE_S_TAU_GT_S, 10, 4, 4, (0x5FF, 0xAFF, 0xCFF, 0x137F), 245,
        id="6-3-1-nu_le_s_and_tau_gt_s-10-1024",
    ),
    pytest.param(
        7, 3, 1, NU_LE_S_TAU_GT_S, 13, 4, 4, (0x8FFF, 0x133FF, 0x255FF, 0x469FF), 1185,
        id="7-3-1-nu_le_s_and_tau_gt_s-13-182",
    ),
    pytest.param(
        7, 2, 2, NU_LE_S_TAU_GT_S, 10, 5, 1, (0x99CF,), 201,
        id="7-2-2-nu_le_s_and_tau_gt_s-10-62",
    ),
    pytest.param(
        8, 2, 2, NU_LE_S_TAU_GT_S, 10, 4, 4, (0x21FF, 0x4607F, 0x8A07F, 0x11207F), 267,
        id="8-2-2-nu_le_s_and_tau_gt_s-10-364",
    ),
    pytest.param(
        8, 3, 1, NU_LE_S, 21, 1, 1, (0x1FFFFF,), 1141,
        id="8-3-1-nu_le_s-21-8",
    ),
    pytest.param(
        8, 3, 1, NU_LE_S_TAU_GT_S, 16, 4, 4, (0x207FFF, 0x438FFF, 0x8C97FF, 0x11527FF), 8901,
        id="8-3-1-nu_le_s_and_tau_gt_s-16-344",
    ),
]

# The grid the orbit walk is compared on against the reference walk: k 2-4,
# s 1-3, n >= ks and C(n, k) <= 200, under both constraints (below
# n = k(s+1) the pruned search checks K_n^k directly). Each
# (k, s, constraint) series listed here stops at the largest n at which the
# reference walk settles the cell within REFERENCE_NODES nodes; a series not
# listed runs to the end.
REFERENCE_NODES = 100_000
REFERENCE_REACH = {
    (2, 2, NU_LE_S): 14, (2, 2, NU_LE_S_TAU_GT_S): 12,
    (2, 3, NU_LE_S): 10, (2, 3, NU_LE_S_TAU_GT_S): 9,
    (3, 1, NU_LE_S): 9, (3, 1, NU_LE_S_TAU_GT_S): 8,
    (3, 2, NU_LE_S): 8, (3, 2, NU_LE_S_TAU_GT_S): 8,
    (4, 1, NU_LE_S): 7, (4, 1, NU_LE_S_TAU_GT_S): 7,
}
# The largest H whose images the completeness check lists.
YOUNG_ORDER_CAP = 5040


def reference_search_maximal(index, s, tau_floor, cap=WITNESS_CAP, nodes=None):
    """The pruned walk before orbital branching: one branch per edge.

    It takes the lowest candidate edge or leaves it out, with the same size
    bound, tau-floor transversal test and invariants as
    ``verify._search_maximal`` at n >= k(s+1), and returns (max_edges, witness
    subsets, subsets checked, nodes entered). ``cap`` None lists every leaf
    of the best size: every extremal family holding M0. With ``nodes`` it
    raises BudgetExceeded past that many nodes.
    """
    k = index.k
    hits = verify._transversal_hits(index, _fixed_matching(index.n, k, s)) if tau_floor else []
    best_size = -1
    best_subs = []
    checked = entered = 0

    def expand(sub, size, cand, banned):
        nonlocal best_size, best_subs, checked, entered
        entered += 1
        if nodes is not None and entered > nodes:
            raise BudgetExceeded(f"reference walk passed {nodes} nodes")
        full = cap is not None and len(best_subs) >= cap
        if size + cand.bit_count() < best_size + full:
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
                else:
                    best_subs.append(sub)
            return
        low = cand & -cand
        rest = cand ^ low
        kept = index.addable_after(s, sub, low.bit_length() - 1, rest | banned)
        expand(sub | low, size + 1, kept & rest, kept & banned)
        expand(sub, size, rest, banned | low)

    fixed = sum(index.containing(range(j * k + 1, j * k + k + 1)) for j in range(s))
    meets = index.meeting(range(1, k * s + 1))
    try:
        expand(fixed, s, meets & ~fixed, 0)
    finally:
        del expand
    return (best_size if best_size >= 0 else None), best_subs, checked, entered


def _young_images(n, k, s, family):
    """Every image of the family under the Young subgroup H of M0's blocks
    and [ks+1..n], the symmetry group the pruned walk branches on."""
    cells = [range(j * k + 1, j * k + k + 1) for j in range(s)] + [range(k * s + 1, n + 1)]
    images = set()
    for perms in product(*(permutations(c) for c in cells)):
        relabel = {}
        for cell, perm in zip(cells, perms):
            relabel.update(zip(cell, perm))
        images.add(frozenset(tuple(sorted(relabel[v] for v in e)) for e in family))
    return images


def _grid_cells():
    """The grid's cells within REFERENCE_REACH that the tau floor's
    transversal guard lets through."""
    for k in (2, 3, 4):
        for s in (1, 2, 3):
            for constraint in (NU_LE_S, NU_LE_S_TAU_GT_S):
                n = k * s
                last = REFERENCE_REACH.get((k, s, constraint), math.inf)
                while n <= last and math.comb(n, k) <= 200:
                    if constraint == NU_LE_S or k**s <= math.comb(n, k):
                        yield n, k, s, constraint
                    n += 1


def _fixed_matching(n, k, s):
    """M0 = {1..k}, {k+1..2k}, ..., {(s-1)k+1..sk} as edge tuples."""
    return [tuple(range(j * k + 1, j * k + k + 1)) for j in range(s)]


def _extremal_families_holding_m0(n, k, s, constraint, size):
    """Every family of `size` edges on [n] that holds M0 and meets the
    constraint, by brute force over the enumeration oracles."""
    m0 = _fixed_matching(n, k, s)
    rest = [e for e in combinations(range(1, n + 1), k) if e not in m0]
    found = []
    for extra in combinations(rest, size - s):
        h = Hypergraph(n, k, m0 + list(extra))
        if max_matching(h, limit=s + 1, exhaustive=True)[0] > s:
            continue
        if constraint == NU_LE_S_TAU_GT_S:
            if min_vertex_cover(h, limit=s, exhaustive=True)[1] is not None:
                continue
        found.append(h.edge_set)
    return found


@st.composite
def _family_cases(draw):
    """A random k 2/3 edge list, s in 1..3 and a family of it with nu <= s."""
    k = draw(st.integers(2, 3))
    s = draw(st.integers(1, 3))
    # room for s+1 disjoint edges where it is cheap, so that edges get killed
    n_hi = 10 if k == 3 else 2 * s + 5
    n = draw(st.integers(max(k + 2, n_hi - 4), n_hi))
    rnd = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from([0.3, 0.6, 0.9]))
    h = Hypergraph(n, k, [e for e in combinations(range(1, n + 1), k) if rnd.random() < p])
    index = EdgeIndex(h.n, h.vertex_array())
    q = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))  # how full the family gets
    order = list(range(h.e()))
    rnd.shuffle(order)
    sub = 0
    for e in order:
        if rnd.random() < q and index.packing(sub | 1 << e, s + 1) is None:
            sub |= 1 << e
    return h, s, sub, rnd


class TestVerifyExtremal:
    def test_complete_core_wins(self):
        # n = 3s+2: the complete graph has matching number s, so it qualifies
        res = verify_extremal(5, 3, 1, NU_LE_S)
        assert res.max_edges_found == 10
        assert res.matches_bound is True

    def test_graph_case(self):
        res = verify_extremal(6, 2, 2, NU_LE_S)
        assert res.max_edges_found == 10  # max{9, 10}
        assert res.bound_value == 10
        assert res.matches_bound is True

    def test_small_cover_constraint(self):
        res = verify_extremal(5, 3, 1, NU_LE_S_TAU_GT_S)
        assert res.max_edges_found == 10  # complete graph again: tau = 3 > 1
        assert revalidate_witnesses(res)

    @pytest.mark.parametrize(
        "n,k,s,constraint",
        [
            (4, 2, 1, NU_LE_S),
            (5, 2, 1, NU_LE_S),
            (5, 2, 1, NU_LE_S_TAU_GT_S),
            (5, 3, 1, NU_LE_S_TAU_GT_S),
            (6, 2, 2, NU_LE_S),
        ],
    )
    def test_pruned_agrees_with_exhaustive(self, n, k, s, constraint):
        a = verify_extremal(n, k, s, constraint)
        b = verify_extremal(n, k, s, constraint, method="pruned")
        assert a.max_edges_found == b.max_edges_found
        # n >= ks in every case, so the pruned witnesses are extremal families
        # holding M0 (below n = k(s+1), K_n^k alone): as many of them as there
        # are, up to the cap
        every = _extremal_families_holding_m0(n, k, s, constraint, b.max_edges_found)
        got = [w.edge_set for w in b.extremal_witnesses]
        # at least one and at most WITNESS_CAP distinct ones; below the cap,
        # every one of them is an image of a witness under H
        assert 1 <= len(got) == len(set(got)) <= WITNESS_CAP
        assert all(w in every for w in got)
        if len(got) < WITNESS_CAP:
            images = set().union(*(_young_images(n, k, s, w) for w in got))
            assert set(every) <= images

    def test_pruned_agrees_at_twenty_edges(self):
        a = verify_extremal(6, 3, 1, NU_LE_S_TAU_GT_S)
        b = verify_extremal(6, 3, 1, NU_LE_S_TAU_GT_S, method="pruned")
        assert a.max_edges_found == b.max_edges_found == 10
        assert revalidate_witnesses(b)

    def test_witnesses_validate_under_solvers(self):
        res = verify_extremal(5, 3, 1, NU_LE_S_TAU_GT_S)
        for w in res.extremal_witnesses:
            assert max_matching(w)[0] <= 1
            tau, _ = min_vertex_cover(w)
            assert tau > 1

    def test_constructions_are_feasible_witnesses(self):
        res = verify_extremal(6, 3, 1, NU_LE_S_TAU_GT_S, method="pruned")
        hm = hilton_milner_family(6, 3, 1)
        cl = clique_family(6, 3, 1)
        assert max_matching(hm)[0] == 1 and min_vertex_cover(hm, limit=1)[1] is None
        assert res.max_edges_found >= hm.e()
        assert res.max_edges_found >= cl.e()

    def test_guard_on_large_instances(self):
        with pytest.raises(BudgetExceeded):
            verify_extremal(8, 3, 2)  # C(8,3) = 56 edges

    def test_guard_refuses_before_the_k_sets_are_built(self, monkeypatch):
        # the edge list and its index grow as C(n, k): n 200 once took 0.8 s
        # and 166 MiB to build before the guard refused it
        built = []
        monkeypatch.setattr(verify, "k_sets", lambda *args: built.append(args))
        with pytest.raises(BudgetExceeded, match="C\\(n,k\\)=1331334000 > 24"):
            verify_extremal(2000, 3, 1)
        # the pruned search's guard also runs before its budget's clock starts
        with pytest.raises(BudgetExceeded, match="pruned search refuses C\\(n,k\\)=1331334000 > 16384"):
            verify_extremal(2000, 3, 1, method="pruned", budget_ms=1)
        with pytest.raises(BudgetExceeded, match="C\\(n,k\\)=16471 > 16384"):
            verify_extremal(182, 2, 1, method="pruned")  # the smallest n at k 2 past it
        with pytest.raises(ValueError, match="unknown constraint"):
            verify_extremal(2000, 3, 1, "tau_le_s")
        assert built == []

    @pytest.mark.parametrize("n,k,s", [(40, 2, 18), (20, 2, 8)])
    def test_tau_floor_refuses_more_transversal_masks_than_edges(self, monkeypatch, n, k, s):
        # 2^18 = 262144 > C(40,2) = 780 and 256 > 190: the masks would outgrow
        # the disjointness table the C(n, k) guard bounds, so none is listed
        listed = []
        monkeypatch.setattr(verify, "_transversal_hits", lambda *args: listed.append(args))
        monkeypatch.setattr(verify, "k_sets", lambda *args: listed.append(args))
        with pytest.raises(BudgetExceeded, match=f"k\\^s={k**s} transversal masks > C\\(n,k\\)="):
            verify_extremal(n, k, s, NU_LE_S_TAU_GT_S, method="pruned", budget_ms=1)
        assert listed == []

    @pytest.mark.parametrize(
        "n,k,s,constraint",
        [
            (20, 2, 7, NU_LE_S_TAU_GT_S),  # 128 masks <= 190 edges
            (40, 2, 18, NU_LE_S),  # no tau floor, no masks
            (20, 2, 8, NU_LE_S),
        ],
    )
    def test_transversal_guard_spares_cells_it_does_not_bound(self, n, k, s, constraint):
        # these run until their budget stops them
        res = verify_extremal(n, k, s, constraint, method="pruned", budget_ms=1)
        assert res.status == "budget refusal"

    def test_budget_refusal(self):
        res = verify_extremal(6, 3, 1, NU_LE_S_TAU_GT_S, budget_ms=0.001)
        assert res.status.startswith("budget refusal")
        assert res.max_edges_found is None

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            verify_extremal(5, 3, 1, "tau_le_s")

    @pytest.mark.parametrize("method", ["exhaustive", "pruned"])
    @pytest.mark.parametrize("s", [0, -1])
    def test_s_below_one_is_rejected(self, method, s):
        # at s = 0 no edge can be added, so the pruned search's root breaks
        # its own invariant; both methods refuse rather than disagree
        with pytest.raises(ValueError, match=f"s={s} must be at least 1"):
            verify_extremal(5, 3, s, NU_LE_S, method=method)


class TestPrunedSearch:
    @pytest.mark.parametrize("n,k,s,constraint,max_edges,checked,witnesses,masks,nodes", PINNED_TREES)
    def test_search_tree_is_pinned(self, n, k, s, constraint, max_edges, checked, witnesses, masks, nodes):
        res = verify_extremal(n, k, s, constraint, method="pruned")
        assert (res.max_edges_found, res.subsets_checked) == (max_edges, checked)
        assert res.search_nodes == nodes
        assert len(res.extremal_witnesses) == witnesses
        assert len({w.edge_set for w in res.extremal_witnesses}) == witnesses  # distinct
        assert all(w.e() == max_edges for w in res.extremal_witnesses)
        assert revalidate_witnesses(res)
        every = list(combinations(range(1, n + 1), k))
        want = [tuple(e for i, e in enumerate(every) if mask >> i & 1) for mask in masks]
        assert [w.edges for w in res.extremal_witnesses] == want

    @pytest.mark.parametrize(
        "n,k,s,constraint",
        [(4, 2, 1, NU_LE_S), (6, 2, 2, NU_LE_S), (6, 2, 3, NU_LE_S), (5, 3, 1, NU_LE_S_TAU_GT_S)]
        + [p.values[:4] for p in PINNED_TREES],
    )
    def test_every_witness_holds_the_fixed_matching(self, n, k, s, constraint):
        res = verify_extremal(n, k, s, constraint, method="pruned")
        assert res.extremal_witnesses
        m0 = set(_fixed_matching(n, k, s))
        assert all(m0 <= w.edge_set for w in res.extremal_witnesses)

    @pytest.mark.parametrize(
        "n,k,s,constraint,max_edges,checked,masks",
        [
            # n < k(s+1): nu(K_n^k) = floor(n/k) <= s, so K_n^k is the one
            # maximal family, checked directly, and the one witness
            pytest.param(5, 3, 1, NU_LE_S_TAU_GT_S, 10, 1, (0x3FF,), id="5-3-1-nutau"),
            pytest.param(7, 2, 3, NU_LE_S, 21, 1, ((1 << 21) - 1,), id="7-2-3-nu"),
            pytest.param(5, 3, 2, NU_LE_S_TAU_GT_S, 10, 1, (0x3FF,), id="5-3-2-nutau"),
            pytest.param(5, 2, 3, NU_LE_S, 10, 1, (0x3FF,), id="5-2-3-nu"),
            # tau(K_5^3) = 3 <= s, so K_5^3 is checked and no family qualifies
            pytest.param(5, 3, 3, NU_LE_S_TAU_GT_S, None, 1, (), id="5-3-3-nutau"),
            # k^s > C(n, k) (27 > 20, 64 > 55), yet no transversal mask is
            # listed below n = k(s+1), so the pruned search does not refuse them
            pytest.param(6, 3, 3, NU_LE_S_TAU_GT_S, 20, 1, ((1 << 20) - 1,), id="6-3-3-nutau"),
            pytest.param(11, 2, 6, NU_LE_S_TAU_GT_S, 55, 1, ((1 << 55) - 1,), id="11-2-6-nutau"),
            # K_k^k is one edge with tau = 1: no family qualifies, and k > 1 =
            # C(k, k) transversal masks is no refusal either
            *(pytest.param(k, k, 1, NU_LE_S_TAU_GT_S, None, 1, (), id=f"{k}-{k}-1-nutau")
              for k in (2, 3, 4)),
        ],
    )
    def test_below_ks_the_search_starts_from_the_empty_family(
        self, n, k, s, constraint, max_edges, checked, masks
    ):
        res = verify_extremal(n, k, s, constraint, method="pruned")
        assert (res.max_edges_found, res.subsets_checked) == (max_edges, checked)
        assert res.status == "complete"
        every = list(combinations(range(1, n + 1), k))
        want = [tuple(e for i, e in enumerate(every) if mask >> i & 1) for mask in masks]
        assert [w.edges for w in res.extremal_witnesses] == want
        assert revalidate_witnesses(res)

    def test_below_k_s_plus_one_agrees_with_exhaustive(self):
        # every cell with n < k(s+1) and C(n, k) <= 24 at k 2-4, s 1-3, under
        # both constraints: the same maximum, witnesses, bound and status
        cells = 0
        for k, s in product((2, 3, 4), (1, 2, 3)):
            for n in range(k, k * (s + 1)):
                if math.comb(n, k) > 24:
                    break
                for constraint in (NU_LE_S, NU_LE_S_TAU_GT_S):
                    a = verify_extremal(n, k, s, constraint)
                    b = verify_extremal(n, k, s, constraint, method="pruned")
                    cells += 1
                    assert (b.max_edges_found, b.matches_bound, b.bound_value, b.status) == (
                        a.max_edges_found, a.matches_bound, a.bound_value, a.status), (n, k, s)
                    assert [w.edges for w in b.extremal_witnesses] == [
                        w.edges for w in a.extremal_witnesses], (n, k, s, constraint)
        assert cells == 64

    @pytest.mark.parametrize("n,k,s", [(6, 3, 1), (7, 2, 2), (8, 2, 2), (7, 3, 2)])
    def test_transversal_test_decides_tau_le_s(self, n, k, s):
        # on families holding M0, some transversal's mask holds the family
        # exactly when the cover search finds s vertices, and exactly when
        # the enumeration oracle puts tau at most s
        index = EdgeIndex(n, complete_graph(n, k).vertex_array())
        hits = verify._transversal_hits(index, _fixed_matching(n, k, s))
        assert len(hits) == k**s
        fixed = sum(index.containing(block) for block in _fixed_matching(n, k, s))
        rnd = random.Random(n * 100 + k * 10 + s)
        seen = set()
        for trial in range(60):
            p = (trial % 6 + 1) / 16  # sparse draws often have tau <= s
            fam = fixed | sum(1 << i for i in range(len(index.verts)) if rnd.random() < p)
            by_hits = any(fam & hit == fam for hit in hits)
            assert by_hits == (index.cover(fam, s) is not None)
            w = Hypergraph(n, k, index.verts[index.ids(fam)])
            tau, _ = min_vertex_cover(w, limit=s, exhaustive=True)
            assert by_hits == (tau <= s)
            seen.add(by_hits)
        assert seen == {True, False}

    def test_m0_from_containing_is_the_lex_code_lookup(self):
        # each block of M0 is the one k-set holding all its vertices, so the
        # incidence rows find M0 as the lex-code search through K_n^k did
        for k in range(2, 5):
            for n in range(k, 11):
                index = EdgeIndex(n, complete_graph(n, k).vertex_array())
                for s in range(1, n // k + 1):
                    blocks = _fixed_matching(n, k, s)
                    rows = np.searchsorted(lex_codes(index.verts, n), lex_codes(np.array(blocks), n))
                    want = sum(1 << i for i in rows.tolist())
                    assert sum(index.containing(block) for block in blocks) == want

    # each id keeps the count of the walk before orbital branching
    @pytest.mark.parametrize(
        "n,k,s,tests",
        [
            pytest.param(6, 3, 1, 127, id="6-3-1-521"),
            pytest.param(7, 3, 1, 613, id="7-3-1-3718"),
            pytest.param(7, 2, 2, 118, id="7-2-2-441"),
            pytest.param(8, 2, 2, 162, id="8-2-2-1062"),
        ],
    )
    def test_one_tau_test_per_node_and_no_cover_search(self, monkeypatch, n, k, s, tests):
        # every node that passes the size bound reads the transversal masks
        # once, so their count pins the tree of nodes, cuts included; for
        # n >= k(s+1) the cover search never runs
        count = 0

        class CountingHits(list):
            def __iter__(self):
                nonlocal count
                count += 1
                return super().__iter__()

        def refuse(index, sub, budget):
            raise AssertionError("a cover search ran")

        hits = verify._transversal_hits
        monkeypatch.setattr(verify, "_transversal_hits", lambda *args: CountingHits(hits(*args)))
        monkeypatch.setattr(EdgeIndex, "cover", refuse)
        res = verify_extremal(n, k, s, NU_LE_S_TAU_GT_S, method="pruned")
        assert res.status == "complete" and res.extremal_witnesses
        assert count == tests

    def test_orbit_walk_agrees_with_the_reference_walk(self):
        # the same maximum on every cell of the grid, in no more nodes than
        # the reference walk enters
        cells = list(_grid_cells())
        assert len(cells) == 101
        for n, k, s, constraint in cells:
            index = EdgeIndex(n, complete_graph(n, k).vertex_array())
            ref = reference_search_maximal(
                index, s, constraint == NU_LE_S_TAU_GT_S, nodes=REFERENCE_NODES
            )
            res = verify_extremal(n, k, s, constraint, method="pruned")
            assert res.status == "complete"
            assert res.max_edges_found == ref[0], (n, k, s, constraint)
            assert res.search_nodes <= ref[3], (n, k, s, constraint)

    def test_witnesses_stand_for_every_extremal_family_up_to_h(self):
        # the reference walk without a witness cap lists every extremal
        # family holding M0 (on the grid's cells where it settles within
        # REFERENCE_NODES nodes); the witnesses are among them and, below
        # the cap, every one of them is an image of a witness under H
        for n, k, s, constraint in _grid_cells():
            index = EdgeIndex(n, complete_graph(n, k).vertex_array())
            try:
                ref = reference_search_maximal(
                    index, s, constraint == NU_LE_S_TAU_GT_S, cap=None, nodes=REFERENCE_NODES
                )
            except BudgetExceeded:
                continue
            every = {frozenset(map(tuple, index.verts[index.ids(sub)].tolist())) for sub in ref[1]}
            res = verify_extremal(n, k, s, constraint, method="pruned")
            got = [w.edge_set for w in res.extremal_witnesses]
            assert 1 <= len(got) == len(set(got)) <= WITNESS_CAP
            assert set(got) <= every, (n, k, s, constraint)
            order = math.factorial(k) ** s * math.factorial(n - k * s)
            if len(got) < WITNESS_CAP and order <= YOUNG_ORDER_CAP:
                images = set().union(*(_young_images(n, k, s, w) for w in got))
                assert every <= images, (n, k, s, constraint)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_addable_after_kills_the_edge_that_completes_a_matching(self, s):
        # sub is s-1 disjoint pairs of K_8; with i it leaves s disjoint edges,
        # so a pair disjoint from all of them makes s+1 and must go
        h = Hypergraph(8, 2, list(combinations(range(1, 9), 2)))
        index = EdgeIndex(h.n, h.vertex_array())
        bit = {e: 1 << h.edges.index(e) for e in h.edges}
        sub = sum(bit[(2 * t + 1, 2 * t + 2)] for t in range(s - 1))
        i = h.edges.index((2 * s - 1, 2 * s))
        far, near = bit[(2 * s + 1, 2 * s + 2)], bit[(2 * s, 2 * s + 1)]
        assert index.addable_after(s, sub, i, far | near) == near
        assert index.addable_after(s + 1, sub, i, far | near) == far | near

    @settings(max_examples=200, deadline=None)
    @given(_family_cases())
    def test_addable_after_matches_its_definition(self, case):
        h, s, sub, rnd = case
        index = EdgeIndex(h.n, h.vertex_array())
        pool = [
            j for j in range(h.e())
            if not sub >> j & 1 and index.packing(sub | 1 << j, s + 1) is None
        ]
        for i in pool:
            others = [j for j in pool if j != i and rnd.random() < 0.8]
            want = sum(
                1 << j for j in others
                if index.packing(sub | 1 << i | 1 << j, s + 1) is None
            )
            assert index.addable_after(s, sub, i, sum(1 << j for j in others)) == want

    def test_search_leaves_no_reference_cycles(self):
        # the recursive expand closure is freed by reference counting alone,
        # whether the search completes or stops on its budget
        for constraint in (NU_LE_S_TAU_GT_S, NU_LE_S):
            assert cyclic_garbage(lambda: verify_extremal(4, 2, 1, constraint, method="pruned")) == 0
        refused = lambda: verify_extremal(9, 3, 2, NU_LE_S, method="pruned", budget_ms=0.001)
        assert refused().status == "budget refusal"
        assert cyclic_garbage(refused, times=20) == 0


class TestReportRendering:
    def test_json_round_trip(self):
        res = verify_extremal(5, 3, 1, NU_LE_S)
        text = render_report(res, "json")
        parsed = json.loads(text)
        assert parsed == {
            **{f.name: getattr(res, f.name) for f in dataclasses.fields(res)},
            "extremal_witnesses": [to_json_dict(w) for w in res.extremal_witnesses],
        }
        assert parsed["max_edges_found"] == 10
        assert list(parsed)[0] == "n"  # stable field order

    def test_tsv_row(self):
        from hypermatch.constructions import bound_report

        row = render_report(bound_report(10, 3, 2), "tsv")
        assert row.split("\t")[:6] == ["10", "3", "2", "64", "56", "55"]

    def test_search_nodes_reach_both_reports(self):
        res = verify_extremal(7, 3, 1, NU_LE_S_TAU_GT_S, method="pruned")
        assert json.loads(render_report(res, "json"))["search_nodes"] == res.search_nodes == 1185
        names = [f.name for f in dataclasses.fields(res)]
        assert render_report(res, "tsv").split("\t")[names.index("search_nodes")] == "1185"
        # a refused walk reports the nodes it entered before its budget ran out
        refused = verify_extremal(9, 3, 2, NU_LE_S, method="pruned", budget_ms=20)
        assert refused.status == "budget refusal" and refused.search_nodes > 0
        # the exhaustive method walks no tree
        assert verify_extremal(5, 3, 1, NU_LE_S).search_nodes == 0

    def test_tsv_rows_have_one_column_per_field(self):
        # the witness list is one comma-joined cell, whatever its length
        names = [f.name for f in dataclasses.fields(verify.VerifyResult)]
        counts = set()
        for n, constraint in product((7, 8), (NU_LE_S, NU_LE_S_TAU_GT_S)):
            res = verify_extremal(n, 3, 1, constraint, method="pruned")
            row = render_report(res, "tsv").split("\t")
            assert len(row) == len(names)
            assert row[names.index("extremal_witnesses")] == ",".join(
                f"graph(n={n},k=3,e={w.e()})" for w in res.extremal_witnesses)
            counts.add(len(res.extremal_witnesses))
        assert counts == {1, 4}

    def test_empty_witness_list_renders(self):
        res = verify_extremal(6, 3, 1, NU_LE_S_TAU_GT_S, budget_ms=0.001)
        assert res.status.startswith("budget refusal")
        parsed = json.loads(render_report(res, "json"))
        assert parsed["extremal_witnesses"] == []
