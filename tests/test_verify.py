import dataclasses
import json
import random
from itertools import combinations

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

# (max_edges_found, subsets_checked, witnesses, witness masks) of the pruned
# search, pinned. Every row has n >= ks, so the search starts from the fixed
# s-matching M0 and reports only extremal families that hold it; (7,2,2)
# under the tau floor and (8,3,1) under nu <= s have three such families, the
# other rows at least WITNESS_CAP = 4. Once the witness list is full, the
# search cuts every subtree that can only tie the best size, so
# subsets_checked counts the maximal families it still visits; a faster
# addability test must leave that count, and so the search tree, as it is.
# Under the tau floor it counts only the maximal families that pass the
# transversal test.
# The masks are the witnesses in the order the search reports them, bit i
# standing for the i-th k-set of [n] in lex order; neither the tied-subtree
# cut, the skipped failed cover vertices nor the tau-floor cut may move them
# or the maximum.
# Each id keeps the subsets_checked count of the search before any cut, so
# the test names stay as they were.
PINNED_TREES = [
    pytest.param(
        6, 3, 1, NU_LE_S_TAU_GT_S, 10, 4, 4, (0x5FF, 0xAFF, 0xCFF, 0x137F),
        id="6-3-1-nu_le_s_and_tau_gt_s-10-1024",
    ),
    pytest.param(
        7, 3, 1, NU_LE_S_TAU_GT_S, 13, 4, 4, (0x8FFF, 0x133FF, 0x255FF, 0x469FF),
        id="7-3-1-nu_le_s_and_tau_gt_s-13-182",
    ),
    pytest.param(
        7, 2, 2, NU_LE_S_TAU_GT_S, 10, 7, 3, (0x99CF, 0x12AD7, 0x24CE7),
        id="7-2-2-nu_le_s_and_tau_gt_s-10-62",
    ),
    pytest.param(
        8, 2, 2, NU_LE_S_TAU_GT_S, 10, 4, 4, (0x21FF, 0x4607F, 0x8A07F, 0x11207F),
        id="8-2-2-nu_le_s_and_tau_gt_s-10-364",
    ),
    pytest.param(
        8, 3, 1, NU_LE_S, 21, 3, 3, (0x1FFFFF, 0xFFFE0003F, 0x3FF003E007C1),
        id="8-3-1-nu_le_s-21-8",
    ),
    pytest.param(
        8, 3, 1, NU_LE_S_TAU_GT_S, 16, 4, 4, (0x207FFF, 0x438FFF, 0x8C97FF, 0x11527FF),
        id="8-3-1-nu_le_s_and_tau_gt_s-16-344",
    ),
]


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
        # holding M0: as many of them as there are, up to the cap
        every = _extremal_families_holding_m0(n, k, s, constraint, b.max_edges_found)
        got = [w.edge_set for w in b.extremal_witnesses]
        assert len(got) == len(set(got)) == min(WITNESS_CAP, len(every))
        assert all(w in every for w in got)

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
    @pytest.mark.parametrize("n,k,s,constraint,max_edges,checked,witnesses,masks", PINNED_TREES)
    def test_search_tree_is_pinned(self, n, k, s, constraint, max_edges, checked, witnesses, masks):
        res = verify_extremal(n, k, s, constraint, method="pruned")
        assert (res.max_edges_found, res.subsets_checked) == (max_edges, checked)
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
            # n < ks: every family has nu < s, so K_n^k is the one maximal
            # family, checked directly, and the one witness
            pytest.param(5, 3, 2, NU_LE_S_TAU_GT_S, 10, 1, (0x3FF,), id="5-3-2-nutau"),
            pytest.param(5, 2, 3, NU_LE_S, 10, 1, (0x3FF,), id="5-2-3-nu"),
            # tau(K_5^3) = 3 <= s, so K_5^3 is checked and no family qualifies
            pytest.param(5, 3, 3, NU_LE_S_TAU_GT_S, None, 1, (), id="5-3-3-nutau"),
            # k^s > C(n, k) (27 > 20, 64 > 55), yet no transversal mask is
            # listed below n = ks, so the pruned search does not refuse them
            pytest.param(6, 3, 3, NU_LE_S_TAU_GT_S, 20, 1, ((1 << 20) - 1,), id="6-3-3-nutau"),
            pytest.param(11, 2, 6, NU_LE_S_TAU_GT_S, 55, 1, ((1 << 55) - 1,), id="11-2-6-nutau"),
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

    @pytest.mark.parametrize("n,k,s", [(6, 3, 1), (7, 2, 2), (8, 2, 2), (7, 3, 2)])
    def test_transversal_test_decides_tau_le_s(self, n, k, s):
        # on families holding M0, some transversal's mask holds the family
        # exactly when the cover search finds s vertices, and exactly when
        # the enumeration oracle puts tau at most s
        index = EdgeIndex(n, complete_graph(n, k).vertex_array())
        hits = verify._transversal_hits(index, k, s)
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

    @pytest.mark.parametrize(
        "n,k,s,tests", [(6, 3, 1, 521), (7, 3, 1, 3718), (7, 2, 2, 441), (8, 2, 2, 1062)]
    )
    def test_one_tau_test_per_node_and_no_cover_search(self, monkeypatch, n, k, s, tests):
        # every node that passes the size bound reads the transversal masks
        # once, so their count pins the tree of nodes, cuts included; for
        # n >= ks the cover search never runs
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

    def test_empty_witness_list_renders(self):
        res = verify_extremal(6, 3, 1, NU_LE_S_TAU_GT_S, budget_ms=0.001)
        assert res.status.startswith("budget refusal")
        parsed = json.loads(render_report(res, "json"))
        assert parsed["extremal_witnesses"] == []
