import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy import sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermatch import lp, optimize
from hypermatch.constructions import (
    clique_family,
    cover_family,
    hilton_milner_family,
    prefix_overlap_family,
)
from hypermatch.core import (
    BudgetExceeded,
    Hypergraph,
    complete_graph,
    edge_mask,
    random_hypergraph,
    relabel_graph,
)
from hypermatch.optimize import (
    LP_CERTIFIED,
    LP_HIGHS,
    LP_SIMPLEX,
    DualityError,
    EdgeIndex,
    FractionalAssignment,
    Matching,
    VertexCover,
    _greedy_matching,
    _highs_pair,
    _matching_ceiling,
    _cover_csc,
    _cover_sums,
    _lp_columns,
    _over_common_denominator,
    check_lp_duality,
    fractional_cover,
    fractional_matching,
    fractional_perfect_matching,
    greedy_rainbow_matching,
    max_independent_set,
    max_matching,
    min_vertex_cover,
    threshold_cover_graph,
    _cover_oracle,
    _cover_simplex,
    _matching_simplex,
)

from conftest import cyclic_garbage, seeded_graph
from strategies import hypergraphs


class TestMaxMatching:
    def test_complete_eight(self):
        assert max_matching(complete_graph(8, 3))[0] == 2

    def test_hilton_milner(self):
        h = hilton_milner_family(10, 3, 2)
        value, witness = max_matching(h)
        assert value == 2
        witness.validate(h)

    def test_cover_family(self):
        h = cover_family(9, 3, 2, w=(1, 2))
        value, witness = max_matching(h)
        assert value == 2 == max_matching(h, exhaustive=True)[0]
        witness.validate(h)

    def test_limit_early_exit(self):
        h = complete_graph(9, 3)
        value, witness = max_matching(h, limit=2)
        assert value == 2 and witness.size == 2

    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("limit", [-1, -2])
    def test_negative_limit_is_refused(self, limit, exhaustive):
        # greedy[:-1] once reported nu = 2 on K_9^3, whose nu is 3
        with pytest.raises(ValueError, match=f"limit={limit}"):
            max_matching(complete_graph(9, 3), limit=limit, exhaustive=exhaustive)

    def test_empty(self):
        assert max_matching(Hypergraph(5, 3, []))[0] == 0

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_oracle(self, seed):
        h = seeded_graph(seed, n_lo=4, n_hi=8)
        nu = max_matching(h, exhaustive=True)[0]
        assert max_matching(h)[0] == nu
        for limit in range(nu + 2):
            value, witness = max_matching(h, limit=limit)
            assert value == min(nu, limit) == witness.size
            witness.validate(h)

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_has_no_disjoint_extension(self, seed):
        h = seeded_graph(seed, n_lo=5, n_hi=9)
        value, witness = max_matching(h)
        used = set()
        for e in witness.edges:
            used.update(e)
        assert not any(not used.intersection(e) for e in h.edges)
        assert value == witness.size


def _plain_search(h: Hypergraph) -> tuple:
    """nu's witness edges as the search finds them with no ceiling: the greedy
    start, then ``EdgeIndex.packing`` one size up until it fails."""
    cap = h.n // h.k
    best = _greedy_matching(h.edges)[:cap]
    index = EdgeIndex(h.n, h.vertex_array())
    while len(best) < cap:
        got = index.packing(index.full, len(best) + 1)
        if got is None:
            break
        best = got
    return tuple(h.edges[i] for i in sorted(best))


def _count_packings(monkeypatch, budgets: list | None = None) -> list[int]:
    """Record the size asked of every ``EdgeIndex.packing`` call, and its
    node budget in ``budgets`` when given."""
    real, needs = EdgeIndex.packing, []

    def counting(self, sub, need, nodes=None):
        needs.append(need)
        if budgets is not None:
            budgets.append(nodes)
        return real(self, sub, need, nodes)

    monkeypatch.setattr(EdgeIndex, "packing", counting)
    return needs


class TestMatchingCeiling:
    """max_matching stops its search at floor(tau*), taken from HiGHS's LP
    pair only when the pair passes its exact certificate."""

    @given(st.integers(2, 4).flatmap(
        lambda k: hypergraphs(min_n=k, max_n=10, k=k, max_edges=24)
    ))
    @example(Hypergraph(6, 3, []))
    @example(Hypergraph(10, 3, [(1, 2, 3), (1, 4, 5)]))  # vertices 6..10 isolated
    @example(Hypergraph(10, 2, [(1, 2), (2, 3), (3, 1)]))
    @settings(max_examples=60, deadline=None)
    def test_ceiling_is_never_below_nu(self, h):
        nu, _ = max_matching(h, exhaustive=True)
        ceiling = _matching_ceiling(h)
        assert ceiling is not None and nu <= ceiling
        value, witness = max_matching(h)
        assert value == nu == witness.size
        witness.validate(h)

    @pytest.mark.parametrize("family", [cover_family, hilton_milner_family, clique_family])
    @pytest.mark.parametrize("s, n", [(2, 13), (3, 14), (4, 15)])
    def test_families_keep_the_plain_search_witness(self, family, s, n):
        # relabeled, as the benchmark feeds them; floor(tau*) = s on all three
        perm = list(range(1, n + 1))
        random.Random(f"{family.__name__}:{s}").shuffle(perm)
        h = relabel_graph(family(n, 3, s), dict(zip(range(1, n + 1), perm)))
        assert _matching_ceiling(h) == s
        value, witness = max_matching(h)
        assert value == s
        assert witness.edges == _plain_search(h)

    def test_ceiling_skips_the_failing_search(self, monkeypatch):
        # the size-4 search runs out of nodes; the ceiling then ends the search
        h = cover_family(13, 3, 3)
        budgets = []
        needs = _count_packings(monkeypatch, budgets)
        assert max_matching(h)[0] == 3
        assert (4, optimize.PACKING_NODES) in zip(needs, budgets)
        assert (4, None) not in zip(needs, budgets)

    def test_a_cover_that_fails_the_check_leaves_the_search_to_decide(self, monkeypatch):
        # half the optimal cover covers each edge only halfway
        h = cover_family(13, 3, 3)
        real = optimize._cover_rows

        def halved(cols, n):
            y, *rest = real(cols, n)
            return (y / 2, *rest)

        monkeypatch.setattr(optimize, "_cover_rows", halved)
        assert _matching_ceiling(h) is None
        needs = _count_packings(monkeypatch)
        value, witness = max_matching(h)
        assert value == 3 == witness.size
        witness.validate(h)
        assert needs[-1] == 4  # the search ran to its failure

    @pytest.mark.parametrize("status", [lp.INFEASIBLE, lp.UNBOUNDED, "solver error"])
    def test_a_highs_failure_leaves_the_search_to_decide(self, monkeypatch, status):
        def failing(c, a, row_lower, row_upper, col_upper=None):
            if status == "solver error":
                raise RuntimeError("LP solver failed: iteration limit reached")
            return status, None, None, None, 0

        monkeypatch.setattr(lp, "highs_solve", failing)
        for h, nu in ((cover_family(13, 3, 3), 3), (hilton_milner_family(12, 3, 2), 2),
                      (Hypergraph(6, 3, []), 0)):
            assert _matching_ceiling(h) is None
            value, witness = max_matching(h)
            assert value == nu == witness.size
            witness.validate(h)

    @pytest.mark.parametrize("h", [
        *(fam(n, 3, s) for fam in (cover_family, clique_family, hilton_milner_family)
          for s, n in ((2, 13), (3, 14), (4, 16))),
        *(random_hypergraph(n, 3, p, seed) for n, p, seed in
          ((12, 0.3, 1), (20, 0.2, 2), (30, 0.1, 3), (40, 0.3, 4), (60, 0.05, 5))),
    ])
    def test_ceiling_is_the_floor_of_the_certified_tau_star(self, h):
        fc = fractional_cover(h)
        assert fc.lp_path == LP_CERTIFIED
        assert _matching_ceiling(h) == math.floor(fc.value)

    @given(st.integers(2, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=9, k=k)))
    @example(Hypergraph(6, 3, []))
    @example(complete_graph(7, 3))  # tau* = 7/3
    @settings(max_examples=40, deadline=None)
    def test_ceiling_is_the_floor_of_the_simplex_tau_star(self, h):
        assert _matching_ceiling(h) == math.floor(_cover_simplex(h).value)


def _count_lp_solves(monkeypatch) -> list:
    """Record every ``lp.highs_solve`` call; the ceiling makes one or more."""
    real, seen = lp.highs_solve, []

    def counting(c, csc, row_lower, *bounds):
        seen.append((len(row_lower), len(c)))
        return real(c, csc, row_lower, *bounds)

    monkeypatch.setattr(lp, "highs_solve", counting)
    return seen


class TestPackingBudget:
    """Each deepening step of max_matching searches within PACKING_NODES
    nodes; only a search that runs out asks HiGHS for the ceiling."""

    def test_a_search_inside_its_budget_returns_the_unbudgeted_witness(self):
        for seed in range(40):
            h = seeded_graph(seed, n_lo=6, n_hi=10)
            index = EdgeIndex(h.n, h.vertex_array())
            for need in range(1, h.n // h.k + 2):
                free = index.packing(index.full, need)
                finished = []
                for nodes in (0, 1, 3, 10, 100, optimize.PACKING_NODES):
                    try:
                        got = index.packing(index.full, need, nodes)
                    except BudgetExceeded:
                        assert not finished  # a larger budget never fails where a smaller finished
                        continue
                    finished.append(nodes)
                    assert got == free
                assert finished  # PACKING_NODES is ample at n <= 10

    def test_zero_nodes_refuses_any_search(self):
        k6 = complete_graph(6, 3)
        index = EdgeIndex(6, k6.vertex_array())
        assert index.packing(index.full, 0, 0) == []
        with pytest.raises(BudgetExceeded):
            index.packing(index.full, 1, 0)

    def test_short_greedy_inputs_never_solve_an_lp(self, monkeypatch):
        # criterion 4's inputs (n 4..10) whose greedy start falls short of n // k
        short = [
            h for h in map(seeded_graph, range(300))
            if len(_greedy_matching(h.edges)) < h.n // h.k
        ]
        assert len(short) >= 50
        seen = _count_lp_solves(monkeypatch)
        for h in short:
            value, witness = max_matching(h)
            assert witness.edges == _plain_search(h)
        assert seen == []

    @pytest.mark.parametrize("family, n", [(cover_family, 16), (hilton_milner_family, 16),
                                           (clique_family, 14)])
    def test_large_families_still_stop_at_the_ceiling(self, monkeypatch, family, n):
        # relabeled, as the benchmark feeds them; for cover and HM the failing
        # size-4 search runs out of nodes, and floor(tau*) = 3 ends the
        # search. The clique's edges touch only 11 vertices, so the greedy
        # start already meets the cap 11 // 3 and no LP is solved.
        perm = list(range(1, n + 1))
        random.Random(f"{family.__name__}:{n}").shuffle(perm)
        h = relabel_graph(family(n, 3, 3), dict(zip(range(1, n + 1), perm)))
        seen = _count_lp_solves(monkeypatch)
        value, witness = max_matching(h)
        assert value == 3
        witness.validate(h)
        if family is clique_family:
            assert seen == []
        else:
            assert len(seen) >= 1


class TestMinVertexCover:
    def test_hilton_milner(self):
        h = hilton_milner_family(10, 3, 2)
        value, witness = min_vertex_cover(h)
        assert value == 3
        witness.validate(h)

    def test_empty(self):
        value, witness = min_vertex_cover(Hypergraph(6, 3, []))
        assert value == 0 and witness.size == 0

    def test_prefix_overlap(self):
        h = prefix_overlap_family(10, 3, 2, 2)
        assert min_vertex_cover(h)[0] == min_vertex_cover(h, exhaustive=True)[0] == 4

    def test_every_budget_reads_one_listing_of_the_rows(self, monkeypatch):
        # cover n 16, s 3: the greedy start is 1 and tau 3, so three budgets run
        h = cover_family(16, 3, 3)
        real, seen = EdgeIndex.cover, []

        def spy(index, sub, budget):
            got = real(index, sub, budget)
            seen.append(index.vertex_rows())
            return got

        monkeypatch.setattr(EdgeIndex, "cover", spy)
        assert min_vertex_cover(h)[0] == 3
        assert len(seen) == 3
        assert all(rows is seen[0] for rows in seen)
        assert seen[0] == h.vertex_array().tolist()

    def test_limit_signals_above(self):
        h = complete_graph(6, 3)  # tau = 4: any 3 vertices leave an edge
        value, witness = min_vertex_cover(h, limit=2)
        assert value == 3 and witness is None

    def test_limit_still_exact_when_below(self):
        h = hilton_milner_family(10, 3, 2)
        value, witness = min_vertex_cover(h, limit=5)
        assert value == 3 and witness is not None

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_negative_limit_is_refused(self, exhaustive):
        # limit -1 once came back as (0, None) on any graph
        with pytest.raises(ValueError, match="limit=-1"):
            min_vertex_cover(complete_graph(6, 3), limit=-1, exhaustive=exhaustive)

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_oracle(self, seed):
        h = seeded_graph(seed, n_lo=4, n_hi=8)
        tau = min_vertex_cover(h, exhaustive=True)[0]
        assert min_vertex_cover(h)[0] == tau
        for limit in range(tau + 2):
            value, witness = min_vertex_cover(h, limit=limit)
            if limit < tau:
                assert (value, witness) == (limit + 1, None)
            else:
                assert value == tau == witness.size
                witness.validate(h)


def _per_edge_rows(n: int, edges) -> list[int]:
    """inc[v] set edge by edge into one byte row per vertex, then converted."""
    rows = [bytearray((len(edges) + 7) // 8) for _ in range(n + 1)]
    for i, vs in enumerate(edges):
        for v in vs:
            rows[v][i >> 3] |= 1 << (i & 7)
    return [int.from_bytes(row, "little") for row in rows]


class TestEdgeIndex:
    @pytest.mark.parametrize("seed", range(10))
    def test_rows_match_their_definitions(self, seed):
        for k in (2, 3, 4):
            h = seeded_graph(seed, n_lo=4, n_hi=9, k=k)
            index = EdgeIndex(h.n, h.vertex_array())
            assert index.disj is None and index.packing(0, 1) is None  # builds disj
            assert len(index.inc) == h.n + 1 and index.inc[0] == 0
            masks = [edge_mask(e) for e in h.edges]
            for v in h.vertices():
                bit = 1 << (v - 1)
                assert index.inc[v] == sum(1 << i for i, m in enumerate(masks) if m & bit)
            for i, mi in enumerate(masks):
                want = sum(1 << j for j, mj in enumerate(masks) if mi & mj == 0)
                assert index.disj[i] == want
                meets = sum(1 << j for j, mj in enumerate(masks) if mi & mj)
                assert index.meeting(index.verts[i].tolist()) == meets

    @pytest.mark.parametrize("n, k", [(5, 2), (9, 3), (12, 3)])  # 10, 84 and 220 edges
    def test_ids_are_the_set_bits_as_python_ints(self, n, k):
        index = EdgeIndex(n, complete_graph(n, k).vertex_array())
        m = len(index.verts)
        assert index.ids(0) == []
        assert index.ids(index.full) == list(range(m))
        live = index.meeting([1, n])
        got = index.ids(live)
        assert got == [i for i in range(m) if live >> i & 1]
        assert all(type(i) is int for i in got)  # a Python int past int64 shifts by them
        assert sum(1 << i for i in got) == live

    @pytest.mark.parametrize("budget", [1, 200, optimize.INC_BLOCK_BYTES])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_packed_rows_equal_the_per_edge_rows(self, monkeypatch, budget, k):
        # the rows are packed in blocks of edges; small byte budgets put the
        # block boundaries (8 or 16 edges apart, and a short last block)
        # inside these small edge lists
        monkeypatch.setattr(optimize, "INC_BLOCK_BYTES", budget)
        rng = random.Random(budget * 10 + k)
        graphs = [complete_graph(8, k), random_hypergraph(9, k, 0.4, k), Hypergraph(6, k, [])]
        for h in graphs:
            edges = list(h.edges)
            rng.shuffle(edges)  # any edge order, as a retry's shuffled index has
            n = h.n + 3  # vertices no edge uses get a zero row
            allv = np.array(edges, dtype=np.intp).reshape(len(edges), k)
            index = EdgeIndex(n, allv)
            assert index.inc == _per_edge_rows(n, edges)
            assert index.full == (1 << len(edges)) - 1 and index.verts is allv
            assert [index.meeting(index.verts[i].tolist()) for i in range(len(edges))] == [
                sum(1 << j for j, f in enumerate(edges) if set(e) & set(f)) for e in edges
            ]

    def test_packed_rows_cross_the_default_block(self):
        h = complete_graph(55, 3)  # 26 235 edges, past one block of 18 720
        assert h.e() > optimize.INC_BLOCK_BYTES // (h.n + 1)
        perm = list(range(h.e()))
        random.Random(55).shuffle(perm)
        edges = [h.edges[i] for i in perm]
        index = EdgeIndex(h.n, h.vertex_array()[perm])
        assert index.inc == _per_edge_rows(h.n, edges)

    @pytest.mark.parametrize("seed", range(10))
    def test_witnesses_on_subsets(self, seed):
        h = seeded_graph(seed, n_lo=4, n_hi=8)
        index = EdgeIndex(h.n, h.vertex_array())
        sub = sum(1 << i for i in range(0, h.e(), 2))  # every other edge
        g = Hypergraph(h.n, h.k, [e for i, e in enumerate(h.edges) if sub >> i & 1])
        nu = max_matching(g, exhaustive=True)[0]
        tau = min_vertex_cover(g, exhaustive=True)[0]
        got = index.packing(sub, nu)
        assert len(got) == nu and all(sub >> i & 1 for i in got)
        Matching(tuple(h.edges[i] for i in got)).validate(g)
        assert index.packing(sub, nu + 1) is None
        cover = index.cover(sub, tau)
        VertexCover(frozenset(cover)).validate(g)
        assert tau == 0 or index.cover(sub, tau - 1) is None

    @given(st.integers(2, 4).flatmap(lambda k: hypergraphs(max_n=9, k=k)), st.data())
    def test_containing_and_meeting_match_the_per_edge_definitions(self, h, data):
        index = EdgeIndex(h.n, h.vertex_array())
        vs = data.draw(st.lists(st.integers(1, h.n), max_size=h.k + 1))
        assert index.containing(vs) == sum(1 << i for i, e in enumerate(h.edges) if set(vs) <= set(e))
        assert index.meeting(vs) == sum(1 << i for i, e in enumerate(h.edges) if set(vs) & set(e))
        assert index.rows is None and index.vertex_rows() == [list(e) for e in h.edges]
        assert index.vertex_rows() is index.rows

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_meeting_counts_match_the_per_edge_definition(self, k):
        rnd = random.Random(k)
        for n in range(k, 10):
            pool = list(combinations(range(1, n + 1), k))
            h = Hypergraph(n, k, [e for e in pool if rnd.random() < 0.6])
            index = EdgeIndex(h.n, h.vertex_array())
            draws = [[], [1], [n]] + [rnd.sample(range(1, n + 1), rnd.randint(1, n)) for _ in range(12)]
            for vs in draws:
                counts = index.meeting_counts(vs)
                assert counts == [
                    sum(1 << i for i, e in enumerate(h.edges) if len(set(vs) & set(e)) == c)
                    for c in range(k + 1)
                ]
                assert sum(counts) == index.full  # the entries split the edges

    def test_searches_leave_no_reference_cycles(self):
        # the recursive closures are freed by reference counting alone, found,
        # failed or over the node budget
        h = complete_graph(7, 3)
        index = EdgeIndex(h.n, h.vertex_array())

        def over_budget():
            with pytest.raises(BudgetExceeded):
                index.packing(index.full, 3, nodes=3)

        assert cyclic_garbage(lambda: index.cover(index.full, 5)) == 0
        assert cyclic_garbage(lambda: index.cover(index.full, 2)) == 0
        assert cyclic_garbage(lambda: index.packing(index.full, 2)) == 0
        assert cyclic_garbage(over_budget) == 0


def _plain_cover(index: EdgeIndex, sub: int, budget: int, calls: list | None = None) -> list | None:
    """``EdgeIndex.cover`` without the failed-vertex skip: branch on every
    vertex of the lowest edge left, in order. Counts its calls in ``calls``."""
    if calls is not None:
        calls.append(budget)
    if sub == 0:
        return []
    if budget == 0:
        return None
    i = (sub & -sub).bit_length() - 1
    for v in index.verts[i].tolist():
        got = _plain_cover(index, sub & ~index.inc[v], budget - 1, calls)
        if got is not None:
            got.append(v)
            return got
    return None


@st.composite
def _edge_subsets(draw):
    """A random k 2-4 graph on at most 11 vertices and a subset of its edges."""
    k = draw(st.integers(2, 4))
    h = draw(hypergraphs(min_n=k, max_n=11, k=k, max_edges=40))
    sub = draw(st.integers(0, (1 << h.e()) - 1))
    return h, sub


class TestCoverKernel:
    """The cover search skips a vertex below the later siblings of its failed
    branch; it must return exactly what the plain search returns."""

    @given(_edge_subsets())
    @example((Hypergraph(6, 3, []), 0))
    @example((complete_graph(7, 3), (1 << 35) - 1))  # tau = 5: long failing searches
    @settings(max_examples=150, deadline=None)
    def test_same_list_as_the_plain_search(self, case):
        h, sub = case
        index = EdgeIndex(h.n, h.vertex_array())
        got = [index.cover(sub, budget) for budget in range(h.n + 1)]
        assert got == [_plain_cover(index, sub, budget) for budget in range(h.n + 1)]
        g = Hypergraph(h.n, h.k, [e for i, e in enumerate(h.edges) if sub >> i & 1])
        tau = next(budget for budget, cover in enumerate(got) if cover is not None)
        assert tau == _cover_oracle(g, None)[0]
        VertexCover(frozenset(got[tau])).validate(g)

    def test_the_skip_cuts_the_failing_search(self):
        h = random_hypergraph(17, 3, 0.3, seed=5)
        tau = min_vertex_cover(h)[0]
        index = EdgeIndex(h.n, h.vertex_array())
        plain: list = []
        assert _plain_cover(index, index.full, tau - 1, plain) is None
        # count the calls of cover's recursion, the nested function ``rec``
        rec = next(c for c in EdgeIndex.cover.__code__.co_consts if getattr(c, "co_name", None) == "rec")
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is rec:
                calls += 1

        before = sys.getprofile()
        sys.setprofile(count)
        try:
            assert index.cover(index.full, tau - 1) is None
        finally:
            sys.setprofile(before)
        assert 0 < calls < len(plain)


class TestIndependence:
    def test_complete_five(self):
        value, witness = max_independent_set(complete_graph(5, 3))
        assert value == 2
        assert not any(set(e) <= witness for e in complete_graph(5, 3).edges)

    def test_cover_family(self):
        h = cover_family(9, 3, 2, w=(1, 2))
        value, witness = max_independent_set(h)
        assert value == 7
        assert witness == frozenset(range(3, 10))

    def test_empty_graph(self):
        assert max_independent_set(Hypergraph(6, 3, []))[0] == 6


@given(st.integers(2, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=9, k=k)))
@example(Hypergraph(6, 3, []))
@example(Hypergraph(9, 3, [(1, 2, 3), (1, 4, 5)]))  # vertices 6..9 isolated
@settings(max_examples=40, deadline=None)
def test_certified_lp_matches_the_simplex_oracle(h):
    rep = check_lp_duality(h, "rational")
    assert rep.matching.lp_path == rep.cover.lp_path == LP_CERTIFIED
    fm = fractional_matching(h, "rational")
    fc = fractional_cover(h, "rational")
    assert fm.lp_path == fc.lp_path == LP_CERTIFIED
    assert fm.value == fc.value == rep.nu_star == rep.tau_star
    assert fm.value == _matching_simplex(h).value
    assert fc.value == _cover_simplex(h).value
    for fa in (fm, fc, rep.matching, rep.cover):
        fa.validate(h)
        assert fa.value == sum(fa.weights)


def _halved_duals(monkeypatch):
    """Make the HiGHS solve return half its duals: still a feasible matching,
    but not an optimal one, so only the equal-sums check can reject it."""
    real = lp.highs_solve

    def fake(*args, **kwargs):
        status, x, duals, value, its = real(*args, **kwargs)
        return status, x, duals / 2, value, its

    monkeypatch.setattr(lp, "highs_solve", fake)


class TestLPPaths:
    def test_failed_certificate_falls_back_to_the_simplex(self, monkeypatch):
        h = complete_graph(5, 3)
        _halved_duals(monkeypatch)
        fm = fractional_matching(h, "rational")
        fc = fractional_cover(h, "rational")
        rep = check_lp_duality(h, "rational")
        assert fm.lp_path == fc.lp_path == rep.matching.lp_path == LP_SIMPLEX
        assert fm.lp_solves is fm.lp_rows is fc.lp_solves is fc.lp_rows is None
        assert fm.value == fc.value == rep.nu_star == Fraction(5, 3)
        fm.validate(h)
        fc.validate(h)

    def test_float_weightings_are_feasible_and_report_residuals(self):
        h = random_hypergraph(30, 3, 0.2, 3)
        rep = check_lp_duality(h, "float")
        exact = fractional_matching(h, "rational").value
        for fa in (rep.matching, rep.cover):
            assert fa.lp_path == LP_HIGHS
            fa.validate(h, tol=1e-9)
            assert fa.residual is not None and 0 <= fa.residual <= 1e-9
            assert abs(fa.value - float(exact)) <= 1e-9

    def test_simplex_formulations_run_the_simplex(self):
        h = complete_graph(5, 3)
        fm, fc = _matching_simplex(h), _cover_simplex(h)
        assert fm.lp_path == fc.lp_path == LP_SIMPLEX
        assert fm.value == fc.value == Fraction(5, 3)

    def test_float_duality_rejects_an_infeasible_weighting(self, monkeypatch):
        # both sides doubled: the sums still agree and the cover stays
        # feasible, but every vertex load is 2, so only the matching's
        # residual can reject the pair
        h = complete_graph(5, 3)
        real = lp.highs_solve

        def fake(*args, **kwargs):
            status, y, duals, value, its = real(*args, **kwargs)
            return status, 2 * y, 2 * duals, 2 * value, its

        monkeypatch.setattr(lp, "highs_solve", fake)
        with pytest.raises(DualityError):
            check_lp_duality(h, "float")

    @pytest.mark.parametrize("mode", ["exact", "Rational", "FLOAT", ""])
    def test_unknown_mode_is_refused(self, mode):
        h = complete_graph(5, 3)
        for solve in (fractional_matching, fractional_cover, check_lp_duality):
            with pytest.raises(ValueError, match="unknown LP mode"):
                solve(h, mode)


def _reference_accepts(h: Hypergraph, x: np.ndarray, y: np.ndarray) -> bool:
    """The certificate checked the slow way: every entry rounded to a
    ``Fraction``, both weightings validated edge by edge, and equal sums."""
    xq, yq = ([Fraction(w).limit_denominator(optimize.CERT_DENOMINATOR) for w in v.tolist()]
              for v in (x, y))
    try:
        FractionalAssignment("matching", xq, sum(xq, Fraction(0))).validate(h)
        FractionalAssignment("cover", yq, sum(yq, Fraction(0))).validate(h)
    except ValueError:
        return False
    return sum(xq, Fraction(0)) == sum(yq, Fraction(0))


def _fixed_rows(monkeypatch, y: np.ndarray, x: np.ndarray) -> None:
    """Make the HiGHS solve return the cover y and the matching x."""
    monkeypatch.setattr(optimize, "_cover_rows", lambda cols, n: (y, x, float(y.sum()), 1, len(x)))


class TestIntegerCertificate:
    """The rational pair is checked on integer numerators over one common
    denominator; it must accept exactly what ``validate`` and equal sums accept."""

    @given(
        st.integers(2, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=10, k=k, max_edges=30)),
        st.sampled_from(["none", "y_low", "y_moved", "x_over", "x_moved", "halved"]),
        st.randoms(use_true_random=False),
    )
    @example(complete_graph(5, 3), "halved", random.Random(0))
    @settings(max_examples=150, deadline=None)
    def test_accepts_exactly_what_validate_accepts(self, h, change, rnd):
        y, x, *_ = optimize._cover_rows(_lp_columns(h), h.n)
        y, x = y.copy(), x.copy()
        held = np.flatnonzero(y > 1e-9)
        if change == "y_low" and held.size:
            y[rnd.choice(held)] /= 2  # below its optimum: the sums differ
        elif change == "y_moved" and held.size:
            # half of a vertex's weight moves to another: the sums stay equal,
            # and the cover may or may not still cover every edge
            v, u = rnd.choice(held), rnd.randrange(h.n)
            y[u] += y[v] / 2
            y[v] /= 2
        elif change == "x_over" and h.e():
            # one edge's weight grows until a vertex of it carries 1.25
            i = rnd.randrange(h.e())
            load = np.bincount(_lp_columns(h).ravel(), weights=np.repeat(x, h.k), minlength=h.n)
            x[i] += 1.25 - max(load[v - 1] for v in h.edges[i])
        elif change == "x_moved" and x.any():
            # an edge's weight moves to another edge: a load may pass 1
            i, j = rnd.choice(np.flatnonzero(x).tolist()), rnd.randrange(h.e())
            x[j] += x[i]
            x[i] = 0.0
        elif change == "halved":
            x /= 2
        with pytest.MonkeyPatch.context() as mp:
            _fixed_rows(mp, y, x)
            pair = _highs_pair(h, "rational")
        assert (pair is not None) == _reference_accepts(h, x, y)
        if change == "none":
            assert pair is not None
        if pair is not None:
            fm, fc = pair
            assert fm.weights.tolist() == [
                Fraction(w).limit_denominator(optimize.CERT_DENOMINATOR) for w in x.tolist()]
            assert fc.weights.tolist() == [
                Fraction(w).limit_denominator(optimize.CERT_DENOMINATOR) for w in y.tolist()]
            assert fm.value == fc.value == sum(fc.weights, Fraction(0))

    @pytest.mark.parametrize("h, x, y", [
        # K5 at x = 1/6, plus a third of 123 - 124 - 135 + 145, which moves no
        # load: every load is still 1 and the sum 5/3, but two edges weigh -1/6
        (complete_graph(5, 3),
         [1 / 2, -1 / 6, 1 / 6, 1 / 6, -1 / 6, 1 / 2, 1 / 6, 1 / 6, 1 / 6, 1 / 6], [1 / 3] * 5),
        # both edges covered with sum 1, through a weight of -1 on vertex 4
        (Hypergraph(5, 3, [(1, 2, 3), (1, 4, 5)]), [1, 0], [1, 0, 0, -1, 1]),
        # vertex 1 carries 2
        (Hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)]), [2, 0], [1, 0, 0, 1, 0, 0]),
        # the edge 4 5 6 is covered only halfway
        (Hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)]), [1, 0.5], [1, 0, 0, 0.5, 0, 0]),
    ], ids=["x-negative", "y-negative", "load-above-1", "edge-short"])
    def test_each_condition_rejects_on_its_own(self, monkeypatch, h, x, y):
        # every other condition holds, and so do the equal sums
        x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        assert abs(x.sum() - y.sum()) < 1e-12
        assert not _reference_accepts(h, x, y)
        _fixed_rows(monkeypatch, y, x)
        assert _highs_pair(h, "rational") is None

    def test_a_huge_common_denominator_runs_the_check_on_python_ints(self, monkeypatch):
        # four disjoint edges, each covered by 1/p and 1 - 1/p for a prime p
        # near 10**6: the common denominator is about 10**24, past int64
        primes = (999983, 999979, 999961, 999959)
        h = Hypergraph(12, 3, [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)])
        y, x = np.zeros(12), np.ones(4)
        for i, p in enumerate(primes):
            y[3 * i], y[3 * i + 1] = 1 / p, 1 - 1 / p
        num, den = _over_common_denominator(np.concatenate([y, x]))
        assert num.dtype == object and den == math.prod(primes)
        _fixed_rows(monkeypatch, y, x)
        fm, fc = _highs_pair(h, "rational")
        assert fm.lp_path == fc.lp_path == LP_CERTIFIED
        assert fm.value == fc.value == 4
        assert fc.weights[:2].tolist() == [Fraction(1, primes[0]), Fraction(primes[0] - 1, primes[0])]
        # the first edge's cover sum falls to 1 - 1/p and its matching weight
        # with it, so only the edge sums can reject the pair
        y[1], x[0] = 1 - 2 / primes[0], 1 - 1 / primes[0]
        assert not _reference_accepts(h, x, y)
        assert _highs_pair(h, "rational") is None

    def test_small_numerators_stay_int64(self):
        num, den = _over_common_denominator(np.array([0.5, 1 / 3, 0.0, 1.0]))
        assert num.dtype == np.int64 and den == 6
        assert num.tolist() == [3, 2, 0, 6]

    @pytest.mark.parametrize("path", ["matching", "cover", "duality", "ceiling"])
    @pytest.mark.parametrize("side, bad", [(0, np.nan), (0, -np.inf), (1, np.inf), (1, np.nan)])
    def test_a_non_finite_entry_fails_the_certificate(self, monkeypatch, path, side, bad):
        # side 0 poisons the cover y, side 1 the matching x
        h = clique_family(5, 3, 1)
        real = optimize._cover_rows

        def poisoned(cols, n):
            got = list(real(cols, n))
            got[side] = got[side].copy()
            got[side][0] = bad
            return tuple(got)

        monkeypatch.setattr(optimize, "_cover_rows", poisoned)
        if path == "ceiling":
            assert _matching_ceiling(h) is None
            return
        if path == "duality":
            rep = check_lp_duality(h, "rational")
            fas = (rep.matching, rep.cover)
        else:
            fas = ((fractional_matching if path == "matching" else fractional_cover)(h, "rational"),)
        for fa in fas:
            assert fa.lp_path == LP_SIMPLEX
            assert fa.value == Fraction(5, 3)
            fa.validate(h)


def _odd_cliques() -> Hypergraph:
    """Disjoint K5, K7, ..., K15 on 60 vertices (1035 edges); nu* = 60/3."""
    edges, offset = [], 0
    for size in range(5, 16, 2):
        edges += [tuple(offset + v for v in e) for e in combinations(range(1, size + 1), 3)]
        offset += size
    return Hypergraph(offset, 3, edges)


def _hub_skewed() -> Hypergraph:
    """n 60: a triple whose least vertex is in 1..10 is kept with p .3, any
    other with p .01 (4619 edges); the degrees are far from uniform."""
    rng = random.Random(1)
    triples = combinations(range(1, 61), 3)
    return Hypergraph(60, 3, [e for e in triples if rng.random() < (0.3 if e[0] <= 10 else 0.01)])


def _all_rows_value(h: Hypergraph) -> float:
    """The cover LP's optimum from one HiGHS solve on every edge row."""
    status, _y, _duals, value, _its = lp.highs_solve(
        np.ones(h.n), _cover_csc(_lp_columns(h), h.n), np.full(h.e(), -np.inf),
        np.full(h.e(), -1.0),
    )
    assert status == lp.OPTIMAL
    return value


def _check_both_modes(h: Hypergraph, exact: Fraction) -> None:
    # float first: a cover that misses rows fails here at once, where rational
    # mode would fall back to a simplex that takes minutes at n 60
    rep = check_lp_duality(h, "float")
    assert rep.matching.lp_path == rep.cover.lp_path == LP_HIGHS
    assert abs(rep.nu_star - float(exact)) <= 1e-9 and abs(rep.tau_star - float(exact)) <= 1e-9
    for fa in (rep.matching, rep.cover):
        fa.validate(h, tol=1e-9)
        assert fa.lp_rows <= h.e()
    rep = check_lp_duality(h, "rational")
    assert rep.matching.lp_path == rep.cover.lp_path == LP_CERTIFIED
    assert rep.nu_star == rep.tau_star == exact


class TestRowGeneration:
    """The cover LP is solved on a growing subset of its edge rows; every
    result is still checked over all edges."""

    @pytest.mark.parametrize("h", [
        complete_graph(8, 3),
        cover_family(10, 3, 2),
        hilton_milner_family(10, 3, 2),
    ], ids=["K8", "cover-10", "hm-10"])
    def test_both_simplex_oracles_agree_when_rows_are_left_out(self, h):
        assert h.e() > 4 * h.n
        exact = _matching_simplex(h).value
        assert _cover_simplex(h).value == exact
        _check_both_modes(h, exact)

    @pytest.mark.parametrize("h", [
        cover_family(20, 3, 2),
        cover_family(30, 3, 3),
        hilton_milner_family(20, 3, 2),
        clique_family(20, 3, 4),
    ], ids=["cover-20", "cover-30", "hm-20", "clique-20"])
    def test_families_agree_with_the_matching_simplex(self, h):
        # the cover simplex takes 38 s on cover-20; by LP duality the
        # matching simplex's value is tau* too
        assert h.e() > 4 * h.n
        _check_both_modes(h, _matching_simplex(h).value)

    @pytest.mark.parametrize("h, solves", [
        (random_hypergraph(30, 3, 0.3, 1), 1),
        (_odd_cliques(), 3),
        (_hub_skewed(), 2),
    ], ids=["random-30", "odd-cliques-60", "hub-skewed-60"])
    def test_larger_graphs_agree_with_one_solve_on_every_row(self, h, solves):
        # the rational simplex takes minutes here: the reference is the
        # single solve on all rows, rounded (a certified pair is a proof)
        assert h.e() > 4 * h.n
        exact = Fraction(_all_rows_value(h)).limit_denominator(1000)
        _check_both_modes(h, exact)
        fm = fractional_matching(h, "float")
        assert fm.lp_solves == solves
        assert fm.lp_rows == 4 * h.n if solves == 1 else 4 * h.n < fm.lp_rows < h.e()

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_iterations_sum_over_the_solves(self, monkeypatch, mode):
        # odd-cliques-60 takes three solves (see above)
        h = _odd_cliques()
        real, its = lp.highs_solve, []

        def counting(*args):
            got = real(*args)
            its.append(got[4])
            return got

        monkeypatch.setattr(lp, "highs_solve", counting)
        fm, fc = _highs_pair(h, mode)
        assert len(its) == fm.lp_solves == 3
        assert fm.lp_iterations == fc.lp_iterations == sum(its) > 0

    def test_odd_cliques_value_is_a_third_of_n(self):
        # each K_s takes y = 1/3 on its vertices
        assert abs(fractional_cover(_odd_cliques(), "float").value - 20) <= 1e-9

    @pytest.mark.parametrize("h", [complete_graph(6, 3), random_hypergraph(20, 3, 0.05, 1)])
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_few_edges_take_one_solve_on_all_rows(self, monkeypatch, h, mode):
        assert h.e() <= 4 * h.n
        real = lp.highs_solve
        seen = []

        def counting(c, csc, row_lower, *bounds):
            seen.append(len(row_lower))
            return real(c, csc, row_lower, *bounds)

        monkeypatch.setattr(lp, "highs_solve", counting)
        fm = fractional_matching(h, mode)
        assert seen == [h.e()]
        assert (fm.lp_solves, fm.lp_rows) == (1, h.e())

    def test_third_weights_are_not_read_as_uncovered(self):
        # at y = 1/3 every edge sum reads 0.9999999999999999; without the
        # join tolerance nearly every row re-enters, over some 19 solves
        h = complete_graph(40, 3)
        rep = check_lp_duality(h, "float")
        assert rep.matching.residual <= 1e-9 and rep.cover.residual <= 1e-9
        assert rep.cover.lp_solves <= 2 and rep.cover.lp_rows < h.e()

    @given(
        st.integers(2, 9).flatmap(lambda k: hypergraphs(min_n=k, max_n=13, k=k, max_edges=60)),
        st.randoms(use_true_random=False),
    )
    @example(Hypergraph(12, 8, [range(1, 9), range(5, 13), range(2, 10)]), random.Random(0))
    @settings(max_examples=80, deadline=None)
    def test_rows_and_sums_are_scipys_bit_for_bit(self, h, rnd):
        # HiGHS's vertex depends on the form of the rows: each solve gets the
        # CSC scipy made of the CSR row slice, and the cover sums are the
        # CSR product's, also at k >= 8, where numpy's sum adds in another order
        cols = _lp_columns(h)
        m, k = cols.shape
        neg_at = sparse.csr_array(
            (np.full(m * k, -1.0), cols.ravel(), np.arange(0, m * k + 1, k)), shape=(m, h.n)
        )
        rows = np.array(sorted(rnd.sample(range(m), rnd.randint(0, m))), dtype=np.intp)
        want = sparse.csc_array(neg_at[rows])
        start, index, value = _cover_csc(cols[rows], h.n)
        assert start.dtype == index.dtype == np.int32 and value.dtype == np.float64
        assert start.tolist() == want.indptr.tolist()
        assert index.tolist() == want.indices.tolist()
        assert value.tobytes() == want.data.tobytes()
        y = np.array([rnd.random() for _ in range(h.n)]) / rnd.randint(1, 9)
        # equal as numbers: -(0 - 0) is -0.0 where the sum from the first is 0.0
        assert np.array_equal(_cover_sums(y, cols), -(neg_at @ y))


def _resized(weights, size):
    """The weight vector cut or padded (with its first entry) to ``size``."""
    w = list(weights)
    return w[:size] + w[:1] * (size - len(w))


class TestWeightVectors:
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_weightings_are_indexed_like_edges_and_vertices(self, mode):
        h = random_hypergraph(12, 3, 0.3, 1)
        rep = check_lp_duality(h, mode)
        assert len(rep.matching.weights) == h.e() and len(rep.cover.weights) == h.n
        for fa in (rep.matching, rep.cover):
            if mode == "float":
                assert isinstance(fa.weights, np.ndarray) and fa.weights.dtype == np.float64
            else:
                assert all(isinstance(w, Fraction) for w in fa.weights)
        # float matching weights are floored: solver noise reads exactly 0
        assert all(w == 0 or w > 1e-12 for w in rep.matching.weights)

    @pytest.mark.parametrize(
        "mode, path", [("float", LP_HIGHS), ("rational", LP_CERTIFIED), ("rational", LP_SIMPLEX)]
    )
    @pytest.mark.parametrize("h", [
        random_hypergraph(12, 3, 0.3, 1), complete_graph(6, 3), Hypergraph(5, 3, []),
    ], ids=["random", "K6", "empty"])
    def test_every_weighting_is_one_1d_array(self, monkeypatch, h, mode, path):
        # float64, or an object array holding only Fractions, of length e or n
        def one_vector(fa, size):
            w = fa.weights
            assert isinstance(w, np.ndarray) and w.shape == (size,)
            if fa.mode == "float":
                assert w.dtype == np.float64
            else:
                assert w.dtype == object and all(type(x) is Fraction for x in w.tolist())

        if path == LP_SIMPLEX:  # the exact check fails: both simplexes run, also on the empty graph
            monkeypatch.setattr(optimize, "_certified_numerators", lambda h: None)
        rep = check_lp_duality(h, mode)
        for fm, fc in [(fractional_matching(h, mode), fractional_cover(h, mode)),
                       (rep.matching, rep.cover)]:
            assert fm.lp_path == fc.lp_path == path and fm.mode == fc.mode == mode
            one_vector(fm, h.e())
            one_vector(fc, h.n)
        if mode == "float":  # the random graph and K6 both have one
            fpm = fractional_perfect_matching(h)
            assert (fpm is None) == (h.e() == 0)
            if fpm is not None:
                one_vector(fpm, h.e())

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_vector_of_the_wrong_length_is_refused(self, mode, delta):
        h = complete_graph(5, 3)
        rep = check_lp_duality(h, mode)
        fm, fc = rep.matching, rep.cover
        short_or_long = FractionalAssignment(
            "matching", _resized(fm.weights, h.e() + delta), fm.value, mode
        )
        with pytest.raises(ValueError, match=f"weights for {h.e()} edges"):
            short_or_long.validate(h)
        short_or_long = FractionalAssignment(
            "cover", _resized(fc.weights, h.n + delta), fc.value, mode
        )
        with pytest.raises(ValueError, match=f"weights for {h.n} vertices"):
            short_or_long.validate(h)


class TestNaNWeights:
    """NaN fails every comparison, so each feasibility test must be written to
    fail on it rather than pass."""

    def test_nan_matching_weight_is_refused(self):
        h = Hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)])
        with pytest.raises(ValueError, match="outside"):
            FractionalAssignment("matching", np.array([np.nan, 0.5]), 0.5, "float").validate(h)

    def test_nan_cover_weight_is_refused(self):
        h = Hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)])
        y = np.array([np.nan, 1.0, 1.0, 1.0, 1.0, 1.0])
        cover = FractionalAssignment("cover", y, 5.0, "float")
        with pytest.raises(ValueError, match="outside"):
            cover.validate(h)
        with pytest.raises(ValueError, match="outside"):
            threshold_cover_graph(h, cover)

    @pytest.mark.parametrize("status", [lp.INFEASIBLE, lp.UNBOUNDED, "solver error"])
    def test_a_highs_failure_fails_the_certificate(self, monkeypatch, status):
        # rational mode falls back to the simplex; float mode has no fallback
        def failing(c, a, row_lower, row_upper, col_upper=None):
            if status == "solver error":
                raise RuntimeError("LP solver failed: iteration limit reached")
            return status, None, None, None, 0

        monkeypatch.setattr(lp, "highs_solve", failing)
        h = complete_graph(5, 3)
        assert _highs_pair(h, "rational") is None
        rep = check_lp_duality(h, "rational")
        for fa in (fractional_matching(h), fractional_cover(h), rep.matching, rep.cover):
            assert fa.lp_path == LP_SIMPLEX
            assert fa.value == Fraction(5, 3)
            fa.validate(h)
        with pytest.raises(RuntimeError):
            _highs_pair(h, "float")

    def test_nan_cover_residual_fails_the_duality_check(self, monkeypatch):
        # HiGHS's value is kept, so the two optima still agree and only the
        # cover's residual can reject the pair
        h = complete_graph(5, 3)
        real = optimize._cover_rows

        def poisoned(cols, n):
            y, *rest = real(cols, n)
            y = y.copy()
            y[0] = np.nan
            return (y, *rest)

        monkeypatch.setattr(optimize, "_cover_rows", poisoned)
        fc = fractional_cover(h, "float")
        assert np.isnan(fc.residual)
        assert abs(fc.value - 5 / 3) <= 1e-9
        with pytest.raises(DualityError):
            check_lp_duality(h, "float")


class TestFractional:
    def test_matching_k4(self):
        fa = fractional_matching(complete_graph(4, 3), "rational")
        assert fa.value == Fraction(4, 3)
        fa.validate(complete_graph(4, 3))

    def test_matching_single_edge(self):
        h = Hypergraph(3, 3, [(1, 2, 3)])
        assert fractional_matching(h, "rational").value == 1

    def test_matching_empty(self):
        assert fractional_matching(Hypergraph(4, 3, []), "rational").value == 0

    def test_cover_k4(self):
        fa = fractional_cover(complete_graph(4, 3), "rational")
        assert fa.value == Fraction(4, 3)
        fa.validate(complete_graph(4, 3))

    def test_cover_single_edge(self):
        h = Hypergraph(4, 3, [(1, 2, 3)])
        fa = fractional_cover(h, "rational")
        assert fa.value == 1

    def test_cover_empty(self):
        assert fractional_cover(Hypergraph(4, 3, []), "rational").value == 0

    def test_float_mode_close(self):
        h = complete_graph(4, 3)
        fm = fractional_matching(h, "float")
        assert abs(fm.value - 4 / 3) < 1e-9
        assert fm.residual is not None and fm.residual < 1e-9

    def test_duality_examples(self):
        assert check_lp_duality(Hypergraph(5, 3, []), "rational").nu_star == 0
        rep = check_lp_duality(complete_graph(4, 3), "rational")
        assert rep.nu_star == Fraction(4, 3) and rep.gap == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_duality_and_sandwich(self, seed):
        h = seeded_graph(seed, n_lo=4, n_hi=8)
        rep = check_lp_duality(h, "rational")
        nu = max_matching(h)[0]
        tau = min_vertex_cover(h)[0]
        assert nu <= rep.nu_star <= tau <= h.k * nu

    @pytest.mark.parametrize("seed", [2, 5, 9])
    def test_duality_float(self, seed):
        h = seeded_graph(seed, n_lo=8, n_hi=12)
        rep = check_lp_duality(h, "float")
        assert abs(rep.gap) <= 1e-9

    @pytest.mark.parametrize("n,p,seed", [(20, 0.2, 0), (25, 0.15, 1), (30, 0.1, 2)])
    def test_duality_float_dense(self, n, p, seed):
        from hypermatch.core import random_hypergraph

        h = random_hypergraph(n, 3, p, seed)
        rep = check_lp_duality(h, "float")
        assert abs(rep.gap) <= 1e-9
        assert max_matching(h)[0] <= rep.nu_star + 1e-9


class TestFractionalPerfectMatching:
    def test_complete_six(self):
        h = complete_graph(6, 3)
        fa = fractional_perfect_matching(h)
        assert fa is not None and fa.value == 2
        sums = {v: 0.0 for v in h.vertices()}
        for e, w in zip(h.edges, fa.weights):
            for v in e:
                sums[v] += w
        assert all(abs(s - 1) < 1e-9 for s in sums.values())

    def test_isolated_vertex_infeasible(self):
        h = Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6)])  # vertex 7 uncoverable
        assert fractional_perfect_matching(h) is None

    def test_nonmultiple_n_still_possible(self):
        # complete graph on 4 vertices: uniform 1/3 weights are tight everywhere
        h = complete_graph(4, 3)
        fa = fractional_perfect_matching(h)
        assert fa is not None and abs(fa.value - 4 / 3) < 1e-12
        fa.validate(h)

    def test_objective_vector_picks_the_weighted_edges(self):
        h = complete_graph(6, 3)
        objective = np.zeros(h.e())
        objective[[h.edges.index((1, 2, 3)), h.edges.index((4, 5, 6))]] = 1.0
        fa = fractional_perfect_matching(h, objective=objective)
        assert {e for e, w in zip(h.edges, fa.weights) if w} == {(1, 2, 3), (4, 5, 6)}
        assert all(abs(w - 1) < 1e-9 for w in fa.weights if w)

    @pytest.mark.parametrize("size", [0, 19, 21])
    def test_objective_of_the_wrong_length_is_refused(self, size):
        with pytest.raises(ValueError, match="objective has shape"):
            fractional_perfect_matching(complete_graph(6, 3), objective=np.zeros(size))

    @pytest.mark.parametrize(
        "h", [complete_graph(6, 3), random_hypergraph(12, 3, 0.5, 2), Hypergraph(7, 3, [(1, 2, 3)])]
    )
    def test_dense_rows_keep_the_shape_the_tracer_counts(self, monkeypatch, h):
        # perfbench's tracer counts linprog_float's cells as len(a) * len(a[0])
        real, seen = lp.linprog_float, []

        def spy(*args, **kwargs):
            seen.append(kwargs["a_eq"])
            return real(*args, **kwargs)

        monkeypatch.setattr(lp, "linprog_float", spy)
        fractional_perfect_matching(h)
        (a,) = seen
        reference = [[1.0 if v in e else 0.0 for e in h.edges] for v in h.vertices()]
        assert isinstance(a, np.ndarray) and a.shape == (h.n, h.e())
        assert np.array_equal(a, np.array(reference))
        assert len(a) * len(a[0]) == h.n * h.e()


class TestRainbowMatching:
    def test_empty_anchor_set(self):
        assert greedy_rainbow_matching(complete_graph(6, 3), set()).size == 0

    def test_cover_family_exact(self):
        h = cover_family(9, 3, 2, w=(1, 2))
        m = greedy_rainbow_matching(h, {1, 2}, exact=True)
        assert m.size == 2
        m.validate(h)
        assert all(len({1, 2} & set(e)) == 1 for e in m.edges)

    def test_edge_meeting_twice_unusable(self):
        h = Hypergraph(3, 3, [(1, 2, 3)])
        assert greedy_rainbow_matching(h, {1, 2}).size == 0

    def test_exact_matches_brute_force(self):
        for seed in range(10):
            h = seeded_graph(seed, n_lo=5, n_hi=8)
            anchors = {1, 2, 3}
            rainbow = [e for e in h.edges if len(anchors & set(e)) == 1]
            best = 0  # brute force over all rainbow subsets
            for size in range(len(rainbow), 0, -1):
                if best:
                    break
                for combo in combinations(rainbow, size):
                    used = set()
                    ok = True
                    for e in combo:
                        if used & set(e):
                            ok = False
                            break
                        used.update(e)
                    if ok:
                        best = size
                        break
            exact = greedy_rainbow_matching(h, anchors, exact=True).size
            greedy = greedy_rainbow_matching(h, anchors).size
            assert exact == best
            assert greedy <= exact


class TestThresholdCoverGraph:
    def test_all_ones_gives_complete(self):
        h = Hypergraph(5, 3, [(1, 2, 3)])
        from hypermatch.optimize import FractionalAssignment

        omega = FractionalAssignment(
            "cover", [Fraction(1)] * h.n, Fraction(5)
        )
        out, _ = threshold_cover_graph(h, omega)
        assert out == complete_graph(5, 3)

    def test_zero_cover_only_for_empty(self):
        h = Hypergraph(4, 3, [])
        from hypermatch.optimize import FractionalAssignment

        omega = FractionalAssignment("cover", [Fraction(0)] * h.n, Fraction(0))
        out, _ = threshold_cover_graph(h, omega)
        assert out.e() == 0

    def test_k4_optimal_cover_fixed_point(self):
        h = complete_graph(4, 3)
        omega = fractional_cover(h, "rational")
        out, _ = threshold_cover_graph(h, omega)
        assert out == h
        assert fractional_matching(out, "rational").value == Fraction(4, 3)

    def test_invalid_cover_rejected(self):
        h = complete_graph(4, 3)
        from hypermatch.optimize import FractionalAssignment

        bad = FractionalAssignment("cover", [Fraction(0)] * h.n, Fraction(0))
        with pytest.raises(ValueError):
            threshold_cover_graph(h, bad)

    def test_missing_images_are_found_by_one_lookup(self, monkeypatch):
        h = random_hypergraph(12, 3, 0.5, 3)
        omega = fractional_cover(h, "float")
        real, calls = Hypergraph.has_edges, []

        def counting(self, es):
            calls.append(self)
            return real(self, es)

        monkeypatch.setattr(Hypergraph, "has_edges", counting)
        out, relabel = threshold_cover_graph(h, omega)
        assert len(calls) == 1
        assert all(tuple(sorted(relabel[v] for v in e)) in out.edge_set for e in h.edges)

    def test_the_first_edge_below_the_threshold_is_named(self, monkeypatch):
        # the cover check would refuse this cover first; skip it to reach the lookup
        monkeypatch.setattr(FractionalAssignment, "validate", lambda self, h, tol=1e-9: None)
        h = Hypergraph(5, 3, [(1, 2, 3), (2, 4, 5), (3, 4, 5)])
        omega = FractionalAssignment("cover", np.array([1.0, 0, 0, 0, 0]), 1.0, "float")
        with pytest.raises(ValueError, match=r"edge \(2, 4, 5\) fell below the threshold"):
            threshold_cover_graph(h, omega)

    @pytest.mark.parametrize("size", [4, 6])
    def test_cover_of_the_wrong_length_is_refused(self, size):
        h = complete_graph(5, 3)
        omega = FractionalAssignment("cover", [Fraction(1)] * size, Fraction(size))
        with pytest.raises(ValueError, match="weights for 5 vertices"):
            threshold_cover_graph(h, omega)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_a_plain_list_of_weights_is_accepted(self, mode):
        # a hand-built cover need not be an array: the same graph comes back
        h = seeded_graph(3, n_lo=6, n_hi=8)
        omega = fractional_cover(h, mode)
        listed = FractionalAssignment("cover", omega.weights.tolist(), omega.value, mode)
        assert type(listed.weights) is list
        assert threshold_cover_graph(h, listed) == threshold_cover_graph(h, omega)
        third = FractionalAssignment("cover", [Fraction(1, 3)] * 6, Fraction(2), mode)
        out, relabel = threshold_cover_graph(Hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)]), third)
        assert out == complete_graph(6, 3) and relabel == {v: v for v in range(1, 7)}

    @pytest.mark.parametrize("seed", range(10))
    def test_preserves_fractional_optimum(self, seed):
        from hypermatch.shifting import is_stable

        h = seeded_graph(seed, n_lo=4, n_hi=7)
        omega = fractional_cover(h, "rational")
        out, relabel = threshold_cover_graph(h, omega)
        # the input rides along
        for e in h.edges:
            assert tuple(sorted(relabel[v] for v in e)) in out
        # the cover transfers and the optimum is unchanged
        w_new = {relabel[v]: omega.weights[v - 1] for v in h.vertices()}
        for e in out.edges:
            assert sum(w_new[v] for v in e) >= 1
        assert fractional_matching(out, "rational").value == fractional_matching(
            h, "rational"
        ).value
        assert is_stable(out)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=9, k=k)),
           st.sampled_from(["float", "rational"]))
    def test_equals_the_per_k_set_sum(self, h, mode):
        # the definition: relabel by nonincreasing weight, then keep each
        # k-set whose weights, summed by sum() in vertex order, reach the floor
        omega = fractional_cover(h, mode)
        w = omega.weights
        order = sorted(h.vertices(), key=lambda v: (-w[v - 1], v))
        w_new = [w[v - 1] for v in order]
        floor = 1 if mode == "rational" else 1 - 1e-9
        want = [e for e in combinations(range(1, h.n + 1), h.k)
                if sum(w_new[v - 1] for v in e) >= floor]
        out, relabel = threshold_cover_graph(h, omega)
        assert out.edges == tuple(want)
        assert relabel == {v: i + 1 for i, v in enumerate(order)}
