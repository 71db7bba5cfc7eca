import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermatch import stability
from hypermatch.constructions import (
    bound_report,
    clique_count,
    clique_family,
    cover_family,
    hilton_milner_family,
    prefix_overlap_count,
)
from hypermatch.core import BudgetExceeded, Hypergraph, complete_graph, edge_mask, random_hypergraph
from hypermatch.stability import (
    EXHAUSTIVE_GUARD_N,
    bound_table,
    clique_overtakes_at,
    closeness_to_clique,
    closeness_to_cover,
    crossover_gap,
    crossover_gap_derivative,
    crossover_root,
    crossover_root_closed_form,
    goodness_partition,
    missing_edges,
)

from conftest import seeded_graph
from strategies import graph_pairs_subgraph, hypergraphs


class TestMissingEdges:
    def test_identity(self):
        h = complete_graph(5, 3)
        assert missing_edges(h, h) == 0

    def test_empty_vs_target(self):
        target = cover_family(7, 3, 2)
        assert missing_edges(Hypergraph(7, 3, []), target) == target.e()

    def test_hilton_milner_vs_cover(self):
        h = hilton_milner_family(10, 3, 2)
        target = cover_family(10, 3, 2)
        # enumeration oracle: target edges absent from h, counted directly
        absent = [e for e in target.edges if e not in h]
        assert missing_edges(h, target) == len(absent) == 10
        # flipping the roles leaves only the block
        assert missing_edges(target, h) == 1

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            missing_edges(complete_graph(5, 3), complete_graph(6, 3))

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone(self, seed):
        h = seeded_graph(seed, n_lo=5, n_hi=7)
        target = complete_graph(h.n, 3)
        base = missing_edges(h, target)
        if h.e():
            smaller, _ = h.delete_edges([h.edges[0]])
            assert missing_edges(smaller, target) >= base
            shrunk_target, _ = target.delete_edges([target.edges[-1]])
            assert missing_edges(h, shrunk_target) <= base


class TestClosenessCover:
    def test_exact_family_is_close(self):
        h = cover_family(9, 3, 2)
        rep = closeness_to_cover(h, 2, "heuristic")
        assert rep.missing_edges == 0
        assert rep.epsilon_effective == 0

    def test_hilton_milner(self):
        h = hilton_milner_family(10, 3, 2)
        heur = closeness_to_cover(h, 2, "heuristic")
        exact = closeness_to_cover(h, 2, "exhaustive")
        assert heur.partition == (1, 2)  # the two highest degrees
        assert exact.missing_edges == 10  # oracle value from the set difference
        assert heur.missing_edges >= exact.missing_edges
        assert exact.exhaustive and not heur.exhaustive
        # 3, 5, 6, 7 tie at degree 2, 8 has degree 1 and 1, 2, 4 are isolated:
        # placements rank by (-degree, label), so each tie goes low first
        tied = Hypergraph(8, 3, [(3, 5, 7), (3, 6, 8), (5, 6, 7)])
        assert closeness_to_cover(tied, 2, "heuristic").partition == (3, 5)
        assert closeness_to_cover(tied, 6, "heuristic").partition == (1, 3, 5, 6, 7, 8)

    @pytest.mark.parametrize("seed", range(6))
    def test_heuristic_never_beats_exhaustive(self, seed):
        h = seeded_graph(seed, n_lo=6, n_hi=8)
        s = 2
        heur = closeness_to_cover(h, s, "heuristic")
        exact = closeness_to_cover(h, s, "exhaustive")
        assert exact.missing_edges <= heur.missing_edges

    def test_guard(self):
        with pytest.raises(BudgetExceeded):
            closeness_to_cover(Hypergraph(17, 3, []), 2, "exhaustive")


class TestClosenessClique:
    def test_exact_family(self):
        h = clique_family(10, 3, 2)
        assert closeness_to_clique(h, 2, "heuristic").missing_edges == 0

    def test_empty_graph(self):
        h = Hypergraph(10, 3, [])
        rep = closeness_to_clique(h, 2, "heuristic")
        assert rep.missing_edges == clique_count(3, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_heuristic_never_beats_exhaustive(self, seed):
        h = seeded_graph(seed, n_lo=8, n_hi=8)
        heur = closeness_to_clique(h, 2, "heuristic")
        exact = closeness_to_clique(h, 2, "exhaustive")
        assert exact.missing_edges <= heur.missing_edges


def _brute_force_closest(h, target, s):
    """The lex-first placement with the fewest missing edges, and that count,
    from the missing edges of the whole family at every placement."""
    if target == "cover":
        size, family = s, cover_family
    else:
        size, family = h.k * (s + 1) - 1, clique_family
    return min(
        (missing_edges(h, family(h.n, h.k, s, p)), p)
        for p in combinations(range(1, h.n + 1), size)
    )


class TestExhaustiveOracle:
    """The subset-count table gives the brute force's count and its lex-first placement."""

    @given(hypergraphs(max_n=9), st.sampled_from(["cover", "clique"]), st.data())
    @example(Hypergraph(9, 3, []), "cover", None)
    @example(Hypergraph(9, 3, []), "clique", None)
    @example(complete_graph(8, 3), "cover", None)
    @settings(max_examples=120, deadline=None)
    def test_matches_the_brute_force(self, h, target, data):
        top = h.n if target == "cover" else (h.n + 1) // h.k - 1
        for s in range(top + 1) if data is None else [data.draw(st.integers(0, top))]:
            closeness = closeness_to_cover if target == "cover" else closeness_to_clique
            rep = closeness(h, s, "exhaustive")
            miss, placement = _brute_force_closest(h, target, s)
            assert (rep.missing_edges, rep.partition) == (miss, placement)
            assert rep.exhaustive and rep.epsilon_effective == miss / h.n**h.k

    def test_exhaustive_counts_no_single_placement(self, monkeypatch):
        def refuse(h, placement):
            raise AssertionError("a per-placement count ran")

        monkeypatch.setattr(stability, "_inside", refuse)
        h = hilton_milner_family(12, 3, 3)
        for target, closeness in (("cover", closeness_to_cover), ("clique", closeness_to_clique)):
            rep = closeness(h, 3, "exhaustive")
            assert (rep.missing_edges, rep.partition) == _brute_force_closest(h, target, 3)

    @given(hypergraphs(max_n=9), st.sampled_from(["cover", "clique"]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_heuristic_counts_the_placed_family(self, h, target, data):
        top = h.n if target == "cover" else (h.n + 1) // h.k - 1
        s = data.draw(st.integers(0, top))
        if target == "cover":
            rep = closeness_to_cover(h, s, "heuristic")
            placed = cover_family(h.n, h.k, s, w=rep.partition)
        else:
            rep = closeness_to_clique(h, s, "heuristic")
            placed = clique_family(h.n, h.k, s, u=rep.partition)
        assert rep.missing_edges == missing_edges(h, placed)
        assert type(rep.missing_edges) is int

    @pytest.mark.parametrize("target", ["cover", "clique"])
    def test_guard(self, target):
        closeness = closeness_to_cover if target == "cover" else closeness_to_clique
        assert closeness(complete_graph(16, 3), 3, "exhaustive").missing_edges == 0
        with pytest.raises(BudgetExceeded):
            closeness(Hypergraph(17, 3, []), 3, "exhaustive")


class TestVertexArrayKernels:
    """Degrees, inside counts and the subset-count table read the vertex
    array; the tuple definitions here are their reference."""

    @given(st.integers(2, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=8, k=k)))
    @example(Hypergraph(7, 3, []))  # m = 0: the array has shape (0, 3)
    @example(Hypergraph(9, 3, [(1, 2, 3), (4, 5, 6)]))  # isolated vertices, every degree tied
    @example(complete_graph(6, 3))
    @settings(max_examples=60, deadline=None)
    def test_match_the_tuple_definitions(self, h):
        born = Hypergraph(h.n, h.k, h.vertex_array())
        deg = Counter(chain.from_iterable(h.edges))
        ranked = sorted(h.vertices(), key=lambda v: (-deg[v], v))
        for count in range(h.n + 1):
            assert stability._top_degree_vertices(born, count) == tuple(sorted(ranked[:count]))
        f = stability._subset_counts(born)
        masks = [edge_mask(e) for e in h.edges]
        for mask in range(1 << h.n):
            vertices = {v for v in h.vertices() if mask >> (v - 1) & 1}
            inside = sum(1 for e in h.edges if vertices.issuperset(e))
            assert stability._inside(born, vertices) == inside
            assert f[mask] == inside == sum(1 for em in masks if em | mask == mask)
        assert born._edges is None


def _zeta_reference(h):
    """f[S] = the edges inside S: a 1 at each edge's mask, then one in-place
    pass per vertex bit over the whole table, in int64."""
    f = np.zeros(1 << h.n, dtype=np.int64)
    f[[edge_mask(e) for e in h.edges]] = 1
    for b in range(h.n):
        pairs = f.reshape(-1, 2, 1 << b)
        pairs[:, 1] += pairs[:, 0]
    return f


class TestSubsetCounts:
    """The two-block int16 table against the one-pass-per-bit transform."""

    @pytest.mark.parametrize("n", range(2, EXHAUSTIVE_GUARD_N + 1))
    def test_equals_the_one_pass_per_bit_transform(self, n):
        graphs = [Hypergraph(n, 2, [])]
        for k in range(2, min(n, 4) + 1):
            graphs.append(complete_graph(n, k))
            graphs += [random_hypergraph(n, k, p, seed=n) for p in (0.1, 0.5)]
        for h in graphs:
            f = stability._subset_counts(h)
            assert f.shape == (1 << n,)
            assert np.array_equal(f, _zeta_reference(h))

    def test_dtype_holds_the_largest_count_at_the_guard(self):
        # no set holds more k-sets than C(n, n // 2), reached by K_16^8 on all 16 vertices
        f = stability._subset_counts(complete_graph(16, 8))
        assert f[-1] == math.comb(16, 8) == 12870
        assert np.iinfo(f.dtype).max >= math.comb(EXHAUSTIVE_GUARD_N, EXHAUSTIVE_GUARD_N // 2)

    def test_refuses_past_the_guard(self):
        with pytest.raises(BudgetExceeded):
            stability._subset_counts(Hypergraph(EXHAUSTIVE_GUARD_N + 1, 3, []))

    @pytest.mark.parametrize("n", [3, 8, 11, 16])
    def test_ties_on_the_complement_side_go_to_the_lex_first(self, n):
        # every placement ties on the empty graph, and sizes past n / 2 are
        # listed as complements
        empty = Hypergraph(n, 3, [])
        for s in range(n + 1):
            assert closeness_to_cover(empty, s, "exhaustive").partition == tuple(range(1, s + 1))
        for s in range((n + 1) // 3):
            size = 3 * (s + 1) - 1
            assert closeness_to_clique(empty, s, "exhaustive").partition == tuple(range(1, size + 1))
        full = complete_graph(n, 3)
        for s, want in ((0, ()), (n, tuple(range(1, n + 1)))):
            rep = closeness_to_cover(full, s, "exhaustive")
            assert (rep.partition, rep.missing_edges) == (want, 0)


class TestGoodness:
    def test_identical_all_good(self):
        h = complete_graph(6, 3)
        rep = goodness_partition(h, h, 0.0)
        assert rep.bad == frozenset()

    def test_empty_vs_complete_all_bad(self):
        h = Hypergraph(6, 3, [])
        rep = goodness_partition(h, complete_graph(6, 3), 0.0)
        assert rep.good == frozenset()
        assert all(d == math.comb(5, 2) for d in rep.deficiency.values())

    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_subgraph())
    def test_deficiency_totals(self, pair):
        h, target = pair
        rep = goodness_partition(h, target, 0.1)
        assert sum(rep.deficiency.values()) == h.k * missing_edges(h, target)

    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_subgraph())
    def test_bad_count_bound(self, pair):
        h, target = pair
        theta = 0.05
        rep = goodness_partition(h, target, theta)
        cut = theta * h.n ** (h.k - 1)
        assert len(rep.bad) <= h.k * missing_edges(h, target) / cut


class TestCrossover:
    def test_value_at_five_eighteenths(self):
        # exact arithmetic: (1 - (13/18)^3)/6 - (9/2)(5/18)^3 = 260/34992
        exact = Fraction(260, 34992)
        assert exact > Fraction(7, 1000)
        assert abs(crossover_gap(5 / 18) - float(exact)) < 1e-12
        assert crossover_gap(5 / 18) > 0.007

    def test_zero_at_origin(self):
        assert crossover_gap(0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            crossover_gap(0.4)
        with pytest.raises(ValueError):
            crossover_gap_derivative(-0.1)

    def test_derivative_matches_finite_differences(self):
        hstep = 1e-5
        for x in [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]:
            central = (crossover_gap(x + hstep) - crossover_gap(x - hstep)) / (
                2 * hstep
            )
            assert abs(central - crossover_gap_derivative(x)) < 1e-8

    def test_root_against_closed_form(self):
        root = crossover_root()
        assert abs(root - crossover_root_closed_form()) < 1e-10
        # bisection oracle from scratch, fresh interval
        lo, hi = 0.25, 0.30
        for _ in range(60):
            mid = (lo + hi) / 2
            if crossover_gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(root - (lo + hi) / 2) < 1e-10

    def test_root_location_and_slope(self):
        root = crossover_root()
        assert 5 / 18 < root < 13 / 45
        assert crossover_gap_derivative(root) < 0


class TestBoundTable:
    def test_tie_at_six_one(self):
        row = bound_table(6)[0]
        assert row.s == 1 and row.hm_bound == row.clique_bound == 10

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_rows_carry_the_paper_maximum_and_every_family_at_it(self, k):
        for n in range(2 * k - 1, 46):
            table = bound_table(n, k)
            assert table == [bound_report(n, k, s) for s in range(1, (n - k + 1) // k + 1)]
            for row in table:
                counts = [("hm", row.hm_bound), ("clique", row.clique_bound),
                          *((f"a{i}", prefix_overlap_count(n, k, row.s, i)) for i in range(2, k))]
                top = max(c for _, c in counts)
                assert row.max_nontrivial == top
                assert row.argmax.split(",") == [f for f, c in counts if c == top]

    @pytest.mark.parametrize("k, n, s, top", [
        # A_2 alone is the maximum; its core has 2s + 1 vertices, and an edge
        # takes two of them or more: C(2s+1, 2)(n-2s-1) + C(2s+1, 3) at k 3
        (3, 10, 2, 10 * 5 + 10), (3, 11, 2, 10 * 6 + 10), (3, 14, 3, 21 * 7 + 35),
        (3, 17, 4, 36 * 8 + 84),
        # C(5, 2)C(8, 2) + C(5, 3)C(8, 1) + C(5, 4) at k 4
        (4, 13, 2, 10 * 28 + 10 * 8 + 5),
    ])
    def test_a2_alone_is_the_maximum(self, k, n, s, top):
        row = bound_table(n, k)[s - 1]  # the rows run over s = 1, 2, ...
        assert row.s == s
        assert row.argmax == "a2" and row.a_bounds[0] == row.max_nontrivial == top
        assert row.hm_bound < top and row.clique_bound < top

    def test_hm_and_a2_tie(self):
        # both are 3n - 8 at s 1, and both 80 at (12, 3, 2)
        for n in range(7, 60):
            row = bound_table(n)[0]
            assert row.argmax == "hm,a2" and row.hm_bound == row.a_bounds[0] == 3 * n - 8
        row = bound_table(12, 3)[1]
        assert row.s == 2
        assert row.argmax == "hm,a2" and row.max_nontrivial == 80

    def test_overtake_scan_oracle(self):
        n = 100
        # direct integer scan, bypassing the table helper
        expect = None
        for s in range(1, (n - 2) // 3 + 1):
            hm = math.comb(n, 3) - math.comb(n - s, 3) - math.comb(n - s - 3, 2) + 1
            cl = math.comb(3 * s + 2, 3)
            if cl > hm:
                expect = s
                break
        assert clique_overtakes_at(n) == expect is not None

    def test_overtake_equals_the_table_scan(self):
        # the first overtake or None, and the table's refusals (k 1) alike
        def outcome(call):
            try:
                return call()
            except ValueError as exc:
                return str(exc)

        for k, top in ((1, 20), (2, 60), (3, 300), (4, 151), (5, 151)):
            for n in range(top):
                scan = lambda: next(
                    (r.s for r in bound_table(n, k) if r.clique_bound > r.hm_bound), None)
                assert outcome(lambda: clique_overtakes_at(n, k)) == outcome(scan), (n, k)

    def test_overtake_holds_no_table(self):
        # the table at n 200 000 has 66 666 rows; the scan stops at s 57 371
        tracemalloc.start()
        try:
            assert clique_overtakes_at(200_000) == 57371
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_clique_dominates_at_full_core(self):
        n = 14
        s = (n - 2) // 3  # 3s + 2 == n
        row = [r for r in bound_table(n) if r.s == s][0]
        assert row.clique_bound == math.comb(n, 3)
        assert row.clique_bound >= row.hm_bound
        assert row.clique_bound >= row.cover_bound

    def test_sign_agreement_large_n(self):
        n = 2000
        root = crossover_root_closed_form()
        for sx in [x / 100 for x in range(2, 29, 2)]:
            if abs(sx - root) < 0.002:
                continue
            s = round(sx * n)
            hm = math.comb(n, 3) - math.comb(n - s, 3) - math.comb(n - s - 3, 2) + 1
            cl = math.comb(3 * s + 2, 3)
            gap = crossover_gap(s / n)
            assert (hm > cl) == (gap > 0)
