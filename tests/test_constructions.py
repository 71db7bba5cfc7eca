import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import constructions
from hypermatch.constructions import (
    augment_universal,
    bound_report,
    clique_count,
    clique_family,
    cover_count,
    cover_family,
    hilton_milner_family,
    hm_count,
    prefix_overlap_count,
    prefix_overlap_family,
)
from hypermatch.core import Hypergraph, complete_graph, k_sets, random_hypergraph
from hypermatch.optimize import max_matching, min_vertex_cover


class TestCoverFamily:
    def test_count_9_3_2(self):
        h = cover_family(9, 3, 2, w=(1, 2))
        # enumeration oracle: 3-sets meeting {1,2}
        expect = sum(1 for e in combinations(range(1, 10), 3) if {1, 2} & set(e))
        assert h.e() == expect == 84 - 35

    def test_empty_w(self):
        assert cover_family(6, 3, 0).e() == 0

    def test_full_w_is_complete(self):
        h = cover_family(6, 3, 6)
        assert h.e() == math.comb(6, 3)

    def test_wrong_w_size(self):
        with pytest.raises(ValueError):
            cover_family(6, 3, 2, w=(1, 2, 3))

    def test_matching_and_cover_numbers(self):
        # with n >= ks both invariants are exactly s
        for n, s in [(9, 2), (7, 2), (9, 3)]:
            h = cover_family(n, 3, s)
            assert max_matching(h)[0] == s
            assert min_vertex_cover(h)[0] == s


class TestCliqueFamily:
    def test_count(self):
        h = clique_family(10, 3, 2, u=tuple(range(1, 9)))
        assert h.e() == math.comb(8, 3) == 56

    def test_single_edge(self):
        # |U| = k happens at s = 1/k... the smallest legal profile is s=0
        h = clique_family(5, 3, 0)
        assert h.e() == math.comb(2, 3) == 0

    def test_matching_number_is_s(self):
        for k, s, n in [(3, 1, 6), (3, 2, 9), (2, 2, 6)]:
            h = clique_family(n, k, s)
            assert max_matching(h)[0] == s  # pigeonhole on k(s+1)-1 vertices

    def test_wrong_u(self):
        with pytest.raises(ValueError):
            clique_family(10, 3, 2, u=tuple(range(1, 8)))
        with pytest.raises(ValueError):
            clique_family(7, 3, 2)  # needs 8 vertices


class TestHiltonMilnerFamily:
    def test_count_10_3_2(self):
        h = hilton_milner_family(10, 3, 2)
        assert h.e() == hm_count(10, 3, 2) == 120 - 56 - 10 + 1 == 55

    def test_parts_enumeration(self):
        h = hilton_milner_family(10, 3, 2)
        meets_head = [e for e in h.edges if 1 in e]
        block = [e for e in h.edges if e == (3, 4, 5)]
        through_s = [
            e for e in h.edges if 1 not in e and 2 in e and {3, 4, 5} & set(e)
        ]
        assert len(meets_head) == 36
        assert len(through_s) == 18
        assert len(block) == 1
        assert len(meets_head) + len(through_s) + len(block) == h.e()

    def test_invariants_10_3_2(self):
        h = hilton_milner_family(10, 3, 2)
        assert max_matching(h)[0] == 2
        assert min_vertex_cover(h)[0] == 3

    def test_s_equals_one(self):
        # single-anchor case: every edge holds vertex 1 and meets {2,3,4},
        # plus the block itself
        h = hilton_milner_family(7, 3, 1)
        expect = [(2, 3, 4)]
        for e in combinations(range(1, 8), 3):
            if 1 in e and {2, 3, 4} & set(e) and e != (2, 3, 4):
                expect.append(e)
        assert sorted(expect) == list(h.edges)
        assert h.e() == math.comb(6, 2) - math.comb(3, 2) + 1 == 13
        assert h.e() == hm_count(7, 3, 1)

    def test_too_small_n(self):
        with pytest.raises(ValueError):
            hilton_milner_family(4, 3, 2)

    def test_relation_to_cover_family(self):
        n, k, s = 10, 3, 2
        cov = cover_family(n, k, s)
        hm = hilton_milner_family(n, k, s)
        only_cov = cov.edge_set - hm.edge_set
        only_hm = hm.edge_set - cov.edge_set
        assert len(only_cov) == math.comb(n - s - k, k - 1) == 10
        assert only_hm == {(3, 4, 5)}
        assert cov.e() - hm.e() == math.comb(n - s - k, k - 1) - 1 == 9


class TestPrefixOverlapFamily:
    def test_count_10_3_2_2(self):
        h = prefix_overlap_family(10, 3, 2, 2)
        manual = math.comb(5, 2) * math.comb(5, 1) + math.comb(5, 3)
        assert h.e() == prefix_overlap_count(10, 3, 2, 2) == manual == 60

    def test_i_equals_k_is_clique(self):
        assert prefix_overlap_family(10, 3, 2, 3) == clique_family(10, 3, 2)

    def test_invariants(self):
        h = prefix_overlap_family(10, 3, 2, 2)
        assert max_matching(h)[0] == 2
        # the exact cover search gives 4 here (any 4-subset of the prefix
        # works, no 3-set does); at minimum it must exceed s
        tau, witness = min_vertex_cover(h)
        assert tau == 4 > 2
        witness.validate(h)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            prefix_overlap_family(10, 3, 2, 1)
        with pytest.raises(ValueError):
            prefix_overlap_family(4, 3, 2, 2)  # prefix would exceed n


class TestAugment:
    def test_r_zero(self):
        h = complete_graph(5, 3)
        assert augment_universal(h, 0) is h

    def test_empty_base(self):
        h = augment_universal(Hypergraph(3, 3, []), 1)
        assert h.n == 4
        assert h.edges == ((1, 2, 4), (1, 3, 4), (2, 3, 4))

    @pytest.fixture
    def listed(self, monkeypatch):
        """The arrays augment_universal gets from k_sets, in call order."""
        arrays = []

        def spy(n, k):
            arrays.append(k_sets(n, k))
            return arrays[-1]

        monkeypatch.setattr(constructions, "k_sets", spy)
        return arrays

    @pytest.mark.parametrize("n, r", [(3, 1), (9, 3), (12, 5)])
    def test_complete_base_hands_over_the_k_set_array(self, listed, n, r):
        got = augment_universal(complete_graph(n, 3), r)
        assert got == complete_graph(n + r, 3)
        assert got.vertex_array().tolist() == [list(e) for e in combinations(range(1, n + r + 1), 3)]
        (v,) = listed
        assert np.shares_memory(got.vertex_array(), v)  # not copied
        assert not got.vertex_array().flags.writeable
        with pytest.raises(ValueError):
            got.vertex_array()[0, 0] = 2

    def test_partial_base_copies_the_kept_rows(self, listed):
        base = Hypergraph(9, 3, complete_graph(9, 3).edges[1:])  # K9 less {1, 2, 3}
        got = augment_universal(base, 3)
        assert got == Hypergraph(12, 3, complete_graph(12, 3).edges[1:])
        (v,) = listed
        assert not np.shares_memory(got.vertex_array(), v)
        assert not got.vertex_array().flags.writeable

    def test_edge_count_formula(self):
        base = random_hypergraph(7, 3, 0.4, seed=3)
        for r in (1, 2, 3):
            h = augment_universal(base, r)
            assert h.e() == base.e() + math.comb(7 + r, 3) - math.comb(7, 3)

    def test_contains_cover_family_on_new_vertices(self):
        base = random_hypergraph(6, 3, 0.3, seed=5)
        r = 2
        h = augment_universal(base, r)
        cov = cover_family(6 + r, 3, r, w=(7, 8))
        assert cov.edge_set <= h.edge_set

    def test_matching_transfer(self):
        # a matching of size s+r+1 in the augmented graph leaves s+1 edges
        # that avoid the r new vertices
        base = random_hypergraph(9, 3, 0.5, seed=11)
        r = 3
        h = augment_universal(base, r)
        s = 1
        nu_aug, witness = max_matching(h)
        if nu_aug >= s + r + 1:
            inside = [e for e in witness.edges if e[-1] <= 9]
            assert len(inside) >= s + 1
            assert max_matching(base)[0] >= s + 1


    def test_codes_past_int64_are_python_ints(self):
        # the base-21 lex codes of the 15-sets of [20] pass 2**63, where
        # int64 codes would wrap and misplace the new edges
        assert sum(v * 21 ** (20 - v) for v in range(6, 21)) > 2**63
        base = random_hypergraph(19, 15, 0.05, seed=1)
        got = augment_universal(base, 1)
        new = [e for e in combinations(range(1, 21), 15) if e[-1] > 19]
        assert got == Hypergraph(20, 15, list(base.edges) + new)
        assert got.vertex_array().tolist() == [list(e) for e in got.edges]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_checked_constructor(self, data):
        k = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(k, 7))
        pool = list(combinations(range(1, n + 1), k))
        base = Hypergraph(n, k, data.draw(st.lists(st.sampled_from(pool), max_size=len(pool))))
        r = data.draw(st.integers(0, 3))
        new = [e for e in combinations(range(1, n + r + 1), k) if e[-1] > n]
        expect = Hypergraph(n + r, k, list(base.edges) + new)
        got = augment_universal(base, r)
        assert got == expect
        assert got.edge_set == expect.edge_set


class TestBoundReport:
    def test_10_3_2(self):
        rep = bound_report(10, 3, 2)
        assert rep.cover_bound == 120 - 56 == 64
        assert rep.clique_bound == math.comb(8, 3) == 56
        assert rep.hm_bound == 55
        assert rep.a_bounds == [60]
        assert rep.max_nontrivial == 60
        assert rep.argmax == "a2"

    def test_6_3_1_tie(self):
        rep = bound_report(6, 3, 1)
        assert rep.hm_bound == 20 - 10 - 1 + 1 == 10
        assert rep.clique_bound == math.comb(5, 3) == 10
        assert rep.max_nontrivial == 10
        assert rep.argmax == "hm,clique,a2"  # A_2 = C(3,2)C(3,1) + C(3,3) = 10 too

    def test_k2_reduces_to_graph_bounds(self):
        rep = bound_report(8, 2, 2)
        assert rep.cover_bound == math.comb(8, 2) - math.comb(6, 2)
        assert rep.clique_bound == math.comb(5, 2)
        assert rep.a_bounds == []
        assert rep.max_nontrivial == 10 and rep.argmax == "hm,clique"

    def test_hm_below_cover_once_room_exists(self):
        for n, k, s in [(10, 3, 2), (9, 3, 1), (12, 4, 1), (8, 2, 2)]:
            if n >= s + 2 * k - 1:
                rep = bound_report(n, k, s)
                assert rep.hm_bound <= rep.cover_bound

    def test_hm_above_cover_at_tight_n(self):
        # at n = k(s+1)-1 = s+2k-2 the removed-star term vanishes and the
        # block pushes the family one above the cover count
        rep = bound_report(5, 3, 1)
        assert rep.hm_bound == 7 == rep.cover_bound + 1

    def test_range_guard(self):
        with pytest.raises(ValueError):
            bound_report(7, 3, 2)  # needs n >= 8


def test_counts_match_generators_small_grid():
    for k in (2, 3, 4):
        for n in range(k, 11):
            for s in range(0, n):
                if 1 <= s and n >= s:
                    h = cover_family(n, k, s)
                    assert h.e() == cover_count(n, k, s)
                if k * (s + 1) - 1 <= n:
                    h = clique_family(n, k, s)
                    assert h.e() == clique_count(k, s)
                if s >= 1 and n >= s + k:
                    h = hilton_milner_family(n, k, s)
                    assert h.e() == hm_count(n, k, s)
                for i in range(2, k + 1):
                    if (s + 1) * i - 1 <= n:
                        h = prefix_overlap_family(n, k, s, i)
                        assert h.e() == prefix_overlap_count(n, k, s, i)


# -- each generator against its definition, written over combinations --------


def _k_sets(n, k):
    return combinations(range(1, n + 1), k)


@st.composite
def _shapes(draw, max_n=12, room=0):
    """(n, k) with k in 2..4 and n in k+room..max_n."""
    k = draw(st.integers(2, 4))
    return draw(st.integers(k + room, max_n)), k


class TestGeneratorsEqualTheirDefinitions:
    @settings(max_examples=80, deadline=None)
    @given(_shapes(), st.data())
    def test_cover(self, shape, data):
        n, k = shape
        s = data.draw(st.integers(0, n))
        assert cover_family(n, k, s).edges == tuple(
            e for e in _k_sets(n, k) if set(range(1, s + 1)) & set(e))
        w = data.draw(st.sets(st.integers(1, n), max_size=n))
        assert cover_family(n, k, len(w), w=tuple(w)).edges == tuple(
            e for e in _k_sets(n, k) if w & set(e))

    @settings(max_examples=80, deadline=None)
    @given(_shapes(max_n=14), st.data())
    def test_clique(self, shape, data):
        n, k = shape
        s = data.draw(st.integers(0, (n + 1) // k - 1))
        size = k * (s + 1) - 1
        u = data.draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        assert clique_family(n, k, s).edges == tuple(combinations(range(1, size + 1), k))
        assert clique_family(n, k, s, u=tuple(u)).edges == tuple(combinations(sorted(u), k))

    @settings(max_examples=80, deadline=None)
    @given(_shapes(room=1), st.data())
    def test_hilton_milner(self, shape, data):
        n, k = shape
        s = data.draw(st.integers(1, n - k))
        block = tuple(range(s + 1, s + k + 1))
        want = sorted([block] + [
            e for e in _k_sets(n, k)
            if set(range(1, s)) & set(e) or s in e and set(block) & set(e)
        ])
        assert hilton_milner_family(n, k, s).edges == tuple(want)

    @settings(max_examples=80, deadline=None)
    @given(_shapes(), st.data())
    def test_prefix_overlap_at_every_i(self, shape, data):
        n, k = shape
        for i in range(2, k + 1):
            for s in range(0, (n + 1) // i):
                prefix = set(range(1, (s + 1) * i))
                assert prefix_overlap_family(n, k, s, i).edges == tuple(
                    e for e in _k_sets(n, k) if len(prefix & set(e)) >= i)

    @settings(max_examples=80, deadline=None)
    @given(_shapes(max_n=10), st.integers(1, 5), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 99))
    def test_augment_universal(self, shape, r, p, seed):
        n, k = shape
        base = random_hypergraph(n, k, p, seed)  # p 1 is the complete graph
        old = set(base.edges)
        assert augment_universal(base, r).edges == tuple(
            e for e in _k_sets(n + r, k) if e[-1] > n or e in old)
