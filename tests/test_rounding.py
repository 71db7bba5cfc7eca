from fractions import Fraction

import pytest

from hypermatch.constructions import cover_family
from hypermatch.core import build, complete_graph, edge_mask, random_hypergraph
from hypermatch.optimize import max_matching
from hypermatch.rounding import (
    _find_perfect_matching,
    choose_augmentation,
    extract_fpm_family,
    mix_and_halve,
    near_perfect_matching,
    pipeline,
    sample_binomial_subgraph,
)


def vertex_sums(h, weights):
    sums = {v: 0 for v in h.vertices()}
    for e, w in weights.items():
        for v in e:
            sums[v] += w
    return sums


class TestExtract:
    def test_single_round_complete_six(self):
        fam = extract_fpm_family(complete_graph(6, 3), 1, mode="rational")
        assert fam.complete and len(fam.members) == 1
        # one tight matching round: no pair can carry more than one unit
        assert fam.max_pair_load() <= 1
        sums = vertex_sums(complete_graph(6, 3), fam.members[0].weights)
        assert all(s == 1 for s in sums.values())

    def test_three_rounds_complete_nine(self):
        fam = extract_fpm_family(complete_graph(9, 3), 3, mode="rational")
        assert fam.complete and len(fam.members) == 3
        assert fam.max_pair_load() < 2
        for member in fam.members:
            sums = vertex_sums(complete_graph(9, 3), member.weights)
            assert all(s == 1 for s in sums.values())

    def test_isolated_vertex_infeasible(self):
        h = build(7, 3, [(1, 2, 3), (4, 5, 6)])
        fam = extract_fpm_family(h, 1)
        assert fam.status == "infeasible at round 1"
        assert fam.members == []

    def test_plain_lp_strategy(self):
        fam = extract_fpm_family(complete_graph(9, 3), 2, strategy="lp")
        assert fam.complete
        assert fam.max_pair_load() < 2 + 1e-9

    def test_float_members_are_tight(self):
        h = complete_graph(12, 3)
        fam = extract_fpm_family(h, 5)
        assert fam.complete
        for member in fam.members:
            sums = vertex_sums(h, member.weights)
            assert all(abs(s - 1) < 1e-9 for s in sums.values())

    def test_removal_bookkeeping(self):
        n, t = 15, 8
        fam = extract_fpm_family(complete_graph(n, 3), t)
        assert fam.complete
        for heavy, removed in zip(fam.heavy_total, fam.removed_total):
            assert removed <= heavy * (n - 2)

    def test_heavy_pairs_per_vertex_bound(self):
        for n, t in [(9, 6), (12, 8), (15, 10)]:
            fam = extract_fpm_family(complete_graph(n, 3), t)
            assert fam.complete
            per_vertex = fam.heavy_pairs_by_vertex()
            assert all(c <= 2 * t for c in per_vertex.values())

    def test_impossible_budget_reports_honestly(self):
        # t fractional tight rounds put t*n units on C(n,2) pairs; at t > n-2
        # some pair must reach 2, so the loop must stop instead
        fam = extract_fpm_family(complete_graph(9, 3), 8)
        assert not fam.complete
        assert fam.status.startswith("infeasible at round")
        assert fam.max_pair_load() < 2


class TestMix:
    def test_single_member(self):
        fam = extract_fpm_family(complete_graph(6, 3), 1, mode="rational")
        mixed = mix_and_halve(fam)
        sums = vertex_sums(complete_graph(6, 3), mixed.weights)
        assert all(s == Fraction(1, 2) for s in sums.values())

    def test_three_members_float(self):
        fam = extract_fpm_family(complete_graph(9, 3), 3)
        mixed = mix_and_halve(fam)
        sums = vertex_sums(complete_graph(9, 3), mixed.weights)
        assert all(abs(s - 1.5) < 1e-9 for s in sums.values())
        assert all(0 <= w <= 1 for w in mixed.weights.values())

    def test_empty_family_rejected(self):
        fam = extract_fpm_family(build(7, 3, [(1, 2, 3), (4, 5, 6)]), 1)
        with pytest.raises(ValueError):
            mix_and_halve(fam)


class TestSample:
    def test_zero_probability(self):
        h = complete_graph(6, 3)
        fam = extract_fpm_family(h, 1, mode="rational")
        mixed = mix_and_halve(fam)
        zeroed = type(mixed)("sampling", {e: 0.0 for e in h.edges}, 0.0, "float")
        rep = sample_binomial_subgraph(h, zeroed, seed=3)
        assert rep.sampled.e() == 0

    def test_unit_probability_keeps_everything(self):
        h = complete_graph(6, 3)
        ones = {"weights": {e: 1.0 for e in h.edges}}
        from hypermatch.optimize import FractionalAssignment

        fa = FractionalAssignment("sampling", ones["weights"], float(h.e()), "float")
        rep = sample_binomial_subgraph(h, fa, seed=9)
        assert rep.sampled == h

    def test_deterministic_per_seed(self):
        h = complete_graph(9, 3)
        mixed = mix_and_halve(extract_fpm_family(h, 3))
        a = sample_binomial_subgraph(h, mixed, seed=4)
        b = sample_binomial_subgraph(h, mixed, seed=4)
        c = sample_binomial_subgraph(h, mixed, seed=5)
        assert a.sampled == b.sampled
        assert a.sampled != c.sampled or a.sampled.e() == c.sampled.e()

    def test_expected_degree_is_half_rounds(self):
        h = complete_graph(12, 3)
        t = 6
        mixed = mix_and_halve(extract_fpm_family(h, t))
        rep = sample_binomial_subgraph(h, mixed, seed=0)
        assert all(abs(ed - t / 2) < 1e-9 for ed in rep.expected_degrees.values())
        assert rep.sampled.edge_set <= h.edge_set

    def test_out_of_range_probability_rejected(self):
        h = complete_graph(6, 3)
        from hypermatch.optimize import FractionalAssignment

        bad = FractionalAssignment("sampling", {h.edges[0]: 1.5}, 1.5, "float")
        with pytest.raises(ValueError):
            sample_binomial_subgraph(h, bad, seed=0)


class TestNearPerfectMatching:
    def test_complete_nine_greedy_perfect(self):
        m = near_perfect_matching(complete_graph(9, 3), "greedy")
        assert m.size == 3

    def test_empty(self):
        assert near_perfect_matching(build(6, 3, []), "greedy").size == 0

    def test_nibble_deterministic(self):
        h = random_hypergraph(15, 3, 0.2, seed=8)
        a = near_perfect_matching(h, "nibble", seed=2)
        b = near_perfect_matching(h, "nibble", seed=2)
        assert a == b

    def test_validates(self):
        h = random_hypergraph(12, 3, 0.3, seed=1)
        for strategy in ("greedy", "nibble"):
            m = near_perfect_matching(h, strategy, seed=0)
            m.validate(h)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            near_perfect_matching(complete_graph(6, 3), "magic")


class TestChooseAugmentation:
    def test_divisible_stay_put(self):
        assert choose_augmentation(12, 3) == 0

    def test_alignment(self):
        for n in range(9, 28):
            for s in range(1, (n - 2) // 3 + 1):
                r = choose_augmentation(n, s)
                assert (n + r) % 3 == 0

    def test_window_preferred_when_aligned(self):
        # n=30, s=5: window [30-15-6, 30-15-3] = [9, 12] for 2r; r=6 fits
        # and 36 is divisible by 3
        assert choose_augmentation(30, 5) == 6


class TestPipeline:
    def test_complete_twelve_finds_four(self):
        res = pipeline(complete_graph(12, 3), 3, t=9, seed=1)
        assert res.success and res.matching.size == 4
        res.matching.validate(complete_graph(12, 3))

    def test_cover_family_stalls(self):
        h = cover_family(12, 3, 2)
        res = pipeline(h, 2, t=8, seed=0)
        assert not res.success
        assert res.matching.size <= 2
        assert "failed at" in res.status
        assert max_matching(h)[0] == 2

    def test_empty_graph_fails_at_extract(self):
        res = pipeline(build(9, 3, []), 1, t=2, seed=0)
        assert res.status.startswith("failed at extract")

    def test_explicit_augmentation_discards_universal_edges(self):
        # force r=3: the augmented graph has perfect fractional matchings even
        # though the input does not, and the matching kept at the end must
        # avoid the three added vertices entirely
        h = cover_family(12, 3, 2)
        res = pipeline(h, 2, t=3, seed=4, r=3)
        assert res.r == 3
        for e in res.matching.edges:
            assert e[-1] <= 12
        res.matching.validate(h)
        assert not res.success  # nothing above the true matching number
        assert res.matching.size <= 2

    def test_wrong_uniformity(self):
        with pytest.raises(ValueError):
            pipeline(complete_graph(8, 4), 1)

    def test_deterministic(self):
        a = pipeline(complete_graph(12, 3), 3, t=9, seed=1)
        b = pipeline(complete_graph(12, 3), 3, t=9, seed=1)
        assert a.matching == b.matching and a.status == b.status


class TestFindPerfectMatching:
    def test_covers_exactly_the_complement(self):
        h = complete_graph(10, 3)
        covered0 = edge_mask((2, 5, 9, 10))  # six vertices left: two edges
        pm = _find_perfect_matching(h.n, list(h.edges), list(h.masks), 3, covered0)
        assert pm is not None
        used = 0
        for i in pm:
            assert h.masks[i] & (used | covered0) == 0
            used |= h.masks[i]
        assert used == ((1 << h.n) - 1) & ~covered0

    def test_none_when_the_rest_is_not_divisible_by_k(self):
        h = complete_graph(10, 3)
        covered0 = edge_mask((2, 5, 9))  # seven vertices left
        assert _find_perfect_matching(h.n, list(h.edges), list(h.masks), 3, covered0) is None
