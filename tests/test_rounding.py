import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch.cli import render_report
from hypermatch.constructions import augment_universal, cover_family
from hypermatch import rounding
from hypermatch.core import (
    Hypergraph,
    _uniforms,
    complete_graph,
    edge_mask,
    random_hypergraph,
    read_hg,
    write_hg,
)
from hypermatch.optimize import EdgeIndex, max_matching
from hypermatch.rounding import (
    ROUND_PATHS,
    _pick_gadget_vertices,
    _uniform_round_budget,
    choose_augmentation,
    extract_fpm_family,
    mix_and_halve,
    near_perfect_matching,
    pipeline,
    sample_binomial_subgraph,
)
from conftest import cyclic_garbage
from strategies import hypergraphs


def vertex_sums(h, weights):
    """Each vertex's sum of a weight vector indexed like h.edges."""
    sums = {v: 0 for v in h.vertices()}
    for e, w in zip(h.edges, weights.tolist()):
        for v in e:
            sums[v] += w
    return sums


class TestExtract:
    def test_single_round_complete_six(self):
        fam = extract_fpm_family(complete_graph(6, 3), 1)
        assert fam.complete and len(fam.members) == 1
        # one tight matching round: no pair can carry more than one unit
        assert fam.max_pair_load() <= 1 + 1e-12
        sums = vertex_sums(complete_graph(6, 3), fam.members[0])
        assert all(abs(s - 1) < 1e-12 for s in sums.values())

    def test_isolated_vertex_infeasible(self):
        h = Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6)])
        fam = extract_fpm_family(h, 1)
        assert fam.status == "infeasible at round 1"
        assert fam.members == []

    def test_float_members_are_tight(self):
        h = complete_graph(12, 3)
        fam = extract_fpm_family(h, 5)
        assert fam.complete
        for member in fam.members:
            sums = vertex_sums(h, member)
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
            assert per_vertex.shape == (n,)
            assert all(c <= 2 * t for c in per_vertex.tolist())

    def test_impossible_budget_reports_honestly(self):
        # t fractional tight rounds put t*n units on C(n,2) pairs; at t > n-2
        # some pair must reach 2, so the loop must stop instead
        fam = extract_fpm_family(complete_graph(9, 3), 8)
        assert not fam.complete
        assert fam.status.startswith("infeasible at round")
        assert fam.max_pair_load() < 2


class TestMix:
    def test_three_members_float(self):
        fam = extract_fpm_family(complete_graph(9, 3), 3)
        mixed = mix_and_halve(fam)
        sums = vertex_sums(complete_graph(9, 3), mixed)
        assert all(abs(s - 1.5) < 1e-9 for s in sums.values())
        assert all(0 <= w <= 1 for w in mixed.tolist())

    @pytest.mark.parametrize("n, t, shared", [(12, 9, 5), (15, 9, 6), (12, 4, 4), (9, 3, 3)])
    def test_shared_members_sum_like_each_member_in_turn(self, n, t, shared):
        h = complete_graph(n, 3)
        fam = extract_fpm_family(h, t)
        first = fam.members[0]
        assert sum(m is first for m in fam.members) == shared
        with pytest.raises(ValueError):  # the shared uniform vector is read-only
            first[0] = 0.0
        ref = [0.0] * h.e()
        for member in fam.members:  # the per-member sum, one addition per member and edge
            for i, w in enumerate(member.tolist()):
                ref[i] += w
        ref = [w * 0.5 for w in ref]
        mixed = mix_and_halve(fam)
        assert mixed.shape == (h.e(),)
        assert [w.hex() for w in mixed.tolist()] == [w.hex() for w in ref]

    def test_empty_family_rejected(self):
        fam = extract_fpm_family(Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6)]), 1)
        with pytest.raises(ValueError):
            mix_and_halve(fam)


def _sample_reference(h, p, seed, alpha):
    """The sampler from its definition: one pass over the edges in order."""
    rng = random.Random(seed)
    kept = [e for e, q in zip(h.edges, p) if rng.random() < q]
    expected = {v: 0.0 for v in h.vertices()}
    pair_sums: dict = {}
    for e, w in zip(h.edges, p):
        if w:
            for v in e:
                expected[v] += w
            for pair in combinations(e, 2):
                pair_sums[pair] = pair_sums.get(pair, 0.0) + w
    violations, budget = 0, 0.0
    for v in h.vertices():
        if expected[v] > 0:
            budget += 2 * math.exp(-(alpha**2) * expected[v] / 3)
            realized = sum(v in e for e in kept)
            violations += abs(realized - expected[v]) >= alpha * expected[v]
    return kept, expected, max(pair_sums.values(), default=0.0), violations, budget


@st.composite
def _edge_probabilities(draw, m):
    unit = st.floats(0, 1)
    kind = draw(st.sampled_from(["zero", "one", "sparse", "any"]))
    if kind == "zero":
        return [0.0] * m
    if kind == "one":
        return [1.0] * m
    entry = st.one_of(st.just(0.0), unit) if kind == "sparse" else unit
    return draw(st.lists(entry, min_size=m, max_size=m))


@pytest.mark.parametrize("seed", [0, 1, 5, 2**40 + 3])
@pytest.mark.parametrize("m", [0, 1, 7, 5000])
def test_bulk_draws_equal_the_per_edge_loop(seed, m):
    # CPython's random() over two 32-bit outputs, read from one getrandbits
    # call: a different CPython could break this, and this test would say so
    p = np.random.default_rng(seed).random(m)
    p[::3] = 0.0
    p[1::4] = 1.0
    loop = random.Random(seed)
    kept = [i for i, q in enumerate(p.tolist()) if loop.random() < q]
    bulk = random.Random(seed)
    u = _uniforms(bulk, m)
    assert np.flatnonzero(u < p).tolist() == kept
    assert bulk.random() == loop.random()  # the generator is left where the loop leaves it
    again = random.Random(seed)
    assert [x.hex() for x in u.tolist()] == [again.random().hex() for _ in range(m)]


@pytest.mark.parametrize("seed", [0, 3])
def test_sampler_on_five_thousand_edges_equals_the_per_edge_reference(seed):
    h = complete_graph(32, 3)  # 4960 edges
    weighted = np.random.default_rng(seed).random(h.e())
    with_zeros = weighted.copy()
    with_zeros[::5] = 0.0
    # every edge weighted: the sums read p in place; with zeros: only its weighted rows
    for p in (weighted, with_zeros):
        rep = sample_binomial_subgraph(h, p, seed)
        kept, expected, max_pair = _sample_reference(h, p.tolist(), seed, 1.0)[:3]
        assert rep.sampled.edges == tuple(kept)
        assert rep.sampled.vertex_array().tolist() == [list(e) for e in kept]
        assert rep.realized_degrees.tolist() == [sum(v in e for e in kept) for v in h.vertices()]
        assert [x.hex() for x in rep.expected_degrees.tolist()] == [
            x.hex() for x in expected.values()
        ]
        assert rep.max_expected_pair_degree.hex() == max_pair.hex()


class TestSample:
    @settings(deadline=None)
    @given(st.integers(2, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=10, k=k)), st.data())
    def test_equals_the_per_edge_reference(self, h, data):
        p = data.draw(_edge_probabilities(h.e()))
        seed = data.draw(st.integers(0, 2**32))
        alpha = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
        rep = sample_binomial_subgraph(h, np.array(p), seed, alpha=alpha)
        kept, expected, max_pair, violations, budget = _sample_reference(h, p, seed, alpha)
        assert rep.sampled.edges == tuple(kept)
        # one float64 entry per vertex, in the reference's vertex order
        assert list(expected) == list(h.vertices())
        assert rep.expected_degrees.shape == (h.n,) and rep.expected_degrees.dtype == np.float64
        assert [x.hex() for x in rep.expected_degrees.tolist()] == [
            x.hex() for x in expected.values()
        ]
        assert rep.max_expected_pair_degree.hex() == max_pair.hex()
        # the realized pair degree, against core's per-edge count
        assert rep.max_pair_degree == (rep.sampled.max_set_degree(2) if kept else 0)
        assert type(rep.max_pair_degree) is int
        assert rep.vertex_violations == violations
        assert rep.vertex_violation_budget.hex() == budget.hex()

    def test_zero_probability(self):
        h = complete_graph(6, 3)
        rep = sample_binomial_subgraph(h, np.zeros(h.e()), seed=3)
        assert rep.sampled.e() == 0
        assert rep.max_pair_degree == 0

    def test_unit_probability_keeps_everything(self):
        h = complete_graph(6, 3)
        rep = sample_binomial_subgraph(h, np.ones(h.e()), seed=9)
        assert rep.sampled == h
        assert rep.max_pair_degree == h.max_set_degree(2) == 4

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
        assert rep.expected_degrees.shape == (h.n,)
        assert all(abs(ed - t / 2) < 1e-9 for ed in rep.expected_degrees.tolist())
        assert rep.sampled.edge_set <= h.edge_set

    @given(hypergraphs(min_n=4, max_n=9), st.integers(0, 2**16))
    def test_sample_equals_the_checked_constructor_and_its_degrees(self, h, seed):
        p = np.array([((i * 7) % 5) / 4 for i in range(h.e())])
        rep = sample_binomial_subgraph(h, p, seed)
        assert rep.sampled == Hypergraph(h.n, h.k, rep.sampled.edges)
        assert rep.realized_degrees.tolist() == [rep.sampled.degree(v) for v in h.vertices()]
        assert rep.realized_degrees.shape == (h.n,) and rep.realized_degrees.dtype.kind == "i"

    @pytest.mark.parametrize(
        "shape", [(19,), (21,), (20, 1), (1, 20)], ids=["short", "long", "column", "row"]
    )
    def test_probabilities_not_one_per_edge_rejected(self, shape):
        # a vector of the wrong length, or a 2-D one, cannot be read by edge
        h = complete_graph(6, 3)
        with pytest.raises(ValueError, match="the graph has 20 edges"):
            sample_binomial_subgraph(h, np.full(shape, 0.5), seed=0)

    def test_out_of_range_probability_rejected(self):
        h = complete_graph(6, 3)
        # NaN fails every comparison, so a check for "below 0 or above 1"
        # would let it through into the expected degrees
        for value, shown in ((1.5, "1.5"), (np.nan, "nan")):
            bad = np.zeros(h.e())
            bad[3] = value
            with pytest.raises(ValueError, match=rf"probability {shown} on \(1, 2, 6\)"):
                sample_binomial_subgraph(h, bad, seed=0)


def _reference_matching(h, strategy, seed):
    """Greedy and nibble from their definitions, on vertex sets."""
    edges = [set(e) for e in h.edges]
    live = list(range(len(edges)))  # the edges disjoint from every chosen one
    chosen = []

    def take(i):
        chosen.append(i)
        live[:] = [j for j in live if not edges[i] & edges[j]]

    if strategy == "greedy":
        while live:  # min keeps the first live edge of the fewest
            take(min(live, key=lambda i: sum(1 for j in live if edges[i] & edges[j])))
    else:
        rng = random.Random(seed)
        for _ in range(math.ceil(10 * math.log(max(h.n, 2)))):
            if not live:
                break
            bite = [i for i in live if rng.random() < 0.1]
            rng.shuffle(bite)
            for i in bite:
                if i in live:
                    take(i)
        for i in list(live):
            if i in live:
                take(i)
    return tuple(sorted(h.edges[i] for i in chosen))


class TestNearPerfectMatching:
    @settings(deadline=None)
    @given(
        st.integers(3, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=10, k=k)),
        st.sampled_from(["greedy", "nibble"]),
        st.integers(0, 2**32),
    )
    def test_equals_the_reference_of_its_definition(self, h, strategy, seed):
        assert near_perfect_matching(h, strategy, seed).edges == _reference_matching(
            h, strategy, seed
        )

    def test_complete_nine_greedy_perfect(self):
        m = near_perfect_matching(complete_graph(9, 3), "greedy")
        assert m.size == 3

    def test_empty(self):
        assert near_perfect_matching(Hypergraph(6, 3, []), "greedy").size == 0

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
        res = pipeline(Hypergraph(9, 3, []), 1, t=2, seed=0)
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

    def test_complete_input_from_disk_builds_no_edge_tuples(self, tmp_path, monkeypatch):
        # uniform rounds only: no edge index, so neither the input nor the
        # augmented graph is read as tuples; the matchers read the sample's
        path = str(tmp_path / "k30.hg")
        write_hg(complete_graph(30, 3), path)
        h = read_hg(path)
        augmented = []

        def keep(g, r):
            augmented.append(augment_universal(g, r))
            return augmented[-1]

        monkeypatch.setattr(rounding, "augment_universal", keep)
        res = pipeline(h, 3, t=12, seed=5)
        assert res.success and res.diagnostics["extract_paths"]["uniform"] == 12
        (hr,) = augmented
        assert hr is not h and hr.n == res.diagnostics["n_augmented"]
        assert h._edges is None and hr._edges is None
        res.matching.validate(complete_graph(30, 3))

    def test_extraction_from_disk_builds_no_edge_tuples(self, tmp_path):
        # K12 less two edges: integral and LP rounds on the edge index, over
        # five attempts, four of them on shuffled edge orders
        gone = {(1, 3, 8), (9, 10, 12)}
        h = Hypergraph(12, 3, [e for e in complete_graph(12, 3).edges if e not in gone])
        path = str(tmp_path / "near12.hg")
        write_hg(h, path)
        born = read_hg(path)
        fam, want = extract_fpm_family(born, 6), extract_fpm_family(h, 6)
        assert born._edges is None
        assert fam.complete and fam.attempts == 5
        assert {rec.path for rec in fam.rounds} == {"integral", "lp"}
        assert (fam.rounds, fam.removed_total) == (want.rounds, want.removed_total)
        assert all(np.array_equal(a, b) for a, b in zip(fam.members, want.members, strict=True))

    def test_deterministic(self):
        a = pipeline(complete_graph(12, 3), 3, t=9, seed=1)
        b = pipeline(complete_graph(12, 3), 3, t=9, seed=1)
        assert a.matching == b.matching and a.status == b.status


def _free(n, covered):
    """The vertices 1..n outside the bitmask `covered`, ascending."""
    return [v for v in range(1, n + 1) if not covered >> (v - 1) & 1]


class TestFindPerfectMatching:
    def test_covers_exactly_the_complement(self):
        h = complete_graph(10, 3)
        index = EdgeIndex(h.n, h.vertex_array())
        covered0 = edge_mask((2, 5, 9, 10))  # six vertices left: two edges
        outcome, pm, _ = index.perfect(index.full, _free(h.n, covered0))
        assert outcome == "found"
        used = 0
        for i in pm:
            m = edge_mask(h.edges[i])
            assert m & (used | covered0) == 0
            used |= m
        assert used == ((1 << h.n) - 1) & ~covered0

    def test_none_when_the_rest_is_not_divisible_by_k(self):
        h = complete_graph(10, 3)
        index = EdgeIndex(h.n, h.vertex_array())
        covered0 = edge_mask((2, 5, 9))  # seven vertices left
        assert index.perfect(index.full, _free(h.n, covered0)) == ("none", None, 0)

    @given(hypergraphs(max_n=9), st.data())
    def test_matches_the_exhaustive_oracle_on_small_graphs(self, h, data):
        # a perfect matching of the live edges avoiding covered0 exists iff
        # the oracle finds (n - |covered0|) / 3 disjoint such edges
        index = EdgeIndex(h.n, h.vertex_array())
        live = data.draw(st.one_of(st.just(index.full), st.integers(0, index.full)))
        if data.draw(st.booleans()):
            covered0 = data.draw(st.integers(0, (1 << h.n) - 1))
        else:  # leave a multiple of three vertices uncovered
            order = data.draw(st.permutations(range(1, h.n + 1)))
            covered0 = edge_mask(order[3 * data.draw(st.integers(0, h.n // 3)) :])
        outcome, pm, _ = index.perfect(live, _free(h.n, covered0))
        usable = [
            e
            for i, e in enumerate(h.edges)
            if live >> i & 1 and edge_mask(e) & covered0 == 0
        ]
        rest = h.n - covered0.bit_count()
        exists = rest % 3 == 0 and (
            max_matching(Hypergraph(h.n, 3, usable), exhaustive=True)[0] == rest // 3
        )
        assert outcome == ("found" if exists else "none")
        if exists:
            used = covered0
            for i in pm:
                m = edge_mask(h.edges[i])
                assert live >> i & 1 and m & used == 0
                used |= m
            assert used == (1 << h.n) - 1

    def test_tiny_budget_is_budget_not_none(self):
        h = complete_graph(12, 3)
        index = EdgeIndex(h.n, h.vertex_array())
        assert index.perfect(index.full, list(h.vertices()), nodes=2) == ("budget", None, 2)
        # an isolated vertex is a proof of none at the root, inside any budget
        h = Hypergraph(9, 3, [e for e in complete_graph(9, 3).edges if 9 not in e])
        index = EdgeIndex(h.n, h.vertex_array())
        assert index.perfect(index.full, list(h.vertices()), nodes=1) == ("none", None, 1)

    def test_leaves_no_reference_cycles(self):
        # the recursive dfs closure is freed by reference counting alone,
        # found or over the node budget
        h = complete_graph(9, 3)
        index = EdgeIndex(h.n, h.vertex_array())
        found = lambda: index.perfect(index.full, list(h.vertices()))
        assert found()[0] == "found"
        assert cyclic_garbage(found) == 0
        assert cyclic_garbage(lambda: index.perfect(index.full, list(h.vertices()), nodes=2)) == 0


def _per_edge_uniform(h, rounds):
    """The reference for uniform rounds: pair loads summed edge by edge."""
    w = 1.0 / comb(h.n - 1, 2)
    threshold = 1.0
    load: dict = {}
    dead: set = set()
    alive = list(h.edges)
    heavy_total, removed_total = [], []
    for _ in range(rounds):
        for e in alive:
            for p in combinations(e, 2):
                load[p] = load.get(p, 0.0) + w
        dead |= {p for p, x in load.items() if x >= threshold - 1e-12}
        alive = [e for e in alive if not any(p in dead for p in combinations(e, 2))]
        heavy_total.append(len(dead))
        removed_total.append(h.e() - len(alive))
    return w, load, heavy_total, removed_total


class TestExtractionIndex:
    @pytest.mark.parametrize("n", range(9, 31))
    def test_closed_form_uniform_rounds_equal_per_edge_sums(self, n):
        h = complete_graph(n, 3)
        u = _uniform_round_budget(n, 3, 1.0)
        fam = extract_fpm_family(h, u)
        w, load, heavy_total, removed_total = _per_edge_uniform(h, u)
        assert fam.complete and [r.path for r in fam.rounds] == ["uniform"] * u
        pairs = list(combinations(range(1, n + 1), 2))
        assert {p: float(fam.pair_load[p]) for p in pairs} == load  # float ==, not approximately
        assert fam.heavy_total == heavy_total
        assert fam.removed_total == removed_total
        for member in fam.members:
            assert member.tolist() == [w] * h.e()

    def test_closed_form_loads_match_the_formula(self):
        # u rounds of weight 1/C(n-1,2) put u(n-2)/C(n-1,2) on every pair
        for n in (9, 12, 13):
            u = _uniform_round_budget(n, 3, 1.0)
            fam = extract_fpm_family(complete_graph(n, 3), u)
            want = u * (n - 2) / comb(n - 1, 2)
            loads = [fam.pair_load[p] for p in combinations(range(1, n + 1), 2)]
            assert len(set(loads)) == 1
            assert all(abs(load - want) < 1e-12 for load in loads)

    def test_round_budget_equals_its_loop_definition(self):
        # the most rounds u with u(k-1)/(n-1) < threshold, counted one by one;
        # a threshold that is an exact multiple of the increment is where
        # the strict < decides, so those and their float neighbours are covered
        def loop(n, k, threshold):
            inc = Fraction(k - 1, n - 1)
            u = 0
            while (u + 1) * inc < Fraction(threshold):
                u += 1
            return u

        multiples = 0
        for k in range(2, 6):
            for n in range(k, 401):
                inc = Fraction(k - 1, n - 1)
                thresholds = [1.0, 0.5, 0.3, 1e-3]
                for j in (1, 2, 3):
                    f = float(j * inc)
                    if Fraction(f) == j * inc:
                        multiples += 1
                        thresholds += [f, math.nextafter(f, 0.0), math.nextafter(f, 3.0)]
                for threshold in thresholds:
                    assert _uniform_round_budget(n, k, threshold) == loop(n, k, threshold), (
                        n, k, threshold
                    )
        assert multiples > 100

    @given(st.integers(2, 4).flatmap(lambda k: hypergraphs(max_n=9, k=k)), st.data())
    def test_dead_pair_kill_matches_the_per_edge_definition(self, h, data):
        index = EdgeIndex(h.n, h.vertex_array())
        live = data.draw(st.integers(0, index.full))
        pool = list(combinations(range(1, h.n + 1), 2))
        pairs = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        want = sum(
            1 << i
            for i, e in enumerate(h.edges)
            if live >> i & 1 and not any(set(p) <= set(e) for p in pairs)
        )
        assert index.without_pairs(live, pairs) == want

    @pytest.mark.parametrize(
        "h, t",
        [
            (complete_graph(15, 3), 8),
            (complete_graph(13, 3), 9),
            (random_hypergraph(15, 3, 0.7, seed=2), 4),
            (Hypergraph(12, 3, complete_graph(12, 3).edges[3:]), 6),
        ],
    )
    def test_survivors_are_the_edges_without_a_dead_pair(self, h, t):
        fam = extract_fpm_family(h, t)
        pairs = combinations(range(1, h.n + 1), 2)
        dead = {p for p in pairs if fam.pair_load[p] >= fam.threshold - 1e-12}
        survivors = [e for e in h.edges if not any(p in dead for p in combinations(e, 2))]
        assert fam.heavy_total[-1] == len(dead)
        assert h.e() - fam.removed_total[-1] == len(survivors)

    def test_rounds_record_how_each_member_was_made(self):
        fam = extract_fpm_family(complete_graph(13, 3), 9)
        assert fam.complete and len(fam.rounds) == len(fam.members)
        assert [r.path for r in fam.rounds] == ["uniform"] * 5 + ["gadget"] * 4
        for r in fam.rounds[5:]:
            assert r.matching == "found" and r.gadget == "found" and r.nodes > 0

    def test_stalled_round_records_its_searches(self):
        # the searches prove there is no perfect matching, then the LP
        # proves the survivors have no fractional one
        fam = extract_fpm_family(complete_graph(12, 3), 10)
        assert fam.status == "infeasible at round 10"
        assert len(fam.rounds) == len(fam.members) + 1
        last = fam.rounds[-1]
        assert (last.path, last.matching) == ("lp", "none")

    def test_pipeline_reports_paths_and_nodes(self):
        res = pipeline(complete_graph(12, 3), 3, t=9, seed=1)
        diag = res.diagnostics
        assert list(diag["extract_paths"]) == list(ROUND_PATHS)
        assert sum(diag["extract_paths"].values()) == diag["extract_members"]
        assert diag["extract_paths"]["uniform"] == 5
        assert diag["extract_search_nodes"] > 0
        assert diag["extract_attempts"] >= 1


class TestPickGadget:
    def test_none_when_every_candidate_fails(self):
        h = complete_graph(20, 3)
        index = EdgeIndex(h.n, h.vertex_array())
        heavy = [0] * 21  # no live triple: C(20, 4) = 4845 candidates
        assert _pick_gadget_vertices(index, 4, heavy, 0) == ("none", None)

    def test_budget_after_five_thousand_candidates(self):
        h = complete_graph(21, 3)
        index = EdgeIndex(h.n, h.vertex_array())
        heavy = [0] * 22  # no live triple: C(21, 4) = 5985 candidates
        assert _pick_gadget_vertices(index, 4, heavy, 0) == ("budget", None)

    def test_found_needs_live_triples(self):
        h = complete_graph(10, 3)
        index = EdgeIndex(h.n, h.vertex_array())
        heavy = [0] * 11
        outcome, cand = _pick_gadget_vertices(index, 4, heavy, index.full)
        assert (outcome, cand) == ("found", (1, 2, 3, 4))
        live = index.full & ~(1 << h.edges.index((1, 2, 3)))
        assert _pick_gadget_vertices(index, 4, heavy, live) == ("found", (1, 2, 4, 5))
        # vertices already taken are never picked
        assert _pick_gadget_vertices(index, 4, heavy, live, (2,)) == ("found", (1, 3, 4, 5))


def _diag(r, t, n_aug, status, members, attempts, paths, nodes, load, rest=None):
    uniform, integral, gadget, lp_rounds = paths
    diag = {
        "r": r, "t": t, "n_augmented": n_aug, "extract_status": status,
        "extract_members": members, "extract_attempts": attempts,
        "extract_paths": {"uniform": uniform, "integral": integral, "gadget": gadget, "lp": lp_rounds},
        "extract_search_nodes": nodes, "max_pair_load": load,
    }
    if rest is not None:
        total, sample_edges, max_pair, in_aug, in_input = rest
        diag.update({
            "mixed_total_weight": total, "sample_edges": sample_edges,
            "sample_vertex_ok": True, "sample_max_pair_degree": max_pair,
            "matching_in_augmented": in_aug, "matching_in_input": in_input,
        })
    return diag


# Seeded pipeline reports, pinned in full so that a refactor of the rounding
# stages cannot change what `round --report` writes. Between them they run
# closed-form uniform, integral, gadget and LP-fallback rounds, a stalled
# extraction with retries, failed matchings, an explicit r and both matchers.
SEEDED_PIPELINE_REPORTS = [
    (
        complete_graph(12, 3), {"s": 3, "t": 9, "seed": 1},
        "ok", [[1, 6, 8], [2, 11, 12], [3, 5, 10], [4, 7, 9]],
        _diag(0, 9, 12, "complete", 9, 2, (5, 4, 0, 0), 20, 1.9090909090909092,
              (18.000000000000018, 23, 3, 4, 4)),
    ),
    (
        complete_graph(10, 3), {"s": 2, "t": 6, "seed": 2, "r": 3},
        "failed at matching: best inside has size 2", [[3, 8, 10], [5, 6, 9]],
        _diag(3, 6, 13, "complete", 6, 1, (5, 0, 1, 0), 4, 1.8333333333333326,
              (12.999999999999963, 17, 3, 4, 2)),
    ),
    (
        random_hypergraph(12, 3, 0.5, seed=1),
        {"s": 1, "t": 6, "seed": 3, "r": 2, "matching_strategy": "nibble"},
        "ok", [[2, 11, 12], [3, 9, 10]],
        _diag(2, 6, 14, "complete", 6, 1, (0, 0, 2, 4), 7, 1.6666666666666665,
              (13.999999999999996, 19, 2, 3, 2)),
    ),
    (
        complete_graph(9, 3), {"s": 1, "t": 6, "seed": 4, "r": 1},
        "failed at extract: infeasible at round 6", [],
        _diag(1, 6, 10, "infeasible at round 6", 5, 6, (4, 0, 0, 1), 0, 1.7222222222222228),
    ),
    (
        random_hypergraph(12, 3, 0.5, seed=1), {"s": 3, "seed": 5},
        "failed at matching: best inside has size 2", [[1, 4, 10], [6, 7, 8]],
        _diag(0, 2, 12, "complete", 2, 1, (0, 2, 0, 0), 10, 1.0, (4.0, 3, 1, 2, 2)),
    ),
    (
        cover_family(12, 3, 2), {"s": 2, "t": 8, "seed": 0},
        "failed at extract: infeasible at round 1", [],
        _diag(0, 8, 12, "infeasible at round 1", 0, 6, (0, 0, 0, 0), 146, 0.0),
    ),
]


@pytest.mark.parametrize("h, kwargs, status, edges, diag", SEEDED_PIPELINE_REPORTS)
def test_seeded_pipeline_reports_are_pinned(h, kwargs, status, edges, diag):
    got = json.loads(render_report(pipeline(h, **kwargs)))
    assert got == {
        "status": status,
        "success": status == "ok",
        "matching": {"edges": edges},
        "s": kwargs["s"],
        "r": diag["r"],
        "t": diag["t"],
        "seed": kwargs["seed"],
        "diagnostics": diag,
    }
    assert list(got["diagnostics"]) == list(diag)  # the report's key order too


def _sequential_sum(p):
    """The definition of ``mixed_total_weight``: the entries added in edge order."""
    total = 0.0
    for x in p.tolist():
        total += x
    return total


def _pipeline_with_mixed(monkeypatch, h, **kwargs):
    """Run the pipeline; also return the mixed probability it summed, or None."""
    mixed = []

    def spy(fam):
        mixed.append(mix_and_halve(fam))
        return mixed[-1]

    monkeypatch.setattr(rounding, "mix_and_halve", spy)
    return pipeline(h, **kwargs), (mixed[0] if mixed else None)


@pytest.mark.parametrize("h, kwargs, status, edges, diag", SEEDED_PIPELINE_REPORTS)
def test_mixed_total_weight_is_the_sum_in_edge_order(monkeypatch, h, kwargs, status, edges, diag):
    res, p = _pipeline_with_mixed(monkeypatch, h, **kwargs)
    if p is None:
        assert "mixed_total_weight" not in res.diagnostics
        return
    assert res.diagnostics["mixed_total_weight"].hex() == _sequential_sum(p).hex()


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.integers(9, 15).map(lambda n: complete_graph(n, 3)),
        st.builds(
            lambda n, seed: random_hypergraph(n, 3, 0.6, seed=seed),
            st.integers(9, 13),
            st.integers(0, 99),
        ),
    ),
    st.integers(0, 3),
    st.integers(1, 9),
    st.integers(0, 50),
)
def test_mixed_total_weight_is_the_sum_in_edge_order_on_drawn_inputs(h, r, t, seed):
    # complete inputs run uniform rounds and then integral or gadget ones,
    # random inputs integral, gadget and LP rounds
    with pytest.MonkeyPatch.context() as mp:
        res, p = _pipeline_with_mixed(mp, h, s=1, t=t, seed=seed, r=r)
    if p is not None:
        assert res.diagnostics["mixed_total_weight"].hex() == _sequential_sum(p).hex()


def test_mixed_total_weight_does_not_compensate(monkeypatch):
    # 220 entries of 0.1 add up to 22.000000000000014 one at a time, where a
    # compensated sum (Python 3.12's sum() of floats, or math.fsum) gives 22.0
    h = complete_graph(12, 3)
    p = np.full(h.e(), 0.1)
    assert _sequential_sum(p) != math.fsum(p.tolist())
    monkeypatch.setattr(rounding, "mix_and_halve", lambda fam: p)
    res = pipeline(h, 3, t=9, seed=1)
    assert res.diagnostics["mixed_total_weight"].hex() == _sequential_sum(p).hex()


def _per_edge_loads(h, members):
    """The reference pair loads: every member's weights added pair by pair,
    member by member and edge by edge, into a plain dict."""
    load: dict = {}
    for member in members:
        for e, w in zip(h.edges, member.tolist()):
            if w:
                for p in combinations(e, 2):
                    load[p] = load.get(p, 0.0) + w
    return load


# The extractions behind the seeded reports (on the augmented graph) and one
# near-complete graph: between them they run uniform, integral, gadget and LP
# rounds, retries and a stall before the first member.
EXTRACTION_CASES = [
    (augment_universal(h, diag["r"]), diag["t"]) for h, _, _, _, diag in SEEDED_PIPELINE_REPORTS
] + [(Hypergraph(13, 3, complete_graph(13, 3).edges[1:]), 7)]


@pytest.mark.parametrize(
    "h, t", EXTRACTION_CASES, ids=[f"seeded-{i}" for i in range(6)] + ["near-complete-13"]
)
def test_pair_loads_equal_per_edge_sums_on_every_round_path(h, t):
    fam = extract_fpm_family(h, t)
    load = _per_edge_loads(h, fam.members)
    pairs = list(combinations(range(1, h.n + 1), 2))
    assert [float(fam.pair_load[p]).hex() for p in pairs] == [load.get(p, 0.0).hex() for p in pairs]
    assert (fam.pair_load == fam.pair_load.T).all()
    assert not fam.pair_load[0].any() and not fam.pair_load.diagonal().any()
    dead = [p for p in pairs if load.get(p, 0.0) >= fam.threshold - 1e-12]
    if fam.members:
        assert fam.heavy_total[-1] == len(dead)
    else:
        assert dead == [] and fam.heavy_total == []
    per_vertex = Counter(chain.from_iterable(dead))
    assert fam.heavy_pairs_by_vertex().tolist() == [per_vertex[v] for v in h.vertices()]
    assert fam.max_pair_load() == max(load.values(), default=0.0)


def test_extraction_cases_run_every_round_path():
    fams = [extract_fpm_family(h, t) for h, t in EXTRACTION_CASES]
    made = Counter(rec.path for fam in fams for rec in fam.rounds[: len(fam.members)])
    assert all(made[path] for path in ROUND_PATHS)
    assert any(fam.attempts > 1 for fam in fams)
