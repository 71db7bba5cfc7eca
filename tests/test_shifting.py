import random

import pytest
from hypothesis import given, settings

from hypermatch.constructions import clique_family, cover_family, hilton_milner_family
from hypermatch.core import (
    Hypergraph,
    complete_graph,
    random_hypergraph,
    relabel_graph,
)
from hypermatch.optimize import max_matching
from hypermatch.shifting import (
    ShiftTrace,
    dominated_edges,
    is_downset,
    is_stable,
    shift_edge,
    shift_graph,
    stabilize,
)

from conftest import seeded_graph
from strategies import hypergraphs


def label_sum(h):
    return sum(sum(e) for e in h.edges)


def reference_stabilize(h):
    """Lexicographic sweeps built from one shift_graph per (i, j) step."""
    trace = ShiftTrace()
    cur = h
    while True:
        trace.rounds += 1
        moved_this_round = 0
        for i in range(1, cur.n):
            for j in range(i + 1, cur.n + 1):
                nxt = shift_graph(cur, i, j)
                moved = len(set(nxt.edges) - set(cur.edges))
                trace.steps.append((i, j, moved))
                if moved:
                    assert label_sum(nxt) < label_sum(cur)
                    moved_this_round += moved
                    cur = nxt
        if moved_this_round == 0:
            return cur, trace


def assert_matches_reference(h):
    out, trace = stabilize(h)
    ref, ref_trace = reference_stabilize(h)
    assert out == ref
    assert trace.steps == ref_trace.steps
    assert trace.rounds == ref_trace.rounds


class TestShiftEdge:
    def test_moves_when_image_absent(self):
        h = Hypergraph(3, 2, [(2, 3)])
        assert shift_edge(h, 1, 2, (2, 3)) == (1, 3)

    def test_blocked_by_present_image(self):
        h = Hypergraph(3, 2, [(1, 3), (2, 3)])
        assert shift_edge(h, 1, 2, (2, 3)) == (2, 3)

    def test_identity_when_j_absent(self):
        h = Hypergraph(4, 3, [(1, 3, 4)])
        assert shift_edge(h, 1, 2, (1, 3, 4)) == (1, 3, 4)

    def test_identity_when_i_present(self):
        h = Hypergraph(4, 3, [(1, 2, 4)])
        assert shift_edge(h, 1, 2, (1, 2, 4)) == (1, 2, 4)

    def test_rejects_foreign_edge(self):
        h = Hypergraph(4, 3, [(1, 2, 3)])
        with pytest.raises(ValueError):
            shift_edge(h, 1, 2, (1, 2, 4))

    def test_rejects_bad_pair(self):
        h = Hypergraph(4, 3, [(1, 2, 3)])
        with pytest.raises(ValueError):
            shift_edge(h, 2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            shift_edge(h, 3, 1, (1, 2, 3))


class TestShiftGraph:
    @pytest.mark.parametrize("seed", range(10))
    def test_preserves_edge_count(self, seed):
        h = seeded_graph(seed, n_lo=5, n_hi=8)
        for i, j in [(1, 2), (2, 5), (1, h.n)]:
            assert shift_graph(h, i, j).e() == h.e()

    @pytest.mark.parametrize("seed", range(8))
    def test_never_raises_matching_number(self, seed):
        h = seeded_graph(seed, n_lo=5, n_hi=8)
        nu = max_matching(h)[0]
        for i in range(1, h.n):
            for j in range(i + 1, h.n + 1):
                assert max_matching(shift_graph(h, i, j))[0] <= nu

    def test_stable_graph_is_fixed(self):
        h = cover_family(7, 3, 2)
        for i, j in [(1, 2), (3, 6), (2, 7)]:
            assert shift_graph(h, i, j) == h


class TestStabilize:
    def test_single_edge_goes_lexicographic(self):
        h = Hypergraph(4, 3, [(2, 3, 4)])
        out, trace = stabilize(h)
        assert out.edges == ((1, 2, 3),)
        assert trace.rounds >= 2

    def test_stable_input_one_quiet_sweep(self):
        h = complete_graph(5, 3)
        out, trace = stabilize(h)
        assert out == h
        assert trace.rounds == 1
        assert all(moved == 0 for _, _, moved in trace.steps)

    @pytest.mark.parametrize("seed", range(12))
    def test_fixpoint_properties(self, seed):
        h = seeded_graph(seed, n_lo=4, n_hi=8)
        out, trace = stabilize(h)
        assert out.e() == h.e()
        assert is_stable(out)
        assert max_matching(out)[0] <= max_matching(h)[0]
        # the label-sum potential never goes below k(k+1)/2 per edge
        assert label_sum(out) >= h.k * (h.k + 1) // 2 * h.e()
        # final sweep moves nothing
        per_round = len(trace.steps) // trace.rounds
        assert all(m == 0 for _, _, m in trace.steps[-per_round:])


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_stabilize_output_equals_the_checked_constructor(seed, k):
    # stabilize builds its output unchecked; the checked constructor must agree
    h = seeded_graph(seed, n_lo=k, n_hi=12, k=k)
    labels = list(h.vertices())
    random.Random(seed).shuffle(labels)
    for g in (h, relabel_graph(h, dict(zip(h.vertices(), labels)))):
        out, _ = stabilize(g)
        checked = Hypergraph(out.n, out.k, out.edges)
        assert out == checked and out.edge_set == checked.edge_set
        assert out.vertex_array().tolist() == [list(e) for e in checked.edges]
        assert all(type(v) is int for e in out.edges for v in e)


class TestStabilizeMatchesReference:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded(self, seed, k):
        assert_matches_reference(seeded_graph(seed, n_lo=k, n_hi=11, k=k))

    def test_empty_graph(self):
        assert_matches_reference(Hypergraph(6, 3, []))

    # the shapes the compress benchmark shifts: relabeled families (few moving
    # steps) and random p .3 graphs (many), each stabilizing in two sweeps
    @pytest.mark.parametrize("n", [14, 20])
    @pytest.mark.parametrize("family", [cover_family, clique_family, hilton_milner_family])
    def test_relabeled_family(self, family, n):
        h = family(n, 3, 3)
        labels = list(h.vertices())
        random.Random(n).shuffle(labels)
        assert_matches_reference(relabel_graph(h, dict(zip(h.vertices(), labels))))

    @pytest.mark.parametrize("n", [16, 20, 23])
    def test_random_graph(self, n):
        assert_matches_reference(random_hypergraph(n, 3, 0.3, n))

    @pytest.mark.parametrize("seed", range(8))
    def test_five_uniform(self, seed):
        assert_matches_reference(seeded_graph(seed, n_lo=5, n_hi=9, k=5))

    @pytest.mark.parametrize("n,k", [(3, 3), (5, 5), (6, 3), (8, 5)])
    def test_complete_graph(self, n, k):
        assert_matches_reference(complete_graph(n, k))

    @pytest.mark.parametrize("k", [3, 5])
    def test_n_equals_k(self, k):
        assert_matches_reference(Hypergraph(k, k, [tuple(range(1, k + 1))]))
        assert_matches_reference(Hypergraph(k, k, []))


class TestStablePredicates:
    def test_complete_is_stable(self):
        assert is_stable(complete_graph(6, 3))
        assert is_downset(complete_graph(6, 3))

    def test_shifted_singleton_not_stable(self):
        h = Hypergraph(4, 3, [(2, 3, 4)])
        assert not is_stable(h)
        assert not is_downset(h)

    def test_missing_dominated_edge(self):
        h = Hypergraph(4, 3, [(1, 2, 4)])
        assert not is_downset(h)  # (1,2,3) is dominated but absent

    def test_cover_family_stable(self):
        assert is_stable(cover_family(8, 3, 2))

    def test_hilton_milner_stable(self):
        assert is_stable(hilton_milner_family(9, 3, 2))


@settings(max_examples=80, deadline=None)
@given(hypergraphs(max_n=7))
def test_stability_equals_downset(h):
    assert is_stable(h) == is_downset(h)


@settings(max_examples=25, deadline=None)
@given(hypergraphs(max_n=6))
def test_downset_matches_full_domination_oracle(h):
    # oracle: closure under every componentwise-dominated tuple, not just
    # single-step descents
    closed = all(u in h for e in h.edges for u in dominated_edges(e, h.n))
    assert is_downset(h) == closed


@settings(max_examples=30, deadline=None)
@given(hypergraphs(max_n=7))
def test_stabilize_output_is_downset(h):
    out, _ = stabilize(h)
    assert is_downset(out)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_n=8))
def test_stabilize_matches_shift_graph_reference(h):
    assert_matches_reference(h)


def test_stabilize_decodes_masks_past_int64():
    # a 2-star through vertex 70, relabeled at random: the final family is
    # {1, 2, x} for x in 3..70, so its masks hold bits up to 69
    n = 70
    star = Hypergraph(n, 3, [(1, 2, x) for x in range(3, n + 1)])
    perm = list(range(1, n + 1))
    random.Random(0).shuffle(perm)
    h = relabel_graph(star, dict(zip(range(1, n + 1), perm)))
    out, trace = stabilize(h)
    assert out == star and sum(moved for *_, moved in trace.steps) > 0
    assert_matches_reference(h)


@settings(max_examples=80, deadline=None)
@given(hypergraphs(max_n=7))
def test_is_stable_matches_definition(h):
    fixed = all(
        shift_graph(h, i, j) == h
        for i in range(1, h.n)
        for j in range(i + 1, h.n + 1)
    )
    assert is_stable(h) == fixed
