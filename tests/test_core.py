import json
import math
import os
import random
import re
import tracemalloc
from itertools import combinations, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermatch import core
from hypermatch.core import (
    BudgetExceeded,
    Hypergraph,
    bit_positions,
    complete_graph,
    edge_mask,
    from_json_dict,
    k_sets,
    random_hypergraph,
    read_hg,
    relabel_graph,
    to_json_dict,
    write_hg,
)
from hypermatch.constructions import (
    augment_universal,
    bound_report,
    clique_family,
    cover_family,
    hilton_milner_family,
    prefix_overlap_family,
)
from hypermatch.optimize import Matching
from hypermatch.rounding import sample_binomial_subgraph
from hypermatch.shifting import shift_graph, stabilize
from hypermatch.verify import NU_LE_S, NU_LE_S_TAU_GT_S, verify_extremal

from strategies import hypergraphs


class TestBuild:
    def test_basic(self):
        h = Hypergraph(3, 2, [{1, 2}, {2, 3}])
        assert h.e() == 2
        assert h.edges == ((1, 2), (2, 3))

    def test_dedup(self):
        assert Hypergraph(4, 3, [{1, 2, 3}, {1, 2, 3}]).e() == 1

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 4, [])

    def test_k_below_two(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 1, [])

    def test_rejects_non_k_set(self):
        with pytest.raises(ValueError):
            Hypergraph(5, 3, [(1, 2)])
        with pytest.raises(ValueError):
            Hypergraph(5, 3, [(1, 2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(5, 3, [(3, 4, 6)])
        with pytest.raises(ValueError):
            Hypergraph(5, 3, [(0, 1, 2)])

    def test_degenerate_k_equals_n(self):
        h = Hypergraph(3, 3, [(1, 2, 3)])
        assert h.e() == 1

    @pytest.mark.parametrize(
        "edges, named",
        [
            ([(1, 2, 3.5), (1, 2, 3)], (1, 2, 3.5)),
            ([(1, 2, 3), (1, 2, 3.0)], (1, 2, 3.0)),
            ([(1, 2, 3), ("1", "2", "4")], ("1", "2", "4")),
            ([(1, 2, "3")], (1, 2, "3")),
            (np.array([(1, 2, 3), (1, 2, 4.5)]), (1.0, 2.0, 3.0)),  # every id of a float array is a float
        ],
    )
    def test_rejects_a_non_integer_id(self, edges, named):
        with pytest.raises(ValueError, match=re.escape(f"edge {named!r} has a non-integer vertex id")):
            Hypergraph(5, 3, edges)

    def test_takes_numpy_integer_ids(self):
        h = Hypergraph(5, 3, [(np.int64(3), np.int64(1), 2), (np.uint64(2), np.int64(4), 5)])
        assert h.edges == ((1, 2, 3), (2, 4, 5))
        assert (3, 2, 1) in h and all(type(v) is int for e in h.edges for v in e)

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(3, 2, 1), (1, 2, 2), (0, 1, 2)], "edge (1, 2, 2) repeats a vertex"),
            ([(3, 2, 1), (4, 6, 5), (1, 1, 2)], "edge (4, 5, 6) leaves the vertex range 1..5"),
            ([(3, 2, 1), (5, 3, 2), (4, 0, 2)], "edge (0, 2, 4) leaves the vertex range 1..5"),
        ],
    )
    def test_names_the_first_bad_edge_in_input_order(self, edges, message, as_array):
        with pytest.raises(ValueError, match=re.escape(message)):
            Hypergraph(5, 3, np.array(edges) if as_array else edges)

    def test_names_an_edge_of_the_wrong_size(self):
        with pytest.raises(ValueError, match=re.escape("edge (1, 2) does not have 3 vertices")):
            Hypergraph(5, 3, [(3, 2, 1), (2, 1), (1, 2, 3, 4)])
        with pytest.raises(ValueError, match=re.escape("edge (1, 2, 3, 4) does not have 3 vertices")):
            Hypergraph(5, 3, np.array([(1, 2, 3, 4)]))

    def test_an_id_past_int64_leaves_the_range(self):
        for big in (2**63, 2**64 + 3):
            with pytest.raises(ValueError, match="leaves the vertex range"):
                Hypergraph(5, 3, [(1, 2, 3), (1, 2, big)])
        wrapped = np.array([(1, 2, 3), (1, 2, 2**64 - 1)], dtype=np.uint64)  # -1 as intp
        with pytest.raises(ValueError, match=re.escape(f"edge (1, 2, {2**64 - 1}) leaves")):
            Hypergraph(5, 3, wrapped)


class TestDegrees:
    def test_degree_complete(self):
        h = complete_graph(4, 3)
        # enumeration: edges through vertex 1 are 1 + each 2-subset of {2,3,4}
        assert h.degree(1) == len(list(combinations([2, 3, 4], 2))) == 3

    def test_degree_empty(self):
        h = Hypergraph(5, 3, [])
        assert all(h.degree(v) == 0 for v in h.vertices())

    def test_degree_cover_family(self):
        h = cover_family(9, 3, 2, w=(1, 2))
        # enumeration oracle: count 3-sets through 1 directly
        expect = sum(
            1 for e in combinations(range(1, 10), 3) if 1 in e
        )
        assert h.degree(1) == expect == math.comb(8, 2)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            complete_graph(4, 3).degree(5)

    def test_set_degree_pair(self):
        h = complete_graph(4, 3)
        assert h.set_degree({1, 2}) == 2  # {1,2,3} and {1,2,4}

    def test_set_degree_empty_set(self):
        h = complete_graph(5, 3)
        assert h.set_degree(set()) == h.e()

    def test_set_degree_full_edge(self):
        h = complete_graph(5, 3)
        assert h.set_degree({1, 2, 3}) == 1

    def test_set_degree_too_big(self):
        with pytest.raises(ValueError):
            complete_graph(5, 3).set_degree({1, 2, 3, 4})

    def test_max_set_degree(self):
        assert complete_graph(5, 3).max_set_degree(2) == 3  # each pair in n-2 edges
        assert Hypergraph(5, 3, [(1, 2, 3)]).max_set_degree(1) == 1
        assert Hypergraph(5, 3, []).max_set_degree(2) == 0

    def test_max_set_degree_range(self):
        with pytest.raises(ValueError):
            complete_graph(5, 3).max_set_degree(4)


class TestDerivedGraphs:
    def test_induced_identity(self):
        h = complete_graph(5, 3)
        g, relabel = h.induced(range(1, 6))
        assert g == h
        assert relabel == {v: v for v in range(1, 6)}

    def test_induced_triangle(self):
        g, _ = complete_graph(5, 3).induced({1, 2, 3})
        assert g.edges == ((1, 2, 3),)

    def test_induced_cover_complement_is_empty(self):
        h = cover_family(9, 3, 2, w=(1, 2))
        g, _ = h.induced(set(range(3, 10)))
        assert g.e() == 0  # every edge meets W

    def test_delete_nothing(self):
        h = complete_graph(4, 3)
        g, _ = h.delete_vertices(set())
        assert g == h

    def test_delete_one(self):
        g, _ = complete_graph(4, 3).delete_vertices({4})
        assert g.edges == ((1, 2, 3),)

    def test_delete_from_hilton_milner(self):
        h = hilton_milner_family(10, 3, 2)
        # enumeration oracle: edges of the family avoiding {1, 2}
        survivors = [e for e in h.edges if 1 not in e and 2 not in e]
        g, _ = h.delete_vertices({1, 2})
        assert g.e() == len(survivors) == 1  # only the block survives

    def test_delete_edges(self):
        h = complete_graph(4, 3)
        g, ignored = h.delete_edges(h.edges)
        assert g.e() == 0 and g.n == 4 and ignored == 0
        g2, ignored2 = h.delete_edges([])
        assert g2 == h and ignored2 == 0
        g3, ignored3 = h.delete_edges([(1, 2, 3), (1, 2, 4), (1, 2, 3)])
        assert g3.e() == 2 and ignored3 == 0

    def test_delete_absent_edges_ignored(self):
        h = Hypergraph(5, 3, [(1, 2, 3), (2, 3, 4)])
        g, ignored = h.delete_edges([(1, 2, 3), (3, 4, 5)])
        assert g.e() == 1 and ignored == 1

    def test_relabel(self):
        h = Hypergraph(3, 2, [(1, 2)])
        g = relabel_graph(h, {1: 3, 2: 2, 3: 1})
        assert g.edges == ((2, 3),)
        with pytest.raises(ValueError):
            relabel_graph(h, {1: 1, 2: 1, 3: 3})


class TestFiles:
    def test_round_trip(self, tmp_path):
        h = cover_family(9, 3, 2)
        path = tmp_path / "g.hg"
        write_hg(h, str(path))
        assert read_hg(str(path)) == h
        assert path.read_text().endswith("\n")

    def test_single_edge_file(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("3 4 1\n1 2 3\n")
        h = read_hg(str(path))
        assert h.n == 4 and h.k == 3 and h.edges == ((1, 2, 3),)

    def test_empty_graph_file(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("3 5 0\n")
        h = read_hg(str(path))
        assert h.n == 5 and h.e() == 0

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("# a comment\n3 4 1\n# another\n1 2 3\n")
        assert read_hg(str(path)).e() == 1

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("3 4 1\n1 2\n")
        with pytest.raises(ValueError):
            read_hg(str(path))

    def test_descending_rejected(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("3 4 1\n3 2 1\n")
        with pytest.raises(ValueError):
            read_hg(str(path))

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("3 4 1\n1 2 2\n")
        with pytest.raises(ValueError):
            read_hg(str(path))

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("3 4 1\n2 3 5\n")
        with pytest.raises(ValueError):
            read_hg(str(path))

    @pytest.mark.parametrize("body", ["1 2 x\n", "1 2.0 3\n"])
    def test_non_integer_id_names_path_and_line(self, tmp_path, body):
        path = tmp_path / "g.hg"
        path.write_text("# comment\n3 4 1\n" + body)
        with pytest.raises(ValueError) as exc:
            read_hg(str(path))
        assert str(exc.value).startswith(f"{path}:3: edge line")
        assert "non-integer vertex id" in str(exc.value)

    @pytest.mark.parametrize("body", ["1 2 1_0\n", "+1 2 3\n", "1 3 \u0664\n", "1 2 \uff13\n"])
    def test_non_plain_decimal_id_names_path_and_line(self, tmp_path, body):
        # int() would read these as 10, 1, 4 and 3
        path = tmp_path / "g.hg"
        path.write_text("# comment\n3 10 1\n" + body, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_hg(str(path))
        assert str(exc.value).startswith(f"{path}:3: edge line")
        assert "non-integer vertex id" in str(exc.value)

    @pytest.mark.parametrize("head", ["3 1_0 0", "+3 10 0", "3 10 \u0660", "3 \u0661\u0660 0"])
    def test_non_plain_decimal_header_names_path_and_line(self, tmp_path, head):
        path = tmp_path / "g.hg"
        path.write_text(f"# comment\n{head}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-integer header") as exc:
            read_hg(str(path))
        assert str(exc.value).startswith(f"{path}:2: ")

    def test_negative_id_rejected_by_the_range_check(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("3 4 1\n-1 2 3\n")
        with pytest.raises(ValueError, match="leaves 1..4"):
            read_hg(str(path))

    def test_impossible_header_names_path_and_line(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("# comment\n4 3 0\n")
        with pytest.raises(ValueError, match="uniformity k=4 exceeds") as exc:
            read_hg(str(path))
        assert str(exc.value).startswith(f"{path}:2: ")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("3 4\n")
        with pytest.raises(ValueError):
            read_hg(str(path))

    def test_edge_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "g.hg"
        path.write_text("3 4 2\n1 2 3\n")
        with pytest.raises(ValueError):
            read_hg(str(path))

    def test_json_round_trip(self):
        h = cover_family(7, 3, 1)
        d = to_json_dict(h)
        assert d["k"] == 3 and d["n"] == 7
        assert from_json_dict(d) == h

    def test_json_float_id_is_refused(self):
        d = json.loads('{"k": 3, "n": 5, "edges": [[1, 2, 3], [1, 2, 3.5]]}')
        with pytest.raises(ValueError, match=re.escape("edge (1, 2, 3.5) has a non-integer vertex id")):
            from_json_dict(d)

    def test_a_huge_empty_graph_is_read_at_once(self, tmp_path):
        # k and n of 18 digits: no step may loop over k or over 1..n
        path = tmp_path / "g.hg"
        path.write_text("999999999999999999 999999999999999999 0\n")
        h = read_hg(str(path))
        assert (h.k, h.n, h.e()) == (10**18 - 1, 10**18 - 1, 0)
        assert h.edges == () and h.vertex_array().shape == (0, 10**18 - 1)


class TestKSets:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_lex_order_equals_combinations(self, k):
        # k = 0 is one empty row, C(n, 0) = 1; graphs start at k = 2
        for n in range(0, 15):
            want = list(combinations(range(1, n + 1), k))
            v = k_sets(n, k)
            assert v.dtype == np.intp and v.shape == (math.comb(n, k), k)
            assert v.tolist() == [list(e) for e in want]
            if n >= k >= 2:
                assert complete_graph(n, k).edges == tuple(want)

    def test_k_near_n_lists_no_wider_level(self):
        # level j lists the j-sets of {k-j+1..n}: C(40, 20) = 1.4e11 rows
        # would be listed on the way to C(40, 38) = 780 otherwise
        tracemalloc.start()
        try:
            v = k_sets(40, 38)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.tolist() == [list(e) for e in combinations(range(1, 41), 38)]
        assert peak < 1 << 20

    def test_guard_refuses_before_allocating(self):
        # C(100000, 3) = 1.7e14 rows; the refusal names the count and lists none
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=r"C\(100000,3\)=166661666700000 k-sets"):
                k_sets(100000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        for make in (
            lambda: complete_graph(100000, 3),
            lambda: random_hypergraph(100000, 3, 0.5, seed=1),
            lambda: cover_family(100000, 3, 1),
            lambda: hilton_milner_family(100000, 3, 1),
            lambda: prefix_overlap_family(100000, 3, 1, 2),
            lambda: augment_universal(Hypergraph(100000, 3, [(1, 2, 3)]), 1),
        ):
            with pytest.raises(BudgetExceeded):
                make()
        # the clique family lists the k-sets of U alone
        assert clique_family(100000, 3, 1).edges == tuple(combinations(range(1, 6), 3))

    def test_guard_is_at_its_constant(self, monkeypatch):
        # K300's 4.46M rows stay inside the real guard; the boundary is read
        # off a small stand-in rather than listed
        assert math.comb(300, 3) <= core.K_SETS_GUARD < math.comb(100000, 3)
        monkeypatch.setattr(core, "K_SETS_GUARD", math.comb(10, 3))
        assert len(k_sets(10, 3)) == 120
        with pytest.raises(BudgetExceeded, match="refuses past 120 rows"):
            k_sets(11, 3)


class TestRandom:
    def test_p_zero(self):
        assert random_hypergraph(8, 3, 0.0, seed=1).e() == 0

    def test_p_one(self):
        h = random_hypergraph(6, 3, 1.0, seed=1)
        assert h.e() == math.comb(6, 3)

    def test_deterministic(self):
        a = random_hypergraph(10, 3, 0.5, seed=7)
        b = random_hypergraph(10, 3, 0.5, seed=7)
        assert a == b

    def test_binomial_concentration(self):
        # mean C(10,3)/2 = 60, sigma = sqrt(30)
        h = random_hypergraph(10, 3, 0.5, seed=42)
        assert abs(h.e() - 60) <= 3 * math.sqrt(30)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            random_hypergraph(5, 3, 1.5, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4).flatmap(lambda k: st.tuples(st.integers(k, 12), st.just(k))),
        st.sampled_from([0.0, 0.1, 0.5, 0.93, 1.0]),
        st.integers(0, 2**32),
    )
    def test_equals_one_draw_per_k_set_in_lex_order(self, nk, p, seed):
        n, k = nk
        rng = random.Random(seed)
        want = [e for e in combinations(range(1, n + 1), k) if rng.random() < p]
        assert random_hypergraph(n, k, p, seed).edges == tuple(want)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 7, 11, 42])
    def test_seeds_the_tests_use(self, seed):
        rng = random.Random(seed)
        want = [e for e in combinations(range(1, 31), 3) if rng.random() < 0.3]
        assert random_hypergraph(30, 3, 0.3, seed).edges == tuple(want)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_degree_sum_is_k_times_edges(h):
    assert sum(h.degree(v) for v in h.vertices()) == h.k * h.e()


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=7))
def test_set_degree_antitone_in_set(h):
    for e in h.edges[:5]:
        for sub in combinations(e, 2):
            assert h.set_degree(e) <= h.set_degree(sub) <= h.set_degree((sub[0],))


@settings(max_examples=30, deadline=None)
@given(hypergraphs(min_n=5, max_n=8))
def test_induced_composes(h):
    s = tuple(range(1, 6))
    g1, m1 = h.induced(s)
    s2 = (1, 3, 4, 5)
    g2, m2 = g1.induced(s2)
    direct, m3 = h.induced([v for v in s if m1[v] in s2])
    assert g2 == direct


@settings(max_examples=40, deadline=None)
@given(hypergraphs(min_n=5, max_n=8))
def test_delete_vertices_drops_exactly_incident(h):
    drop = {1, 2}
    g, relabel = h.delete_vertices(drop)
    survivors = {e for e in h.edges if not drop.intersection(e)}
    mapped = {tuple(sorted(relabel[v] for v in e)) for e in survivors}
    assert set(g.edges) == mapped


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=8, k=k)))
def test_file_and_json_round_trip(tmp_path_factory, h):
    path = str(tmp_path_factory.mktemp("rt") / "g.hg")
    write_hg(h, path)
    assert read_hg(path) == h
    assert from_json_dict(json.loads(json.dumps(to_json_dict(h)))) == h


def _per_line_bytes(h):
    """A `.hg` file as the per-line writer made it: one join and one write per edge."""
    lines = [f"{h.k} {h.n} {h.e()}\n"]
    lines += [" ".join(map(str, e)) + "\n" for e in h.vertex_array().tolist()]
    return "".join(lines).encode()


@st.composite
def _graphs_to_write(draw):
    """Graphs with k 2-5, m from 0, on few vertices or with ids past 2**31."""
    k = draw(st.integers(2, 5))
    n = draw(st.one_of(st.integers(k, 9), st.integers(2**31 + k, 2**40)))
    ids = st.one_of(st.integers(1, min(n, 9)), st.integers(max(1, n - 9), n))
    edge = st.lists(ids, min_size=k, max_size=k, unique=True)
    return Hypergraph(n, k, draw(st.lists(edge, max_size=12)))


@settings(max_examples=120, deadline=None)
@given(_graphs_to_write(), st.sampled_from([1, 2, 3, core._WRITE_ROWS]))
@example(Hypergraph(6, 4, []), core._WRITE_ROWS)
@example(Hypergraph(2**40, 3, [(1, 2**31, 2**40), (2, 3, 2**31)]), 1)
def test_write_hg_writes_the_per_line_bytes(tmp_path_factory, h, rows):
    # blocks of 1-3 rows put block edges inside the graph; the default never does here
    path = tmp_path_factory.mktemp("w") / "g.hg"
    with mock.patch.object(core, "_WRITE_ROWS", rows):
        write_hg(h, str(path))
    assert path.read_bytes() == _per_line_bytes(h)
    assert read_hg(str(path)) == h


_TOKEN = st.sampled_from(["0", "1", "2", "3", "4", "5", "7", "-1", "x", "2.0", "#", ""])
_LINE = st.one_of(
    st.lists(_TOKEN, max_size=4).map(" ".join),
    st.lists(st.integers(-1, 6), min_size=2, max_size=3).map(lambda ids: " ".join(map(str, ids))),
)


@st.composite
def _hg_lines(draw):
    """Fuzzed `.hg` lines, half of them under a header that fits the body."""
    body = draw(st.lists(_LINE, max_size=3))
    if draw(st.booleans()):
        header = draw(_LINE)
    else:
        k, n = draw(st.integers(2, 3)), draw(st.integers(1, 6))
        header = f"{k} {n} {len(body) + draw(st.integers(-1, 1))}"
    return [header, *body]


@settings(max_examples=200, deadline=None)
@given(_hg_lines())
def test_read_hg_rejects_only_with_path_and_line(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "g.hg"
    path.write_text("".join(ln + "\n" for ln in lines))
    try:
        h = read_hg(str(path))
    except ValueError as exc:
        if any(ln.strip() and not ln.lstrip().startswith("#") for ln in lines):
            assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), str(exc)
        else:
            assert str(exc) == f"{path}: no header line"
    else:
        write_hg(h, str(path))
        assert read_hg(str(path)) == h


@st.composite
def _canonical_lists(draw, max_n: int = 8):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, max_n))
    pool = list(combinations(range(1, n + 1), k))
    return n, k, draw(st.lists(st.sampled_from(pool), max_size=len(pool)))


@settings(max_examples=80, deadline=None)
@given(_canonical_lists(), st.randoms(use_true_random=False))
@example((4, 3, [(1, 2, 3)] * 3 + [(2, 3, 4)]), random.Random(0))
def test_constructor_equals_the_sorted_set_of_sorted_edges(case, rnd):
    """Rows shuffled, repeated and each in any order, given as tuples, lists,
    sets, an iterator, or an intp, int32 or uint16 array, all give the one
    canonical graph."""
    n, k, lines = case
    want = sorted({tuple(sorted(e)) for e in lines})
    edges = lines + rnd.sample(lines, len(lines) // 2)
    rnd.shuffle(edges)
    edges = [tuple(rnd.sample(e, k)) for e in edges]
    canon = Hypergraph(n, k, want)
    assert canon.edges == tuple(want) and canon.edge_set == frozenset(want)
    given = [
        edges,
        [list(e) for e in edges],
        [set(e) for e in edges],
        iter(edges),
        np.array(edges, dtype=np.intp).reshape(-1, k),
        np.array(edges, dtype=np.int32).reshape(-1, k),
        np.array(edges, dtype=np.uint16).reshape(-1, k),
    ]
    for e in given:
        h = Hypergraph(n, k, e)
        _assert_vertex_array(h)
        assert h == canon and h.edges == tuple(want)
        assert all(type(v) is int for t in h.edges for v in t)


@settings(max_examples=60, deadline=None)
@given(_canonical_lists(), st.randoms(use_true_random=False))
def test_membership_agrees_with_the_edge_set(case, rnd):
    n, k, lines = case
    h = Hypergraph(n, k, lines)
    probes = [rnd.sample(range(1, n + 1), k) for _ in range(20)]  # edges and non-edges, any order
    probes += [e[::-1] for e in h.edges] + [(0,) * k, (n + 1,) * k, (1,), tuple(range(1, n + 1))]
    probes.append((1,) + tuple(range(1, k)))  # a repeated vertex, such as (1, 1, 2)
    got = [p in h for p in probes]
    assert h._edge_set is None  # answered without building the set
    assert got == [tuple(sorted(p)) in h.edge_set for p in probes]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 200).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.sets(st.integers(0, w - 1) if w else st.nothing()), max_size=4))
))
def test_bit_positions_round_trip(case):
    """Widths 0 to 200, most of them not a multiple of 8: the decoder reads
    back the positions ``edge_mask`` packed, as per-bit reads see them."""
    width, sets = case
    masks = [edge_mask(v + 1 for v in s) for s in sets]
    got = bit_positions(masks, width)
    assert got.tolist() == [v for s in sets for v in sorted(s)]
    assert got.tolist() == [i for m in masks for i in range(width) if m >> i & 1]
    for s, m in zip(sets, masks):
        one = bit_positions((m,), width).tolist()
        assert edge_mask(v + 1 for v in one) == m and one == sorted(s)


def test_bit_positions_refuse_a_mask_past_the_width():
    assert bit_positions((1 << 7,), 8).tolist() == [7]
    with pytest.raises(OverflowError):
        bit_positions((1 << 8,), 8)


def _matching_outcome(m: Matching, h: Hypergraph) -> str | None:
    try:
        m.validate(h)
    except ValueError as exc:
        return str(exc)
    return None


def _membership_case(n: int, k: int, canon: list, rnd: random.Random) -> None:
    """``in`` and ``Matching.validate`` answer alike on the graph built from
    tuples and on the one built from an intp array, agree with the edge
    list, and build no tuples or set doing so."""
    tuples = Hypergraph(n, k, canon)
    born = Hypergraph(n, k, np.array(canon, dtype=np.intp).reshape(-1, k))
    edges = set(canon)
    probes = [tuple(rnd.sample(range(1, n + 1), k)) for _ in range(20)]
    probes += [e[::-1] for e in canon] + [(0,) * k, (n + 1,) * k, (1,), tuple(range(1, k + 2))]
    probes.append((1,) + tuple(range(1, k)))  # a repeated vertex
    want = [tuple(sorted(p)) in edges for p in probes]
    assert [p in tuples for p in probes] == want
    assert [p in born for p in probes] == want
    assert born.has_edges(probes) == want
    greedy, used = [], set()
    for e in canon:
        if used.isdisjoint(e):
            greedy.append(e)
            used.update(e)
    missing = [p for p, hit in zip(probes, want) if not hit and len(set(p)) == k]
    reused = greedy + greedy[:1]  # the first edge twice reuses its vertices
    cases = [greedy, reused, greedy + missing[:1], missing[:1]]
    for es in cases:
        m = Matching(tuple(es))
        assert _matching_outcome(m, born) == _matching_outcome(m, tuples)
    assert born._edges is None and born._edge_set is None and tuples._edge_set is None
    assert _matching_outcome(Matching(tuple(greedy)), born) is None
    if greedy:
        assert "reuses a vertex" in _matching_outcome(Matching(tuple(reused)), born)
    if missing:
        assert "not in the graph" in _matching_outcome(Matching(tuple(missing[:1])), born)


@settings(max_examples=80, deadline=None)
@given(_canonical_lists(max_n=12), st.randoms(use_true_random=False))
def test_membership_of_tuple_built_and_array_born_graphs_agrees(case, rnd):
    n, k, lines = case
    _membership_case(n, k, sorted(set(lines)), rnd)


@pytest.mark.parametrize("n, k", [(2**21, 3), (2**16, 4)])  # (n+1)^k >= 2^63: object codes
def test_membership_with_object_codes(n, k):
    rnd = random.Random(n)
    canon = sorted({tuple(sorted(rnd.sample(range(1, n + 1), k))) for _ in range(30)})
    canon += [tuple(range(n - k + 1, n + 1))]  # the lex-last k-set, with the largest code
    born = Hypergraph(n, k, np.array(canon, dtype=np.intp))
    assert core.lex_codes(born.vertex_array(), n).dtype == object
    _membership_case(n, k, canon, rnd)


@pytest.mark.parametrize("n, k", [(12, 3), (2**21, 3)])  # int64 and object codes
def test_membership_codes_the_rows_once(monkeypatch, n, k):
    rnd = random.Random(n)
    h = Hypergraph(n, k, [rnd.sample(range(1, n + 1), k) for _ in range(40)])
    asked = [*h.edges[::7], (1, 2, n), (n, 2, 1), (1, 2), (0, 1, 2)]
    want = [tuple(sorted(e)) in h.edge_set for e in asked]
    real, rows_coded = core.lex_codes, []

    def spy(rows, n):
        if rows is h.vertex_array():
            rows_coded.append(len(rows))
        return real(rows, n)

    monkeypatch.setattr(core, "lex_codes", spy)
    for _ in range(3):
        assert [e in h for e in asked] == want
        assert h.has_edges(asked) == want
    assert rows_coded == [h.e()]


def _assert_vertex_array(h: Hypergraph) -> None:
    """``vertex_array()`` is the one intp array the graph holds: read-only,
    its rows ascending k-sets of [n] in strict lex order, equal to ``edges``."""
    v = h.vertex_array()
    assert v.shape == (h.e(), h.k) and v.dtype == np.intp
    rows = [tuple(r) for r in v.tolist()]
    assert all(list(r) == sorted(set(r)) and 1 <= r[0] and r[-1] <= h.n for r in rows)
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert rows == list(h.edges)
    assert not v.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        v[...] = 0
    assert h.vertex_array() is v


@settings(max_examples=40, deadline=None)
@given(_canonical_lists())
def test_vertex_array_of_the_constructors(case):
    n, k, lines = case
    canon = sorted(set(lines))
    checked = Hypergraph(n, k, lines)
    _assert_vertex_array(checked)
    _assert_vertex_array(Hypergraph(n, k, canon))
    given_array = np.array(canon, dtype=np.intp).reshape(len(canon), k).copy()
    born = Hypergraph(n, k, given_array)
    assert born.vertex_array().base is given_array  # taken as it is, not copied
    assert born.e() == len(canon) and born._edges is None  # counted without tuples
    assert born == checked and born.edges == tuple(canon)
    assert all(type(v) is int for e in born.edges for v in e)
    _assert_vertex_array(born)
    narrow = Hypergraph(n, k, given_array.astype(np.int32))
    _assert_vertex_array(narrow)  # converted to intp
    assert narrow == born


_READ_PATHS = {
    "bulk": b"3 5 3\n1 2 3\n1 2 4\n2 4 5\n",
    "bulk, lines out of order and repeated": b"3 5 4\n2 4 5\n1 2 3\n2 4 5\n1 2 4\n",
    "per-line loop": b"3 5 3\n0000000000000000001 2 3\n1 2 4\n2 4 5\n",
    "per-line loop, lines repeated": b"3 5 3\n1 2 4\n0000000000000000001 2 3\n1 2 4\n",
    "empty": b"3 5 0\n",
}


@pytest.mark.parametrize("data", _READ_PATHS.values(), ids=_READ_PATHS.keys())
def test_vertex_array_of_read_hg(tmp_path, data):
    path = tmp_path / "g.hg"
    path.write_bytes(data)
    h = read_hg(str(path))
    _assert_vertex_array(h)
    assert h == _per_line(str(path))


@pytest.mark.parametrize("r", [0, 1, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_vertex_array_of_augmented_and_sampled_graphs(k, r):
    for seed, p in ((1, 0.0), (2, 0.4), (3, 1.0)):
        h = random_hypergraph(7, k, p, seed)
        hr = augment_universal(h, r)
        _assert_vertex_array(hr)
        probs = np.linspace(0.0, 1.0, hr.e())
        _assert_vertex_array(sample_binomial_subgraph(hr, probs, seed).sampled)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=8, k=k)))
@example(Hypergraph(5, 3, []))
def test_vertex_array_of_shifted_and_derived_graphs(h):
    stable, _ = stabilize(h)
    assert stable._edges is None  # handed over its rows alone
    _assert_vertex_array(stable)
    _assert_vertex_array(shift_graph(h, 1, h.n))
    _assert_vertex_array(h.delete_edges(h.edges[::2])[0])
    if h.n > h.k:  # a vertex can go and k still fit
        _assert_vertex_array(h.induced(range(2, h.n + 1))[0])
        _assert_vertex_array(h.delete_vertices([h.n])[0])


@pytest.mark.parametrize("k, s", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_vertex_array_of_the_families(k, s):
    n = k * (s + 1) + 1
    for h in (
        cover_family(n, k, s),
        clique_family(n, k, s),
        hilton_milner_family(n, k, s),
        prefix_overlap_family(n, k, s, k),
    ):
        _assert_vertex_array(h)


@pytest.mark.parametrize("method", ["exhaustive", "pruned"])
@pytest.mark.parametrize("n, k, s, constraint", [(6, 2, 1, NU_LE_S), (6, 2, 2, NU_LE_S_TAU_GT_S)])
def test_vertex_array_of_verify_witnesses(n, k, s, constraint, method):
    res = verify_extremal(n, k, s, constraint, method)
    assert res.extremal_witnesses
    for w in res.extremal_witnesses:
        assert w._edges is None  # the index's rows at the set bits, no tuples
        _assert_vertex_array(w)


def test_vertex_count_past_intp_is_refused():
    top = (1, 2, core._MAX_ID)  # the largest n a vertex array holds
    h = Hypergraph(core._MAX_ID, 3, [top])
    assert h.vertex_array().tolist() == [list(top)] and top in h and (1, 2, 3) not in h
    assert Hypergraph(core._MAX_ID, 3, np.array([top], dtype=np.intp)) == h
    huge = core._MAX_ID + 1
    with pytest.raises(ValueError, match="exceeds"):
        Hypergraph(huge, 3, [])
    with pytest.raises(ValueError, match="exceeds"):
        Hypergraph(huge, 3, [(1, 2, huge)])
    with pytest.raises(ValueError, match="exceeds"):
        Hypergraph(huge, 3, np.array([(1, 2, 3)], dtype=np.intp))
    assert bound_report(huge, 3, 2).n == huge  # closed forms build no graph


def test_read_hg_names_the_header_of_a_graph_past_intp(tmp_path):
    path = tmp_path / "big.hg"
    path.write_text("3 100000000000000000000 1\n1 2 99999999999999999999\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: vertex count")):
        read_hg(str(path))


def test_equality_and_hash_read_the_array(tmp_path):
    h = random_hypergraph(9, 3, 0.4, 5)
    path = str(tmp_path / "g.hg")
    write_hg(h, path)
    born, again = read_hg(path), read_hg(path)
    assert born == again and hash(born) == hash(again)
    assert born._edges is None and again._edges is None  # compared without tuples
    assert born == h and hash(born) == hash(h)  # the constructor's graph, and the reader's
    two = Hypergraph(5, 3, [(1, 2, 3), (1, 2, 4)])
    assert two != Hypergraph(6, 3, two.edges)  # another n
    assert two != Hypergraph(5, 3, two.edges[:1])  # another shape
    assert two != Hypergraph(5, 3, [(1, 2, 3), (1, 2, 5)])  # another row
    assert Hypergraph(5, 2, []) != Hypergraph(5, 3, [])  # both arrays empty, another k
    assert two != two.edges


def test_writers_build_no_tuples(tmp_path):
    h = random_hypergraph(9, 3, 0.4, 6)
    path = str(tmp_path / "g.hg")
    write_hg(h, path)
    born = read_hg(path)
    write_hg(born, str(tmp_path / "again.hg"))
    assert to_json_dict(born) == {"k": 3, "n": 9, "edges": [list(e) for e in h.edges]}
    assert born._edges is None
    assert (tmp_path / "again.hg").read_bytes() == (tmp_path / "g.hg").read_bytes()


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("high", [False, True])
def test_sparse_graph_on_many_vertices_costs_only_its_masks(tmp_path, k, high):
    # a mask table over all of 1..n would hold about n²/2 bits, 25 MB here
    n = 20_000
    e = tuple(range(n - k + 1, n + 1)) if high else tuple(range(1, k + 1))
    path = tmp_path / "g.hg"
    path.write_text(f"{k} {n} 1\n" + " ".join(map(str, e)) + "\n")
    tracemalloc.start()
    try:
        h = read_hg(str(path))
        empty = Hypergraph(n, k, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.edges == (e,)
    assert empty.n == n and empty.edges == ()
    assert peak < 1 << 20


@settings(max_examples=60, deadline=None)
@given(_canonical_lists(), st.randoms(use_true_random=False))
@example((5, 3, [(2, 3, 4), (1, 2, 3), (1, 4, 5)]), random.Random(0))
def test_read_hg_of_shuffled_duplicated_lines_equals_the_checked_constructor(
    tmp_path_factory, case, rnd
):
    n, k, lines = case
    lines = lines + lines[: len(lines) // 2]  # a repeated line collapses
    rnd.shuffle(lines)
    path = tmp_path_factory.mktemp("hg") / "g.hg"
    path.write_text(f"{k} {n} {len(lines)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in lines))
    assert read_hg(str(path)) == Hypergraph(n, k, lines)


# -- the bulk reader against the per-line loop ---------------------------------


def _per_line(path: str) -> Hypergraph:
    """The reference: the per-line loop over the file as ``open`` reads it."""
    with open(path) as fh:
        return core._read_hg_lines(path, fh)


def _outcome(read, path: str):
    """What a reader makes of a file: its graph, or its error message."""
    try:
        h = read(path)
    except ValueError as exc:
        return "error", str(exc)
    assert all(type(v) is int for e in h.edges for v in e)
    return "graph", h.n, h.k, h.edges


_BLANK = st.sampled_from(["", " ", "  ", "\t", " \t "])
_FILLER = st.sampled_from(["", "   ", "\t", "# note", "  # 1 2 3", "#"])


@st.composite
def _hg_texts(draw):
    """`.hg` texts over k 2..4: shuffled and repeated edge lines, leading zeros
    (up to 19+ digits), tabs and runs of spaces, comment and blank lines, CRLF,
    and at times a malformed line or a header count that is off by one."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 9))
    pool = list(combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(pool), max_size=10))
    edges = draw(st.permutations(edges + edges[: draw(st.integers(0, 3))]))
    zeros = st.sampled_from([0, 0, 0, 1, 4, 17, 18, 24])
    lines = [
        draw(_BLANK) + draw(st.sampled_from([" ", "  ", "\t"])).join(
            "0" * draw(zeros) + str(v) for v in e
        )
        for e in edges
    ]
    if draw(st.booleans()):
        bad = draw(st.one_of(_LINE, st.sampled_from(["1 2 10000000000000000000", "1\x0b2 3", "1 2 ３"])))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    header = f"{k} {n} {len(lines) + draw(st.sampled_from([0, 0, 0, -1, 1]))}"
    out = []
    for ln in [header, *lines]:
        out += draw(st.lists(_FILLER, max_size=2))
        out.append(ln + draw(_BLANK))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(out) + draw(st.sampled_from([eol, ""]))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(st.one_of(_hg_texts(), _hg_lines().map(lambda lines: "".join(ln + "\n" for ln in lines))))
@example("3 4 1\n0000000000000000000001 2 3\n")  # a 22-digit id: the per-line loop reads it
@example("2 3 2\r\n1\t2\r\n\r\n# c\r\n  2   3  \r\n")
def test_read_hg_equals_the_per_line_loop(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("eq") / "g.hg")
    with open(path, "wb") as fh:
        fh.write(text.encode())
    assert _outcome(read_hg, path) == _outcome(_per_line, path)


def _refuse_lines(path, fh):
    raise AssertionError(f"{path} left the bulk path")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda k: hypergraphs(min_n=k, max_n=9, k=k)))
@example(Hypergraph(5, 3, []))
@example(complete_graph(20, 3))
@example(random_hypergraph(40, 4, 0.05, 1))
def test_every_written_graph_takes_the_bulk_path(tmp_path_factory, h):
    path = str(tmp_path_factory.mktemp("bulk") / "g.hg")
    write_hg(h, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_read_hg_lines", _refuse_lines)
        assert read_hg(path) == h


# Files the bulk checks all pass, in and out of strict lex order; every one
# hands over its array alone, rows out of order sorted and repeated ones
# collapsed. (n+1)^k >= 2^63 in the two "object codes" files,
# so their lex codes are Python ints.
_BULK_ORDERS = {
    "no edge": b"3 5 0\n",
    "one edge": b"3 5 1\n2 4 5\n",
    "rows equal up to the last column": b"3 5 3\n1 2 4\n1 2 5\n1 3 4\n",
    "a duplicate line": b"3 5 3\n1 2 4\n1 2 4\n1 2 5\n",
    "a descending last column": b"3 5 2\n1 2 5\n1 2 4\n",
    "an unsorted body": b"3 6 3\n2 3 4\n1 5 6\n1 2 3\n",
    "object codes, in order": b"3 2097152 3\n1 2 3\n1 2 2097152\n2097150 2097151 2097152\n",
    "object codes, out of order": b"4 65536 2\n2 3 4 65536\n1 2 3 65536\n",
    "19-digit id": b"3 4 1\n0000000000000000001 2 3\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data", _BULK_ORDERS.values(), ids=_BULK_ORDERS.keys())
def test_bulk_order_check_equals_the_per_line_loop(tmp_path, monkeypatch, data):
    path = tmp_path / "g.hg"
    path.write_bytes(data)
    want = _per_line(str(path))
    monkeypatch.setattr(core, "_read_hg_lines", _refuse_lines)
    h = read_hg(str(path))
    assert h._edges is None  # no tuples built
    _assert_vertex_array(h)
    assert (h.n, h.k, h.edges) == (want.n, want.k, want.edges)
    assert all(type(v) is int for e in h.edges for v in e)


# One file per bulk check, each failing that check alone; the per-line loop
# decides every one of them, accepting some and naming the bad line in others.
_BULK_MISSES = {
    "undecodable byte": b"3 4 1\n1 2 \xff\n",
    "undecodable byte past the first 8 KiB": b"3 30 1999\n"
    + b"".join(b"%d %d %d\n" % e for e in islice(combinations(range(1, 31), 3), 1999))
    .replace(b"\n5 7 22\n", b"\n5 7 2\xff\n"),
    "no header line": b"# only a comment\n\n",
    "header of two numbers": b"3 4\n",
    "signed header": b"+3 4 1\n1 2 3\n",
    "19-digit header number": b"3 0000000000000000004 1\n1 2 3\n",
    "k above n": b"4 3 0\n",
    "k below 2": b"1 3 0\n",
    "non-ASCII body": b"3 4 1\n1 2 3\xe3\x80\x80\n",
    "non-ASCII digit": "3 4 1\n1 2 ３\n".encode(),
    "vertical tab in a line": b"3 4 1\n1\x0b2 3\n",
    "form feed line": b"3 4 1\n\x0c\n1 2 3\n",
    "negative id": b"3 4 1\n-1 2 3\n",
    "comment after an edge": b"3 4 1\n1 2 3 # c\n",
    "one line short": b"3 4 2\n1 2 3\n",
    "a blank body with m > 0": b"3 4 1\n\n  \n",
    "a line of k + 1 ids, then one of k - 1": b"3 5 2\n1 2 3 4\n1 2\n",
    "a line of k - 1 ids, then one of k + 1": b"3 6 2\n1 2\n3 4 5 6\n",
    "two edges on one line": b"3 6 3\n1 2 3 4 5 6\n1 2 4\n",
    "id above 2**63": b"3 4 1\n1 2 10000000000000000000\n",
    "id 2**64 + 3, which int64 would read as 3": b"3 4 1\n1 2 18446744073709551619\n",
    "descending line": b"3 4 1\n3 2 1\n",
    "repeated id": b"3 4 1\n1 2 2\n",
    "id 0": b"3 4 1\n0 1 2\n",
    "id above n": b"3 4 1\n2 3 5\n",
}


@pytest.mark.parametrize("data", _BULK_MISSES.values(), ids=_BULK_MISSES.keys())
def test_a_file_that_fails_a_bulk_check_goes_to_the_per_line_loop(tmp_path, monkeypatch, data):
    path = tmp_path / "g.hg"
    path.write_bytes(data)
    want = _outcome(_per_line, str(path))
    real, calls = core._read_hg_lines, []

    def counting(p, fh):
        calls.append(p)
        return real(p, fh)

    monkeypatch.setattr(core, "_read_hg_lines", counting)
    assert _outcome(read_hg, str(path)) == want
    assert calls == [str(path)]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_read_once_and_its_bad_line_named():
    r, w = os.pipe()
    try:
        os.write(w, b"3 4 1\n3 2 1\n")
        os.close(w)
        with pytest.raises(ValueError, match=r":2: edge line '3 2 1' is not strictly ascending"):
            read_hg(f"/dev/fd/{r}")
    finally:
        os.close(r)
