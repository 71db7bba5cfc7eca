import json
import math
import os
import random
import re
import tracemalloc
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermatch import core
from hypermatch.core import (
    Hypergraph,
    build,
    complete_graph,
    from_json_dict,
    random_hypergraph,
    read_hg,
    relabel_graph,
    to_json_dict,
    write_hg,
)
from hypermatch.constructions import augment_universal, cover_family, hilton_milner_family
from hypermatch.optimize import Matching
from hypermatch.rounding import sample_binomial_subgraph

from strategies import hypergraphs


class TestBuild:
    def test_basic(self):
        h = build(3, 2, [{1, 2}, {2, 3}])
        assert h.e() == 2
        assert h.edges == ((1, 2), (2, 3))

    def test_dedup(self):
        assert build(4, 3, [{1, 2, 3}, {1, 2, 3}]).e() == 1

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError):
            build(3, 4, [])

    def test_k_below_two(self):
        with pytest.raises(ValueError):
            build(3, 1, [])

    def test_rejects_non_k_set(self):
        with pytest.raises(ValueError):
            build(5, 3, [(1, 2)])
        with pytest.raises(ValueError):
            build(5, 3, [(1, 2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build(5, 3, [(3, 4, 6)])
        with pytest.raises(ValueError):
            build(5, 3, [(0, 1, 2)])

    def test_degenerate_k_equals_n(self):
        h = build(3, 3, [(1, 2, 3)])
        assert h.e() == 1


class TestDegrees:
    def test_degree_complete(self):
        h = complete_graph(4, 3)
        # enumeration: edges through vertex 1 are 1 + each 2-subset of {2,3,4}
        assert h.degree(1) == len(list(combinations([2, 3, 4], 2))) == 3

    def test_degree_empty(self):
        h = build(5, 3, [])
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
        assert build(5, 3, [(1, 2, 3)]).max_set_degree(1) == 1
        assert build(5, 3, []).max_set_degree(2) == 0

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
        h = build(5, 3, [(1, 2, 3), (2, 3, 4)])
        g, ignored = h.delete_edges([(1, 2, 3), (3, 4, 5)])
        assert g.e() == 1 and ignored == 1

    def test_relabel(self):
        h = build(3, 2, [(1, 2)])
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


@settings(max_examples=60, deadline=None)
@given(_canonical_lists())
def test_from_canonical_equals_the_checked_constructor(case):
    n, k, lines = case
    canon = sorted(set(lines))
    h = Hypergraph.from_canonical(n, k, canon)
    assert h == Hypergraph(n, k, lines)
    assert h.edge_set == frozenset(canon)


@settings(max_examples=60, deadline=None)
@given(_canonical_lists(), st.randoms(use_true_random=False))
def test_membership_agrees_with_the_edge_set(case, rnd):
    n, k, lines = case
    h = Hypergraph.from_canonical(n, k, sorted(set(lines)))
    probes = [rnd.sample(range(1, n + 1), k) for _ in range(20)]  # edges and non-edges, any order
    probes += [e[::-1] for e in h.edges] + [(0,) * k, (n + 1,) * k, (1,), tuple(range(1, n + 1))]
    got = [p in h for p in probes]
    assert h._edge_set is None  # answered without building the set
    assert got == [tuple(sorted(p)) in h.edge_set for p in probes]


def _matching_outcome(m: Matching, h: Hypergraph) -> str | None:
    try:
        m.validate(h)
    except ValueError as exc:
        return str(exc)
    return None


def _membership_case(n: int, k: int, canon: list, rnd: random.Random) -> None:
    """``in`` and ``Matching.validate`` answer alike on the tuple-built graph
    and on the array-born one, and the latter builds no tuples doing so."""
    tuples = Hypergraph.from_canonical(n, k, canon)
    born = Hypergraph.from_canonical(n, k, verts=np.array(canon, dtype=np.intp).reshape(-1, k))
    edges = set(canon)
    probes = [tuple(rnd.sample(range(1, n + 1), k)) for _ in range(20)]
    probes += [e[::-1] for e in canon] + [(0,) * k, (n + 1,) * k, (1,), tuple(range(1, k + 2))]
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
    born = Hypergraph.from_canonical(n, k, verts=np.array(canon, dtype=np.intp))
    assert core.lex_codes(born.vertex_array(), n).dtype == object
    _membership_case(n, k, canon, rnd)


def _assert_vertex_array(h: Hypergraph) -> None:
    """``vertex_array()`` holds the edge tuples, read-only, and is built once."""
    v = h.vertex_array()
    assert v.shape == (h.e(), h.k) and v.dtype.kind == "i"
    assert v.tolist() == [list(e) for e in h.edges]
    assert not v.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        v[...] = 0
    assert h.vertex_array() is v


@settings(max_examples=40, deadline=None)
@given(_canonical_lists())
def test_vertex_array_of_the_constructors(case):
    n, k, lines = case
    canon = sorted(set(lines))
    _assert_vertex_array(Hypergraph(n, k, lines))
    _assert_vertex_array(Hypergraph.from_canonical(n, k, canon))
    given_array = np.array(canon, dtype=np.intp).reshape(len(canon), k)
    h = Hypergraph.from_canonical(n, k, canon, given_array)
    assert h.vertex_array() is given_array  # handed over, not copied
    _assert_vertex_array(h)
    born = Hypergraph.from_canonical(n, k, verts=given_array.copy())
    assert born.e() == len(canon) and born._edges is None  # counted without tuples
    assert born == h and born.edges == tuple(canon)
    assert all(type(v) is int for e in born.edges for v in e)
    _assert_vertex_array(born)


def test_from_canonical_needs_the_edges_or_their_array():
    with pytest.raises(TypeError, match="needs the edges"):
        Hypergraph.from_canonical(5, 3)


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


def test_from_canonical_keeps_the_shape_checks():
    with pytest.raises(ValueError, match="at least 2"):
        Hypergraph.from_canonical(3, 1, [])
    with pytest.raises(ValueError, match="exceeds vertex count"):
        Hypergraph.from_canonical(3, 4, [])


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
# with an edge hands over its array alone, rows out of order sorted and
# repeated ones collapsed. (n+1)^k >= 2^63 in the two "object codes" files,
# so their lex codes are Python ints.
_BULK_ORDERS = {
    "no edge": (b"3 5 0\n", False),
    "one edge": (b"3 5 1\n2 4 5\n", True),
    "rows equal up to the last column": (b"3 5 3\n1 2 4\n1 2 5\n1 3 4\n", True),
    "a duplicate line": (b"3 5 3\n1 2 4\n1 2 4\n1 2 5\n", True),
    "a descending last column": (b"3 5 2\n1 2 5\n1 2 4\n", True),
    "an unsorted body": (b"3 6 3\n2 3 4\n1 5 6\n1 2 3\n", True),
    "object codes, in order": (b"3 2097152 3\n1 2 3\n1 2 2097152\n2097150 2097151 2097152\n", True),
    "object codes, out of order": (b"4 65536 2\n2 3 4 65536\n1 2 3 65536\n", True),
    "19-digit id": (b"3 4 1\n0000000000000000001 2 3\n", True),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data, array_born", _BULK_ORDERS.values(), ids=_BULK_ORDERS.keys())
def test_bulk_order_check_equals_the_per_line_loop(tmp_path, monkeypatch, data, array_born):
    path = tmp_path / "g.hg"
    path.write_bytes(data)
    want = _per_line(str(path))
    monkeypatch.setattr(core, "_read_hg_lines", _refuse_lines)
    h = read_hg(str(path))
    assert (h._edges is None) == array_born  # no tuples built for a graph with an edge
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
