"""Hypothesis strategies for small hypergraphs."""

from itertools import combinations

from hypothesis import strategies as st

from hypermatch.core import Hypergraph


@st.composite
def hypergraphs(draw, min_n: int = 3, max_n: int = 8, k: int = 3, max_edges: int | None = None):
    n = draw(st.integers(max(min_n, k), max_n))
    pool = list(combinations(range(1, n + 1), k))
    cap = len(pool) if max_edges is None else min(max_edges, len(pool))
    edges = draw(st.lists(st.sampled_from(pool), max_size=cap))
    return Hypergraph(n, k, edges)


@st.composite
def graph_pairs_subgraph(draw, max_n: int = 7, k: int = 3):
    """(h, target) with h a subgraph of target on the same vertex set."""
    target = draw(hypergraphs(min_n=k, max_n=max_n, k=k))
    if target.e() == 0:
        return target, target
    keep = draw(st.lists(st.sampled_from(target.edges), max_size=target.e()))
    return Hypergraph(target.n, k, keep), target
