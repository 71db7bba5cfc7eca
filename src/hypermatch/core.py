"""Immutable k-uniform hypergraphs on the vertex set {1, ..., n}.

Edges are ascending k-tuples kept in lexicographic order. A graph holds
them as a tuple of edge tuples, as one read-only (m, k) vertex array, or
both: either one is the whole representation, and the other, like the
edge set, is derived from it on first use. Graphs read from disk or made
in bulk are born as arrays, which every kernel reads; tuples serve I/O,
the enumeration oracles and the reference routines. ``edge_mask`` gives
an edge's vertex bitmask (bit v-1 for vertex v) to the routines that test
disjointness and containment as integer operations, exactly for any n.
"""

from __future__ import annotations

import io
import random
import re
from bisect import bisect_left
from itertools import chain, combinations
from operator import lt
from typing import Iterable

import numpy as np

Edge = tuple[int, ...]


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive search refuses to run past its guard."""


def edge_mask(e: Iterable[int]) -> int:
    m = 0
    for v in e:
        m |= 1 << (v - 1)
    return m


def _canonical_edge(e: Iterable[int], k: int, n: int) -> Edge:
    t = tuple(sorted(e))
    if len(t) != k:
        raise ValueError(f"edge {t!r} does not have {k} vertices")
    if len(set(t)) != k:
        raise ValueError(f"edge {t!r} repeats a vertex")
    if t[0] < 1 or t[-1] > n:
        raise ValueError(f"edge {t!r} leaves the vertex range 1..{n}")
    return t


def _check_shape(n: int, k: int) -> None:
    if k < 2:
        raise ValueError(f"uniformity k={k} must be at least 2")
    if k > n:
        raise ValueError(f"uniformity k={k} exceeds vertex count n={n}")


def lex_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row of an (m, k) array of ids in 0..n as one base-(n+1) number.

    On ascending k-sets of [n], lex order is the order of these codes, and
    distinct rows get distinct codes. The codes are int64 while (n+1)^k
    < 2^63, else Python ints in an object array.
    """
    k = rows.shape[1]
    codes = rows[:, 0].astype(np.int64 if (n + 1) ** k < 2**63 else object)
    for j in range(1, k):
        codes = codes * (n + 1) + rows[:, j]
    return codes


class Hypergraph:
    """A k-uniform hypergraph on [n] with canonical, deduplicated edges.

    The constructor checks every edge; ``from_canonical`` trusts its caller.
    A graph keeps its edges as tuples, as the (m, k) vertex array, or both;
    ``edges`` (the tuples), ``vertex_array()`` and ``edge_set`` (the edges
    as a frozenset) are each built on first use from what the graph holds.
    Membership never builds the set: ``e in h`` bisects the lex-ordered
    tuples, or, on a graph born as an array, finds the edge's lex code
    among the rows'.
    """

    __slots__ = ("n", "k", "_edges", "_edge_set", "_verts")

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]] = ()):
        _check_shape(n, k)
        self._fill(n, k, sorted({_canonical_edge(e, k, n) for e in edges}), None)

    @classmethod
    def from_canonical(
        cls,
        n: int,
        k: int,
        edges: Iterable[Edge] | None = None,
        verts: np.ndarray | None = None,
    ) -> "Hypergraph":
        """A hypergraph from edges that are already canonical, unchecked.

        Precondition: every edge is an ascending k-tuple inside 1..n, no edge
        repeats, and the edges come in lexicographic order. Only k and n are
        checked; a list that breaks the precondition gives a broken graph.
        ``verts`` is the same edges as an (m, k) integer array, trusted like
        the tuples; it becomes read-only and is what ``vertex_array``
        returns. Either argument alone is enough, and the graph builds the
        other on first use; given both, they must hold the same edges.
        """
        _check_shape(n, k)
        if edges is None and verts is None:
            raise TypeError("from_canonical needs the edges, their vertex array, or both")
        h = cls.__new__(cls)
        h._fill(n, k, edges, verts)
        return h

    def _fill(
        self, n: int, k: int, canon: Iterable[Edge] | None, verts: np.ndarray | None
    ) -> None:
        self.n = n
        self.k = k
        self._edges: tuple[Edge, ...] | None = None if canon is None else tuple(canon)
        self._edge_set: frozenset[Edge] | None = None
        if verts is not None:
            verts.flags.writeable = False
        self._verts = verts

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ascending tuples of Python ints, in lex order.

        Built from the vertex array on first use when the graph was born as one.
        """
        if self._edges is None:
            self._edges = tuple(zip(*self._verts.T.tolist()))
        return self._edges

    @property
    def edge_set(self) -> frozenset[Edge]:
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges)
        return self._edge_set

    def vertex_array(self) -> np.ndarray:
        """The edges as one read-only (m, k) integer array, row i = ``edges[i]``.

        Built from the tuples on first use unless the producer handed it over.
        """
        if self._verts is None:
            m, k = len(self._edges), self.k
            verts = np.fromiter(chain.from_iterable(self._edges), np.intp, m * k).reshape(m, k)
            verts.flags.writeable = False
            self._verts = verts
        return self._verts

    # -- basic queries ----------------------------------------------------

    def e(self) -> int:
        """Number of edges."""
        return len(self._edges if self._edges is not None else self._verts)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __contains__(self, e) -> bool:
        return self.has_edges((e,))[0]

    def has_edges(self, es: Iterable[Iterable[int]]) -> list[bool]:
        """Whether each vertex collection, in any order, is an edge.

        With the tuples at hand each is a bisect of the lex-ordered edges;
        a graph born as an array answers them all with one ``searchsorted``
        of lex codes, and builds neither tuples nor set.
        """
        ts = [tuple(sorted(e)) for e in es]
        edges = self._edges
        if edges is not None:
            return [(i := bisect_left(edges, t)) < len(edges) and edges[i] == t for t in ts]
        n, k, verts = self.n, self.k, self._verts
        out = [False] * len(ts)
        # only k ids inside 1..n have a code; the row a code finds must equal t
        asked = [i for i, t in enumerate(ts) if len(t) == k and 1 <= t[0] and t[-1] <= n]
        if asked and len(verts):
            codes = lex_codes(verts, n)
            want = lex_codes(np.array([ts[i] for i in asked], dtype=codes.dtype), n)
            pos = np.minimum(np.searchsorted(codes, want), len(codes) - 1).tolist()
            for i, p in zip(asked, pos):
                out[i] = tuple(verts[p].tolist()) == ts[i]
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.k == other.k
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, e={self.e()})"

    def degree(self, v: int) -> int:
        """Number of edges containing vertex v."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        return sum(1 for e in self.edges if v in e)

    def set_degree(self, t: Iterable[int]) -> int:
        """Number of edges containing every vertex of t (t may be empty)."""
        ts = set(t)
        if len(ts) > self.k:
            raise ValueError(f"set of size {len(ts)} cannot fit in a {self.k}-edge")
        for v in ts:
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} outside 1..{self.n}")
        return sum(1 for e in self.edges if ts.issubset(e))

    def max_set_degree(self, l: int) -> int:
        """Maximum degree over all l-subsets of vertices."""
        if not 1 <= l <= self.k:
            raise ValueError(f"subset size {l} outside 1..{self.k}")
        counts: dict[Edge, int] = {}
        for e in self.edges:
            for t in combinations(e, l):
                counts[t] = counts.get(t, 0) + 1
        return max(counts.values(), default=0)

    # -- derived graphs ----------------------------------------------------

    def induced(self, s: Iterable[int]) -> tuple["Hypergraph", dict[int, int]]:
        """Subgraph on s, relabeled to 1..|s| in ascending order.

        Returns the graph and the old-to-new vertex map.
        """
        keep = sorted(set(s))
        for v in keep:
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} outside 1..{self.n}")
        relabel = {v: i + 1 for i, v in enumerate(keep)}
        keep_set = set(keep)
        new_edges = [
            tuple(relabel[v] for v in e)
            for e in self.edges
            if keep_set.issuperset(e)
        ]
        return Hypergraph(len(keep), self.k, new_edges), relabel

    def delete_vertices(self, s: Iterable[int]) -> tuple["Hypergraph", dict[int, int]]:
        """Remove s and all incident edges; survivors are relabeled to 1..n-|s|."""
        drop = set(s)
        return self.induced(v for v in self.vertices() if v not in drop)

    def delete_edges(self, f: Iterable[Iterable[int]]) -> tuple["Hypergraph", int]:
        """Remove the listed edges; returns the graph and how many were absent."""
        requested = {tuple(sorted(e)) for e in f}
        ignored = len(requested - self.edge_set)
        remaining = [e for e in self.edges if e not in requested]
        return Hypergraph(self.n, self.k, remaining), ignored


def build(n: int, k: int, edges: Iterable[Iterable[int]] = ()) -> Hypergraph:
    """Validated construction; duplicates collapse, bad edges raise."""
    return Hypergraph(n, k, edges)


def complete_graph(n: int, k: int) -> Hypergraph:
    return Hypergraph(n, k, combinations(range(1, n + 1), k))


def relabel_graph(h: Hypergraph, mapping: dict[int, int]) -> Hypergraph:
    """Apply a vertex bijection on [n] (useful for re-homing constructions)."""
    if sorted(mapping) != list(h.vertices()) or sorted(mapping.values()) != list(h.vertices()):
        raise ValueError("mapping must be a bijection on 1..n")
    return Hypergraph(h.n, h.k, [tuple(mapping[v] for v in e) for e in h.edges])


def random_hypergraph(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Each k-set appears independently with probability p; fixed by seed."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    rng = random.Random(seed)
    edges = [e for e in combinations(range(1, n + 1), k) if rng.random() < p]
    return Hypergraph(n, k, edges)


# -- file formats ---------------------------------------------------------
#
# Text format (".hg"): '#' comment lines, then a "k n m" header line, then
# m lines of k strictly ascending 1-based vertex ids, newline-terminated.
# Blank lines may appear anywhere, ids may have leading zeros, and repeated
# edge lines collapse (m counts lines). ``read_hg`` checks and converts a
# body of ASCII digits and blanks in bulk; every other file, and every
# malformed one, goes to the per-line ``_read_hg_lines``, which names the
# first bad line.


def write_hg(h: Hypergraph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{h.k} {h.n} {h.e()}\n")
        for e in h.edges:
            fh.write(" ".join(map(str, e)) + "\n")


def read_hg(path: str) -> Hypergraph:
    """Parse a `.hg` file; malformed input raises ValueError naming path and line."""
    with open(path, "rb") as fh:
        data = fh.read()  # once: a pipe cannot be read again
    try:
        with _as_text(data) as fh:
            text = fh.read()
    except UnicodeDecodeError:  # the per-line loop raises it as it reaches the byte
        text = None
    h = None if text is None else _read_hg_bulk(text)
    if h is None:
        with _as_text(data) as fh:
            h = _read_hg_lines(path, fh)
    return h


def _as_text(data: bytes) -> io.TextIOWrapper:
    """The bytes as ``open(path)`` reads the file: locale encoding, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data))


_COMMENT_LINE = re.compile(r"^[ \t]*#.*", re.MULTILINE)
# the longest header number read in bulk: n < 10**18 < 2**63, so an id in 1..n fits int64
_BULK_DIGITS = 18


def _read_hg_bulk(text: str) -> Hypergraph | None:
    """The graph of a `.hg` text, or None if any bulk check fails.

    Accepts only what ``_read_hg_lines`` accepts, and to the same graph: a
    header of three ASCII decimals of at most ``_BULK_DIGITS`` digits with
    2 <= k <= n, then a body of ASCII digits, spaces, tabs and newlines whose
    m non-blank lines each hold k strictly ascending ids inside 1..n. numpy's
    ``loadtxt`` reads the body; an id past int64 is left to the per-line loop.
    """
    if "#" in text:
        text = _COMMENT_LINE.sub("", text)
    head, _, body = text.lstrip(" \t\n").partition("\n")
    header = head.split()
    short = all(t.isdigit() and len(t) <= _BULK_DIGITS for t in header)
    if not (head.isascii() and len(header) == 3 and short):
        return None
    k, n, m = map(int, header)
    if not (2 <= k <= n and body.isascii()):
        return None
    # only digits and blanks reach loadtxt: no sign, '_', '#' or other whitespace
    if body.encode("ascii").translate(None, b"0123456789 \t\n"):
        return None
    if not body.strip():  # loadtxt warns on no data, and a (0, k) array's edges are k lists
        return Hypergraph.from_canonical(n, k, ()) if m == 0 else None
    try:
        ids = np.loadtxt(io.StringIO(body), dtype=np.intp, ndmin=2, comments=None)
    except ValueError:  # a ragged line, or an id past int64
        return None
    if ids.shape != (m, k):
        return None
    ascending = (ids[:, 1:] > ids[:, :-1]).all()
    if not (ascending and ids[:, 0].min() >= 1 and ids[:, -1].max() <= n):
        return None
    codes = lex_codes(ids, n)
    if not (codes[1:] > codes[:-1]).all():  # duplicate lines collapse; m counts lines
        ids = ids[np.unique(codes, return_index=True)[1]]
    return Hypergraph.from_canonical(n, k, verts=ids)


def _bad_edge_line(path: str, lineno: int, line: str, why: str) -> ValueError:
    return ValueError(f"{path}:{lineno}: edge line {line!r} {why}")


def _plain_decimal(line: str) -> bool:
    """Whether every int() the line's tokens pass is plain ASCII decimal.

    int() alone also takes '1_0', '+1' and non-ASCII digits; a leading '-'
    stays allowed here and the range check rejects it.
    """
    return line.isascii() and "_" not in line and "+" not in line


def _read_hg_lines(path: str, fh: Iterable[str]) -> Hypergraph:
    """``read_hg`` over the lines of the text file ``fh``, one at a time:
    decides every file the bulk checks pass on, names the first bad line,
    and is the tests' reference."""
    lines = [
        (lineno, text)
        for lineno, ln in enumerate(fh, 1)
        if (text := ln.strip()) and text[0] != "#"
    ]
    if not lines:
        raise ValueError(f"{path}: no header line")
    head_no, head = lines[0]
    header = head.split()
    if len(header) != 3:
        raise ValueError(f"{path}:{head_no}: header must be 'k n m', got {head!r}")
    try:
        if not _plain_decimal(head):
            raise ValueError(head)
        k, n, m = map(int, header)
    except ValueError as exc:
        raise ValueError(f"{path}:{head_no}: non-integer header {head!r}") from exc
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"{path}:{head_no}: header promises {m} edges, found {len(body)}")
    edges = []
    for lineno, ln in body:
        parts = ln.split()
        if len(parts) != k:
            raise _bad_edge_line(path, lineno, ln, f"does not have {k} ids")
        try:
            if not _plain_decimal(ln):
                raise ValueError(ln)
            ids = tuple(map(int, parts))
        except ValueError as exc:
            raise _bad_edge_line(path, lineno, ln, "has a non-integer vertex id") from exc
        if not all(map(lt, ids, ids[1:])):
            raise _bad_edge_line(path, lineno, ln, "is not strictly ascending")
        if ids[0] < 1 or ids[-1] > n:
            raise _bad_edge_line(path, lineno, ln, f"leaves 1..{n}")
        edges.append(ids)
    if not all(map(lt, edges, edges[1:])):
        edges = sorted(set(edges))  # duplicate lines collapse; m counts lines
    try:
        # every line was checked above: k ascending ids inside 1..n, now in lex order
        return Hypergraph.from_canonical(n, k, edges)
    except ValueError as exc:
        raise ValueError(f"{path}:{head_no}: {exc}") from exc


def to_json_dict(h: Hypergraph) -> dict:
    return {"k": h.k, "n": h.n, "edges": [list(e) for e in h.edges]}


def from_json_dict(d: dict) -> Hypergraph:
    return Hypergraph(int(d["n"]), int(d["k"]), [tuple(e) for e in d["edges"]])
