"""Immutable k-uniform hypergraphs on the vertex set {1, ..., n}.

Edges are ascending k-tuples kept in lexicographic order. A graph stores
them as one read-only (m, k) intp vertex array, which every kernel reads,
so n and every id must fit intp. The edge tuples and the edge set are views
built on first read; they serve the enumeration oracles and the reference
routines. ``edge_mask`` gives an edge's vertex bitmask (bit v-1 for vertex
v) to the routines that test disjointness and containment as integer
operations, exactly for any n; ``bit_positions`` reads such bitsets back.
"""

from __future__ import annotations

import io
import random
import re
from itertools import combinations
from math import comb
from numbers import Integral
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


def bit_positions(masks: Iterable[int], width: int) -> np.ndarray:
    """The set bits of each Python-int bitset, mask after mask, each ascending,
    as one intp array: the package's one bitset decoder. Bit i is bit i & 7 of
    byte i >> 3 of a mask's ceil(width / 8) little-endian bytes; a wider mask
    raises OverflowError. A Python int past int64 cannot shift by a numpy
    integer, so callers that shift convert the positions with ``tolist()``."""
    nbytes = max(1, (width + 7) >> 3)
    data = b"".join([x.to_bytes(nbytes, "little") for x in masks])
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    return np.nonzero(bits.reshape(-1, 8 * nbytes))[1]


# a vertex array is intp, so every id, and n, must fit one
_MAX_ID = int(np.iinfo(np.intp).max)


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


def _ascending(a: np.ndarray) -> bool:
    # column by column: the 2-D a[:, 1:] > a[:, :-1] is several times slower
    return all((a[:, j - 1] < a[:, j]).all() for j in range(1, a.shape[1]))


def _checked_edges(rows, n: int, k: int) -> list[Edge]:
    """Each edge as an ascending tuple of ints; the first bad one raises ValueError."""
    out = []
    for e in rows.tolist() if isinstance(rows, np.ndarray) else rows:
        t = tuple(e)
        if not all(isinstance(v, Integral) for v in t):
            raise ValueError(f"edge {t!r} has a non-integer vertex id")
        t = tuple(sorted(map(int, t)))
        if len(t) != k:
            raise ValueError(f"edge {t!r} does not have {k} vertices")
        if len(set(t)) != k:
            raise ValueError(f"edge {t!r} repeats a vertex")
        if t[0] < 1 or t[-1] > n:
            raise ValueError(f"edge {t!r} leaves the vertex range 1..{n}")
        out.append(t)
    return out


class Hypergraph:
    """A k-uniform hypergraph on [n] with canonical, deduplicated edges.

    ``edges`` is an (m, k) integer array or an iterable of vertex
    collections, rows and ids in any order, repeats allowed; a bad edge
    raises ValueError naming the first in input order. A graph stores its
    edges as one read-only (m, k) intp array, row i the i-th edge in lex
    order (``vertex_array()``). ``edges`` and ``edge_set`` are views built
    on first read; ``e in h`` builds neither: it finds the edge's lex code
    among the rows'.
    """

    __slots__ = ("n", "k", "_edges", "_edge_set", "_verts", "_codes")

    def __init__(self, n: int, k: int, edges: np.ndarray | Iterable[Iterable[int]] = ()):
        """Check and store ``edges``: numpy passes check an integer array, and
        only a failed check sorts, dedupes, or runs ``_checked_edges``, which
        converts what numpy does not read as integers and names the first bad edge."""
        _check_shape(n, k)
        if n > _MAX_ID:
            raise ValueError(
                f"vertex count n={n} exceeds {_MAX_ID}, the largest id an intp array holds"
            )
        rows = edges if isinstance(edges, (np.ndarray, list, tuple)) else list(edges)
        try:
            a = np.asarray(rows)
        except (ValueError, TypeError, OverflowError):  # ragged rows, or ids past int64
            a = np.empty(0)
        # astype wraps a uint64 id past intp below 1, where the range check finds it
        a = a.astype(np.intp, copy=False) if a.dtype.kind in "iu" and a.shape[1:] == (k,) else None
        if not len(rows):  # no check runs, so none loops over k, which may be huge
            a = np.empty((0, k), np.intp) if a is None else a
        else:
            # rows that do not ascend are sorted; a row that still does not repeats a vertex
            ok = a is not None and (_ascending(a) or _ascending(a := np.sort(a, axis=1)))
            if not (ok and a[:, 0].min() >= 1 and a[:, -1].max() <= n):
                a = np.array(_checked_edges(rows, n, k), np.intp)
            codes = lex_codes(a, n)
            if not (codes[1:] > codes[:-1]).all():
                a = a[np.unique(codes, return_index=True)[1]]
        self.n = n
        self.k = k
        self._verts = a.view()  # an intp array given in canonical form is kept, not copied
        self._verts.flags.writeable = False
        self._edges: tuple[Edge, ...] | None = None
        self._edge_set: frozenset[Edge] | None = None
        self._codes: np.ndarray | None = None

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ascending tuples of Python ints, in lex order, built on first read."""
        if self._edges is None:
            # an empty graph's k columns are k empty lists, and k may be huge
            self._edges = tuple(zip(*self._verts.T.tolist())) if len(self._verts) else ()
        return self._edges

    @property
    def edge_set(self) -> frozenset[Edge]:
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges)
        return self._edge_set

    def vertex_array(self) -> np.ndarray:
        """The edges as one read-only (m, k) intp array, row i = ``edges[i]``."""
        return self._verts

    # -- basic queries ----------------------------------------------------

    def e(self) -> int:
        """Number of edges."""
        return len(self._verts)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __contains__(self, e) -> bool:
        return self.has_edges((e,))[0]

    def has_edges(self, es: Iterable[Iterable[int]]) -> list[bool]:
        """Whether each vertex collection, in any order, is an edge.

        One ``searchsorted`` of lex codes answers them all; it builds
        neither tuples nor set. The rows' codes are computed on the first
        call and kept: the vertex array they come from is read-only.
        """
        ts = [tuple(sorted(e)) for e in es]
        n, k, verts = self.n, self.k, self._verts
        out = [False] * len(ts)
        # only k ids inside 1..n have a code; codes are injective on such
        # k-tuples, repeats included, so the code a search finds must equal t's
        asked = [i for i, t in enumerate(ts) if len(t) == k and 1 <= t[0] and t[-1] <= n]
        if asked and len(verts):
            if self._codes is None:
                self._codes = lex_codes(verts, n)
                self._codes.flags.writeable = False
            codes = self._codes
            want = lex_codes(np.array([ts[i] for i in asked], dtype=codes.dtype), n)
            pos = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
            for i, hit in zip(asked, (codes[pos] == want).tolist()):
                out[i] = hit
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.k == other.k
            and np.array_equal(self._verts, other._verts)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self._verts.tobytes()))

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


# the most rows ``k_sets`` lists: 16.8M rows, 400 MiB of intp ids at k 3
K_SETS_GUARD = 1 << 24


def k_sets(n: int, k: int) -> np.ndarray:
    """The k-sets of [n] as one (C(n,k), k) intp array, rows ascending, in lex order.

    The package's one k-set enumerator: every generated graph is a row mask
    over it. Past ``K_SETS_GUARD`` rows it raises BudgetExceeded before
    anything is allocated. Level j lists the j-sets of {k-j+1..n}, at most
    C(n,k) rows, one array per column. In lex order the (j-1)-sets whose
    least vertex exceeds a are the last C(n-a, j-1) rows of level j-1, so
    level j is each first vertex a followed by such a suffix.
    """
    rows = comb(n, k)
    if rows > K_SETS_GUARD:
        raise BudgetExceeded(f"listing C({n},{k})={rows} k-sets refuses past {K_SETS_GUARD} rows")
    if k == 0:
        return np.empty((1, 0), np.intp)  # C(n, 0) = 1: the empty set
    if k > n:
        return np.empty((0, k), np.intp)
    cols = [np.arange(k, n + 1, dtype=np.intp)]
    for j in range(2, k + 1):
        firsts = range(k - j + 1, n - j + 2)
        sizes = [comb(n - a, j - 1) for a in firsts]
        total = len(cols[0])
        cols = [np.repeat(np.arange(firsts.start, firsts.stop, dtype=np.intp), sizes)] + [
            np.concatenate([c[total - size:] for size in sizes]) for c in cols
        ]
    return np.column_stack(cols)


def complete_graph(n: int, k: int) -> Hypergraph:
    return Hypergraph(n, k, k_sets(n, k))


def relabel_graph(h: Hypergraph, mapping: dict[int, int]) -> Hypergraph:
    """Apply a vertex bijection on [n] (useful for re-homing constructions)."""
    if sorted(mapping) != list(h.vertices()) or sorted(mapping.values()) != list(h.vertices()):
        raise ValueError("mapping must be a bijection on 1..n")
    return Hypergraph(h.n, h.k, [tuple(mapping[v] for v in e) for e in h.edges])


def _uniforms(rng: random.Random, m: int) -> np.ndarray:
    """The next m values of ``rng.random()``, in order, from one draw.

    CPython's ``random()`` is ((a >> 5) * 2**26 + (b >> 6)) / 2**53 for two
    consecutive 32-bit outputs a, b of its Mersenne Twister, and
    ``getrandbits(64 m)`` returns 2m such outputs, the first in the least
    significant word. So the array equals m calls of ``random()`` bit for
    bit, and leaves ``rng`` where those calls would. This is an
    implementation detail of CPython; a test pins it against the calls.
    """
    words = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), dtype="<u4")
    a, b = words[0::2] >> 5, words[1::2] >> 6
    return (a * 67108864.0 + b) / 9007199254740992.0


def random_hypergraph(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Each k-set appears independently with probability p; fixed by seed.

    The k-sets draw ``random()`` in lex order, one call each.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    v = k_sets(n, k)
    return Hypergraph(n, k, v[_uniforms(random.Random(seed), len(v)) < p])


# -- file formats ---------------------------------------------------------
#
# Text format (".hg"): '#' comment lines, then a "k n m" header line, then
# m lines of k strictly ascending 1-based vertex ids, newline-terminated.
# Blank lines may appear anywhere, ids may have leading zeros, and repeated
# edge lines collapse (m counts lines). ``read_hg`` checks and converts a
# body of ASCII digits and blanks in bulk; every other file, and every
# malformed one, goes to the per-line ``_read_hg_lines``, which names the
# first bad line.


# rows per formatted block of ``write_hg``: a K150 write builds no tuple of 1.65M ids
_WRITE_ROWS = 65536


def write_hg(h: Hypergraph, path: str) -> None:
    """Write h as a `.hg` file: the header, then the vertex array's rows in order.

    Each block of at most ``_WRITE_ROWS`` rows is written as one ``%`` of a
    line template over the block's ids.
    """
    verts = h.vertex_array()
    line = " ".join(["%d"] * h.k) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{h.k} {h.n} {h.e()}\n")
        for lo in range(0, len(verts), _WRITE_ROWS):
            block = verts[lo:lo + _WRITE_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


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
    if not body.strip():  # loadtxt warns on no data
        return Hypergraph(n, k) if m == 0 else None
    try:
        ids = np.loadtxt(io.StringIO(body), dtype=np.intp, ndmin=2, comments=None)
    except ValueError:  # a ragged line, or an id past int64
        return None
    # the format wants each line ascending, which the constructor would sort
    if ids.shape != (m, k) or not _ascending(ids):
        return None
    try:
        return Hypergraph(n, k, ids)
    except ValueError:  # an id outside 1..n: the per-line loop names its line
        return None


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
    try:
        return Hypergraph(n, k, edges)
    except ValueError as exc:
        raise ValueError(f"{path}:{head_no}: {exc}") from exc


def to_json_dict(h: Hypergraph) -> dict:
    return {"k": h.k, "n": h.n, "edges": h.vertex_array().tolist()}


def from_json_dict(d: dict) -> Hypergraph:
    return Hypergraph(int(d["n"]), int(d["k"]), d["edges"])
