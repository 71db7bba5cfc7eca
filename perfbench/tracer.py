"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces each traced function at every binding the program
calls through: the defining module's attribute and every ``from ... import``
copy held by another ``hypermatch`` module. ``uninstall`` puts the originals
back, so untraced calls run the unmodified code. ``core.Hypergraph`` is traced
by wrapping its ``__init__``, which keeps ``isinstance`` checks working.

Spans (name, start, end, parent, call id) are kept in memory; counts are
taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

TRACED = (
    "cli.main",
    "core.read_hg",
    "core.Hypergraph",
    "constructions.augment_universal",
    "optimize.max_matching",
    "optimize.min_vertex_cover",
    "optimize.fractional_matching",
    "optimize.fractional_cover",
    "optimize.fractional_perfect_matching",
    "lp.simplex_rational",
    "lp.linprog_float",
    "rounding.pipeline",
    "rounding.extract_fpm_family",
    "rounding.mix_and_halve",
    "rounding.sample_binomial_subgraph",
    "rounding.near_perfect_matching",
    "shifting.stabilize",
    "shifting.shift_graph",
    "shifting.is_stable",
    "stability.closeness_to_cover",
    "stability.closeness_to_clique",
    "verify.verify_extremal",
)


def _rows_cols(a):
    return len(a) * len(a[0]) if a is not None and len(a) else 0


def _count(name, args, kwargs, result, add):
    """Counts measured at the call boundary of ``name``."""
    if name == "lp.simplex_rational":
        c = args[0] if args else kwargs["c"]
        rows = args[1] if len(args) > 1 else kwargs["rows"]
        add("lp.simplex_rational.cells", len(rows) * len(c))
    elif name == "lp.linprog_float":
        add("lp.linprog_float.dense_cells",
            _rows_cols(kwargs.get("a_ub", args[1] if len(args) > 1 else None))
            + _rows_cols(kwargs.get("a_eq", args[3] if len(args) > 3 else None)))
    elif name == "rounding.extract_fpm_family":
        add("rounding.extract_complete", int(result.complete))
        add("rounding.extract_members", len(result.members))
    elif name == "rounding.pipeline":
        add("rounding.pipeline.success", int(result.success))
    elif name == "verify.verify_extremal":
        add("verify.subsets_checked", result.subsets_checked)


class Tracer:
    def __init__(self):
        self.names: list[str] = list(TRACED)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.spans: list[tuple] = []  # (name index, start, end, parent span, call id)
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # call id -> name -> value
        self._stack: list[int] = []
        self._call_id = -1
        self._wrapped: list[tuple] = []
        self._prepare()

    def _prepare(self) -> None:
        """Build the wrappers once and find every binding of each original."""
        mods = {n: m for n, m in sys.modules.items()
                if (n == "hypermatch" or n.startswith("hypermatch.")) and m is not None}
        for name in self.names:
            modname, attr = name.split(".", 1)
            mod = sys.modules[f"hypermatch.{modname}"]
            if attr == "Hypergraph":
                cls = mod.Hypergraph
                self._wrapped.append(((cls, "__init__"), cls.__init__, self._wrap(name, cls.__init__)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m in mods.values():
                for binding, value in vars(m).items():
                    if value is orig:
                        self._wrapped.append(((m, binding), orig, wrapper))

    def _wrap(self, name, fn):
        idx = self._index[name]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def add(key, value):
            self.counts[self._call_id][key] += value

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (idx, start, end, parent, self._call_id)
            _count(name, args, kwargs, result, add)
            return result

        return traced

    def install(self, call_id: int) -> None:
        self._call_id = call_id
        for (owner, attr), _orig, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for (owner, attr), orig, _wrapper in self._wrapped:
            setattr(owner, attr, orig)

    # -- aggregation -----------------------------------------------------------

    def layer_totals(self, call_ids) -> dict:
        """Per function: calls, inclusive seconds and self seconds over the
        given CLI calls."""
        wanted = set(call_ids)
        child = defaultdict(float)
        for idx, start, end, parent, cid in self.spans:
            if parent >= 0 and cid in wanted:
                child[parent] += end - start
        out = {n: [0, 0.0, 0.0] for n in self.names}
        for slot, (idx, start, end, parent, cid) in enumerate(self.spans):
            if cid not in wanted:
                continue
            row = out[self.names[idx]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[slot]
        return out

    def count_totals(self, call_ids) -> dict:
        tot = defaultdict(float)
        for cid in call_ids:
            for key, value in self.counts.get(cid, {}).items():
                tot[key] += value
        return tot

    def dump(self, path: str, calls: list) -> None:
        """Write every span, and the CLI calls they belong to, as gzip JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "calls": calls,
                       "spans": [list(s) for s in self.spans]}, fh)
