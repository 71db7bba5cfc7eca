"""Command-line front end: gen, bounds, solve, shift, closeness, crossover,
round, verify.

Exit codes: 0 success, 1 stage failure (round), 2 budget refusal or a
usage error (including a parameter out of range, and a flag that does
not apply: `solve --limit` outside `nu`/`tau`, `solve --exact-lp` outside
`nustar`/`taustar`, `gen --i` outside `--family a`), 3 bound mismatch
(verify), 4 input error (an input file that cannot be read or is not a
valid `.hg` graph), 5 output error (an output file that cannot be written;
`shift` and `round` check their output paths before computing), 6 solver
error (`solve --what nustar|taustar` in float mode when HiGHS fails or
returns a status other than optimal).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import constructions, rounding, shifting, stability, verify
from .core import BudgetExceeded, Hypergraph, read_hg, to_json_dict, write_hg
from .optimize import (
    fractional_cover,
    fractional_matching,
    max_independent_set,
    max_matching,
    min_vertex_cover,
)


def _fields(obj) -> dict:
    """A dataclass instance's fields by name, in field order; values are not copied."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _json_default(obj):
    """json's ``default`` hook for the package objects in a report; json walks the rest."""
    if isinstance(obj, Hypergraph):
        return to_json_dict(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _fields(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _tsv_cell(v) -> str:
    if isinstance(v, (list, tuple)):
        return ",".join(_tsv_cell(x) for x in v) if v else "-"
    if isinstance(v, Hypergraph):
        return f"graph(n={v.n},k={v.k},e={v.e()})"
    if isinstance(v, dict):
        return json.dumps(v, separators=(",", ":"), default=_json_default)
    return str(v)


def render_report(obj, fmt: str = "json") -> str:
    """Stable-order report text; JSON round-trips through json.loads."""
    if fmt == "json":
        return json.dumps(obj, indent=2, default=_json_default)
    if fmt != "tsv":
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(obj, list):
        return "\n".join(render_report(x, "tsv") for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = _fields(obj)
    if isinstance(obj, dict):
        return "\t".join(_tsv_cell(v) for v in obj.values())
    return str(obj)


class _InputError(Exception):
    """An input graph file could not be read; reported as exit code 4."""


def _load(path: str) -> Hypergraph:
    try:
        return read_hg(path)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from exc


class _OutputError(Exception):
    """An output file could not be written; reported as exit code 5."""


def _save(path: str, write) -> None:
    """Call ``write(path)``, turning an OSError into an output error."""
    try:
        write(path)
    except OSError as exc:
        raise _OutputError(f"{path}: {exc.strerror or exc}") from exc


def _probe_outputs(*paths: str | None) -> None:
    """Fail before a long computation if an output path cannot be written.

    Each path is opened for appending, so an existing file keeps its content
    until the result is written; a file the probe created is removed again.
    """
    for path in paths:
        if path:
            existed = os.path.lexists(path)
            _save(path, lambda p: open(p, "a").close())
            if not existed:
                os.remove(path)


def _write_json(path: str, obj, indent: int | None = None) -> None:
    # dumps takes the C encoder at indent=None, dump never does; the bytes are the same
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=indent, default=_json_default))


def _usage_error(why) -> int:
    print(f"usage error: {why}", file=sys.stderr)
    return 2


def _nonnegative_int(text: str) -> int:
    """argparse type for counts such as --limit: 0, 1, 2, ..."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "a" and args.i is None:
        return _usage_error("--i is required for the a family")
    if fam != "a" and args.i is not None:
        return _usage_error(f"--i applies to --family a, not {fam}")
    try:
        if fam == "cover":
            h = constructions.cover_family(args.n, args.k, args.s)
        elif fam == "clique":
            h = constructions.clique_family(args.n, args.k, args.s)
        elif fam == "hm":
            h = constructions.hilton_milner_family(args.n, args.k, args.s)
        elif fam == "a":
            h = constructions.prefix_overlap_family(args.n, args.k, args.s, args.i)
        else:
            raise AssertionError(fam)
    except ValueError as exc:
        return _usage_error(exc)
    if args.out:
        _save(args.out, lambda path: write_hg(h, path))
        print(f"wrote {h.n} {h.k} {h.e()} -> {args.out}")
    else:
        sys.stdout.write(render_report(h, "json") + "\n")
    return 0


def _cmd_bounds(args) -> int:
    try:
        rep = constructions.bound_report(args.n, args.k, args.s)
    except ValueError as exc:
        return _usage_error(exc)
    print(render_report(rep, args.format))
    return 0


def _cmd_solve(args) -> int:
    what = args.what
    if args.limit is not None and what not in ("nu", "tau"):
        return _usage_error(f"--limit applies to --what nu|tau, not {what}")
    if args.exact_lp and what not in ("nustar", "taustar"):
        return _usage_error(f"--exact-lp applies to --what nustar|taustar, not {what}")
    h = _load(args.infile)
    mode = "rational" if args.exact_lp else "float"
    fa = None
    if what == "nu":
        value, witness = max_matching(h, limit=args.limit)
        cert = {"edges": witness.edges}
    elif what == "tau":
        value, witness = min_vertex_cover(h, limit=args.limit)
        cert = {"vertices": witness.vertices if witness else None}
    elif what == "alpha":
        value, wset = max_independent_set(h)
        cert = {"vertices": wset}
    elif what in ("nustar", "taustar"):
        try:  # exact mode falls back to the simplex; float mode has no fallback
            fa = (fractional_matching if what == "nustar" else fractional_cover)(h, mode)
        except RuntimeError as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return 6
        value = fa.value
        if what == "nustar":
            # only the nonzero weights, keyed by their rows of the vertex array
            nz = np.flatnonzero(fa.weights)
            keys = [" ".join(map(str, e)) for e in h.vertex_array()[nz].tolist()]
            cert = {"weights": dict(zip(keys, fa.weights[nz].tolist()))}
        else:
            cert = {"weights": dict(zip(h.vertices(), fa.weights))}
    else:
        raise AssertionError(what)
    out = {"what": what, "value": value}
    if fa is not None:
        out.update(lp_path=fa.lp_path, lp_solves=fa.lp_solves, lp_rows=fa.lp_rows,
                   lp_iterations=fa.lp_iterations)
    out["certificate"] = cert
    print(render_report(out))
    return 0


def _cmd_shift(args) -> int:
    h = _load(args.infile)
    _probe_outputs(args.out, args.trace)
    out, trace = shifting.stabilize(h)
    if args.out:
        _save(args.out, lambda path: write_hg(out, path))
    if args.trace:
        steps = {"rounds": trace.rounds, "steps": trace.steps}
        _save(args.trace, lambda path: _write_json(path, steps))
    # stabilize returns only once no shift moves an edge, so out is stable
    print(f"stable=True e={out.e()} rounds={trace.rounds}")
    return 0


def _cmd_closeness(args) -> int:
    h = _load(args.infile)
    search = "exhaustive" if args.exhaustive else "heuristic"
    try:
        if args.target == "cover":
            rep = stability.closeness_to_cover(h, args.s, search)
        else:
            rep = stability.closeness_to_clique(h, args.s, search)
    except ValueError as exc:
        return _usage_error(exc)
    print(render_report(rep, args.format))
    return 0


def _cmd_crossover(args) -> int:
    # k(s+1)-1 = 5 at k 3, s 1: below it the bound table has no row
    if args.n is not None and args.n < 5:
        return _usage_error(f"--n {args.n}: need n >= 5 for a bound row at s = 1")
    if args.table:
        if args.n is None:
            return _usage_error("--table needs --n")
        print(render_report(stability.bound_table(args.n), "tsv"))
        return 0
    root = stability.crossover_root()
    closed = stability.crossover_root_closed_form()
    print(f"root\t{root:.12f}")
    print(f"closed_form\t{closed:.12f}")
    print(f"gap(5/18)\t{stability.crossover_gap(5 / 18):.9f}")
    if args.n is not None:
        overtake = stability.clique_overtakes_at(args.n)
        print(f"clique_overtakes_at\t{'none' if overtake is None else overtake}")
    return 0


def _cmd_round(args) -> int:
    h = _load(args.infile)
    # checked here rather than caught: a ValueError raised inside the
    # pipeline is a fault and must surface
    if h.k != 3:
        return _usage_error(f"round needs a 3-graph, {args.infile} has k={h.k}")
    if args.s < 1:
        return _usage_error(f"s={args.s} must be at least 1")
    if args.t is not None and args.t < 1:
        return _usage_error(f"--t {args.t}: need t >= 1 rounds")
    _probe_outputs(args.report)
    res = rounding.pipeline(
        h,
        args.s,
        t=args.t,
        seed=args.seed,
        matching_strategy=args.strategy,
    )
    if args.report:
        _save(args.report, lambda path: _write_json(path, res, indent=2))
    print(f"{res.status} matching_size={res.matching.size} r={res.r} t={res.t}")
    return 0 if res.success else 1


def _cmd_verify(args) -> int:
    constraint = (
        verify.NU_LE_S if args.constraint == "nu" else verify.NU_LE_S_TAU_GT_S
    )
    try:
        res = verify.verify_extremal(
            args.n, args.k, args.s, constraint,
            method="pruned" if args.pruned else "exhaustive",
            budget_ms=args.budget_ms,
        )
    except ValueError as exc:
        return _usage_error(exc)
    print(render_report(res, args.format))
    if res.status.startswith("budget"):
        return 2
    if res.matches_bound is False:
        return 3
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hypermatch",
        description="extremal hypergraph matching toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an extremal family")
    p.add_argument("--family", choices=["cover", "clique", "hm", "a"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bounds", help="closed-form bound report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--format", choices=["json", "tsv"], default="tsv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("solve", help="exact or fractional optimum")
    p.add_argument("--what", choices=["nu", "tau", "alpha", "nustar", "taustar"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--exact-lp", action="store_true")
    p.add_argument("--limit", type=_nonnegative_int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("shift", help="stabilize by iterated shifts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("closeness", help="distance to an extremal family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target", choices=["cover", "clique"], required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.set_defaults(func=_cmd_closeness)

    p = sub.add_parser("crossover", help="bound crossover numerics")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("round", help="fractional-to-integral rounding pipeline")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=["greedy", "nibble"], default="greedy")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("verify", help="exhaustive extremal verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--constraint", choices=["nu", "nutau"], default="nutau")
    p.add_argument("--pruned", action="store_true")
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 2
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
