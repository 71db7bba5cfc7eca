"""Independent checks of every CLI call's output, run outside the timed region.

Each check raises CheckFailed with a reason. Graph files are parsed here, not
by the package. Each input is read from disk when its call is checked, so the
benchmark process never keeps the graphs. The package's exact solvers and
brute-force oracles are used only where the check needs an optimum it cannot
certify by itself (the tau oracle, the witness re-check of ``verify``, the
heuristic closeness value).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from workloads import FAMILIES, K, S, Call, Graph, Plan

FLOAT_TOL = 1e-6


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def parse_hg(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    _require(lines, "empty graph file")
    k, n, m = (int(x) for x in lines[0].split())
    _require(k == K, f"uniformity {k} != {K}")
    edges = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    _require(len(edges) == m, f"header promises {m} edges, found {len(edges)}")
    for e in edges:
        _require(len(e) == K and all(a < b for a, b in zip(e, e[1:])), f"bad edge {e}")
        _require(1 <= e[0] and e[-1] <= n, f"edge {e} leaves 1..{n}")
    _require(len(set(edges)) == m, "repeated edge")
    return Graph(n, tuple(sorted(edges)))


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _is_matching(edges, edge_set) -> bool:
    used = set()
    for e in edges:
        if e not in edge_set or used.intersection(e):
            return False
        used.update(e)
    return True


def _is_downset(g: Graph) -> bool:
    es = set(g.edges)
    for e in g.edges:
        for v in e:
            if v > 1 and v - 1 not in e:
                if tuple(sorted(set(e) - {v} | {v - 1})) not in es:
                    return False
    return True


def _hypergraph(g: Graph):
    from hypermatch.core import Hypergraph

    return Hypergraph(g.n, K, g.edges)


class Checker:
    """Checks calls of one plan; caches oracle values and verdicts."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.oracle: dict = {}
        self.seen: set = set()
        self.nustar: dict = {}  # (input, exact) -> value of the last nustar call

    def check(self, call: Call, rc, out: str) -> dict:
        """Raise CheckFailed unless the call's output is right; return facts
        the benchmark reports (round success, shift step counts)."""
        fn = getattr(self, "_" + call.op)
        return fn(call, rc, out) or {}

    def _input(self, call) -> Graph:
        return parse_hg(_read(self.plan.path(call.meta["input"])))

    def _cached(self, key) -> bool:
        if key in self.seen:
            return True
        self.seen.add(key)
        return False

    # -- round ---------------------------------------------------------------

    def _round(self, call, rc, out):
        rep = json.loads(_read(call.meta["report"]))
        g = self._input(call)
        edges = [tuple(e) for e in rep["matching"]["edges"]]
        _require(_is_matching(edges, set(g.edges)), "round: report matching is not a matching of the input")
        success = len(edges) > call.meta["s"]
        _require(rep["success"] is success, "round: success flag disagrees with the matching size")
        _require(rc == (0 if success else 1), f"round: exit code {rc} with success={success}")
        _require(f"matching_size={len(edges)} " in out, "round: printed size disagrees with the report")
        return {"round_success": success}

    # -- solve -----------------------------------------------------------------

    def _solve_payload(self, call, rc, out, what):
        _require(rc == 0, f"solve {what}: exit code {rc}")
        payload = json.loads(out)
        _require(payload["what"] == what, f"solve: answered {payload['what']!r}")
        return payload

    def _nu(self, call, rc, out):
        payload = self._solve_payload(call, rc, out, "nu")
        g = self._input(call)
        edges = [tuple(e) for e in payload["certificate"]["edges"]]
        _require(_is_matching(edges, set(g.edges)), "nu: certificate is not a matching")
        _require(len(edges) == payload["value"], "nu: certificate size differs from the value")
        if "nu" in call.meta:
            _require(payload["value"] == call.meta["nu"], f"nu: {payload['value']} != closed form {call.meta['nu']}")
        else:
            tau = self._tau_oracle(call.meta["input"], g)
            _require(tau is None or payload["value"] <= tau, "nu: value exceeds tau")

    def _tau_oracle(self, name, g: Graph):
        if name not in self.oracle:
            from hypermatch.core import BudgetExceeded
            from hypermatch.optimize import min_vertex_cover

            try:
                self.oracle[name] = min_vertex_cover(_hypergraph(g), exhaustive=True)[0]
            except BudgetExceeded:
                self.oracle[name] = None
        return self.oracle[name]

    def _tau(self, call, rc, out):
        payload = self._solve_payload(call, rc, out, "tau")
        g = self._input(call)
        cover = set(payload["certificate"]["vertices"])
        _require(all(1 <= v <= g.n for v in cover), "tau: cover vertex out of range")
        _require(all(cover.intersection(e) for e in g.edges), "tau: certificate misses an edge")
        _require(len(cover) == payload["value"], "tau: certificate size differs from the value")
        oracle = self._tau_oracle(call.meta["input"], g)
        _require(oracle is None or oracle == payload["value"], f"tau: {payload['value']} != oracle {oracle}")

    @staticmethod
    def _num(x, exact):
        return Fraction(x) if exact else float(x)

    def _nustar(self, call, rc, out):
        payload = self._solve_payload(call, rc, out, "nustar")
        exact = call.meta["exact"]
        tol = 0 if exact else FLOAT_TOL
        g = self._input(call)
        es = set(g.edges)
        load = {v: 0 for v in range(1, g.n + 1)}
        total = 0
        for key, w in payload["certificate"]["weights"].items():
            e = tuple(int(x) for x in key.split())
            w = self._num(w, exact)
            _require(e in es, f"nustar: weighted {e} is not an edge")
            _require(-tol <= w <= 1 + tol, f"nustar: weight {w} outside [0, 1]")
            total += w
            for v in e:
                load[v] += w
        _require(all(x <= 1 + tol for x in load.values()), "nustar: a vertex carries weight above 1")
        value = self._num(payload["value"], exact)
        _require(abs(total - value) <= tol, f"nustar: weights sum to {total}, value {value}")
        self.nustar[(call.meta["input"], exact)] = value

    def _taustar(self, call, rc, out):
        payload = self._solve_payload(call, rc, out, "taustar")
        exact = call.meta["exact"]
        tol = 0 if exact else FLOAT_TOL
        g = self._input(call)
        w = {int(v): self._num(x, exact) for v, x in payload["certificate"]["weights"].items()}
        _require(all(-tol <= x <= 1 + tol for x in w.values()), "taustar: weight outside [0, 1]")
        _require(all(sum(w.get(v, 0) for v in e) >= 1 - tol for e in g.edges), "taustar: an edge is covered below 1")
        value = self._num(payload["value"], exact)
        _require(abs(sum(w.values()) - value) <= tol, "taustar: weights do not sum to the value")
        key = (call.meta["input"], exact)
        if key not in self.nustar:
            from hypermatch.optimize import fractional_matching

            self.nustar[key] = fractional_matching(_hypergraph(g), "rational" if exact else "float").value
        nu = self.nustar[key]
        # a feasible matching weighting and a feasible cover weighting of equal
        # value certify each other as optimal (weak duality)
        _require(abs(nu - value) <= tol, f"taustar: {value} != nustar {nu}")

    # -- verify --------------------------------------------------------------

    def _verify(self, call, rc, out):
        _require(rc == 0, f"verify: exit code {rc}")
        if self._cached(("verify", tuple(call.argv), out)):
            return
        from hypermatch.core import Hypergraph
        from hypermatch.optimize import max_matching, min_vertex_cover

        rep = json.loads(out)
        _require(rep["status"] == "complete", f"verify: status {rep['status']!r}")
        _require(rep["matches_bound"] is True, "verify: maximum does not match the bound")
        _require(rep["max_edges_found"] == rep["bound_value"], "verify: maximum differs from the bound value")
        _require(rep["extremal_witnesses"], "verify: no witness")
        s = call.meta["s"]
        for wd in rep["extremal_witnesses"]:
            w = Hypergraph(wd["n"], wd["k"], [tuple(e) for e in wd["edges"]])
            _require(w.e() == rep["max_edges_found"], "verify: witness size differs from the maximum")
            _require(max_matching(w)[0] <= s, "verify: witness has a matching above s")
            if call.meta["constraint"] == "nutau":
                _require(min_vertex_cover(w, limit=s)[0] > s, "verify: witness has a cover of size s")

    # -- shift and closeness -----------------------------------------------

    def _shift(self, call, rc, out):
        _require(rc == 0, f"shift: exit code {rc}")
        text = _read(call.meta["out"])
        trace = json.loads(_read(call.meta["trace"]))
        steps = trace["steps"]
        facts = {"steps": len(steps), "sweeps": trace["rounds"],
                 "moving": sum(1 for st in steps if st[2])}
        g = self._input(call)
        _require(f"stable=True e={len(g.edges)} " in out, "shift: printed summary disagrees")
        if self._cached(("shift", call.meta["input"], text)):
            return facts
        h = parse_hg(text)
        _require(h.n == g.n and len(h.edges) == len(g.edges), "shift: edge count or n changed")
        _require(_is_downset(h), "shift: output is not a down-set")
        canonical = call.meta["canonical"]  # [family, n] or None
        _require(canonical is None or h.edges == FAMILIES[canonical[0]](canonical[1], S).edges,
                 "shift: relabeled family did not stabilize to the canonical family")
        return facts

    def _closeness(self, call, rc, out):
        _require(rc == 0, f"closeness: exit code {rc}")
        text = _read(call.meta["shifted"])
        key = ("closeness", tuple(call.argv), text, out)
        if self._cached(key):
            return
        h = parse_hg(text)
        rep = json.loads(out)
        target, s = call.meta["target"], call.meta["s"]
        part = frozenset(rep["partition"])
        es = set(h.edges)
        if target == "cover":
            _require(len(part) == s, "closeness: W does not have s vertices")
            want = [e for e in combinations(range(1, h.n + 1), K) if part.intersection(e)]
        else:
            _require(len(part) == K * (s + 1) - 1, "closeness: U has the wrong size")
            want = list(combinations(sorted(part), K))
        missing = sum(1 for e in want if e not in es)
        _require(rep["missing_edges"] == missing, f"closeness: {rep['missing_edges']} missing, recount {missing}")
        _require(rep["exhaustive"] is call.meta["exhaustive"], "closeness: wrong search mode")
        if call.meta["exhaustive"]:
            from hypermatch import stability

            fn = stability.closeness_to_cover if target == "cover" else stability.closeness_to_clique
            heuristic = fn(_hypergraph(h), s, "heuristic").missing_edges
            _require(missing <= heuristic, f"closeness: exhaustive {missing} > heuristic {heuristic}")
