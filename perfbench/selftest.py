"""Self-test of the output checks: each accepts a real CLI output and rejects
a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run
import workloads as wl
from checks import CheckFailed, Checker
from workloads import Call, Plan


def main() -> int:
    cli = run.import_package()
    workdir = run.RUN_DIR / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    d = str(workdir)
    rng = random.Random(7)
    inputs = {
        "k18.hg": wl.complete(18),
        "cover.hg": wl.relabel(wl.cover_family(10, 2), rng),
        "rand.hg": wl.random_graph(9, 0.4, rng),
        "hm.hg": wl.relabel(wl.hm_family(12, wl.S), rng),
    }
    plan = Plan("selftest", 0, d)
    for name, g in inputs.items():
        plan.add(name, g)
    failures = []

    def call_and_check(call):
        _t0, _t1, rc, out, error = run.invoke(cli, call.argv)
        if error:
            raise RuntimeError(f"{call.argv}: {error}")
        Checker(plan).check(call, rc, out)  # the genuine output must pass
        return rc, out

    def expect_reject(label, call, rc, out, rewrite=None, checker=None):
        if rewrite:
            path, text = rewrite
            with open(path, "w") as fh:
                fh.write(text)
        try:
            (checker or Checker(plan)).check(call, rc, out)
        except CheckFailed as exc:
            print(f"PASS {label}: rejected ({exc})")
        else:
            print(f"FAIL {label}: corrupted output accepted")
            failures.append(label)

    # round: a matching that reuses a vertex, and a flipped success flag
    report = f"{d}/report.json"
    c = Call("round", "complete", ["round", "--in", f"{d}/k18.hg", "--s", "3", "--t", "12",
                                   "--seed", "1", "--report", report], {"input": "k18.hg", "s": 3, "report": report})
    rc, out = call_and_check(c)
    rep = json.loads(open(report).read())
    bad = dict(rep, matching={"edges": rep["matching"]["edges"][:-1] + [[1, 2, 3], [3, 4, 5]]})
    expect_reject("round overlapping matching", c, rc, out, (report, json.dumps(bad)))
    expect_reject("round success flag", c, rc, out, (report, json.dumps(dict(rep, success=not rep["success"]))))

    # solve nu and tau: a short certificate, a wrong value
    c = Call("nu", "family", ["solve", "--what", "nu", "--in", f"{d}/cover.hg"], {"input": "cover.hg", "nu": 2})
    rc, out = call_and_check(c)
    p = json.loads(out)
    expect_reject("nu certificate size", c, rc, json.dumps(dict(p, certificate={"edges": p["certificate"]["edges"][:1]})))
    c = Call("tau", "random", ["solve", "--what", "tau", "--in", f"{d}/rand.hg"], {"input": "rand.hg"})
    rc, out = call_and_check(c)
    p = json.loads(out)
    smaller = sorted(p["certificate"]["vertices"])[1:]
    expect_reject("tau cover misses an edge", c, rc, json.dumps(dict(p, value=len(smaller), certificate={"vertices": smaller})))
    bigger = list(range(1, inputs["rand.hg"].n + 1))
    expect_reject("tau value above the oracle", c, rc, json.dumps(dict(p, value=len(bigger), certificate={"vertices": bigger})))

    # fractional: overloaded vertices, and a feasible cover that is not optimal
    n = inputs["rand.hg"].n
    for exact in (True, False):
        tag = "exact" if exact else "float"
        one = "1" if exact else 1.0
        flag = ["--exact-lp"] if exact else []
        cm = Call("nustar", "lp", ["solve", "--what", "nustar", "--in", f"{d}/rand.hg"] + flag, {"input": "rand.hg", "exact": exact})
        cc = Call("taustar", "lp", ["solve", "--what", "taustar", "--in", f"{d}/rand.hg"] + flag, {"input": "rand.hg", "exact": exact})
        rc, out = call_and_check(cm)
        every = {" ".join(map(str, e)): one for e in inputs["rand.hg"].edges}
        m = len(every)
        expect_reject(f"nustar {tag} overload", cm, rc,
                      json.dumps(dict(json.loads(out), value=str(m) if exact else float(m), certificate={"weights": every})))
        checker = Checker(plan)
        checker.check(cm, rc, out)  # records the optimal nu*
        rc, out = call_and_check(cc)
        ones = {str(v): one for v in range(1, n + 1)}
        expect_reject(f"taustar {tag} duality gap", cc, rc,
                      json.dumps(dict(json.loads(out), value=str(n) if exact else float(n), certificate={"weights": ones})),
                      checker=checker)

    # verify: a flipped bound verdict, a witness with an edge removed, and
    # under the nu-only constraint a witness with a matching above s
    c = Call("verify", "verify", ["verify", "--n", "6", "--k", "3", "--s", "1", "--constraint", "nutau", "--pruned"],
             {"s": 1, "constraint": "nutau"})
    rc, out = call_and_check(c)
    p = json.loads(out)
    expect_reject("verify bound verdict", c, rc, json.dumps(dict(p, matches_bound=False)))
    w = dict(p["extremal_witnesses"][0])
    w["edges"] = w["edges"][1:]
    expect_reject("verify witness", c, rc, json.dumps(dict(p, extremal_witnesses=[w])))
    c = Call("verify", "verify", ["verify", "--n", "6", "--k", "3", "--s", "1", "--constraint", "nu", "--pruned"],
             {"s": 1, "constraint": "nu"})
    rc, out = call_and_check(c)
    p = json.loads(out)
    w = dict(p["extremal_witnesses"][0])
    apart = sorted(set(range(1, w["n"] + 1)) - set(w["edges"][0]))  # disjoint from the first edge
    w["edges"] = w["edges"][:-1] + [apart]
    expect_reject("verify nu witness matching", c, rc, json.dumps(dict(p, extremal_witnesses=[w])))

    # shift: an output that is not a down-set; closeness: a wrong count
    shifted = f"{d}/shifted.hg"
    c = Call("shift", "family", ["shift", "--in", f"{d}/hm.hg", "--out", shifted, "--trace", f"{d}/trace.json"],
             {"input": "hm.hg", "out": shifted, "trace": f"{d}/trace.json", "canonical": ["hm", 12]})
    rc, out = call_and_check(c)
    good = open(shifted).read()
    lines = good.splitlines()
    lines[1] = "10 11 12"  # replaces the lowest edge 1 2 3
    expect_reject("shift not a down-set", c, rc, out, (shifted, "\n".join(lines) + "\n"))
    with open(shifted, "w") as fh:
        fh.write(good)
    c = Call("closeness", "family", ["closeness", "--in", shifted, "--target", "cover", "--s", "3", "--exhaustive"],
             {"shifted": shifted, "target": "cover", "s": 3, "exhaustive": True})
    rc, out = call_and_check(c)
    p = json.loads(out)
    expect_reject("closeness missing count", c, rc, json.dumps(dict(p, missing_edges=p["missing_edges"] + 1)))

    shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "FAILED " + ", ".join(failures) if failures else "all checks reject corrupted output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
