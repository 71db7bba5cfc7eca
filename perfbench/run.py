"""hypermatch benchmark: closed-loop CLI calls, checked outside the timed region.

    python3 perfbench/run.py --workload round|certify|compress --seed N \
        --seconds S --trace 0|1

One client in one process calls ``hypermatch.cli.main(argv)`` on inputs
generated from the seed; each call starts after the previous one returned
and was checked. A run makes a fixed number of cycles of the workload's call
mix, set by the workload and ``--seconds`` alone (``workloads.cycles_for``),
so its timed calls add up to about ``--seconds`` on the reference machine and
every version of the program runs the same calls.

The host this runs on is shared, and its speed swings by a third or more
within seconds. So while the calls run, a timer signal runs a short fixed
pure-Python probe that does not use the package every 50 ms, and each call's
wall time (less the probe time inside it) is divided by the host factor: the
mean probe time during the call over the probe's time on the reference
machine. Set-up runs, in their own processes, are bracketed by the probe
instead. The end-to-end metrics are these host-normalized times; the summary
line carries the raw wall-time figures beside them (``wall_metrics``) and the
host factors seen.

With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` every call runs once untraced and
once traced, in alternating order, and the last line holds the per-layer
metrics and the tracing overhead. Earlier stdout lines carry the machine
record, the input manifest and the per-class breakdown.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy or scipy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import workloads
from checks import CheckFailed, Checker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPS = 3
WALL_LIMIT_S = 130.0  # a guard only: start no cycle expected to end later
TAIL_BEYOND = 10


PROBE_REPS = 9
PROBE_REF_S = 0.00056  # median probe kernel time on the reference machine
SAMPLE_EVERY_S = 0.05  # probe interval while the calls run
MIN_SAMPLES = 5  # probe samples behind each call's host factor
BRACKET = 3  # probe samples taken just before and just after each call


class SetupError(RuntimeError):
    pass


def _probe_kernel() -> int:
    seen = {}
    for e in combinations(range(22), 3):
        key = (e[0] * 22 + e[1]) * 22 + e[2]
        seen[key] = seen.get(key, 0) + (e[0] ^ e[2])
    live = {k for k, v in seen.items() if v & 1}
    return sum(sorted(live)[::7])


def host_factor() -> float:
    """How much slower than the reference machine the host runs right now: the
    median time of a fixed pure-Python kernel that does not use the package,
    divided by its time on the reference machine."""
    xs = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _probe_kernel()
        xs.append(time.perf_counter() - t0)
    return statistics.median(xs) / PROBE_REF_S


class HostSampler:
    """Runs the probe kernel every SAMPLE_EVERY_S of wall time, from a SIGALRM
    handler in the measuring thread, while the context is open. A sample taken
    during a call runs inside it, so it sees the host as the call does; its
    time is taken out of the call's wall time again. Samples taken just
    before and after a call (``tick``) stand in for a call too short to hold
    enough samples of its own."""

    def __init__(self):
        self.starts = []
        self.durs = []
        self._busy = False

    def tick(self, *_sig):
        if self._busy:  # the timer fired during a sample: keep samples apart
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _probe_kernel()
            self.starts.append(t0)
            self.durs.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def __enter__(self):
        for _ in range(MIN_SAMPLES):
            self.tick()
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(MIN_SAMPLES):
            self.tick()

    def window(self, t0: float, t1: float) -> tuple:
        """(probe seconds spent inside [t0, t1], host factor there). The host
        factor is the mean probe time of the samples inside, widened to the
        nearest samples on both sides when fewer than MIN_SAMPLES fall inside,
        over the probe's time on the reference machine."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        spent = sum(self.durs[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo = max(0, lo - 1)
            if hi - lo < MIN_SAMPLES:
                hi = min(len(self.starts), hi + 1)
        return spent, statistics.fmean(self.durs[lo:hi]) / PROBE_REF_S


def import_package():
    """Import hypermatch.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "hypermatch" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'hypermatch'}")
    sys.path.insert(0, str(SRC))
    import hypermatch.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "hypermatch").resolve():
        raise SetupError(f"imported hypermatch from {cli.__file__}, not from {SRC}")
    return cli


def setup_child(workload: str, seed: int, workdir: str, cycles: int) -> None:
    import_package()
    workloads.build(workload, seed, workdir, cycles).save()


def timed_setup(args, workdir: Path) -> list[tuple]:
    """Run the set-up (import plus input generation) in fresh processes;
    return (seconds, host factor) per run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(workdir),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    times = []
    for _ in range(SETUP_REPS):
        h0 = host_factor()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        times.append((time.perf_counter() - t0, (h0 + host_factor()) / 2))
        if proc.returncode != 0:
            raise SetupError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return times


def manifest(plan) -> dict:
    files = {}
    for name in sorted(plan.inputs):
        with open(plan.path(name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()[:16]
    digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()[:16]
    return {"workload": plan.workload, "seed": plan.seed, "cycles": len(plan.cycles),
            "digest": digest, "files": files}


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": list(os.getloadavg()),
    }


def invoke(cli, argv):
    """One timed CLI call; returns (start, end, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the benchmark must keep running
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return t0, t1, rc, out.getvalue(), error


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND calls beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    def __init__(self, cli, plan, trace: bool):
        self.cli = cli
        self.plan = plan
        self.checker = Checker(plan)
        self.tracer = None
        if trace:
            from tracer import Tracer

            self.tracer = Tracer()
        self.sampler = HostSampler()
        self.records = []  # one dict per call
        self.errors = []
        self.cycles = 0
        self.truncated = False

    def one(self, call, traced: bool, call_id: int) -> dict:
        if traced:
            self.tracer.install(call_id)
        for _ in range(BRACKET):
            self.sampler.tick()
        try:
            t0, t1, rc, out, error = invoke(self.cli, call.argv)
        finally:
            if traced:
                self.tracer.uninstall()
        for _ in range(BRACKET):
            self.sampler.tick()
        label = f"{call.klass}/{call.op}" + ("/exact" if call.meta.get("exact") else "")
        rec = {"id": call_id, "cycle": self.cycles, "op": call.op, "class": call.klass, "label": label,
               "traced": traced, "t0": t0, "t1": t1, "ok": error is None}
        if error is None:
            try:
                rec.update(self.checker.check(call, rc, out))
            except (CheckFailed, ValueError, KeyError, TypeError, OSError) as exc:
                error = f"check: {type(exc).__name__}: {exc}"
                rec["ok"] = False
        if error is not None:
            self.errors.append(f"{' '.join(call.argv)} -> {error}")
        self.records.append(rec)
        return rec

    def measure(self) -> None:
        """Run the plan's calls with the host sampled throughout, then give
        each call its wall time (``wall_s``, probe time taken out), host
        factor (``host``) and host-normalized time (``s``)."""
        with self.sampler:
            self._cycles()
        for rec in self.records:
            t0, t1 = rec.pop("t0"), rec.pop("t1")
            spent, host = self.sampler.window(t0, t1)
            rec["wall_s"] = t1 - t0 - spent
            rec["host"] = host
            rec["s"] = rec["wall_s"] / host

    def _cycles(self) -> None:
        """Run every cycle of the plan. Stop early only before a cycle expected
        to end past the wall limit; the run is then marked truncated."""
        start = time.monotonic()
        for calls in self.plan.cycles:
            for call in calls:
                if self.tracer is None:
                    modes = (False,)
                else:  # alternate which of the pair runs first
                    modes = (False, True) if len(self.records) // 2 % 2 == 0 else (True, False)
                for traced in modes:
                    self.one(call, traced, len(self.records))
            self.cycles += 1
            wall = time.monotonic() - start
            if self.cycles < len(self.plan.cycles) and wall + wall / self.cycles > WALL_LIMIT_S:
                self.truncated = True
                return


def cycle_rates(recs, cycles, key="s") -> list:
    """Calls per timed second, one value per cycle."""
    rates = []
    for c in range(cycles):
        lats = [r[key] for r in recs if r["cycle"] == c]
        rates.append(len(lats) / sum(lats))
    return rates


def e2e_metrics(recs, cycles, setup_times, key="s") -> dict:
    """Host-normalized metrics by default; ``key="wall_s"`` gives raw wall
    time. ops_per_s is the median over cycles, which all hold the same call
    mix, so a cycle slowed by the machine moves it less than a total would."""
    lats = [r[key] for r in recs]
    tail_s, _ = tail(lats)
    setup = [t if key == "wall_s" else t / host for t, host in setup_times]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(cycle_rates(recs, cycles, key)), "1/s"),
        "op_p50_s": (statistics.median(lats), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, recs) -> dict:
    """Per-layer metrics over the given traced calls, per CLI call."""
    ids = [r["id"] for r in recs]
    n = len(ids)
    layers = tracer.layer_totals(ids)
    out = {}
    for name, (calls, incl, own) in layers.items():
        out[f"{name}.calls"] = (_per(calls, n), "1/op")
        out[f"{name}.s"] = (_per(incl, n), "s/op")
        out[f"{name}.self_s"] = (_per(own, n), "s/op")
    cnt = tracer.count_totals(ids)

    def per_call(fn):
        return layers[fn][0]

    out["lp.simplex_rational.cells"] = (_per(cnt["lp.simplex_rational.cells"], per_call("lp.simplex_rational")), "cells/call")
    out["lp.linprog_float.dense_cells"] = (_per(cnt["lp.linprog_float.dense_cells"], per_call("lp.linprog_float")), "cells/call")
    out["rounding.extract_complete_frac"] = (_per(cnt["rounding.extract_complete"], per_call("rounding.extract_fpm_family")), "ratio")
    out["rounding.extract_members"] = (_per(cnt["rounding.extract_members"], per_call("rounding.extract_fpm_family")), "members/call")
    out["rounding.pipeline.success_frac"] = (_per(cnt["rounding.pipeline.success"], per_call("rounding.pipeline")), "ratio")
    out["verify.subsets_checked"] = (_per(cnt["verify.subsets_checked"], per_call("verify.verify_extremal")), "count/call")
    shifts = [r for r in recs if r["op"] == "shift" and r["ok"]]
    steps = sum(r["steps"] for r in shifts)
    out["shifting.steps"] = (_per(steps, len(shifts)), "steps/call")
    out["shifting.sweeps"] = (_per(sum(r["sweeps"] for r in shifts), len(shifts)), "sweeps/call")
    out["shifting.moving_step_frac"] = (_per(sum(r["moving"] for r in shifts), steps), "ratio")
    return out


def by_class(recs, fn) -> dict:
    classes = sorted({r["class"] for r in recs})
    return {c: fn([r for r in recs if r["class"] == c]) for c in classes}


def emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    cycles = workloads.cycles_for(args.workload, args.seconds, bool(args.trace))
    if args.setup_child:
        setup_child(args.workload, args.seed, args.setup_child, cycles)
        return 0

    workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        cli = import_package()
        record = machine_record()
        workdir.mkdir(parents=True, exist_ok=True)
        setup_times = timed_setup(args, workdir)
        plan = workloads.Plan.load(str(workdir))
        emit({"machine": record})
        inputs = manifest(plan)
        emit({"manifest": inputs})
        run = Run(cli, plan, bool(args.trace))
        rss_before_calls = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.measure()
        inputs_kept = manifest(plan)["digest"] == inputs["digest"]
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 2

    recs = run.records
    failed = sum(1 for r in recs if not r["ok"])
    for line in run.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if not inputs_kept:
        print("FAILED an input file changed during the run", file=sys.stderr)
    rounds = [r for r in recs if r["op"] == "round" and r["ok"]]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "cycles": run.cycles,
        "cycle_ops_per_s": cycle_rates(recs, run.cycles),
        "calls": len(recs), "error_frac": failed / len(recs),
        "round_success_frac": _per(sum(r["round_success"] for r in rounds), len(rounds)) if rounds else None,
        "truncated": run.truncated,
        "setup_runs": [{"wall_s": t, "host": h} for t, h in setup_times],
        "host_factor": {"min": min(r["host"] for r in recs), "median": statistics.median(r["host"] for r in recs),
                        "max": max(r["host"] for r in recs)},
        "rss_before_calls_mb": rss_before_calls, "loadavg_end": list(os.getloadavg()),
    }
    if args.trace:
        plain = [r for r in recs if not r["traced"]]
        traced = [r for r in recs if r["traced"]]
        metrics = layer_metrics(run.tracer, traced)
        t_plain, t_traced = sum(r["s"] for r in plain), sum(r["s"] for r in traced)
        metrics["trace.untraced_ops_per_s"] = (len(plain) / t_plain, "1/s")
        metrics["trace.ops_per_s"] = (len(traced) / t_traced, "1/s")
        metrics["trace.overhead"] = (t_traced / t_plain, "ratio")
        summary["layers_by_class"] = by_class(traced, lambda rs: {
            k: round(v, 6) for k, (v, _u) in layer_metrics(run.tracer, rs).items() if v})
        spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        run.tracer.dump(str(spans_path), [[r["id"], r["op"], r["class"]] for r in traced])
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = e2e_metrics(recs, run.cycles, setup_times)
        summary["wall_metrics"] = {k: v for k, (v, _u) in e2e_metrics(recs, run.cycles, setup_times, "wall_s").items()}
        tail_s, pct = tail([r["s"] for r in recs])
        summary["tail_percentile"] = pct
        slowest = sorted(recs, key=lambda r: r["s"])[-TAIL_BEYOND - 1:]
        summary["tail_calls"] = dict(Counter(r["label"] for r in slowest))  # the tail call and those beyond it
        summary["by_class"] = by_class(recs, lambda rs: {
            "calls": len(rs), "p50_s": statistics.median(r["s"] for r in rs),
            "max_s": max(r["s"] for r in rs)})
    emit({"summary": summary})
    shutil.rmtree(workdir, ignore_errors=True)
    emit({
        "correct": failed == 0 and inputs_kept,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
