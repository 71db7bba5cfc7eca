"""One command for the whole benchmark: checker self-test, then every workload
untraced and traced, printing each metric with its unit.

    python3 perfbench/report.py
    python3 perfbench/report.py --seeds 1,2,3,4,5

Runs use seed 1 and the ``run_seconds`` of BENCHMARK.json. With ``--seeds``
it runs only the untraced benchmark, once per seed and workload, and prints
each end-to-end metric's median and its spread (distance between the first
and third quartile, as a share of the median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1


def bench(workload: str, seed: int, trace: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(ln) for ln in proc.stdout.strip().splitlines()]
    summary = next(ln["summary"] for ln in lines if "summary" in ln)
    return lines[-1], summary


def show(result, summary, keep=lambda name, value: True) -> None:
    for name, m in result["metrics"].items():
        if keep(name, m["value"]):
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
          f"error_frac={summary['error_frac']:.4g} cycles={summary['cycles']}")


def full_report() -> int:
    status = subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=ROOT).returncode
    for w in WORKLOADS:
        result, summary = bench(w, SEED, 0)
        print(f"\n== {w}: end to end (seed {SEED}, {SECONDS} s, untraced)")
        show(result, summary)
        print(f"  op_tail_s is the p{summary['tail_percentile']:.1f} latency over {summary['calls']} calls; "
              f"it and the calls beyond it: {summary['tail_calls']}")
        if summary["round_success_frac"] is not None:
            print(f"  round_success_frac {summary['round_success_frac']:.4g} ratio")
        for klass, row in summary["by_class"].items():
            print(f"  class {klass:14s} calls={row['calls']:4d} p50={row['p50_s']:.4g} s max={row['max_s']:.4g} s")
        result, summary = bench(w, SEED, 1)
        print(f"\n== {w}: per layer (traced, per CLI call)")
        show(result, summary, keep=lambda name, value: value or name.startswith("trace."))
        m = result["metrics"]
        print(f"  tracing overhead: traced {m['trace.ops_per_s']['value']:.4g} ops/s against "
              f"untraced {m['trace.untraced_ops_per_s']['value']:.4g} ops/s "
              f"(x{m['trace.overhead']['value']:.3f} time)")
        for klass, row in summary["layers_by_class"].items():
            print(f"  class {klass}: " + ", ".join(f"{k}={v:.4g}" for k, v in row.items()))
        print(f"  spans: {summary['spans_file']}")
        status |= 0 if result["correct"] else 1
    return status


def spread(seeds) -> int:
    status = 0
    for w in WORKLOADS:
        values: dict = {}
        for seed in seeds:
            result, _ = bench(w, seed, 0)
            status |= 0 if result["correct"] else 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {len(seeds)} seeds")
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        for name, xs in values.items():
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4)
            print(f"  {name:14s} median {med:10.5g}  spread {(q[2] - q[0]) / med:6.3f}  bound {bounds.get(name)}")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default=None, help="comma-separated seeds: spread mode")
    args = ap.parse_args()
    if args.seeds:
        return spread([int(s) for s in args.seeds.split(",")])
    return full_report()


if __name__ == "__main__":
    sys.exit(main())
