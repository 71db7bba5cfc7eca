#!/usr/bin/env python3
"""Monte-Carlo sweep of the fractional-to-integral rounding stages.

For each seed: extract a capped family on the complete 3-graph, mix, sample
a binomial subgraph, and pull out a matching. Reports pair-load maxima,
degree-window violations against the Chernoff budget, and coverage stats.

Usage: python scripts/rounding_sweep.py --n 30 --t 20 --seeds 100
"""

import argparse
import math
import statistics

from hypermatch.core import complete_graph
from hypermatch.rounding import (
    extract_fpm_family,
    mix_and_halve,
    near_perfect_matching,
    sample_binomial_subgraph,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--t", type=int, default=20)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--strategy", choices=["greedy", "nibble"], default="greedy")
    ap.add_argument("--coverage", type=float, default=0.8)
    args = ap.parse_args()

    h = complete_graph(args.n, 3)
    fam = extract_fpm_family(h, args.t)
    print(f"extraction: {fam.status} ({len(fam.members)}/{args.t} members)")
    print(f"max pair load: {float(fam.max_pair_load()):.6f} (cap {fam.cap})")
    heavy = fam.heavy_pairs_by_vertex()
    print(f"max heavy pairs per vertex: {int(heavy.max(initial=0))} (ceiling {2 * args.t})")
    if not fam.complete:
        return

    mixed = mix_and_halve(fam)
    ed = len(fam.members) / 2
    lam = 3 * math.sqrt(3 * ed * math.log(2))
    alpha = min(lam / ed, 1.5)

    sizes = []
    covered = 0
    violations = 0
    budget = 0.0
    for seed in range(args.seeds):
        rep = sample_binomial_subgraph(h, mixed, seed, alpha=alpha)
        violations += rep.vertex_violations
        budget += rep.vertex_violation_budget
        m = near_perfect_matching(rep.sampled, args.strategy, seed=seed)
        sizes.append(m.size)
        if 3 * m.size >= args.coverage * args.n:
            covered += 1

    print(f"matching sizes: mean {statistics.mean(sizes):.2f}, "
          f"min {min(sizes)}, max {max(sizes)} (perfect = {args.n // 3})")
    print(f"coverage >= {args.coverage:.0%}: {covered}/{args.seeds} seeds")
    print(f"degree-window violations: {violations} observed vs {budget:.2f} budget "
          f"(alpha = {alpha:.3f})")


if __name__ == "__main__":
    main()
