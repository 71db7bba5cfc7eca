#!/usr/bin/env python3
"""Where the clique count overtakes the Hilton-Milner-type count.

Scans the exact integer bounds for a range of n, reports the finite-n
tie point, and compares it with the asymptotic root of the gap density.
With --table-n it also prints the k = 3 bound table for that n: the cover,
clique, Hilton-Milner and A_2 counts, the paper's maximum (the largest of
the last three) and every family at it.

Usage: python scripts/crossover_scan.py [--n-list 50,100,500,2000] [--table-n 12]
"""

import argparse

from hypermatch.stability import (
    bound_table,
    clique_overtakes_at,
    crossover_gap,
    crossover_root,
    crossover_root_closed_form,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-list", default="50,100,200,500,1000,2000")
    ap.add_argument("--table-n", type=int, default=None,
                    help="also dump the full bound table for this n")
    args = ap.parse_args()

    root = crossover_root()
    print(f"asymptotic root: {root:.9f} (closed form {crossover_root_closed_form():.9f})")
    print(f"gap density at 5/18: {crossover_gap(5 / 18):.6f}")
    print()
    print("n\ttie s\ttie s/n\tdelta vs root")
    for n in (int(x) for x in args.n_list.split(",")):
        s = clique_overtakes_at(n)
        if s is None:
            print(f"{n}\t-\t-\t(no overtake in range)")
            continue
        print(f"{n}\t{s}\t{s / n:.4f}\t{s / n - root:+.4f}")

    if args.table_n:
        print()
        print("s\tcover\tclique\thm\ta2\tmax\tat max")
        for row in bound_table(args.table_n):
            print(f"{row.s}\t{row.cover_bound}\t{row.clique_bound}\t{row.hm_bound}"
                  f"\t{row.a_bounds[0]}\t{row.max_nontrivial}\t{row.argmax}")


if __name__ == "__main__":
    main()
