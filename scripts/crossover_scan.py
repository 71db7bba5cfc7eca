#!/usr/bin/env python3
"""Where the clique count overtakes the Hilton-Milner-type count.

Scans the exact integer bounds for a range of n, reports the finite-n
tie point, and compares it with the asymptotic root of the gap density.
The k = 3 bound table for one n is `hypermatch crossover --n 12 --table`.

Usage: python scripts/crossover_scan.py [--n-list 50,100,500,2000]
"""

import argparse

from hypermatch.stability import (
    clique_overtakes_at,
    crossover_gap,
    crossover_root,
    crossover_root_closed_form,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-list", default="50,100,200,500,1000,2000")
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


if __name__ == "__main__":
    main()
