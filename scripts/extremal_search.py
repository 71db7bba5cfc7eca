#!/usr/bin/env python3
"""Exhaustive extremal searches at tiny scale, compared to the bounds.

Usage: python scripts/extremal_search.py [--pruned]
"""

import argparse
import time

from hypermatch.core import BudgetExceeded
from hypermatch.verify import NU_LE_S, NU_LE_S_TAU_GT_S, verify_extremal

CASES = [
    (4, 2, 1, NU_LE_S),
    (5, 2, 1, NU_LE_S),
    (6, 2, 2, NU_LE_S),
    (5, 3, 1, NU_LE_S),
    (5, 3, 1, NU_LE_S_TAU_GT_S),
    (6, 3, 1, NU_LE_S_TAU_GT_S),
    # C(n,k) > 24 edges: the exhaustive method refuses these; the pruned one
    # settles (10,3,1) = 22 in 1-2 s and each of the others in under 0.1 s
    # on a 2-CPU container; (11,3,1) = 25 takes 12-13 s, so CI runs it in a
    # step of its own
    (8, 3, 1, NU_LE_S_TAU_GT_S),
    (9, 2, 2, NU_LE_S_TAU_GT_S),
    (9, 3, 1, NU_LE_S_TAU_GT_S),
    (10, 2, 2, NU_LE_S_TAU_GT_S),
    (10, 3, 1, NU_LE_S_TAU_GT_S),
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pruned", action="store_true")
    args = ap.parse_args()
    method = "pruned" if args.pruned else "exhaustive"

    print("n\tk\ts\tconstraint\tmax e\tbound\tmatch\tchecked\tnodes\ttime")
    for n, k, s, constraint in CASES:
        t0 = time.time()
        try:
            res = verify_extremal(n, k, s, constraint, method=method)
        except BudgetExceeded as exc:
            print(f"{n}\t{k}\t{s}\t{constraint}\trefused: {exc}")
            continue
        print(
            f"{n}\t{k}\t{s}\t{constraint}\t{res.max_edges_found}\t"
            f"{res.bound_value}\t{res.matches_bound}\t{res.subsets_checked}\t"
            f"{res.search_nodes}\t{time.time() - t0:.2f}s"
        )


if __name__ == "__main__":
    main()
