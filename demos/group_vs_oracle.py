#!/usr/bin/env python3
"""
group_vs_oracle.py

Compare the closed-form symmetry group order against the oracle's
count of all distance-preserving bijections, read off the distance
matrix alone, for every configuration small enough to check on a desk.
The two alternative closed forms quoted for all-unit-width
configurations are printed and flagged wherever they disagree with the
oracle.

The oracle counts with a stabilizer chain, so wall time follows the
point count and the orbit sizes, not the group order.
"""

import argparse
import time

from ohb import Field, SpaceConfig, full_order
from ohb.oracle import enumerate_isometries

CASES = [
    ("one chain, n=2", 2, 1, 2, [[1, 1]]),
    ("Hamming pair", 2, 2, 1, [[1], [1]]),
    ("chain with blocks (2,1)", 2, 1, 2, [[2, 1]]),
    ("antichain, three bits", 2, 3, 1, [[1], [1], [1]]),
    ("ordered Hamming 2x2", 2, 2, 2, [[1, 1], [1, 1]]),
    ("ternary chain, n=2", 3, 1, 2, [[1, 1]]),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cap", type=int, default=64, help="point-count guardrail")
    args = ap.parse_args()

    print(f"{'configuration':26s} {'points':>6s} {'formula':>8s} {'oracle':>8s}  alternates")
    for label, q, m, n, pi in CASES:
        cfg = SpaceConfig(Field(q), m, n, pi)
        t0 = time.perf_counter()
        report = enumerate_isometries(cfg, cap=args.cap)
        dt = time.perf_counter() - t0
        alts = ", ".join(
            f"{k}={v}{'' if report.matches[k] else ' (MISMATCH)'}"
            for k, v in sorted(report.alt_counts.items())
        ) or "-"
        mark = "ok" if report.matches["formula"] else "DISAGREES"
        print(
            f"{label:26s} {cfg.size:6d} {report.formula_count:8d} "
            f"{report.isometry_count:8d}  {alts}  [{mark}, {dt:.2f}s]"
        )

    print()
    print("orders the oracle cannot reach remain available in closed form:")
    big = SpaceConfig(Field(2), 4, 3, [[2, 1, 1]] * 4)
    print(f"   q=2, four chains, pi row (2,1,1): |G| = {full_order(big)}")


if __name__ == "__main__":
    main()
