#!/usr/bin/env python3
"""
metric_tour.py

A walk through the poset-block metric: how the same bit patterns pick
up different weights depending on whether coordinates form chains or
an antichain.

Examples:
  python3 metric_tour.py
  python3 metric_tour.py --q 3 --n 3
"""

import argparse

from ohb import Field, SpaceConfig, distance, format_vector, weight


def show_space(cfg, label):
    print(f"== {label}: q={cfg.q}, m={cfg.m}, n={cfg.n}, pi={cfg.pi}")
    print(f"   {cfg.size} vectors, max weight {cfg.m * cfg.n}")
    by_weight = {}
    for v in (cfg.unrank(r) for r in range(cfg.size)):
        by_weight.setdefault(weight(v), []).append(v)
    for w in sorted(by_weight):
        vecs = by_weight[w]
        sample = "  ".join(format_vector(v) for v in vecs[:6])
        more = f" (+{len(vecs) - 6} more)" if len(vecs) > 6 else ""
        print(f"   weight {w}: {len(vecs):3d}  e.g. {sample}{more}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[3])
    ap.add_argument("--q", type=int, default=2, help="field size (prime)")
    ap.add_argument("--n", type=int, default=2, help="chain length")
    args = ap.parse_args()

    f = Field(args.q)

    chain = SpaceConfig(f, 1, args.n, [[1] * args.n])
    show_space(chain, "one chain")

    anti = SpaceConfig(f, args.n, 1, [[1]] * args.n)
    show_space(anti, "antichain (plain Hamming)")

    # the chain metric is dominated by the top nonzero level: flipping a
    # low coordinate is free once a higher one is set
    u = chain.unrank(0)
    top = chain.unrank(chain.size - 1)
    print("chain distances from zero:")
    for r in range(chain.size):
        v = chain.unrank(r)
        print(f"   d(0, {format_vector(v)}) = {distance(u, v)}")
    print(f"   all of the top level's {args.q ** (args.n - 1)} cosets sit at the same distance")
    print(f"   d(0, {format_vector(top)}) = {distance(u, top)} = n")


if __name__ == "__main__":
    main()
