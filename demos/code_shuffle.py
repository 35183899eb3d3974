#!/usr/bin/env python3
"""
code_shuffle.py

Scramble a code with a random symmetry and let the equivalence search
find its own way back.  Also shows the fast rejections: size and
distance-distribution screens that settle a query with zero search
nodes.

Usage:
  python3 code_shuffle.py --seed 7
  python3 code_shuffle.py --seed 7 --words 5
"""

import argparse
import random
from collections import Counter

from ohb import (
    Code,
    Field,
    SpaceConfig,
    apply_to_code,
    code_invariants,
    equivalent,
    format_vector,
    random_symmetry,
    weight,
)


def weights(code):
    """Sorted (weight, count) pairs of the codewords."""
    return tuple(sorted(Counter(map(weight, code.vectors())).items()))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--words", type=int, default=4)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    cfg = SpaceConfig(Field(2), 2, 2, [[1, 1], [1, 1]])
    c1 = Code(cfg, {rng.randrange(cfg.size) for _ in range(args.words)})
    print(f"code C1 ({c1.size} words): {[format_vector(v) for v in c1.vectors()]}")
    print(f"invariants: {code_invariants(c1)}")

    T = random_symmetry(cfg, rng.randrange(10**9))
    c2 = apply_to_code(T, c1)
    print(f"image  C2 ({c2.size} words): {[format_vector(v) for v in c2.vectors()]}")
    print(f"weights move, distances stay: {weights(c1)} -> {weights(c2)}")

    res = equivalent(c1, c2)
    print(f"verdict: {res.verdict} after {res.nodes} nodes")
    assert apply_to_code(res.witness, c1) == c2
    print(f"witness sigma (1-based): {res.witness.to_json()['sigma']}, verified")

    # a screened rejection never searches
    other = Code(cfg, c1.ranks[: max(1, c1.size - 1)])
    res = equivalent(c1, other)
    print(f"against a smaller code: {res.verdict} ({res.reason}, {res.nodes} nodes)")


if __name__ == "__main__":
    main()
