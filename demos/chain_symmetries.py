#!/usr/bin/env python3
"""
chain_symmetries.py

Triangular symmetries of a single chain: each level carries one
permutation table per tail value, so low levels may act differently
depending on everything above them.  Shows the group order product
and the alternative closed form that disagrees with it.
"""

import argparse

from ohb import (
    ChainSymmetry,
    all_chain_symmetries,
    alt_chain_order_unit,
    chain_order,
    decompose_chain,
    random_chain,
)
from ohb.chains import chain_space_size, level_places


def row_of(q, chain_pi, r):
    """The row of rank r as a tuple of block ranks, level 1 first: row
    ranks are mixed radix with level 1 least significant."""
    place = level_places(q, chain_pi)
    return tuple(r % place[j + 1] // place[j] for j in range(len(chain_pi)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    q, chain_pi = 2, (1, 1)
    rows = [row_of(q, chain_pi, r) for r in range(chain_space_size(q, chain_pi))]

    # level 1 swaps only above tail 1; level 2 always swaps
    T = ChainSymmetry(q, chain_pi, [[(0, 1), (1, 0)], [(1, 0)]])
    print("a hand-built triangular symmetry on the chain 1 < 2 over F_2:")
    for row in rows:
        print(f"   {row} -> {T.apply(row)}")

    print()
    print(f"group order, product formula: {chain_order(q, chain_pi)}")
    count = sum(1 for _ in all_chain_symmetries(q, chain_pi))
    print(f"group order, enumerated:      {count}")
    alt = alt_chain_order_unit(q, len(chain_pi))
    print(f"alternative closed form:      {alt}  <- disagrees, flagged")

    print()
    print("a bijection is triangular exactly when it preserves chain distance;")
    print("swapping the two bottom-level points works:")
    table = list(range(4))
    i, j = rows.index((0, 0)), rows.index((1, 0))
    table[i], table[j] = table[j], table[i]
    R = decompose_chain(q, chain_pi, table)
    print(f"   decomposed tables: {R.to_json()['tables']}")

    print("swapping across levels does not:")
    table = list(range(4))
    i, j = rows.index((0, 0)), rows.index((0, 1))
    table[i], table[j] = table[j], table[i]
    try:
        decompose_chain(q, chain_pi, table)
    except Exception as exc:
        print(f"   rejected: {exc}")

    print()
    T = random_chain(2, (2, 1), args.seed)
    print(f"random triangular symmetry on pi=(2,1), seed {args.seed}:")
    for r in range(4):
        print(f"   {row_of(2, (2, 1), r)} -> {T.apply(row_of(2, (2, 1), r))}")
    # the map on row ranks, as decompose_chain reads it
    back = decompose_chain(2, (2, 1), T.rank_table())
    print(f"   decompose recovers the same map: {back == T}")


if __name__ == "__main__":
    main()
