"""The paper's main theorem on every tiny space, exhaustively.

The isometry group of an ordered Hamming block space is exactly the set of
canonical (sigma, chains) pairs.  Here the universe is generated from bounds,
not listed by hand: every space over q in {2, 3, 4} with at most MAX_POINTS
points and a group of at most MAX_ORDER elements, each multiset of chain
rows once (a space and its chains reordered have the same group).  On each,
the tables of all_symmetries are the oracle's distance-only listing, both
have full_order elements, and decompose_full of each table gives back its
symmetry.
"""

from itertools import combinations_with_replacement, product

import pytest

from ohb import Field, SpaceConfig, all_symmetries, as_rank_table, decompose_full, enumerate_isometries, full_order

MAX_POINTS = 16  # the oracle_list cap
MAX_ORDER = 5000
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2)}  # q -> (p, e)


def tiny_spaces():
    for q, (p, e) in FIELDS.items():
        dims = range(1, MAX_POINTS.bit_length())  # q >= 2, so N <= log2(MAX_POINTS)
        for n in dims:
            rows = [row for row in product(dims, repeat=n) if q ** sum(row) <= MAX_POINTS]
            for m in dims:
                for pi in combinations_with_replacement(rows, m):
                    if q ** sum(map(sum, pi)) <= MAX_POINTS:
                        cfg = SpaceConfig(Field(p, e), m, n, pi)
                        if full_order(cfg) <= MAX_ORDER:
                            yield cfg


SPACES = list(tiny_spaces())


def test_the_universe_is_the_expected_one():
    # 18 spaces, 6208 symmetries in all: a change to the bounds shows here
    assert len(SPACES) == 18
    assert sum(full_order(cfg) for cfg in SPACES) == 6208


@pytest.mark.parametrize("cfg", SPACES, ids=lambda cfg: f"q{cfg.q}-{'|'.join(map(str, cfg.pi))}")
def test_the_group_is_the_set_of_canonical_pairs(cfg):
    syms = list(all_symmetries(cfg))
    tables = [as_rank_table(T) for T in syms]
    built = {tuple(t.tolist()) for t in tables}
    _, listed = enumerate_isometries(cfg, want_list=True)
    assert built == {tuple(t) for t in listed}
    assert len(built) == len(listed) == len(syms) == full_order(cfg)
    for T, table in zip(syms, tables):
        assert decompose_full(cfg, table) == T
