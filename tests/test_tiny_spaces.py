"""The paper's main theorem on every tiny space, exhaustively.

The isometry group of an ordered Hamming block space is exactly the set of
canonical (sigma, chains) pairs.  Here the universe is generated from bounds,
not listed by hand: every space over q in {2, 3, 4} with at most MAX_POINTS
points and a group of at most MAX_ORDER elements, each multiset of chain
rows once (a space and its chains reordered have the same group).  On each,
the tables of all_symmetries are the oracle's distance-only listing, both
have full_order elements, and decompose_full of each table gives back its
symmetry.  The automorphism count is the model's closed form, and every
transposition of the identity is accepted or refused as the model decides it.
"""

import json
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

import model
from conftest import model_outcome, outcome
from ohb import (
    ChainSymmetry,
    Field,
    SpaceConfig,
    Symmetry,
    all_chain_symmetries,
    all_symmetries,
    as_rank_table,
    compose_symmetry,
    decompose_full,
    enumerate_automorphisms,
    enumerate_isometries,
    full_order,
    invert_symmetry,
    is_linear,
)

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


# closure is checked over all pairs of a group of at most this many elements
MAX_PAIRED = 128


@pytest.mark.parametrize("cfg", SPACES, ids=lambda cfg: f"q{cfg.q}-{'|'.join(map(str, cfg.pi))}")
def test_every_element_acts_as_the_reference_and_round_trips(cfg):
    # per element: the reference action of tests/model.py, apply at every
    # point and the JSON round trip; per chain map of the listing, its JSON
    # round trip; the automorphisms are the linear tables; and where the
    # group is small, compose and invert are table composition and inversion
    syms = list(all_symmetries(cfg))
    tables = np.stack([as_rank_table(T) for T in syms])
    every = np.arange(cfg.size)
    geo = model.geometry(cfg.q, cfg.pi)
    for T, table in zip(syms, tables):
        assert np.array_equal(geo.apply(T.to_json(), every), table)
        assert [T.apply(cfg.unrank(r)).rank() for r in range(cfg.size)] == table.tolist()
        assert Symmetry.from_json(json.loads(json.dumps(T.to_json())), cfg) == T
    for row in set(cfg.pi):
        for ch in all_chain_symmetries(cfg.q, row):
            assert ChainSymmetry.from_json(json.loads(json.dumps(ch.to_json())), cfg.q) == ch
    count, _ = enumerate_automorphisms(cfg)
    assert count == sum(is_linear(cfg, table) for table in tables)
    if len(syms) <= MAX_PAIRED:
        for A, a in zip(syms, tables):
            composed = np.stack([as_rank_table(compose_symmetry(A, B)) for B in syms])
            assert np.array_equal(composed, a[tables])
            assert np.array_equal(as_rank_table(invert_symmetry(A))[a], every)


@pytest.mark.parametrize("cfg", SPACES, ids=lambda cfg: f"q{cfg.q}-{'|'.join(map(str, cfg.pi))}")
def test_the_automorphism_count_is_the_closed_form(cfg):
    count, _ = enumerate_automorphisms(cfg)
    assert count == model.automorphism_order(cfg.q, cfg.pi)


@pytest.mark.parametrize("cfg", SPACES, ids=lambda cfg: f"q{cfg.q}-{'|'.join(map(str, cfg.pi))}")
def test_every_transposition_of_the_identity_is_decided_as_the_model(cfg):
    # the images of every pair of points of the identity exchanged: 840
    # tables over the 18 spaces, 49 of them isometries; decompose_full must
    # accept or refuse each as the model does, under every witness regime
    identity = as_rank_table(next(iter(all_symmetries(cfg))))
    assert np.array_equal(identity, np.arange(cfg.size))
    geo = model.geometry(cfg.q, cfg.pi)
    for u, v in combinations(range(cfg.size), 2):
        f = identity.copy()
        f[[u, v]] = f[[v, u]]
        assert outcome(decompose_full, cfg, f) == model_outcome(model.decompose_full, geo, f)
