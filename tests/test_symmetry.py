"""Full symmetry group: admissible permutations, composition, decomposition."""

import hashlib
import json
import random
import sys
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import model
from conftest import chain_arrays, elementwise, make_config, model_outcome, outcome, random_vector
from ohb import (
    BlockVector,
    Code,
    NotIsometryError,
    Symmetry,
    UsageError,
    ValidationError,
    all_symmetries,
    alt_full_order_unit,
    admissible_permutations,
    apply_to_code,
    as_rank_table,
    chain_from_pairs,
    compose_symmetry,
    decompose_full,
    distance,
    equivalent,
    full_order,
    identity_chain,
    identity_symmetry,
    invert_chain,
    invert_symmetry,
    make_translation,
    random_chain,
    random_symmetry,
    s_pi_order,
)
import ohb.errors
import ohb.symmetry
from ohb.space import add_ranks, rank_array

MIXED = make_config(2, 3, 2, [[1, 2], [1, 2], [2, 1]])  # chains 1,2 swappable


def test_admissible_permutations_order_is_the_product_order():
    # chains 1, 3, 5 share widths, and so do chains 2, 4; the last
    # class varies fastest, each class in permutations() order
    cfg = make_config(2, 5, 2, [[1, 2], [2, 1], [1, 2], [2, 1], [1, 2]])
    groups = [[0, 2, 4], [1, 3]]
    expected = []
    for images in product(*(permutations(g) for g in groups)):
        sigma = [0] * cfg.m
        for g, img in zip(groups, images):
            for i, x in zip(g, img):
                sigma[i] = x
        expected.append(tuple(sigma))
    assert list(admissible_permutations(cfg)) == expected


def test_first_admissible_permutation_is_cheap():
    # 10! sigmas in one class: the first must come without listing them
    cfg = make_config(2, 10, 1, [[1]] * 10)
    tracemalloc.start()
    try:
        first = next(admissible_permutations(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == tuple(range(10))
    assert peak < 1 << 20

def test_is_admissible():
    # a sigma is admissible iff admissible_permutations lists it, and only
    # then does Symmetry take it
    chains = identity_symmetry(MIXED).chains
    assert set(admissible_permutations(MIXED)) == {(0, 1, 2), (1, 0, 2)}
    for sigma in [(0, 1, 2), (1, 0, 2)]:
        assert Symmetry(MIXED, sigma, chains).sigma == sigma
    for sigma in [(2, 1, 0), (0, 2, 1)]:
        with pytest.raises(ValidationError, match="moves a chain onto different widths"):
            Symmetry(MIXED, sigma, chains)
    with pytest.raises(UsageError, match="not a permutation"):
        Symmetry(MIXED, (0, 0, 1), chains)


@pytest.mark.parametrize("probe", [
    lambda: Symmetry(MIXED, (0.5, 1.2, 2), identity_symmetry(MIXED).chains),  # once read as (0, 1, 2)
    lambda: Symmetry(MIXED, (1.9, 0.2, 2), identity_symmetry(MIXED).chains),  # once admissible
    lambda: Symmetry(MIXED, (True, 0, 2), identity_symmetry(MIXED).chains),
    lambda: Symmetry(MIXED, ("1", 0, 2), identity_symmetry(MIXED).chains),
    lambda: Symmetry(MIXED, np.array([1.0, 0.0, 2.0]), identity_symmetry(MIXED).chains),
    lambda: identity_chain(2, (1,)).apply((1.9,)),  # once (1,)
    lambda: identity_chain(2, (1, 1)).apply((0, None)),
], ids=["sigma-floats", "admissible-floats", "admissible-bool", "admissible-string", "admissible-float-array",
        "row-float", "row-none"])
def test_a_sigma_entry_or_row_entry_that_is_no_integer_is_refused(probe):
    with pytest.raises(UsageError, match="must be an integer"):
        probe()
    # numpy integers are read as Python ints
    T = Symmetry(MIXED, np.array([1, 0, 2]), identity_symmetry(MIXED).chains)
    assert T.sigma == (1, 0, 2) and all(type(x) is int for x in T.sigma)
    assert identity_chain(2, (1, 1)).apply(np.array([1, 0])) == (1, 0)


def test_admissible_permutations_count():
    perms = list(admissible_permutations(MIXED))
    assert len(perms) == s_pi_order(MIXED) == 2
    assert all(Symmetry(MIXED, p, identity_symmetry(MIXED).chains).sigma == p for p in perms)
    uniform = make_config(2, 3, 1, [[1], [1], [1]])
    assert len(list(admissible_permutations(uniform))) == 6 == s_pi_order(uniform)


def test_full_order_values():
    assert full_order(make_config(2, 1, 2, [[1, 1]])) == 8
    assert full_order(make_config(2, 2, 1, [[1], [1]])) == 8
    assert full_order(make_config(2, 1, 2, [[2, 1]])) == 1152
    assert full_order(make_config(2, 3, 1, [[1], [1], [1]])) == 48
    assert full_order(make_config(2, 2, 2, [[1, 1], [1, 1]])) == 128
    assert full_order(make_config(3, 1, 2, [[1, 1]])) == 1296


def test_alt_full_order_disagrees():
    # q=2, m=2, n=2: the alternative closed form gives 512, the group has 128
    assert alt_full_order_unit(2, 2, 2) == 512
    assert full_order(make_config(2, 2, 2, [[1, 1], [1, 1]])) == 128


def test_sigma_validation():
    cfg = MIXED
    chains = [identity_chain(cfg.q, cfg.pi[i]) for i in range(cfg.m)]
    with pytest.raises(ValidationError):
        Symmetry(cfg, (2, 1, 0), chains)  # inadmissible
    with pytest.raises(UsageError):
        Symmetry(cfg, (0, 1, 2), chains[:2])  # chain list short


def test_identity():
    E = identity_symmetry(MIXED)
    assert E == Symmetry(MIXED, (0, 1, 2), [identity_chain(2, row) for row in MIXED.pi])
    rng = random.Random(20)
    for _ in range(20):
        v = random_vector(MIXED, rng)
        assert E.apply(v) == v


def test_apply_preserves_distance():
    rng = random.Random(21)
    for _ in range(40):
        T = random_symmetry(MIXED, rng.randrange(10**9))
        u = random_vector(MIXED, rng)
        v = random_vector(MIXED, rng)
        assert distance(T.apply(u), T.apply(v)) == distance(u, v)


def test_compose_and_invert_contracts():
    rng = random.Random(22)
    for _ in range(40):
        A = random_symmetry(MIXED, rng.randrange(10**9))
        B = random_symmetry(MIXED, rng.randrange(10**9))
        C = compose_symmetry(A, B)
        v = random_vector(MIXED, rng)
        assert C.apply(v) == A.apply(B.apply(v))
        Ainv = invert_symmetry(A)
        assert Ainv.apply(A.apply(v)) == v
        assert compose_symmetry(A, Ainv) == identity_symmetry(MIXED)
        assert compose_symmetry(Ainv, A) == identity_symmetry(MIXED)


def test_row_swap_symmetry():
    # swapping two chains with equal profiles moves whole rows
    cfg = make_config(2, 2, 1, [[1], [1]])
    chains = [identity_chain(2, (1,)), identity_chain(2, (1,))]
    T = Symmetry(cfg, (1, 0), chains)
    from ohb import parse_vector, format_vector

    v = parse_vector(cfg, "1;0")
    assert format_vector(T.apply(v)) == "0;1"


def test_translation_decomposes_back():
    # v -> v + w, added one field element at a time by the reference
    rng = random.Random(23)
    spaces = [MIXED, make_config(3, 2, 2, [[1, 2], [2, 1]]), make_config(2, 2, 2, [[1, 1], [2, 1]], e=2)]
    for cfg, _ in product(spaces, range(5)):
        w = random_vector(cfg, rng)
        T = make_translation(w)
        want = [elementwise(cfg, cfg.field.add, r, w.rank()) for r in range(cfg.size)]
        assert as_rank_table(T).tolist() == want
        v = random_vector(cfg, rng)
        assert T.apply(v).rank() == want[v.rank()]
        assert T.apply(cfg.unrank(0)) == w
        assert decompose_full(cfg, want) == T


@pytest.mark.parametrize(
    "cfg",
    [
        make_config(2, 1, 13, [[1] * 13]),
        make_config(2, 4, 2, [[1, 1]] * 4, e=2),
        make_config(3, 3, 2, [[1, 2], [2, 1], [1, 2]]),
        make_config(3, 2, 1, [[1], [2]], e=2),
        make_config(2, 1, 3, [[2, 1, 3]]),
    ],
    ids=["q2-chain13", "gf4-m4-n2", "gf3-mixed", "gf9", "q2-213"],
)
def test_translation_tables_are_the_model_sum(cfg):
    # each chain's rank table is one add_ranks of w's chain digit over the
    # chain, and its levels are read off that table: the whole-space table
    # is v -> v + w as the model adds, digit by base-p digit
    rng = random.Random(26)
    geo, every = model.geometry(cfg.q, cfg.pi), np.arange(cfg.size)
    for w in [cfg.size - 1, *(rng.randrange(cfg.size) for _ in range(19))]:
        T = make_translation(cfg.unrank(w))
        assert np.array_equal(as_rank_table(T), geo.add(every, w))


def test_translation_past_int64():
    # q=2, m=8, n=8 has 2^64 points and q=3 with seven chains of 3^6
    # points has 3^42, both past int64
    rng = random.Random(25)
    for cfg in (make_config(2, 8, 8, [[1] * 8] * 8), make_config(3, 7, 3, [[1, 2, 3]] * 7)):
        assert cfg.size > 1 << 63
        w = random_vector(cfg, rng)
        T = make_translation(w)
        assert T.apply(cfg.unrank(0)) == w
        for _ in range(20):
            v = random_vector(cfg, rng)
            assert T.apply(v).rank() == elementwise(cfg, cfg.field.add, v.rank(), w.rank())


def test_as_rank_table_matches_apply():
    cfg = make_config(2, 2, 2, [[1, 1], [1, 1]])
    rng = random.Random(24)
    for _ in range(10):
        T = random_symmetry(cfg, rng.randrange(10**9))
        table = as_rank_table(T)
        for r in range(cfg.size):
            v = cfg.unrank(r)
            assert cfg.rank(T.apply(v)) == int(table[r])


@st.composite
def movable_symmetries(draw, points=1 << 12):
    """A symmetry of a space of up to 4 chains over GF(2, 3, 4), widths
    1-3, drawn from at most two width profiles so that sigma can move
    chains, and an admissible sigma other than the identity when the
    space has one."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    q = p ** e
    n = draw(st.integers(1, 2))
    profiles = draw(st.lists(st.lists(st.integers(1, 3), min_size=n, max_size=n), min_size=1, max_size=2))
    pi = draw(st.lists(st.sampled_from(profiles), min_size=2, max_size=4))
    while q ** sum(map(sum, pi)) > points:
        pi = pi[:-1] if len(pi) > 1 else [[1] * n]
    cfg = make_config(p, len(pi), n, pi, e=e)
    sigmas = list(admissible_permutations(cfg))
    sigma = draw(st.sampled_from(sigmas[1:] or sigmas))
    seed = draw(st.integers(0, 2 ** 32))
    return Symmetry(cfg, sigma, [random_chain(q, row, seed + k) for k, row in enumerate(cfg.pi)])


def check_table_and_apply(T, rng):
    cfg = T.config
    table = as_rank_table(T)
    assert table.dtype == np.int64
    assert table.tolist() == model.geometry(cfg.q, cfg.pi).apply(T.to_json(), np.arange(cfg.size)).tolist()
    for r in [0, cfg.size - 1, *(rng.randrange(cfg.size) for _ in range(30))]:
        assert T.apply(cfg.unrank(r)) == cfg.unrank(int(table[r]))


@settings(max_examples=40)
@seed(1)
@given(movable_symmetries(), st.randoms(use_true_random=False))
def test_rank_table_and_apply_match_the_per_rank_action(T, rng):
    check_table_and_apply(T, rng)


def test_wide_blocks_are_coded_without_a_table():
    # q^11 = 2048 block values at level 1: no table of block values is
    # built, and apply reads every point's image off the chain map's rank
    # table exactly as as_rank_table lays it out
    cfg = make_config(2, 1, 2, [[11, 1]])
    rng = random.Random(43)
    for _ in range(3):
        T = random_symmetry(cfg, rng.randrange(10**9))
        check_table_and_apply(T, rng)
        assert [T.apply(cfg.unrank(r)).rank() for r in range(cfg.size)] == as_rank_table(T).tolist()


@pytest.mark.parametrize(
    "cfg, sigma",
    [
        # chains of 8, 8, 8 and 64 points; sigma moves chains 1 and 3
        (make_config(2, 4, 2, [[1, 2], [2, 1], [1, 2], [3, 3]]), (2, 1, 0, 3)),
        # a chain of 2^13 points between chains of 4, in uint32 images
        (make_config(2, 4, 2, [[1, 1], [1, 1], [6, 7], [1, 1]]), (3, 1, 2, 0)),
        (make_config(3, 3, 2, [[1, 2], [2, 1], [1, 2]]), (2, 1, 0)),
    ],
    ids=["q2-mixed-widths", "q2-wide-middle", "gf3-mixed-widths"],
)
def test_apply_matches_as_rank_table_at_every_point(cfg, sigma):
    # apply reads one kept image table built from the chain maps placed
    # at their output chains; with sigma moving chains and mixed widths,
    # every point's image must be the rank table's entry
    rng = random.Random(44)
    T = Symmetry(cfg, sigma, [random_chain(cfg.q, row, rng.randrange(1 << 32)) for row in cfg.pi])
    table = as_rank_table(T)
    assert [T.apply(cfg.unrank(r)).rank() for r in range(cfg.size)] == table.tolist()
    assert table.flags.writeable


def test_apply_is_exact_at_and_past_2_to_the_63_points():
    # past the points cap apply keeps no table and sums Python ints, so it
    # stays exact past 2^63 points, where int64 overflows.  The image of
    # each point is the sum, over output chains i, of chain sigma[i]'s
    # image of its digit, placed at i
    rng = random.Random(45)
    for cfg in (make_config(2, 7, 9, [[1] * 9] * 7), make_config(2, 8, 8, [[1] * 8] * 8)):
        sigma = tuple(rng.sample(range(cfg.m), cfg.m))
        T = Symmetry(cfg, sigma, [random_chain(2, row, rng.randrange(1 << 32)) for row in cfg.pi])
        for r in [cfg.size - 1, *(rng.randrange(cfg.size) for _ in range(20))]:
            # each chain's image read off its levels by the tuple-row apply
            rows = [tuple(cfg.chain_subrank(r, k) >> j & 1 for j in range(cfg.n)) for k in range(cfg.m)]
            want = sum(sum(x << j for j, x in enumerate(T.chains[k].apply(rows[k]))) * cfg.chain_place[i]
                       for i, k in enumerate(sigma))
            assert T.apply(cfg.unrank(r)).rank() == want


@pytest.mark.parametrize(
    "cfg",
    [
        make_config(2, 2, 2, [[2, 1], [1, 1]]),
        make_config(3, 1, 3, [[1, 2, 1]]),
        make_config(2, 4, 2, [[1, 1]] * 4, e=2),
        make_config(2, 1, 13, [[1] * 13]),
        make_config(3, 1, 7, [[1] * 7]),
        make_config(2, 1, 3, [[1, 11, 1]]),
    ],
    ids=["q2-mixed", "gf3-121", "gf4-m4-n2", "q2-chain13", "gf3-chain7", "q2-1-11-1"],
)
def test_apply_builds_a_valid_vector(cfg):
    # apply builds its output from a rank, with no vector checks, and the
    # blocks are derived from that rank when read (GF(3) n=7: 2187 rows;
    # (1, 11, 1): a wide level between two narrow ones): it must build
    # exactly what the checking constructor would, at the rank table's
    # image.  Every point (2000 sampled ones past that) goes through two
    # symmetries twice, interleaved
    rng = random.Random(30)
    other = make_config(3 if cfg.q == 2 else 2, cfg.m, cfg.n, cfg.pi)
    ranks = range(cfg.size) if cfg.size <= 2000 else rng.sample(range(cfg.size), 2000)
    for _ in range(2):
        pair = [random_symmetry(cfg, rng.randrange(10**9)) for _ in range(2)]
        identity = [(T, hash(T), T.to_json(), Symmetry.from_json(T.to_json(), cfg)) for T in pair]
        tables = [as_rank_table(T) for T in pair]
        calls = [(i, r) for i in range(2) for r in ranks] * 2
        rng.shuffle(calls)
        for i, r in calls:
            image = pair[i].apply(cfg.unrank(r))
            checked = BlockVector(cfg, image.blocks)
            assert image == checked and hash(image) == hash(checked)
            assert all(type(x) is int for row in image.blocks for b in row for x in b)
            assert image.rank() == tables[i][r]
        for T, h, doc, fresh in identity:
            # what apply keeps is no part of the symmetry's identity
            assert T == fresh and hash(T) == h == hash(fresh)
            assert T.to_json() == doc == fresh.to_json()
            # a vector of another space is refused even when its rank is
            # one whose image is kept
            T.apply(cfg.unrank(0))
            with pytest.raises(UsageError):
                T.apply(other.unrank(0))


@pytest.mark.parametrize("n", [10, 11, 13])
def test_apply_keeps_one_image_per_chain(n):
    # one chain of n unit levels has 2^n rows, and its map holds their
    # images as a uint16 rank table.  apply reads each image off that very
    # table, so applying every point keeps no copy of it; as_rank_table
    # then hands out a fresh int64 table and keeps nothing more
    cfg = make_config(2, 1, n, [[1] * n])
    T = random_symmetry(cfg, 32)
    ch = T.chains[0]
    table = model.geometry(2, cfg.pi).apply(T.to_json(), np.arange(cfg.size))
    [image] = chain_arrays(ch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for r in range(cfg.size):
            assert T.apply(cfg.unrank(r)).rank() == table[r]
        kept = tracemalloc.get_traced_memory()[0] - before
        full = as_rank_table(T)
        again = tracemalloc.get_traced_memory()[0] - before - full.nbytes
    finally:
        tracemalloc.stop()
    assert image.dtype == np.uint16 and np.array_equal(image, table)
    assert kept <= 4 << 10 and again <= kept + (4 << 10)
    assert chain_arrays(ch)[0] is image
    assert full.dtype == np.int64 and full.flags.writeable and np.array_equal(full, table)


def test_apply_keeps_one_narrow_image_table():
    # GF(4), m=4, n=2 has 65536 points: after applying, the symmetry holds
    # one uint16 table of every point's image, and as_rank_table widens it
    # into a fresh int64 array that shares no memory with it
    cfg = make_config(2, 4, 2, [[1, 1]] * 4, e=2)
    T = random_symmetry(cfg, 33)
    want = model.geometry(cfg.q, cfg.pi).apply(T.to_json(), np.arange(cfg.size))
    rng = random.Random(33)
    pairs = [(r, int(want[r])) for r in (rng.randrange(cfg.size) for _ in range(1024))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert all(T.apply(cfg.unrank(r)).rank() == image for r, image in pairs)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 2 * cfg.size <= kept <= 2 * cfg.size + (4 << 10)
    [held] = [np.asarray(v) for v in (getattr(T, name) for name in Symmetry.__slots__) if isinstance(v, memoryview)]
    assert held.dtype == np.uint16 and np.array_equal(held, want)
    full = as_rank_table(T)
    assert full.dtype == np.int64 and full.flags.writeable and np.array_equal(full, want)
    assert not np.shares_memory(full, held)


def test_apply_past_the_points_cap_reads_the_chain_maps_and_keeps_nothing():
    # q=2, two chains of 2^20 points (2^40 in all), sigma swapping them:
    # the image is the chain-by-chain sum, and no table of the space, nor a
    # scaled copy of a chain's table, is kept
    cfg = make_config(2, 2, 2, [[10, 10], [10, 10]])
    ch = random_chain(2, (10, 10), 34)
    T = Symmetry(cfg, (1, 0), [ch, invert_chain(ch)])
    rng = random.Random(34)
    pairs = []
    for r in [0, cfg.size - 1, *(rng.randrange(cfg.size) for _ in range(200))]:
        rows = [T.chains[k].apply((d % 1024, d // 1024)) for k, d in enumerate(divmod(r, 1 << 20)[::-1])]
        pairs.append((r, sum((lo + 1024 * hi) * cfg.chain_place[i] for i, (lo, hi) in enumerate(rows[::-1]))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert all(T.apply(cfg.unrank(r)).rank() == image for r, image in pairs)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 << 10


def test_kept_maps_hold_one_narrow_table():
    # search keeps these objects for a whole run: each chain map holds its
    # rank table alone, one byte a point up to 256 points, and neither a
    # code map nor an operand of compose, invert or as_rank_table is left
    # holding a wider copy: at most 2 bytes a point on 2^13 points
    cfg = make_config(2, 2, 6, [[1] * 6] * 2)
    T = random_symmetry(cfg, 5)
    rng = random.Random(5)
    C = Code(cfg, [rng.randrange(cfg.size) for _ in range(20)])
    D = apply_to_code(T, C)
    found = equivalent(C, D)
    assert found.verdict == "equivalent"
    pairs = chain_from_pairs(2, cfg.pi[0], [0, 1, 2], [5, 4, 7])
    for ch in (*T.chains, *found.witness.chains, pairs):
        [table] = chain_arrays(ch)
        assert table.dtype == np.uint8 and table.nbytes == cfg.chain_size[0]
    long = make_config(2, 1, 13, [[1] * 13])
    A, B, W, Y = (random_symmetry(long, seed) for seed in (6, 7, 8, 9))
    V, X = compose_symmetry(A, B), invert_symmetry(W)
    as_rank_table(Y)
    for ch in (*A.chains, *B.chains, *V.chains, *W.chains, *X.chains, *Y.chains):
        assert sum(a.nbytes for a in chain_arrays(ch)) <= 2 * long.size


def test_decompose_full_strips_the_translation_on_chain_axes_only():
    # decompose_full subtracts the translation w = f(0) on the chain axes
    # alone and adds it back inside the chain maps, so it builds no digit
    # grid of the whole table.  GF(4), m=4, n=2 has S=65536 points of N*e=16
    # base-2 digits: an (S, N*e) int64 grid alone would take 8 MB.  On q=2,
    # one chain of n=13, the chain axis is the whole table, so only
    # subtraction by XOR keeps the (8192, 13) grids out (2.5 MB with them)
    cases = [
        (make_config(2, 4, 2, [[1, 1]] * 4, e=2), 8 << 20),
        (make_config(2, 1, 13, [[1] * 13]), 1 << 20),
    ]
    for cfg, bound in cases:
        rng = random.Random(31)
        T = random_symmetry(cfg, rng.randrange(10**9))
        table = as_rank_table(T)
        assert table[0] != 0
        tracemalloc.start()
        try:
            R = decompose_full(cfg, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert R.to_json() == T.to_json()
        assert peak < bound


@st.composite
def small_spaces(draw, points=1 << 9):
    """A space of 1-3 chains of 1-3 levels over GF(2, 3, 4) with widths 1-2
    from at most two profiles, so that sigma can move chains; levels go
    first, then chains, until it has at most `points` points."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    q = p ** e
    n = draw(st.integers(1, 3))
    profiles = draw(st.lists(st.lists(st.integers(1, 2), min_size=n, max_size=n), min_size=1, max_size=2))
    pi = [draw(st.sampled_from(profiles)) for _ in range(draw(st.integers(1, 3)))]
    while q ** sum(map(sum, pi)) > points:
        pi = [row[:-1] for row in pi] if len(pi[0]) > 1 else pi[:-1]
    return make_config(p, len(pi), len(pi[0]), pi, e=e)


FULL_CORRUPTIONS = ["cross", "merge", "swap_axes", "swap_off", "swap", "none",
                    "repeat_axis", "copy_axis", "repeat_off", "repeat_bad_chain", "out_of_range"]


def corrupted_table(cfg, f, how, rng):
    """A copy of f.  These keep it a bijection: 'swap' exchanges the images
    of two points, 'swap_axes' of two points on chain axes (0 among them)
    and 'swap_off' of two points off every axis; 'cross' of a point on one
    chain's axis and a point on another's; 'merge' gives chain k's
    weight-1 points the images of the top points of chain i's axis.
    These do not: 'repeat_axis' gives a point on the chain axes the image
    of another point; 'copy_axis' gives chain k's axis the images of chain
    i's, so with equal widths both land on one chain (with one chain, as
    'repeat_axis'); 'repeat_off' gives a point off every axis the image of
    another such point (of any point if fewer than two are off the axes);
    'repeat_bad_chain' does that after swapping two images on one chain's
    axis, which that chain's decomposition refuses by itself unless the
    swap is an isometry; 'out_of_range' sets the entry of 0, of a point on
    the axes or of any point to a rank out of range, among them its own
    value minus q^N, which has the same base-q digits."""
    f = f.copy()
    axis = [[x * cfg.chain_place[k] for x in range(1, cfg.chain_size[k])] for k in range(cfg.m)]
    on = {0, *(r for points in axis for r in points)}
    off = sorted(set(range(cfg.size)) - on)
    if how == "out_of_range":
        r = rng.choice([0, rng.choice(sorted(on)), rng.randrange(cfg.size)])
        f[r] = rng.choice([-1, f[r] - cfg.size, cfg.size, 3 * cfg.size + 1, 1 << 40])
        return f
    if how == "copy_axis" and cfg.m > 1:
        k, i = rng.sample(range(cfg.m), 2)
        top = min(len(axis[k]), len(axis[i]))
        f[axis[k][:top]] = f[axis[i][:top]]
        return f
    if how.startswith("repeat") or how == "copy_axis":
        if how == "repeat_bad_chain":
            k = rng.randrange(cfg.m)
            a, b = rng.sample(axis[k], 2) if len(axis[k]) > 1 else (0, axis[k][0])
            f[a], f[b] = f[b], f[a]
        if how in ("repeat_axis", "copy_axis"):
            a = rng.choice(sorted(on))
            b = rng.choice([r for r in range(cfg.size) if r != a])
        else:
            a, b = rng.sample(off if len(off) > 1 else range(cfg.size), 2)
        f[a] = f[b]
        return f
    if how in ("cross", "merge") and cfg.m > 1:
        k, i = rng.sample(range(cfg.m), 2)
        if how == "cross":
            pairs = [(rng.choice(axis[k]), rng.choice(axis[i]))]
        else:
            pairs = zip(axis[k][:cfg.q ** cfg.pi[k][0] - 1], axis[i][::-1])
    elif how == "swap_axes" or how in ("cross", "merge"):
        pairs = [rng.sample(sorted(on), 2)]
    elif how == "swap_off" and len(off) > 1:
        pairs = [rng.sample(off, 2)]
    elif how != "none":
        pairs = [rng.sample(range(cfg.size), 2)]
    else:
        pairs = []
    for a, b in pairs:
        f[a], f[b] = f[b], f[a]
    return f


@settings(max_examples=400)
@seed(1)
@given(small_spaces(), st.sampled_from(FULL_CORRUPTIONS), st.integers(0, 2 ** 32 - 1))
@example(make_config(2, 1, 3, [[1, 2, 1]]), "none", 1)
@example(make_config(3, 2, 2, [[1, 1], [1, 1]]), "merge", 2)
@example(make_config(2, 3, 1, [[2], [1], [2]], e=2), "cross", 3)
@example(make_config(2, 1, 10, [[1] * 10]), "swap", 10)  # every level row stays a permutation
@example(make_config(2, 1, 10, [[1] * 10]), "swap", 1)  # a level row breaks
def test_decompose_full_matches_the_translation_composed_after(cfg, how, seed):
    # decompose_full adds the translation w = f(0) to the chain maps it
    # decomposes, and with one chain skips the final whole-table check; a
    # good table moved by a nonzero w must decompose to the model's form,
    # whose chain maps read f on the chain axes, and a corrupted one be
    # refused as the model refuses it under every witness regime, one that
    # is no bijection as such, whatever else is wrong with it
    rng = random.Random(seed)
    f = as_rank_table(random_symmetry(cfg, rng))
    if f[0] == 0:
        f = add_ranks(cfg, f, rng.randrange(1, cfg.size))
    f = corrupted_table(cfg, f, how, rng)
    got = outcome(decompose_full, cfg, f)
    assert got == model_outcome(model.decompose_full, model.geometry(cfg.q, cfg.pi), f)
    if how == "none":
        assert all(isinstance(doc, dict) for doc in got)
    if how.startswith("repeat") or how in ("copy_axis", "out_of_range"):
        assert all(kind == "UsageError" or text.startswith("not a bijection") for kind, text, *_ in got)


@settings(max_examples=100)
@seed(1)
@given(st.sampled_from([(2, 1, [2, 2, 2]), (2, 2, [1, 1, 1]), (3, 1, [2, 1]), (2, 1, [1, 2, 2, 1])]),
       st.integers(0, 2 ** 32 - 1))
def test_a_shuffled_block_is_refused_as_the_model_refuses_it(shape, seed):
    # an isometry whose images are shuffled among the points of one tail
    # above some level j (not tail 0, so the weight-1 probes pass): with
    # j >= 2 its level rows there get repeated entries, often two pairs or
    # more in a row of 4 or 9, whose first pair in sorted order, the
    # anchors, depends on whether the row is read off f or off f - f(0)
    p, e, pi = shape
    cfg = make_config(p, 1, len(pi), [pi], e=e)
    rng = random.Random(seed)
    f = as_rank_table(random_symmetry(cfg, rng))
    if f[0] == 0:
        f = add_ranks(cfg, f, rng.randrange(1, cfg.size))
    place = [cfg.q ** sum(pi[:j]) for j in range(len(pi) + 1)]
    j = rng.randrange(1, len(pi))  # the levels 1..j vary in the block
    lo = rng.randrange(1, cfg.size // place[j]) * place[j]
    block = f[lo:lo + place[j]]
    rng.shuffle(block)
    got = outcome(decompose_full, cfg, f)
    assert got == model_outcome(model.decompose_full, model.geometry(cfg.q, cfg.pi), f)


def pinned_tables(cfg, seed):
    """80 seeded tables: even ones drawn isometries, odd ones with two
    images swapped, every other swap between two points of the chain axes."""
    rng = random.Random(seed)
    axes = sorted({x * p for p, s in zip(cfg.chain_place, cfg.chain_size) for x in range(s)})
    for i in range(80):
        f = as_rank_table(random_symmetry(cfg, rng.randrange(1 << 32)))
        if i % 2:
            u, v = rng.sample(axes if i % 4 == 1 else range(cfg.size), 2)
            f[[u, v]] = f[[v, u]]
        yield f


@pytest.mark.parametrize(
    "cfg, digest",
    [
        (make_config(2, 1, 13, [[1] * 13]), "ef3928730442d38bb82df99d528bf2a6c5a46bad1064eaa2f7fc707065d94d48"),
        (make_config(2, 4, 2, [[1, 1]] * 4, e=2), "5571e535bfbe569ae4b4bc6031e1628c69c57066225ae88dd73f345aa9e71a9b"),
    ],
    ids=["q2-chain13", "gf4-m4-n2"],
)
def test_decompose_full_outcomes_are_pinned(cfg, digest):
    # the benchmark's two sym spaces: what decompose_full returns, or its
    # refusal's kind, message, witness and chain index under every witness
    # regime, on 40 isometries and 40 swapped tables, hashed as computed
    # before decompose_full read chain digits without rank arithmetic
    docs = [outcome(decompose_full, cfg, f) for f in pinned_tables(cfg, 2023)]
    assert sum(isinstance(doc[0], dict) for doc in docs) == 40
    assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "cfg",
    [make_config(2, 1, 13, [[1] * 13]), make_config(2, 4, 2, [[1, 1]] * 4, e=2), MIXED,
     make_config(3, 2, 2, [[1, 2], [1, 2]])],
    ids=["q2-chain13", "gf4-m4-n2", "q2-mixed", "gf3-m2"],
)
def test_an_accepted_table_needs_no_rank_arithmetic(cfg, monkeypatch):
    # f's chain-tau(k) digit on chain k's axis is chain map k with f(0)
    # added, so an isometry is decomposed without add_ranks or sub_ranks,
    # and each chain map keeps the rank table it was checked against
    def refuse(*args):
        raise AssertionError("rank arithmetic on an accepted table")

    monkeypatch.setattr(ohb.symmetry, "add_ranks", refuse)
    monkeypatch.setattr(ohb.symmetry, "sub_ranks", refuse)
    rng = random.Random(41)
    for _ in range(5):
        T = random_symmetry(cfg, rng.randrange(1 << 32))
        R = decompose_full(cfg, as_rank_table(T))
        assert R == T
        assert all(np.array_equal(ch._table, t.rank_table()) for ch, t in zip(R.chains, T.chains))


def test_decompose_full_round_trip():
    cfg = make_config(2, 2, 2, [[2, 1], [1, 1]])
    rng = random.Random(25)
    for _ in range(20):
        T = random_symmetry(cfg, rng.randrange(10**9))
        table = as_rank_table(T).tolist()
        R = decompose_full(cfg, table)
        assert as_rank_table(R).tolist() == table
        assert R.sigma == T.sigma  # the chain target is pinned by weight-1 probes


def test_decompose_recovers_translation():
    cfg = make_config(3, 1, 2, [[1, 1]])
    rng = random.Random(26)
    for _ in range(10):
        w = random_vector(cfg, rng)
        T = make_translation(w)
        R = decompose_full(cfg, as_rank_table(T).tolist())
        assert as_rank_table(R).tolist() == as_rank_table(T).tolist()


def test_a_chain_sent_onto_a_chain_of_other_widths_is_refused_as_the_model_refuses_it():
    # q=2, pi=[[1,1],[1,2]]: bit 0 is chain 1's level 1 and bit 2 chain 2's;
    # swapping them sends each chain's weight-1 points of level 1 into the
    # other chain, whose widths differ, so tau passes every probe and only
    # the widths refuse it
    cfg = make_config(2, 2, 2, [[1, 1], [1, 2]])
    r = np.arange(cfg.size)
    f = r & ~0b101 | (r & 1) << 2 | (r >> 2) & 1
    refusals = outcome(decompose_full, cfg, f)
    assert refusals == model_outcome(model.decompose_full, model.geometry(cfg.q, cfg.pi), f)
    assert refusals[-1] == ("StructureError", "chain 1 maps onto a chain with different widths", None, 1)


def test_decompose_rejects_non_isometry():
    cfg = make_config(2, 1, 2, [[1, 1]])
    # swap ranks 0 and 2: vectors (0,0) and (0,1), a distance-2 pair collapses
    table = [2, 1, 0, 3]
    with pytest.raises(NotIsometryError) as exc:
        decompose_full(cfg, table)
    a, b = exc.value.witness
    dm = [[distance(cfg.unrank(x), cfg.unrank(y)) for y in range(4)] for x in range(4)]
    assert dm[a][b] != dm[table[a]][table[b]]


@pytest.mark.parametrize(
    "cfg",
    [make_config(2, 1, 13, [[1] * 13]), make_config(2, 4, 2, [[1, 1]] * 4, e=2)],
    ids=["q2-chain13", "gf4-m4-n2"],
)
def test_large_swap_rejections_name_a_witness(cfg):
    # beyond 4096 points only some rows are scanned for a witness; the
    # ranks where the decomposition failed are scanned first, which finds
    # one for every swap of two images that breaks distance
    rng = random.Random(29)
    every, G = np.arange(cfg.size), model.geometry(cfg.q, cfg.pi)
    for _ in range(12):
        table = as_rank_table(random_symmetry(cfg, rng.randrange(10**9)))
        u, v = rng.sample(range(cfg.size), 2)
        breaks = G.distance(u, every) != G.distance(v, every)
        breaks[[u, v]] = False
        if not breaks.any():
            continue
        table[[u, v]] = table[[v, u]]
        with pytest.raises(NotIsometryError) as exc:
            decompose_full(cfg, table)
        a, b = exc.value.witness
        assert G.distance(a, b) != G.distance(table[a], table[b])

@pytest.mark.parametrize(
    "seed, swap, witness",
    [(0, (100, 3000), (0, 100)), (None, (2048, 4095), (2048, 2049))],
    ids=["early-row", "late-row"],
)
def test_a_rejection_at_the_witness_cap_builds_no_distance_matrix(seed, swap, witness):
    # 4096 points, the witness_matrix cap: every row is scanned and the
    # witness is the first bad pair in row-major order, found without the
    # 4096 x 4096 matrices (16 MB each in int8).  The identity with 2048
    # and 4095 swapped keeps every row before 2048.
    cfg = make_config(2, 1, 12, [[1] * 12])
    T = identity_symmetry(cfg) if seed is None else random_symmetry(cfg, seed)
    table = as_rank_table(T).copy()
    table[list(swap)] = table[list(swap[::-1])]
    tracemalloc.start()
    try:
        with pytest.raises(NotIsometryError) as exc:
            decompose_full(cfg, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.witness == witness
    assert peak < 8 << 20


def test_a_refusal_past_the_witness_cap_peaks_under_a_megabyte():
    # GF(4), m=4, n=2: a whole table of S = 65536 int64 ranks is 512 KB.
    # Two images swapped off the chain axes leave a bijection that the
    # candidate disagrees with at those two ranks, which proves it one, so
    # no whole-table count runs; the candidate's rank table is released
    # before the witness scan, whose anchor rows stop at their first bad
    # column
    cfg = make_config(2, 4, 2, [[1, 1]] * 4, e=2)
    table = as_rank_table(random_symmetry(cfg, 11)).copy()
    u, v = 3 * 16 + 5, 40000 + 7
    table[[u, v]] = table[[v, u]]
    tracemalloc.start()
    try:
        with pytest.raises(NotIsometryError) as exc:
            decompose_full(cfg, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    a, b = exc.value.witness
    G = model.geometry(cfg.q, cfg.pi)
    assert G.distance(a, b) != G.distance(table[a], table[b])
    assert peak < 1 << 20


@pytest.mark.parametrize("cfg", [make_config(3, 1, 2, [[1, 1]]), make_config(3, 2, 2, [[1, 1], [1, 1]])],
                         ids=["one-chain", "two-chains"])
def test_an_entry_q_to_the_n_below_its_rank_is_out_of_range(cfg):
    # rank - q^N has the base-q digits of rank, so a check that read only
    # digits, as the translation is subtracted, would take it for rank
    table = as_rank_table(random_symmetry(cfg, 5))
    for r in (0, 1, cfg.size - 1):
        bad = table.copy()
        bad[r] -= cfg.size
        with pytest.raises(UsageError, match="table entry out of range"):
            decompose_full(cfg, bad)


@pytest.mark.parametrize("table", [[0.7, 1.2, 2.9, 3.0], [True, 0, 2, 3], ["0", "1", "2", "3"],
                                   np.array([0.0, 1.0, 2.0, 3.0]), np.array([True, False, True, True])],
                         ids=["floats", "a-bool", "strings", "float-array", "bool-array"])
def test_a_table_entry_that_is_no_integer_is_refused(table):
    # floats would truncate and bools read as 0/1, each to some other map
    with pytest.raises(UsageError, match="table entries must be an integer"):
        decompose_full(make_config(2, 1, 2, [[1, 1]]), table)


def test_an_integer_table_array_is_read_without_a_copy():
    table = np.array([1, 0, 2, 3], dtype=np.int64)
    assert rank_array(table, 4) is table
    assert rank_array([np.int64(1), 0, 2, 3], 4).tolist() == [1, 0, 2, 3]
    cfg = make_config(2, 1, 2, [[1, 1]])
    assert decompose_full(cfg, np.array([0, 1, 3, 2], dtype=np.int32)) == decompose_full(cfg, [0, 1, 3, 2])


def test_enumeration_matches_full_order():
    for cfg in [make_config(2, 1, 2, [[1, 1]]), make_config(2, 2, 1, [[1], [1]])]:
        syms = list(all_symmetries(cfg))
        assert len(syms) == full_order(cfg)
        tables = {tuple(as_rank_table(T).tolist()) for T in syms}
        assert len(tables) == len(syms)


def test_chain_only_subgroup_is_normal():
    rng = random.Random(27)
    identity = list(range(MIXED.m))
    for _ in range(30):
        g = random_symmetry(MIXED, rng.randrange(10**9))
        h = random_symmetry(MIXED, rng.randrange(10**9))
        h = Symmetry(MIXED, identity, h.chains)  # force sigma = id
        conj = compose_symmetry(compose_symmetry(g, h), invert_symmetry(g))
        assert list(conj.sigma) == identity


def test_sigma_only_intersection_is_trivial():
    # a nontrivial chain permutation with identity sections moves some vector
    # that every chain-only symmetry fixes per-chain, so only the identity
    # lies in both subgroups
    cfg = make_config(2, 2, 1, [[1], [1]])
    chains = [identity_chain(2, (1,)) for _ in range(2)]
    K = Symmetry(cfg, (1, 0), chains)
    table_k = as_rank_table(K).tolist()
    for T in all_symmetries(cfg):
        if as_rank_table(T).tolist() == table_k:
            assert list(T.sigma) == [1, 0]  # never reachable with sigma = id


def test_json_round_trip_one_based_sigma():
    cfg = make_config(2, 2, 1, [[1], [1]])
    chains = [identity_chain(2, (1,)) for _ in range(2)]
    T = Symmetry(cfg, (1, 0), chains)
    doc = T.to_json()
    assert doc["sigma"] == [2, 1]
    again = Symmetry.from_json(doc, cfg)
    assert tuple(again.sigma) == (1, 0)
    rng = random.Random(28)
    for _ in range(10):
        T = random_symmetry(MIXED, rng.randrange(10**9))
        again = Symmetry.from_json(T.to_json(), MIXED)
        assert as_rank_table(again).tolist() == as_rank_table(T).tolist()


def test_a_document_is_read_level_by_level_not_entry_by_entry(monkeypatch):
    # one chain of 13 unit levels holds 8191 rows and 16382 table entries;
    # the integers read one by one are the field size, 13 widths and sigma
    cfg = make_config(2, 1, 13, [[1] * 13])
    doc = json.loads(json.dumps(random_symmetry(cfg, 5).to_json()))
    reads = []

    def int_arg(value, name, low=None):
        reads.append(name)
        return real(value, name, low)

    real = ohb.errors.int_arg
    for module in [m for name, m in sys.modules.items() if name.startswith("ohb.")]:
        if getattr(module, "int_arg", None) is real:
            monkeypatch.setattr(module, "int_arg", int_arg)
    assert Symmetry.from_json(doc, cfg).to_json() == doc
    assert len(reads) <= 2 * (cfg.n + 1)


def test_random_symmetry_is_deterministic():
    a = random_symmetry(MIXED, 99)
    b = random_symmetry(MIXED, 99)
    assert a.to_json() == b.to_json()
