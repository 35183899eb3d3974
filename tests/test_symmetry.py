"""Full symmetry group: admissible permutations, composition, decomposition."""

import random
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest

from conftest import elementwise, make_config, random_vector
from ohb import (
    BlockVector,
    NotIsometryError,
    Symmetry,
    UsageError,
    ValidationError,
    all_symmetries,
    alt_full_order_unit,
    admissible_permutations,
    as_rank_table,
    compose_symmetry,
    decompose_full,
    distance,
    full_order,
    identity_chain,
    identity_symmetry,
    invert_symmetry,
    is_admissible,
    make_translation,
    random_symmetry,
    s_pi_order,
    weight,
)
from ohb.space import dist_ranks

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
    assert is_admissible((0, 1, 2), MIXED)
    assert is_admissible((1, 0, 2), MIXED)
    assert not is_admissible((2, 1, 0), MIXED)
    assert not is_admissible((0, 2, 1), MIXED)
    with pytest.raises(UsageError):
        is_admissible((0, 0, 1), MIXED)


def test_admissible_permutations_count():
    perms = list(admissible_permutations(MIXED))
    assert len(perms) == s_pi_order(MIXED) == 2
    assert all(is_admissible(p, MIXED) for p in perms)
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


@pytest.mark.parametrize(
    "cfg",
    [
        make_config(2, 2, 2, [[2, 1], [1, 1]]),
        make_config(3, 1, 3, [[1, 2, 1]]),
        make_config(2, 4, 2, [[1, 1]] * 4, e=2),
        make_config(2, 1, 13, [[1] * 13]),
    ],
    ids=["q2-mixed", "gf3-121", "gf4-m4-n2", "q2-chain13"],
)
def test_apply_builds_a_valid_vector(cfg):
    # apply skips the vector checks on its output: it must build exactly
    # what the checking constructor would, at the rank table's image
    rng = random.Random(30)
    other = make_config(3 if cfg.q == 2 else 2, cfg.m, cfg.n, cfg.pi)
    for _ in range(5):
        T = random_symmetry(cfg, rng.randrange(10**9))
        table = as_rank_table(T)
        for _ in range(20):
            v = random_vector(cfg, rng)
            image = T.apply(v)
            checked = BlockVector(cfg, image.blocks)
            assert image == checked and hash(image) == hash(checked)
            assert all(type(x) is int for row in image.blocks for b in row for x in b)
            assert image.rank() == table[v.rank()]
        with pytest.raises(UsageError):
            T.apply(other.unrank(0))


def test_decompose_full_strips_the_translation_on_chain_axes_only():
    # GF(4), m=4, n=2 has S=65536 points of N*e=16 base-2 digits: an
    # (S, N*e) int64 digit grid of the whole table alone takes 8 MB.  On
    # q=2, one chain of n=13, the chain axis is the whole table, so only
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
    every = np.arange(cfg.size)
    for _ in range(12):
        table = as_rank_table(random_symmetry(cfg, rng.randrange(10**9)))
        u, v = rng.sample(range(cfg.size), 2)
        breaks = dist_ranks(cfg, u, every) != dist_ranks(cfg, v, every)
        breaks[[u, v]] = False
        if not breaks.any():
            continue
        table[[u, v]] = table[[v, u]]
        with pytest.raises(NotIsometryError) as exc:
            decompose_full(cfg, table)
        a, b = exc.value.witness
        assert dist_ranks(cfg, a, b) != dist_ranks(cfg, table[a], table[b])

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


def test_random_symmetry_is_deterministic():
    a = random_symmetry(MIXED, 99)
    b = random_symmetry(MIXED, 99)
    assert a.to_json() == b.to_json()
