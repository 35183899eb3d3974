"""Poset-block space: ranking, weight, distance, text format."""

import random

import numpy as np
import pytest

from conftest import SMALL_CONFIGS, elementwise, make_config, random_vector
from ohb import (
    BlockVector,
    CapExceeded,
    SpaceConfig,
    UsageError,
    distance,
    format_vector,
    parse_vector,
    weight,
)
from ohb.space import (
    add_ranks,
    dist_ranks,
    distance_matrix_array,
    rank_distance,
    scale_ranks,
    sub_ranks,
    weight_array,
)


def ideal_closure(coords):
    """Down-closure of a set of 0-based coordinates (i, j) in the union
    of chains: (i, j') lies below (i, j) for every j' <= j."""
    return {(i, jj) for i, j in coords for jj in range(j + 1)}


def ideal_weight(cfg, r):
    """The paper's weight of the vector of rank r: the size of the ideal
    generated by its pi-support, the set of its nonzero blocks."""
    support = {(i, j) for i, row in enumerate(cfg.unrank(r).blocks) for j, b in enumerate(row) if any(b)}
    return len(ideal_closure(support))


def test_config_shape_checks():
    with pytest.raises(UsageError):
        make_config(2, 2, 2, [[1, 1]])  # m rows required
    with pytest.raises(UsageError):
        make_config(2, 1, 2, [[1, 1, 1]])  # n entries per row
    with pytest.raises(UsageError):
        make_config(2, 1, 2, [[1, 0]])  # block dims are positive


def test_config_derived_sizes():
    cfg = make_config(2, 2, 2, [[2, 1], [1, 1]])
    assert cfg.N == 5
    assert cfg.size == 32
    cfg = make_config(3, 1, 2, [[1, 1]])
    assert cfg.size == 9


def test_rank_unrank_bijection():
    for cfg in SMALL_CONFIGS:
        seen = set()
        for r in range(cfg.size):
            v = cfg.unrank(r)
            assert cfg.rank(v) == r
            assert v.rank() == r
            seen.add(tuple(tuple(row) for row in v.blocks))
        assert len(seen) == cfg.size


def test_rank_block_one_one_least_significant():
    # incrementing the first block of the first chain increments the rank
    cfg = make_config(2, 2, 2, [[1, 1], [1, 1]])
    v0 = cfg.unrank(0)
    v1 = BlockVector(cfg, [[(1,), (0,)], [(0,), (0,)]])
    assert cfg.rank(v0) == 0
    assert cfg.rank(v1) == 1


def test_weight_examples():
    # chain 1 < 2: the top nonzero level decides
    cfg = make_config(2, 1, 2, [[1, 1]])
    assert weight(parse_vector(cfg, "0,0")) == 0
    assert weight(parse_vector(cfg, "1,0")) == 1
    assert weight(parse_vector(cfg, "0,1")) == 2
    assert weight(parse_vector(cfg, "1,1")) == 2


def test_weight_sums_over_chains():
    cfg = make_config(2, 2, 2, [[1, 1], [1, 1]])
    assert weight(parse_vector(cfg, "1,0;0,1")) == 1 + 2
    assert weight(parse_vector(cfg, "0,0;1,1")) == 2


def test_block_width_does_not_change_weight():
    # any nonzero value in a block counts the whole level
    cfg = make_config(2, 1, 2, [[2, 1]])
    assert weight(parse_vector(cfg, "10,0")) == 1
    assert weight(parse_vector(cfg, "11,0")) == 1
    assert weight(parse_vector(cfg, "00,1")) == 2


def test_support_and_closure():
    # the reference itself: the support of 0,1;0,0 is the level-2 block
    # of chain 1, whose ideal adds the level-1 block below it
    cfg = make_config(2, 2, 2, [[1, 1], [1, 1]])
    v = parse_vector(cfg, "0,1;0,0")
    assert ideal_closure({(0, 1)}) == {(0, 0), (0, 1)}
    assert ideal_weight(cfg, v.rank()) == weight(v) == 2


def test_weight_is_the_size_of_the_ideal_of_the_support():
    for cfg in SMALL_CONFIGS:
        want = [ideal_weight(cfg, r) for r in range(cfg.size)]
        assert [weight(cfg.unrank(r)) for r in range(cfg.size)] == want
        assert weight_array(cfg).tolist() == want
        assert [rank_distance(cfg.q, cfg.pi, r, 0) for r in range(cfg.size)] == want
        assert rank_distance(cfg.q, cfg.pi, np.arange(cfg.size), 0).tolist() == want


def test_distance_is_weight_of_difference():
    rng = random.Random(11)
    for cfg in SMALL_CONFIGS:
        f = cfg.field
        for _ in range(50):
            u = random_vector(cfg, rng)
            v = random_vector(cfg, rng)
            assert distance(u, v) == ideal_weight(cfg, elementwise(cfg, f.sub, u.rank(), v.rank()))
            assert distance(u, v) == ideal_weight(cfg, elementwise(cfg, f.sub, v.rank(), u.rank()))


def test_weight_and_distance_are_exact_past_int64():
    # q=2, one chain of 70 unit levels: ranks up to 2^70
    cfg = make_config(2, 1, 70, [[1] * 70])
    rng = random.Random(16)
    top = parse_vector(cfg, ",".join("0" * 69 + "1"))
    assert top.rank() == 1 << 69 and weight(top) == 70
    for _ in range(50):
        u, v = random_vector(cfg, rng), random_vector(cfg, rng)
        assert weight(u) == ideal_weight(cfg, u.rank())
        assert distance(u, v) == ideal_weight(cfg, u.rank() ^ v.rank())
        assert type(weight(u)) is int and type(distance(u, v)) is int
    with pytest.raises(UsageError, match="different spaces"):
        distance(top, make_config(2, 1, 2, [[1, 1]]).unrank(0))


def test_metric_axioms_exhaustive_small():
    cfg = make_config(2, 2, 2, [[1, 1], [1, 1]])
    vecs = [cfg.unrank(r) for r in range(cfg.size)]
    for u in vecs:
        assert distance(u, u) == 0
        for v in vecs:
            d = distance(u, v)
            assert d == distance(v, u)
            assert (d == 0) == (u == v)


def test_distance_sums_chain_distances():
    rng = random.Random(12)
    cfg = make_config(2, 2, 2, [[2, 1], [1, 1]])
    for _ in range(100):
        u = random_vector(cfg, rng)
        v = random_vector(cfg, rng)
        total = sum(
            rank_distance(cfg.q, [row], cfg.chain_subrank(u.rank(), i), cfg.chain_subrank(v.rank(), i))
            for i, row in enumerate(cfg.pi)
        )
        assert distance(u, v) == total


def test_chain_distance_values():
    # one chain 1 < 2 of unit blocks: the row (x1, x2) has rank x1 + 2 * x2
    assert rank_distance(2, [[1, 1]], 0, 0) == 0
    assert rank_distance(2, [[1, 1]], 1, 0) == 1
    assert rank_distance(2, [[1, 1]], 3, 1) == 2
    assert rank_distance(2, [[1, 1]], 3, 2) == 1


def test_translation_invariance():
    rng = random.Random(13)
    cfg = make_config(3, 1, 2, [[1, 1]])
    for _ in range(100):
        u, v, w = (rng.randrange(cfg.size) for _ in range(3))
        uw, vw = (int(add_ranks(cfg, x, w)[0]) for x in (u, v))
        assert (uw, vw) == (elementwise(cfg, cfg.field.add, u, w), elementwise(cfg, cfg.field.add, v, w))
        assert distance(cfg.unrank(uw), cfg.unrank(vw)) == distance(cfg.unrank(u), cfg.unrank(v))


def test_vector_arithmetic():
    cfg = make_config(3, 1, 2, [[1, 1]])
    u = parse_vector(cfg, "1,2").rank()
    v = parse_vector(cfg, "2,2").rank()

    def text(ranks):
        return format_vector(cfg.unrank(int(ranks[0])))

    assert text(add_ranks(cfg, u, v)) == "0,1"
    assert text(sub_ranks(cfg, u, u)) == "0,0"
    assert text(sub_ranks(cfg, 0, u)) == "2,1"
    assert text(scale_ranks(cfg, 2, u)) == "2,1"


def test_text_format_round_trip():
    cfg = make_config(2, 2, 2, [[2, 1], [2, 1]])
    s = "10,0;01,1"
    assert format_vector(parse_vector(cfg, s)) == s
    for r in range(cfg.size):
        v = cfg.unrank(r)
        assert parse_vector(cfg, format_vector(v)) == v


def test_parse_vector_errors():
    cfg = make_config(2, 2, 2, [[1, 1], [1, 1]])
    with pytest.raises(UsageError):
        parse_vector(cfg, "0,1")  # one chain missing
    with pytest.raises(UsageError):
        parse_vector(cfg, "0,1;1")  # level missing
    with pytest.raises(UsageError):
        parse_vector(cfg, "0,2;1,0")  # digit out of field
    with pytest.raises(UsageError):
        parse_vector(cfg, "00,1;1,0")  # block width 1, two digits


def test_vectorized_ops_match_vector_ops():
    # the reference adds, subtracts and scales one field element at a time
    rng = random.Random(14)
    for cfg in SMALL_CONFIGS + [make_config(2, 2, 2, [[1, 1], [2, 1]], e=3)]:
        f = cfg.field
        ranks = [rng.randrange(cfg.size) for _ in range(20)]
        other = [rng.randrange(cfg.size) for _ in range(20)]
        assert add_ranks(cfg, ranks, other).tolist() == [elementwise(cfg, f.add, a, b) for a, b in zip(ranks, other)]
        assert sub_ranks(cfg, ranks, other).tolist() == [elementwise(cfg, f.sub, a, b) for a, b in zip(ranks, other)]
        for c in range(cfg.q):
            want = [elementwise(cfg, lambda x: f.mul(c, x), a) for a in ranks]
            assert scale_ranks(cfg, c, ranks).tolist() == want


@pytest.mark.parametrize(
    "p, e, pi",
    [(2, 1, [[1, 2], [3, 1]]), (2, 2, [[1, 1], [2, 1]]), (2, 3, [[1, 2]]), (3, 1, [[1, 2], [2, 1]])],
    ids=["gf2", "gf4", "gf8", "gf3"],
)
def test_add_and_sub_ranks_match_the_digit_grid(p, e, pi):
    # ranks are base-p digit strings: for p = 2 both are XOR, for odd p
    # they add digit by digit; the reference here is the (ranks, N*e)
    # grid of base-p digits, added mod p
    cfg = make_config(p, len(pi), len(pi[0]), pi, e=e)
    rng = random.Random(15)
    a = np.array([rng.randrange(cfg.size) for _ in range(200)], dtype=np.int64)
    b = np.array([rng.randrange(cfg.size) for _ in range(200)], dtype=np.int64)
    place = p ** np.arange(cfg.N * e)
    ga, gb = a[:, None] // place % p, b[:, None] // place % p
    for op, sign in ((add_ranks, 1), (sub_ranks, -1)):
        want = ((ga + sign * gb) % p * place).sum(axis=1)
        got = op(cfg, a, b)
        assert got.dtype == np.int64 and got.shape == (200,)
        assert got.tolist() == want.tolist()
        assert op(cfg, a, int(b[0])).tolist() == ((ga + sign * gb[:1]) % p * place).sum(axis=1).tolist()
        assert op(cfg, int(a[1]), int(b[1])).tolist() == [int(want[1])]
    for x, y, s, d in zip(a[:20].tolist(), b[:20].tolist(), add_ranks(cfg, a, b), sub_ranks(cfg, a, b)):
        f = cfg.field
        assert (elementwise(cfg, f.add, x, y), elementwise(cfg, f.sub, x, y)) == (int(s), int(d))


def per_block_distance(q, pi, a, b):
    """Reference for rank_distance: per chain, the highest level whose
    block digits differ, read one block at a time."""
    total = 0
    for row in pi:
        level = 0
        for j, k in enumerate(row):
            if a % q ** k != b % q ** k:
                level = j + 1
            a, b = a // q ** k, b // q ** k
        total += level
    return total


@pytest.mark.parametrize(
    "q, pi",
    [(2, [[2, 1], [1, 1]]), (3, [[1, 2], [2, 1]]), (4, [[2, 1], [1, 1]]), (3, [[1, 2, 1]])],
)
def test_rank_distance_matches_per_block_reference(q, pi):
    rng = random.Random(14)
    size = q ** sum(map(sum, pi))
    ranks = np.arange(size)
    xs = np.array([rng.randrange(size) for _ in range(40)])
    ys = np.array([rng.randrange(size) for _ in range(40)])
    for a in [0, size - 1, *xs[:5].tolist()]:
        got = rank_distance(q, pi, a, ranks)
        assert got.dtype == np.int64 and got.shape == (size,)
        assert got.tolist() == [per_block_distance(q, pi, a, b) for b in range(size)]
    expected = [[per_block_distance(q, pi, a, b) for b in ys.tolist()] for a in xs.tolist()]
    got = rank_distance(q, pi, xs[:, None], ys)
    assert got.shape == (40, 40) and got.tolist() == expected
    narrow = rank_distance(q, pi, xs[:, None], ys, np.int8)
    assert narrow.dtype == np.int8 and narrow.tolist() == expected
    # two Python ints give a Python int; a numpy scalar goes the array way
    one = rank_distance(q, pi, int(xs[0]), int(ys[0]))
    assert type(one) is int and one == expected[0][0]
    assert rank_distance(q, pi, xs[0], int(ys[0])).shape == ()


def test_distance_matrix_array_consistency():
    cfg = make_config(2, 1, 2, [[2, 1]])
    D = distance_matrix_array(cfg)
    assert D.shape == (8, 8)
    for a in range(8):
        for b in range(8):
            assert int(D[a, b]) == distance(cfg.unrank(a), cfg.unrank(b))
            assert int(D[a, b]) == dist_ranks(cfg, a, b)


def test_materialization_guard():
    cfg = make_config(2, 1, 1, [[24]])  # 2^24 points
    with pytest.raises(CapExceeded):
        cfg.check_materialize()


def test_config_json_round_trip():
    for cfg in SMALL_CONFIGS:
        doc = cfg.to_json()
        again = SpaceConfig.from_json(doc)
        assert again == cfg
    with pytest.raises(UsageError):
        SpaceConfig.from_json({"m": 1, "n": 1, "pi": [[1]]})
