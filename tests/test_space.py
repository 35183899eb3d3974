"""Poset-block space: ranking, weight, distance, text format."""

import random

import numpy as np
import pytest

from conftest import SMALL_CONFIGS, make_config, random_vector
from ohb import (
    CapExceeded,
    SpaceConfig,
    UsageError,
    chain_distance,
    distance,
    format_vector,
    ideal_closure,
    parse_vector,
    pi_support,
    weight,
)
from ohb.fields import block_rank
from ohb.space import (
    _digit_grid,
    _from_digit_grid,
    add_ranks,
    dist_ranks,
    distance_matrix_array,
    rank_distance,
    scale_ranks,
    sub_ranks,
    weight_array,
)


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
    v0 = cfg.zero()
    v1 = cfg.vector([[(1,), (0,)], [(0,), (0,)]])
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
    cfg = make_config(2, 2, 2, [[1, 1], [1, 1]])
    v = parse_vector(cfg, "0,1;0,0")
    assert pi_support(v) == frozenset({(1, 2)})
    assert ideal_closure(pi_support(v), cfg.m, cfg.n) == frozenset({(1, 1), (1, 2)})
    assert weight(v) == 2


def test_distance_is_weight_of_difference():
    rng = random.Random(11)
    for cfg in SMALL_CONFIGS:
        for _ in range(50):
            u = random_vector(cfg, rng)
            v = random_vector(cfg, rng)
            assert distance(u, v) == weight(u - v)
            assert distance(u, v) == weight(v - u)


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
            chain_distance([block_rank(cfg.q, b) for b in ur], [block_rank(cfg.q, b) for b in vr])
            for ur, vr in zip(u.blocks, v.blocks)
        )
        assert distance(u, v) == total


def test_chain_distance_values():
    assert chain_distance((0, 0), (0, 0)) == 0
    assert chain_distance((1, 0), (0, 0)) == 1
    assert chain_distance((1, 1), (1, 0)) == 2
    assert chain_distance((1, 1), (0, 1)) == 1


def test_translation_invariance():
    rng = random.Random(13)
    cfg = make_config(3, 1, 2, [[1, 1]])
    for _ in range(100):
        u = random_vector(cfg, rng)
        v = random_vector(cfg, rng)
        w = random_vector(cfg, rng)
        assert distance(u + w, v + w) == distance(u, v)


def test_vector_arithmetic():
    cfg = make_config(3, 1, 2, [[1, 1]])
    u = parse_vector(cfg, "1,2")
    v = parse_vector(cfg, "2,2")
    assert format_vector(u + v) == "0,1"
    assert format_vector(u - u) == "0,0"
    assert (u - u).is_zero()
    assert format_vector(-u) == "2,1"
    assert format_vector(u.scale(2)) == "2,1"


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
    import numpy as np

    rng = random.Random(14)
    for cfg in SMALL_CONFIGS:
        ranks = np.array([rng.randrange(cfg.size) for _ in range(20)], dtype=np.int64)
        other = np.array([rng.randrange(cfg.size) for _ in range(20)], dtype=np.int64)
        summed = add_ranks(cfg, ranks, other)
        diffed = sub_ranks(cfg, ranks, other)
        for a, b, s, d in zip(ranks, other, summed, diffed):
            u, v = cfg.unrank(int(a)), cfg.unrank(int(b))
            assert cfg.rank(u + v) == int(s)
            assert cfg.rank(u - v) == int(d)
        for c in range(cfg.q):
            scaled = scale_ranks(cfg, c, ranks)
            for a, s in zip(ranks, scaled):
                assert cfg.rank(cfg.unrank(int(a)).scale(c)) == int(s)
        wts = weight_array(cfg)
        for r in range(cfg.size):
            assert int(wts[r]) == weight(cfg.unrank(r))


@pytest.mark.parametrize(
    "p, e, pi",
    [(2, 1, [[1, 2], [3, 1]]), (2, 2, [[1, 1], [2, 1]]), (2, 3, [[1, 2]]), (3, 1, [[1, 2], [2, 1]])],
    ids=["gf2", "gf4", "gf8", "gf3"],
)
def test_add_and_sub_ranks_match_the_digit_grid(p, e, pi):
    # ranks are base-p digit strings: for p = 2 both are XOR, for odd p
    # they go through the digit grid, the reference here
    cfg = make_config(p, len(pi), len(pi[0]), pi, e=e)
    rng = random.Random(15)
    a = np.array([rng.randrange(cfg.size) for _ in range(200)], dtype=np.int64)
    b = np.array([rng.randrange(cfg.size) for _ in range(200)], dtype=np.int64)
    ga, gb = _digit_grid(cfg, a), _digit_grid(cfg, b)
    for op, sign in ((add_ranks, 1), (sub_ranks, -1)):
        want = _from_digit_grid(cfg, (ga + sign * gb) % p)
        got = op(cfg, a, b)
        assert got.dtype == np.int64 and got.shape == (200,)
        assert got.tolist() == want.tolist()
        assert op(cfg, a, int(b[0])).tolist() == _from_digit_grid(cfg, (ga + sign * gb[:1]) % p).tolist()
        assert op(cfg, int(a[1]), int(b[1])).tolist() == [int(want[1])]
    for x, y, s, d in zip(a[:20], b[:20], add_ranks(cfg, a, b), sub_ranks(cfg, a, b)):
        u, v = cfg.unrank(int(x)), cfg.unrank(int(y))
        assert (cfg.rank(u + v), cfg.rank(u - v)) == (int(s), int(d))


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
    assert rank_distance(q, pi, int(xs[0]), int(ys[0])).shape == ()


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
