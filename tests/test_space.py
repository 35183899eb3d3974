"""Poset-block space: ranking, weight, distance, text format."""

import ast
import random
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import model
import ohb
from conftest import SMALL_CONFIGS, elementwise, make_config, random_vector
from ohb import (
    BlockVector,
    CapExceeded,
    Field,
    SpaceConfig,
    UsageError,
    as_rank_table,
    distance,
    format_vector,
    parse_vector,
    random_symmetry,
    weight,
)
from ohb.errors import CAPS
from ohb.space import (
    WITNESS_ANCHORS,
    add_ranks,
    dist_ranks,
    distance_matrix_array,
    distance_witness,
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


@pytest.mark.parametrize("m, n, pi", [
    (1, 1, [[1.5]]),  # once read as pi = ((1,),)
    (1.0, 1, [[1]]),
    (1, True, [[1]]),
    (1, 1, [["1"]]),
    (1, 1, [[None]]),
], ids=["float-width", "float-m", "bool-n", "string-width", "none-width"])
def test_shape_entries_that_are_no_integer_are_refused(m, n, pi):
    with pytest.raises(UsageError, match="must be an integer"):
        SpaceConfig(Field(2), m, n, pi)


def test_numpy_integer_shapes_pass_as_ints():
    cfg = SpaceConfig(Field(2), np.int64(2), np.int32(1), np.array([[2], [1]]))
    assert cfg == make_config(2, 2, 1, [[2], [1]])
    assert all(type(k) is int for k in (cfg.m, cfg.n, *cfg.pi[0], *cfg.pi[1]))


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


# spaces whose vectors have a text format: q <= 10, one or more chains
TEXT_SPACES = [
    make_config(2, 1, 2, [[1, 1]]),
    make_config(3, 2, 2, [[2, 1], [1, 1]]),
    make_config(3, 1, 1, [[1]], e=2),
]


@settings(max_examples=400)
@example(TEXT_SPACES[0], "\u00b2,0")  # superscript two: isdigit() but not a digit int() reads
@example(TEXT_SPACES[0], "\u0661,0")  # Arabic-Indic one: int() reads it as 1
@example(TEXT_SPACES[0], "\u20030,1")  # a non-ASCII space that strip() would remove
@seed(1)
@given(
    st.sampled_from(TEXT_SPACES),
    st.text(st.one_of(st.sampled_from("012389,; "), st.characters()), max_size=14),
)
def test_parse_vector_reads_ascii_text_only(cfg, text):
    try:
        v = parse_vector(cfg, text)
    except UsageError:
        return
    assert text.isascii()
    assert parse_vector(cfg, format_vector(v)) == v


def test_vector_blocks_hold_integer_element_ranks():
    cfg = make_config(2, 1, 2, [[1, 1]])
    # operator.index once read the bool True as the element rank 1
    for bad in [[[(0.5,), (1,)]], [[(1.0,), (1,)]], [[("1",), (1,)]], [[(None,), (0,)]], [[(True,), (0,)]]]:
        with pytest.raises(UsageError):
            BlockVector(cfg, bad)
    with pytest.raises(UsageError, match="element rank must be an integer, got True"):
        BlockVector(SpaceConfig(Field(2), 1, 1, [[2]]), [[(True, False)]])
    v = BlockVector(cfg, [[(np.int64(1),), (np.uint8(1),)]])
    assert all(type(x) is int for row in v.blocks for b in row for x in b)
    assert v == parse_vector(cfg, "1,1") and v.rank() == 3 and weight(v) == 2


@pytest.mark.parametrize("cfg", [
    make_config(2, 3, 2, [[1, 2], [2, 1], [1, 2]]),
    make_config(3, 2, 2, [[1, 2], [2, 1]]),
    make_config(2, 2, 2, [[1, 2], [1, 1]], e=2),
    make_config(2, 1, 2, [[11, 1]]),
], ids=["mixed", "gf3", "gf4", "level-2^11"])
def test_blocks_ranks_and_images_agree_with_the_model(cfg):
    # a vector built from blocks, one built from a rank and an image of
    # either hold the model's rank and blocks, with Python ints throughout
    geo = model.geometry(cfg.q, cfg.pi)
    rng = random.Random(22)
    T = random_symmetry(cfg, 22)
    images = geo.apply(T.to_json(), np.arange(cfg.size))
    for r in [0, cfg.size - 1, *rng.sample(range(cfg.size), 300)]:
        s = int(images[r])
        built, unranked = BlockVector(cfg, geo.blocks(r)), cfg.unrank(r)
        image = T.apply(built)
        expected = {r: built, s: BlockVector(cfg, geo.blocks(s))}
        for v, rank in [(built, r), (unranked, r), (image, s), (T.apply(unranked), s)]:
            assert v.rank() == cfg.rank(v) == rank and type(v.rank()) is int
            assert v.blocks == geo.blocks(rank) and geo.rank_of_blocks(v.blocks) == rank
            assert all(type(x) is int for row in v.blocks for b in row for x in b)
            assert v == expected[rank] and hash(v) == hash(expected[rank])
        assert (built == image) == (r == s)


def blocks_attributes(tree):
    """The lines of a module that read or write a .blocks attribute."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "blocks")


@pytest.mark.parametrize("module", sorted(p.name for p in Path(ohb.__file__).parent.glob("*.py") if p.name != "space.py"))
def test_only_the_space_module_reads_vector_blocks(module):
    # a vector is its rank everywhere but text I/O, which space.py holds
    path = Path(ohb.__file__).parent / module
    assert blocks_attributes(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_guard_sees_a_blocks_attribute():
    tree = ast.parse("x = v.blocks\nf(cfg.unrank(0).blocks[1])\nblocks = 2\ndef g(v):\n    v.blocks = 3\n")
    assert blocks_attributes(tree) == [1, 2, 5]


def unique_calls(tree):
    """The lines of a module that name numpy's unique: np.unique,
    numpy.unique, or unique imported from numpy."""
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "unique"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    lines += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("numpy") and any(a.name == "unique" for a in node.names)]
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(p.name for p in Path(ohb.__file__).parent.glob("*.py")))
def test_no_module_calls_np_unique(module):
    # np.unique imports numpy.ma on its first call (about 10 ms and 1 MB);
    # counts go through np.bincount and first owners through a stable sort
    path = Path(ohb.__file__).parent / module
    assert unique_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_guard_sees_np_unique():
    tree = ast.parse("import numpy\nnp.unique(a)\nf(numpy.unique)\nfrom numpy import unique\nx.unique(a)\n")
    assert unique_calls(tree) == [2, 3, 4]


def test_repr_falls_back_to_the_rank_past_q_10():
    # the text format has one digit per element, so q <= 10
    cfg = SpaceConfig(Field(11), 1, 1, [[1]])
    assert repr(cfg.unrank(3)) == "BlockVector(rank=3)"
    assert repr(BlockVector(cfg, [[(10,)]])) == "BlockVector(rank=10)"
    small = SpaceConfig(Field(7), 2, 1, [[1], [2]])
    assert repr(small.unrank(3 + 7 * 5)) == "BlockVector('3;50')"


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
    # they add digit by digit; the model adds the base-p digits mod p
    cfg = make_config(p, len(pi), len(pi[0]), pi, e=e)
    G = model.geometry(cfg.q, cfg.pi)
    rng = random.Random(15)
    a = np.array([rng.randrange(cfg.size) for _ in range(200)], dtype=np.int64)
    b = np.array([rng.randrange(cfg.size) for _ in range(200)], dtype=np.int64)
    for op, sign in ((add_ranks, 1), (sub_ranks, -1)):
        want = G.add(a, b, sign)
        got = op(cfg, a, b)
        assert got.dtype == np.int64 and got.shape == (200,)
        assert got.tolist() == want.tolist()
        assert op(cfg, a, int(b[0])).tolist() == G.add(a, b[0], sign).tolist()
        assert op(cfg, int(a[1]), int(b[1])).tolist() == [int(want[1])]
    for x, y, s, d in zip(a[:20].tolist(), b[:20].tolist(), add_ranks(cfg, a, b), sub_ranks(cfg, a, b)):
        f = cfg.field
        assert (elementwise(cfg, f.add, x, y), elementwise(cfg, f.sub, x, y)) == (int(s), int(d))


@pytest.mark.parametrize(
    "q, pi",
    [(2, [[2, 1], [1, 1]]), (3, [[1, 2], [2, 1]]), (4, [[2, 1], [1, 1]]), (3, [[1, 2, 1]])],
)
def test_rank_distance_matches_per_block_reference(q, pi):
    rng = random.Random(14)
    G = model.geometry(q, pi)
    size = q ** sum(map(sum, pi))
    ranks = np.arange(size)
    xs = np.array([rng.randrange(size) for _ in range(40)])
    ys = np.array([rng.randrange(size) for _ in range(40)])
    for a in [0, size - 1, *xs[:5].tolist()]:
        got = rank_distance(q, pi, a, ranks)
        assert got.dtype == np.int64 and got.shape == (size,)
        assert got.tolist() == G.distance(a, ranks).tolist()
    expected = G.distance(xs[:, None], ys).tolist()
    got = rank_distance(q, pi, xs[:, None], ys)
    assert got.shape == (40, 40) and got.tolist() == expected
    narrow = rank_distance(q, pi, xs[:, None], ys, np.int8)
    assert narrow.dtype == np.int8 and narrow.tolist() == expected
    # two Python ints give a Python int; a numpy scalar goes the array way
    one = rank_distance(q, pi, int(xs[0]), int(ys[0]))
    assert type(one) is int and one == expected[0][0]
    assert rank_distance(q, pi, xs[0], int(ys[0])).shape == ()


FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2)}


@st.composite
def mixed_spaces(draw, points=1 << 12):
    """Spaces of at most `points` points over GF(2, 3, 4, 8, 9), with
    block widths 1-3 where the size allows them, unit widths otherwise."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    dims = max(d for d in range(1, 13) if q ** d <= points)
    m = draw(st.integers(1, min(3, dims)))
    n = draw(st.integers(1, dims // m))
    pi = draw(st.lists(st.lists(st.integers(1, 3), min_size=n, max_size=n), min_size=m, max_size=m))
    if sum(map(sum, pi)) > dims:
        pi = [[1] * n] * m
    p, e = FIELDS[q]
    return make_config(p, m, n, pi, e=e)


@settings(max_examples=40)
@seed(1)
@given(mixed_spaces(), st.randoms(use_true_random=False), st.sampled_from([np.int8, np.int64]),
       st.sampled_from([np.int8, np.int64]))
def test_rank_distance_is_the_ideal_weight_of_the_difference(cfg, rng, given_dtype, dtype):
    q, pi, f = cfg.q, cfg.pi, cfg.field
    xs = [rng.randrange(cfg.size) for _ in range(6)]
    ys = [rng.randrange(cfg.size) for _ in range(5)]
    want = [[ideal_weight(cfg, elementwise(cfg, f.sub, x, y)) for y in ys] for x in xs]
    if cfg.size > 128:
        given_dtype = np.int64  # ranks past 127 do not fit int8
    col, row = np.array(xs, dtype=given_dtype)[:, None], np.array(ys, dtype=given_dtype)
    got = rank_distance(q, pi, col, row, dtype)
    assert got.dtype == dtype and got.shape == (6, 5) and got.tolist() == want
    assert rank_distance(q, pi, row[:, None], col[:, 0], dtype).tolist() == np.transpose(want).tolist()
    assert rank_distance(q, pi, xs[0], row, dtype).tolist() == want[0]
    assert rank_distance(q, pi, col, ys[0]).tolist() == [[w[0]] for w in want]
    assert rank_distance(q, pi, col[:, :, None], row[None, :, None]).shape == (6, 5, 1)
    assert rank_distance(q, pi, np.int64(xs[0]), ys[0]).shape == ()
    one = rank_distance(q, pi, xs[0], ys[0])
    assert type(one) is int and one == want[0][0]


def divmod_distance(q, pi, a, b, dtype=np.int64):
    """rank_distance read digit by digit with // and % for every q, as
    it reads for odd q: the reference for the bit-field path of q = 2^e,
    down to where an int64 array meets a place value past 2^63."""
    total = 0
    if not (isinstance(a, int) and isinstance(b, int)):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        total = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=dtype)
    place = 1
    for row in pi:
        size = q ** sum(row)
        da, db = (a // place) % size, (b // place) % size
        below = 1
        for k in row:
            total += da // below != db // below
            below *= q ** k
        place *= size
    return total


@pytest.mark.parametrize("q, pi", [(2, [[1] * 70]), (2, [[40], [1] * 30]), (4, [[1, 2]] * 12), (8, [[5], [20]])])
def test_rank_distance_on_python_ints_past_int64(q, pi):
    rng = random.Random(41)
    size = q ** sum(map(sum, pi))
    for _ in range(50):
        a, b = rng.randrange(size), rng.randrange(size)
        got = rank_distance(q, pi, a, b)
        assert type(got) is int and got == divmod_distance(q, pi, a, b)


# q = 2^e spaces whose last bit field ends at or near bit 62/63: the bit
# path runs up to 62 bits; beyond, both read digits with // and %, which
# raise OverflowError on a place value or chain size past int64
NEAR_63 = [
    (2, [[62]]), (2, [[1] * 62]), (2, [[30, 2], [30]]), (2, [[60], [2]]),
    (2, [[63]]), (2, [[1] * 63]), (2, [[32], [31]]), (2, [[31], [32]]), (2, [[64]]), (2, [[40], [30]]),
    (4, [[31]]), (4, [[16], [15]]), (4, [[32]]), (8, [[20], [1]]), (8, [[21]]), (8, [[7, 7], [7]]),
]


@pytest.mark.parametrize("q, pi", NEAR_63)
def test_rank_distance_near_bit_63_matches_divmod(q, pi):
    rng = random.Random(42)
    top = min(q ** sum(map(sum, pi)), 1 << 63)
    a = np.array([0, 1, top - 1, *(rng.randrange(top) for _ in range(40))], dtype=np.int64)
    b = np.array([top - 1, 0, top - 1, *(rng.randrange(top) for _ in range(40))], dtype=np.int64)
    for dtype in (np.int64, np.int8):
        try:
            want = divmod_distance(q, pi, a[:, None], b, dtype)
        except OverflowError:
            with pytest.raises(OverflowError):
                rank_distance(q, pi, a[:, None], b, dtype)
            continue
        got = rank_distance(q, pi, a[:, None], b, dtype)
        assert got.dtype == dtype and np.array_equal(got, want)


def test_distance_matrix_array_consistency():
    cfg = make_config(2, 1, 2, [[2, 1]])
    D = distance_matrix_array(cfg)
    assert D.shape == (8, 8)
    for a in range(8):
        for b in range(8):
            assert int(D[a, b]) == distance(cfg.unrank(a), cfg.unrank(b))
            assert int(D[a, b]) == dist_ranks(cfg, a, b)


# q = 2, 3, 4 and mixed widths; 16 points or more, so that ranks
# 0..WITNESS_ANCHORS-1 can all be scanned
WITNESS_SPACES = [
    make_config(2, 2, 2, [[1, 2], [1, 1]]),
    make_config(2, 1, 3, [[2, 1, 1]]),
    make_config(3, 2, 1, [[1], [2]]),
    make_config(3, 2, 2, [[1, 1], [1, 1]]),
    make_config(2, 1, 2, [[1, 1]], e=2),
    make_config(2, 2, 2, [[1, 1], [1, 1]], e=2),
]


@settings(max_examples=200)
@seed(1)
@given(data=st.data())
def test_distance_witness_is_the_first_bad_pair_of_the_rows_it_scans(data):
    cfg = data.draw(st.sampled_from(WITNESS_SPACES))
    S = cfg.size
    if data.draw(st.booleans()):
        f = np.array(data.draw(st.permutations(range(S))))
    else:
        f = as_rank_table(random_symmetry(cfg, data.draw(st.integers(0, 2**32)))).copy()
        for _ in range(data.draw(st.integers(1, 3))):
            u, v = data.draw(st.integers(0, S - 1)), data.draw(st.integers(0, S - 1))
            f[[u, v]] = f[[v, u]]
    anchors = data.draw(st.lists(st.integers(0, S - 1), max_size=3))
    cap = data.draw(st.sampled_from([CAPS["witness_matrix"], S, S - 1, 1]))
    assert model.ANCHOR_ROWS == WITNESS_ANCHORS
    want = model.witness(model.geometry(cfg.q, cfg.pi), f, anchors, cap)
    with patch.dict(CAPS, {"witness_matrix": cap}):
        assert distance_witness(cfg.q, cfg.pi, f, anchors) == want


@pytest.mark.parametrize(
    "swap, columns",
    [((9000, 60000), (1 << 13, 5 << 13)), ((41000, 60000), (5 << 13, 1 << 16)), ((16384 + 5, 49152 + 5), None)],
    ids=["second-chunk", "third-chunk", "no-bad-row"],
)
def test_the_chunked_row_scan_finds_the_whole_row_witness(swap, columns):
    # past the witness cap an anchor row is compared in column chunks of
    # 2^13, 2^15, ... ranks and stops at its first bad column.  Swapping
    # two images breaks a row exactly at the swapped columns whose
    # distances from the row's rank differ: anchor row 100 sees none of
    # them, row 0 sees the lower one (in the second or third chunk), and
    # the last pair, equal on chain 0 and of equal weight elsewhere, breaks
    # no scanned row at all
    cfg = make_config(2, 4, 2, [[1, 1]] * 4, e=2)
    assert cfg.size > CAPS["witness_matrix"]
    f = as_rank_table(random_symmetry(cfg, 3)).copy()
    f[list(swap)] = f[list(swap[::-1])]
    want = model.witness(model.geometry(cfg.q, cfg.pi), f, (100,), CAPS["witness_matrix"])
    assert distance_witness(cfg.q, cfg.pi, f, (100,)) == want
    if columns is None:
        assert want is None
    else:
        assert want[0] == 0 and columns[0] <= want[1] < columns[1]


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
