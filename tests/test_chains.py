"""Triangular chain symmetries: algebra, decomposition, counting."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import model
from conftest import chain_arrays, make_config, model_outcome, narrow_type, outcome
from ohb import (
    ChainSymmetry,
    NotIsometryError,
    Symmetry,
    UsageError,
    ValidationError,
    all_chain_symmetries,
    alt_chain_order_unit,
    as_rank_table,
    chain_from_pairs,
    chain_order,
    compose_chain,
    decompose_chain,
    decompose_full,
    identity_chain,
    invert_chain,
    make_translation,
    random_chain,
    random_symmetry,
)
from ohb.chains import chain_space_size, level_places


def row_of(q, chain_pi, r):
    """The row of rank r: its block ranks, level 1 first."""
    place = level_places(q, chain_pi)
    return tuple(r % place[j + 1] // place[j] for j in range(len(chain_pi)))


def rank_of(q, chain_pi, row):
    return sum(x * p for x, p in zip(row, level_places(q, chain_pi)))


def reference_images(T, ranks):
    """The images of row ranks under the chain map T, read off its levels
    by the independent reference action on T.to_json()."""
    return model.geometry(T.q, [T.chain_pi]).apply({"sigma": [1], "chains": [T.to_json()]}, ranks)


def enumerate_rows(q, chain_pi):
    return [row_of(q, chain_pi, r) for r in range(chain_space_size(q, chain_pi))]


def test_worked_example():
    # level 1 swaps exactly when the level-2 entry is 1; level 2 always swaps
    T = ChainSymmetry(2, (1, 1), [[(0, 1), (1, 0)], [(1, 0)]])
    assert T.apply((0, 0)) == (0, 1)
    assert T.apply((1, 0)) == (1, 1)
    assert T.apply((0, 1)) == (1, 0)
    assert T.apply((1, 1)) == (0, 0)


def test_sections_read_the_input_tail():
    # changing only the bottom level never changes which level-1 table fires
    rng = random.Random(3)
    for _ in range(50):
        T = random_chain(2, (1, 1), rng.randrange(10**6))
        for v1 in (0, 1):
            for v2 in (0, 1):
                out = T.apply((v1, v2))
                out2 = T.apply((1 - v1, v2))
                assert out[1] == out2[1]
                assert out[0] != out2[0]


@pytest.mark.parametrize("tables, error, match", [
    ([[[0, 1], [0]], [[0, 1]]], ValidationError, "not permutations"),  # ragged integers
    ([[[0, 1, 0], [1, 0, 1]], [[0, 1]]], ValidationError, "not permutations"),  # rows too long
    ([[5, 6], [[0, 1]]], UsageError, "need a sequence"),  # rows that are no sequences
    ([[[0, [1]], [1, 0]], [[0, 1]]], UsageError, "must be an integer"),  # a list as an entry
    ([[[0.5, 1, 2], [1, 0]], [[0, 1]]], UsageError, "must be an integer"),  # a float in a ragged level
    ([[[[0], [1]], [[1], [0]]], [[0, 1]]], UsageError, "must be an integer"),  # one level too deep
], ids=["ragged", "too-long", "scalar-rows", "list-entry", "float-ragged", "too-deep"])
def test_entries_are_read_before_shapes(tables, error, match):
    # a level is refused as a JSON document read entry by entry was: a
    # level of integer rows of the wrong shape is no permutation, anything
    # else in it is a usage error
    with pytest.raises(error, match=match):
        ChainSymmetry(2, (1, 1), tables)
    with pytest.raises(error, match=match):
        ChainSymmetry.from_json({"pi": [1, 1], "tables": tables}, 2)


def test_tables_validation():
    with pytest.raises(ValidationError):
        ChainSymmetry(2, (1, 1), [[(0, 0), (1, 0)], [(1, 0)]])
    with pytest.raises(UsageError):
        ChainSymmetry(2, (1, 1), [[(0, 1)], [(1, 0)]])  # one table per tail
    with pytest.raises(UsageError):
        ChainSymmetry(2, (1, 1), [[(0, 1), (1, 0)]])  # one row per level


@pytest.mark.parametrize("chain_pi, tables", [
    ((1,), [[[0.5, 1.7]]]),  # once truncated to the identity
    ((1.9,), [[[True, False]]]),  # once read as a swap
    ((1,), [[[1, False]]]),
    ((1,), [[["1", "0"]]]),
    ((1,), [[[None, 0]]]),
    ((1,), [np.array([[1.0, 0.0]])]),
    ((None,), [[[1, 0]]]),
], ids=["floats", "float-width", "a-bool", "strings", "none", "float-array", "none-width"])
def test_an_entry_or_width_that_is_no_integer_is_refused(chain_pi, tables):
    with pytest.raises(UsageError, match="must be (an )?integer"):
        ChainSymmetry(2, chain_pi, tables)


class NotIterable(np.ndarray):
    def __iter__(self):
        raise AssertionError("an integer array was read entry by entry")


def test_integer_arrays_pass_whole():
    tables = [np.array([[1, 0], [0, 1]], dtype=np.uint8).view(NotIterable), np.array([[1, 0]]).view(NotIterable)]
    T = ChainSymmetry(2, (np.int64(1), 1), tables)
    assert T.chain_pi == (1, 1) and all(type(k) is int for k in T.chain_pi)
    assert T.rank_table().tolist() == [3, 2, 0, 1]


def test_a_numpy_integer_field_size_is_read_as_a_python_int():
    # q ** k stays exact: with a uint8 q the places of nine levels would
    # wrap at 256
    for q in (np.int64(2), np.uint8(2), np.int32(3)):
        T = random_chain(q, (1, 2), 7)
        assert type(T.q) is int and T == random_chain(int(q), (1, 2), 7)
        assert type(identity_chain(q, (1,)).q) is int
        assert type(ChainSymmetry(q, (1,), [[list(range(int(q)))]]).q) is int
    assert chain_order(np.uint8(2), (1,) * 9) == chain_order(2, (1,) * 9)
    for q in (2.0, np.float64(2), True, "2", None, np.int64(1)):
        with pytest.raises(UsageError, match="field size must be an integer >= 2"):
            random_chain(q, (1,), 0)


def test_validation_message_names_level_and_tail():
    with pytest.raises(ValidationError) as exc:
        ChainSymmetry(2, (1, 1), [[(0, 1), (1, 1)], [(1, 0)]])
    assert "level 1" in str(exc.value)
    assert "tail 1" in str(exc.value)


def test_identity_chain():
    for q, chain_pi in [(2, (1, 1)), (3, (1,)), (2, (2, 1))]:
        E = identity_chain(q, chain_pi)
        for row in enumerate_rows(q, chain_pi):
            assert E.apply(row) == row


def test_chain_is_bijective_and_distance_preserving():
    rng = random.Random(4)
    for q, chain_pi in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1))]:
        rows = enumerate_rows(q, chain_pi)
        for _ in range(20):
            T = random_chain(q, chain_pi, rng.randrange(10**6))
            images = [T.apply(row) for row in rows]
            assert sorted(images) == sorted(rows)
            image_ranks = [rank_of(q, chain_pi, row) for row in images]
            every, G = range(len(rows)), model.geometry(q, [chain_pi])
            assert (G.distance(*np.ix_(image_ranks, image_ranks)) == G.distance(*np.ix_(every, every))).all()


def test_compose_apply_contract():
    rng = random.Random(5)
    for _ in range(50):
        seed_a, seed_b = rng.randrange(10**6), rng.randrange(10**6)
        A = random_chain(2, (2, 1), seed_a)
        B = random_chain(2, (2, 1), seed_b)
        C = compose_chain(A, B)
        for row in enumerate_rows(2, (2, 1)):
            assert C.apply(row) == A.apply(B.apply(row))


def test_invert_round_trip():
    rng = random.Random(6)
    rows = enumerate_rows(3, (1, 1))
    for _ in range(50):
        A = random_chain(3, (1, 1), rng.randrange(10**6))
        Ainv = invert_chain(A)
        for row in rows:
            assert Ainv.apply(A.apply(row)) == row
            assert A.apply(Ainv.apply(row)) == row


@st.composite
def chain_shapes(draw, max_points=1 << 12):
    """(q, widths) with widths of 1 to 3 and q^(sum of widths) <= max_points."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 16]))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    while chain_space_size(q, widths) > max_points:
        widths = widths[:-1] or [1]
    return q, tuple(widths)


@settings(max_examples=60)
@seed(1)
@given(chain_shapes(), st.integers(0, 2 ** 32 - 1))
@example((2, (1, 1, 1)), 0)
@example((3, (1, 2)), 1)
@example((2, (2, 1, 3)), 2)
@example((2, (1,) * 13), 3)  # one long chain of rows of two values
@example((2, (1, 9, 1)), 4)  # 2^11 points: a uint16 table
@example((2, (17, 1)), 5)  # 2^18 points: a uint32 table
def test_rank_table_matches_apply(shape, seed):
    # a map holds one read-only array, its rank table in the narrowest
    # unsigned type; rank_table() hands out a fresh int64 copy.  compose and
    # invert are a gather and a scatter of it, and the reference action reads
    # their levels off to_json, so both are checked through it
    q, chain_pi = shape
    T = random_chain(q, chain_pi, seed)
    S = chain_space_size(q, chain_pi)
    check_storage(T)
    rt = T.rank_table()
    assert rt.dtype == np.int64 and rt.flags.writeable and T.rank_table() is not rt
    every = np.arange(S)
    assert np.array_equal(rt, reference_images(T, every))
    sample = range(S) if S <= 1 << 12 else random.Random(seed).sample(range(S), 256)
    assert [int(rt[r]) for r in sample] == [rank_of(q, chain_pi, T.apply(row_of(q, chain_pi, r)))
                                            for r in sample]
    U = random_chain(q, chain_pi, seed + 1)
    TU, inv = compose_chain(T, U), invert_chain(T)
    assert np.array_equal(TU.rank_table(), rt[U.rank_table()])
    assert np.array_equal(reference_images(TU, every), rt[U.rank_table()])
    assert np.array_equal(inv.rank_table()[rt], every)
    assert np.array_equal(reference_images(inv, rt), every)
    for V in (TU, inv, decompose_chain(q, chain_pi, rt)):
        check_storage(V)
    rt[0] = rt[1]  # the copy is the caller's: the map does not change
    assert np.array_equal(T.rank_table(), reference_images(T, every))


def check_storage(T):
    """T holds one array: its read-only rank table, uint8 up to 256 points,
    uint16 up to 65536 and uint32 beyond."""
    S = chain_space_size(T.q, T.chain_pi)
    [table] = chain_arrays(T)
    assert table.shape == (S,) and table.dtype == narrow_type(S) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = table[0]


# each side of each dtype boundary, and single levels of 256 values, whose
# size does not fit the uint8 table
BOUNDARIES = [(2, (8,)), (4, (4,)), (2, (1,) * 8), (3, (5,)), (2, (1, 8)), (3, (1, 5)),
              (2, (4, 4, 8)), (2, (1, 16)), (4, (4, 4))]


def test_narrow_levels_keep_exact_arithmetic():
    # narrow tables still reach every rank exactly: rank_table(), compose,
    # invert, to_json and as_rank_table against the reference, and the
    # public constructor on the JSON tables, as arrays, gives back an equal
    # map, equal hash
    for q, chain_pi in BOUNDARIES:
        S = chain_space_size(q, chain_pi)
        T, U = random_chain(q, chain_pi, S), random_chain(q, chain_pi, S + 1)
        check_storage(T)
        every = np.arange(S)
        rt, ru = T.rank_table(), U.rank_table()
        assert np.array_equal(rt, reference_images(T, every))
        assert np.array_equal(compose_chain(T, U).rank_table(), reference_images(T, ru))
        assert np.array_equal(reference_images(invert_chain(T), rt), every)
        again = ChainSymmetry(q, chain_pi, [np.array(level) for level in T.to_json()["tables"]])
        assert again == T and hash(again) == hash(T)
        assert ChainSymmetry.from_json(T.to_json(), q) == T
        cfg = make_config(3 if q == 3 else 2, 1, len(chain_pi), [chain_pi], e=2 if q == 4 else 1)
        table = as_rank_table(Symmetry(cfg, (0,), [T]))
        assert table.dtype == np.int64 and np.array_equal(table, rt)
    with pytest.raises(ValidationError):
        ChainSymmetry(2, (1,), [[[256, 1]]])


def test_chain_order_values():
    assert chain_order(2, (1,)) == 2
    assert chain_order(2, (2,)) == 24
    assert chain_order(2, (1, 1)) == 8
    assert chain_order(2, (2, 1)) == 1152
    assert chain_order(3, (1, 1)) == 1296


def test_enumeration_matches_chain_order():
    for q, chain_pi in [(2, (1,)), (2, (1, 1)), (2, (2,))]:
        syms = list(all_chain_symmetries(q, chain_pi))
        assert len(syms) == chain_order(q, chain_pi)
        # all distinct as maps
        rows = enumerate_rows(q, chain_pi)
        tables = {tuple(T.apply(row) for row in rows) for T in syms}
        assert len(tables) == len(syms)


# every chain of at most 16 points over q in {2, 3, 4} whose group has at
# most 5000 elements
SMALL_CHAINS = [(q, pi) for q in (2, 3, 4) for n in range(1, 5) for pi in product(range(1, 5), repeat=n)
                if q ** sum(pi) <= 16 and chain_order(q, pi) <= 5000]


@pytest.mark.parametrize("q, chain_pi", SMALL_CHAINS, ids=str)
def test_enumerated_maps_are_ones_the_checking_constructor_accepts(q, chain_pi):
    # all_chain_symmetries skips the constructor's checks, as its rows come
    # from permutations(): each map must pass them unchanged
    syms = list(all_chain_symmetries(q, chain_pi))
    for T in syms:
        assert T == ChainSymmetry(q, chain_pi, T.to_json()["tables"])
    assert len(syms) == len(set(syms)) == chain_order(q, chain_pi)


def test_alt_closed_form_disagrees_on_the_unit_chain():
    # the alternative closed form overcounts already at q=2, n=2
    assert alt_chain_order_unit(2, 2) == 16
    assert chain_order(2, (1, 1)) == 8
    assert alt_chain_order_unit(2, 1) == 4
    assert chain_order(2, (1,)) == 2


def test_decompose_round_trip():
    rng = random.Random(7)
    for q, chain_pi in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1))]:
        rows = enumerate_rows(q, chain_pi)
        for _ in range(20):
            T = random_chain(q, chain_pi, rng.randrange(10**6))
            dense = [rank_of(q, chain_pi, T.apply(row)) for row in rows]
            R = decompose_chain(q, chain_pi, dense)
            for row in rows:
                assert R.apply(row) == T.apply(row)


def test_decompose_completeness_small():
    # every chain-distance-preserving bijection has a triangular form
    q, chain_pi = 2, (1, 1)
    rows = enumerate_rows(q, chain_pi)
    S = len(rows)
    D = model.geometry(q, [chain_pi]).distance(*np.ix_(range(S), range(S)))
    found = 0
    import itertools

    for perm in itertools.permutations(range(S)):
        if not (D[np.ix_(perm, perm)] == D).all():
            continue
        T = decompose_chain(q, chain_pi, list(perm))
        for a in range(S):
            assert T.apply(rows[a]) == rows[perm[a]]
        found += 1
    assert found == chain_order(q, chain_pi)


def test_bottom_level_swap_is_triangular():
    # exchanging (0,0) and (1,0) alone preserves chain distance:
    # it is the section F_1(v1, 0) = v1 + 1, F_1(v1, 1) = v1
    q, chain_pi = 2, (1, 1)
    rows = enumerate_rows(q, chain_pi)
    table = list(range(4))
    i, j = rows.index((0, 0)), rows.index((1, 0))
    table[i], table[j] = table[j], table[i]
    T = decompose_chain(q, chain_pi, table)
    assert T.apply((0, 0)) == (1, 0)
    assert T.apply((0, 1)) == (0, 1)


def test_top_level_swap_is_rejected_with_witness():
    # exchanging (0,0) and (0,1) alone moves a distance-2 pair to distance 1
    q, chain_pi = 2, (1, 1)
    rows = enumerate_rows(q, chain_pi)
    table = list(range(4))
    i, j = rows.index((0, 0)), rows.index((0, 1))
    table[i], table[j] = table[j], table[i]
    with pytest.raises(NotIsometryError) as exc:
        decompose_chain(q, chain_pi, table)
    a, b = exc.value.witness
    D = model.geometry(q, [chain_pi]).distance(*np.ix_(range(len(rows)), range(len(rows))))
    assert D[a, b] != D[table[a], table[b]]


def test_decompose_rejects_non_bijection():
    with pytest.raises(NotIsometryError):
        decompose_chain(2, (1, 1), [0, 0, 2, 3])


def corrupted(q, chain_pi, f, how, rng):
    """A copy of the chain table f, still a bijection, broken one way:
    'repeat' gives one or two pairs of entries of one extracted row equal
    digits, 'reads_lower' makes a level shift by whether a lower level is
    zero, 'swap' exchanges the images of two points."""
    place = level_places(q, chain_pi)
    sizes = [b // a for a, b in zip(place, place[1:])]
    digit = lambda r, j: r // place[j] % sizes[j]  # noqa: E731
    f = f.copy()
    if how == "repeat":
        j, i = rng.sample(range(len(chain_pi)), 2)
        columns = rng.sample(range(sizes[j]), 4 if sizes[j] >= 4 and rng.random() < 0.5 else 2)
        base = rng.randrange(place[-1] // place[j + 1]) * place[j + 1]
        for x, y in zip(columns[::2], columns[1::2]):
            a, b = base + x * place[j], base + y * place[j]
            # f[a] with its level-i digit moved on, so its level-j digit stays
            image = int(f[a]) + ((digit(f[a], i) + 1) % sizes[i] - digit(f[a], i)) * place[i]
            c = int(np.flatnonzero(f == image)[0])
            f[b], f[c] = f[c], f[b]
    elif how == "reads_lower":
        i, j = sorted(rng.sample(range(len(chain_pi)), 2))
        r = np.arange(place[-1])
        moved = (digit(r, j) + (digit(r, i) != 0)) % sizes[j]
        f = f[r + (moved - digit(r, j)) * place[j]]
    else:
        a, b = rng.sample(range(place[-1]), 2)
        f[a], f[b] = f[b], f[a]
    return f


CORRUPTIONS = ["repeat", "reads_lower", "swap"]


@settings(max_examples=120)
@seed(1)
@given(st.sampled_from([2, 3, 4]), st.lists(st.integers(1, 2), min_size=2, max_size=4),
       st.sampled_from(CORRUPTIONS), st.integers(0, 2 ** 32 - 1))
@example(2, [1] * 8, "repeat", 1)
@example(3, [1, 2, 1], "reads_lower", 2)
@example(4, [1, 1, 2], "swap", 3)
def test_decompose_chain_refuses_as_the_argsort_check_did(q, widths, how, seed):
    while len(widths) > 2 and chain_space_size(q, widths) > 1 << 8:
        widths = widths[:-1]
    chain_pi = tuple(widths)
    rng = random.Random(seed)
    f = corrupted(q, chain_pi, random_chain(q, chain_pi, rng).rank_table(), how, rng)
    assert outcome(decompose_chain, q, chain_pi, f) == model_outcome(model.decompose_chain, q, chain_pi, f)


@settings(max_examples=60)
@seed(1)
@given(st.sampled_from([2, 3, 4]), st.lists(st.integers(1, 2), min_size=2, max_size=3),
       st.booleans(), st.sampled_from(CORRUPTIONS), st.integers(0, 2 ** 32 - 1))
@example(2, [1, 1, 1], True, "repeat", 1)
@example(3, [1, 2], False, "reads_lower", 2)
@example(4, [1, 1], True, "swap", 3)
def test_decompose_full_refuses_as_the_argsort_check_did(q, widths, twins, how, seed):
    # one chain's map is corrupted inside a random symmetry of a two-chain
    # space; decompose_full must refuse it as the model's chain step does
    other = widths if twins else [1] * len(widths)
    while len(widths) > 2 and chain_space_size(q, widths + other) > 1 << 8:
        widths, other = widths[:-1], other[:-1]
    if chain_space_size(q, widths + other) > 1 << 8:
        widths = other = [1, 1]
    p, e = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    cfg = make_config(p, 2, len(widths), [widths, other], e=e)
    rng = random.Random(seed)
    k = rng.randrange(2)
    chain_pi = cfg.pi[k]
    g = corrupted(q, chain_pi, random_chain(q, chain_pi, rng).rank_table(), how, rng)
    r = np.arange(cfg.size)
    d = r // cfg.chain_place[k] % cfg.chain_size[k]
    f = as_rank_table(random_symmetry(cfg, rng))[r + (g[d] - d) * cfg.chain_place[k]]
    assert outcome(decompose_full, cfg, f) == model_outcome(model.decompose_full, model.geometry(cfg.q, cfg.pi), f)


DIFFERENTIAL_SPACES = {
    "chain13": make_config(2, 1, 13, [[1] * 13]),  # more points than CAPS["witness_matrix"]
    "gf3-chain5": make_config(3, 1, 5, [[1] * 5]),
    "mixed-chain": make_config(2, 1, 5, [[2, 1, 3, 1, 2]]),
    "gf4-m2": make_config(2, 2, 2, [[1, 1]] * 2, e=2),
    "pairs-m3": make_config(2, 3, 2, [[1, 2]] * 3),
}


def moved(cfg, f, how, rng):
    """A copy of the space table f with the images of some points moved
    round: 'swap' exchanges two random points, 'top' two points of one
    chain's axis that differ only in its top level, 'cycle' turns five
    points round."""
    if how == "swap":
        points = rng.sample(range(cfg.size), 2)
    elif how == "top":
        k = rng.randrange(cfg.m)
        sz = cfg.q ** cfg.pi[k][-1]
        place = cfg.chain_place[k] * cfg.chain_size[k] // sz
        a = rng.randrange(cfg.chain_size[k]) * cfg.chain_place[k]
        d = a // place % sz
        points = [a, a + ((d + rng.randrange(1, sz)) % sz - d) * place]
    else:
        points = rng.sample(range(cfg.size), 5)
    f = f.copy()
    f[points] = f[points[1:] + points[:1]]
    return f


@pytest.mark.parametrize("how", ["swap", "top", "cycle"])
@pytest.mark.parametrize("space", sorted(DIFFERENTIAL_SPACES))
def test_decompose_refuses_as_the_level_checks_first_did(space, how):
    # decompose_chain compares the rebuilt table first and checks the levels
    # only when it disagrees; decompose_chain, and decompose_full through
    # it, must refuse as the model, which checks the levels first, under
    # every witness regime
    cfg = DIFFERENTIAL_SPACES[space]
    for seed in range(44):
        rng = random.Random(f"{space}/{how}/{seed}")
        f = moved(cfg, as_rank_table(random_symmetry(cfg, rng)), how, rng)
        if cfg.m == 1:
            args = (cfg.q, cfg.pi[0], f)
            assert outcome(decompose_chain, *args) == model_outcome(model.decompose_chain, *args)
        assert outcome(decompose_full, cfg, f) == model_outcome(model.decompose_full, model.geometry(cfg.q, cfg.pi), f)


def test_random_chain_is_deterministic():
    a = random_chain(2, (2, 1), 123)
    b = random_chain(2, (2, 1), 123)
    c = random_chain(2, (2, 1), 124)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()


def test_random_chain_golden_seed():
    T = random_chain(2, (1, 1), 0)
    assert T.to_json() == {
        "pi": [1, 1],
        "tables": [[[0, 1], [0, 1]], [[1, 0]]],
    }


def test_json_round_trip():
    rng = random.Random(8)
    for _ in range(10):
        T = random_chain(2, (2, 1), rng.randrange(10**6))
        again = ChainSymmetry.from_json(T.to_json(), 2)
        assert again.to_json() == T.to_json()
        assert again == T
        assert again.chain_pi == T.chain_pi


@settings(max_examples=30)
@seed(1)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2)]), st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.integers(0, 2 ** 32))
@example((2, 1), [1] * 10, 7)  # long enough for random_levels to replay the shuffle stream
def test_the_trusted_builders_pass_the_public_checks(field, chain_pi, seed):
    # random draws, compose, invert, identity, decompose_chain,
    # make_translation, the group listing and chain_from_pairs build their
    # rank tables without the checks of ChainSymmetry(...); every map they
    # build must pass them, as an equal map with an equal hash, and hold
    # its table as the public constructor does
    p, e = field
    q = p ** e
    while chain_space_size(q, chain_pi) > 1 << 12:
        chain_pi = chain_pi[:-1] or [1]
    A, B = random_chain(q, chain_pi, seed), random_chain(q, chain_pi, seed + 1)
    built = [A, B, compose_chain(A, B), invert_chain(A), identity_chain(q, chain_pi),
             decompose_chain(q, chain_pi, compose_chain(A, B).rank_table())]
    cfg = make_config(p, 2, len(chain_pi), [chain_pi] * 2, e=e)
    built += random_symmetry(cfg, seed).chains
    built += make_translation(cfg.unrank(seed % cfg.size)).chains
    if chain_order(q, chain_pi) <= 1 << 12:
        built += list(all_chain_symmetries(q, chain_pi))[seed % 7::97]
    rows = random.Random(seed).sample(range(cfg.chain_size[0]), 2)
    built.append(chain_from_pairs(q, chain_pi, rows, A.rank_table()[rows]))
    for T in built:
        checked = ChainSymmetry(T.q, T.chain_pi, T.to_json()["tables"])
        assert checked == T and hash(checked) == hash(T)
        check_storage(T)
        check_storage(checked)
