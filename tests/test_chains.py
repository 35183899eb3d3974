"""Triangular chain symmetries: algebra, decomposition, counting."""

import random

import numpy as np
import pytest

from ohb import (
    ChainSymmetry,
    NotIsometryError,
    UsageError,
    ValidationError,
    all_chain_symmetries,
    alt_chain_order_unit,
    chain_order,
    compose_chain,
    decompose_chain,
    identity_chain,
    invert_chain,
    random_chain,
)
from ohb.chains import chain_space_size, level_places
from ohb.space import rank_distance


def row_of(q, chain_pi, r):
    """The row of rank r: its block ranks, level 1 first."""
    place = level_places(q, chain_pi)
    return tuple(r % place[j + 1] // place[j] for j in range(len(chain_pi)))


def rank_of(q, chain_pi, row):
    return sum(x * p for x, p in zip(row, level_places(q, chain_pi)))


def enumerate_rows(q, chain_pi):
    return [row_of(q, chain_pi, r) for r in range(chain_space_size(q, chain_pi))]


def chain_distances(q, chain_pi, ranks):
    """Distances between every two of the given row ranks."""
    ranks = np.asarray(ranks)
    return rank_distance(q, [chain_pi], ranks[:, None], ranks)


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


def test_tables_validation():
    with pytest.raises(ValidationError):
        ChainSymmetry(2, (1, 1), [[(0, 0), (1, 0)], [(1, 0)]])
    with pytest.raises(UsageError):
        ChainSymmetry(2, (1, 1), [[(0, 1)], [(1, 0)]])  # one table per tail
    with pytest.raises(UsageError):
        ChainSymmetry(2, (1, 1), [[(0, 1), (1, 0)]])  # one row per level


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
            every = range(len(rows))
            assert (chain_distances(q, chain_pi, image_ranks) == chain_distances(q, chain_pi, every)).all()


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



def test_rank_table_matches_apply():
    rng = random.Random(9)
    for q, chain_pi in [(2, (1, 1, 1)), (3, (1, 2)), (2, (2, 1, 3))]:
        T = random_chain(q, chain_pi, rng.randrange(10**6))
        rows = enumerate_rows(q, chain_pi)
        assert T.rank_table().tolist() == [rank_of(q, chain_pi, T.apply(r)) for r in rows]
        ranks = np.arange(len(rows))[::-1] // 2
        assert T.apply_ranks(ranks).tolist() == T.rank_table()[ranks].tolist()


def test_narrow_levels_keep_exact_arithmetic():
    # one byte per entry up to 256 block values, two beyond; the rank
    # table, compose and invert still reach places far above 255
    T = random_chain(2, (1, 9, 1), 5)
    assert [level.dtype.itemsize for level in T.tables] == [1, 2, 1]
    rows = enumerate_rows(2, (1, 9, 1))
    assert T.rank_table().tolist() == [rank_of(2, (1, 9, 1), T.apply(r)) for r in rows]
    U = compose_chain(T, invert_chain(T))
    assert U == identity_chain(2, (1, 9, 1))
    assert U.rank_table().tolist() == list(range(2 ** 11))
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
    D = chain_distances(q, chain_pi, range(S))
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
    D = chain_distances(q, chain_pi, range(len(rows)))
    assert D[a, b] != D[table[a], table[b]]


def test_decompose_rejects_non_bijection():
    with pytest.raises(NotIsometryError):
        decompose_chain(2, (1, 1), [0, 0, 2, 3])


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
