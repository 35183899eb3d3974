"""Codes: invariants, symmetry action, equivalence search."""

import random
from collections import Counter

import numpy as np
import pytest

from conftest import make_config, random_vector
from ohb import (
    Code,
    all_symmetries,
    as_rank_table,
    distance,
    weight,
    StructureError,
    UsageError,
    apply_to_code,
    chain_from_pairs,
    code_invariants,
    equivalent,
    identity_symmetry,
    invert_symmetry,
    make_translation,
    parse_code_json,
    parse_code_text,
    parse_vector,
    random_symmetry,
)

HAMMING2 = make_config(2, 2, 1, [[1], [1]])
CHAIN2 = make_config(2, 1, 2, [[1, 1]])


def code_of(cfg, *texts):
    return Code(cfg, [parse_vector(cfg, t) for t in texts])


def test_invariants_hamming():
    inv = code_invariants(code_of(HAMMING2, "0;0", "1;1"))
    assert inv["size"] == 2
    assert inv["min_distance"] == 2
    assert inv["distance_distribution"] == [[2, 1]]


def test_invariants_chain_top_coordinate():
    inv = code_invariants(code_of(CHAIN2, "0,0", "0,1"))
    assert inv["min_distance"] == 2


def test_invariants_match_the_pairwise_loop():
    # q=2 m=8 n=8 has 2^64 points; on q=2 m=20 n=7 distances reach 140,
    # past int8
    rng = random.Random(36)
    for cfg in [
        make_config(2, 2, 2, [[2, 1], [1, 1]]),
        make_config(3, 2, 2, [[1, 2], [1, 2]]),
        make_config(2, 3, 2, [[1, 1]] * 3, e=2),
        make_config(2, 8, 8, [[1] * 8] * 8),
        make_config(2, 20, 7, [[1] * 7] * 20),
    ]:
        vs = [random_vector(cfg, rng) for _ in range(12)] + [cfg.zero()]
        c = Code(cfg, vs)
        vs = c.vectors()
        pairs = Counter(distance(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])
        assert c.distance_distribution == tuple(sorted(pairs.items()))
        assert c.weight_distribution == tuple(sorted(Counter(map(weight, vs)).items()))
    assert c.distance_distribution[-1][0] > 127


def test_singleton_code():
    inv = code_invariants(code_of(HAMMING2, "1;0"))
    assert inv["size"] == 1
    assert inv["min_distance"] is None
    assert inv["distance_distribution"] == []


def test_empty_code_rejected():
    with pytest.raises(UsageError):
        Code(HAMMING2, [])


def test_duplicate_vectors_collapse():
    c = code_of(HAMMING2, "0;0", "0;0", "1;1")
    assert c.size == 2


def test_apply_identity():
    c = code_of(HAMMING2, "0;0", "1;0")
    assert apply_to_code(identity_symmetry(HAMMING2), c) == c


def test_apply_row_swap():
    from ohb import Symmetry, identity_chain

    chains = [identity_chain(2, (1,)) for _ in range(2)]
    T = Symmetry(HAMMING2, (1, 0), chains)
    c = code_of(HAMMING2, "1;0")
    assert apply_to_code(T, c) == code_of(HAMMING2, "0;1")


def test_apply_preserves_distribution():
    rng = random.Random(31)
    cfg = make_config(2, 2, 2, [[1, 1], [1, 1]])
    for _ in range(20):
        vecs = {random_vector(cfg, rng) for _ in range(4)}
        c = Code(cfg, list(vecs))
        T = random_symmetry(cfg, rng.randrange(10**9))
        img = apply_to_code(T, c)
        assert img.distance_distribution == c.distance_distribution
        assert img.size == c.size


def test_translations_move_weights_but_not_distances():
    c = code_of(CHAIN2, "0,0", "1,0")
    T = make_translation(parse_vector(CHAIN2, "0,1"))
    img = apply_to_code(T, c)
    assert img.weight_distribution != c.weight_distribution
    assert img.distance_distribution == c.distance_distribution
    res = equivalent(c, img)
    assert res.verdict == "equivalent"


def test_equivalent_coordinate_swap():
    c1 = code_of(HAMMING2, "0;0", "0;1")
    c2 = code_of(HAMMING2, "0;0", "1;0")
    res = equivalent(c1, c2)
    assert res.verdict == "equivalent"
    assert apply_to_code(res.witness, c1) == c2


def test_not_equivalent_on_invariant_mismatch():
    c1 = code_of(HAMMING2, "0;0", "1;1")
    c2 = code_of(HAMMING2, "0;0", "0;1")
    res = equivalent(c1, c2)
    assert res.verdict == "not_equivalent"
    assert res.nodes == 0
    assert not res


def test_size_mismatch_short_circuits():
    c1 = code_of(HAMMING2, "0;0", "1;1", "0;1")
    c2 = code_of(HAMMING2, "0;0", "1;1")
    res = equivalent(c1, c2)
    assert res.verdict == "not_equivalent"
    assert res.nodes == 0


def test_config_mismatch_rejected():
    with pytest.raises(UsageError):
        equivalent(code_of(HAMMING2, "0;0"), code_of(CHAIN2, "0,0"))


def test_reflexive_with_identity_class_witness():
    c = code_of(HAMMING2, "0;0", "1;0")
    res = equivalent(c, c)
    assert res.verdict == "equivalent"
    assert apply_to_code(res.witness, c) == c


def test_witness_inverts_for_the_reversed_query():
    rng = random.Random(32)
    cfg = make_config(2, 2, 2, [[1, 1], [1, 1]])
    for _ in range(10):
        vecs = {random_vector(cfg, rng) for _ in range(3)}
        c1 = Code(cfg, list(vecs))
        T = random_symmetry(cfg, rng.randrange(10**9))
        c2 = apply_to_code(T, c1)
        res = equivalent(c1, c2)
        assert res.verdict == "equivalent"
        back = invert_symmetry(res.witness)
        assert apply_to_code(back, c2) == c1


def test_round_trip_search():
    rng = random.Random(33)
    for cfg in [CHAIN2, HAMMING2, make_config(3, 1, 2, [[1, 1]])]:
        for _ in range(10):
            vecs = {random_vector(cfg, rng) for _ in range(rng.randrange(1, 5))}
            c = Code(cfg, list(vecs))
            T = random_symmetry(cfg, rng.randrange(10**9))
            img = apply_to_code(T, c)
            res = equivalent(c, img)
            assert res.verdict == "equivalent"
            assert apply_to_code(res.witness, c) == img


def test_translates_with_same_distribution_are_equivalent():
    # two distance-2 pairs joined differently across the two chains look
    # unrelated, but they are translates of each other
    cfg = make_config(2, 2, 1, [[1], [1]])
    c1 = code_of(cfg, "0;0", "1;1")
    c2 = code_of(cfg, "1;0", "0;1")
    res = equivalent(c1, c2)
    assert res.verdict == "equivalent"
    assert apply_to_code(res.witness, c1) == c2


def test_budget_inconclusive():
    rng = random.Random(34)
    cfg = make_config(2, 2, 2, [[2, 1], [2, 1]])  # 4096 points, search must not finish
    vecs = {random_vector(cfg, rng) for _ in range(8)}
    c1 = Code(cfg, list(vecs))
    T = random_symmetry(cfg, rng.randrange(10**9))
    c2 = apply_to_code(T, c1)
    res = equivalent(c1, c2, budget=3)
    assert res.verdict == "inconclusive"
    assert res.reason == "budget exhausted"


def test_budget_fallback_on_tiny_space():
    # with the search budget strangled, the brute-force listing settles it
    c1 = code_of(CHAIN2, "0,0", "1,0")
    c2 = code_of(CHAIN2, "0,1", "1,1")
    res = equivalent(c1, c2, budget=1)
    assert res.verdict == "equivalent"
    assert apply_to_code(res.witness, c1) == c2


# spaces small enough to map a code through every symmetry
BRUTE_SPACES = {
    "q2 (1,1)/(1,1)": make_config(2, 2, 2, [[1, 1], [1, 1]]),
    "GF(3) (1)/(1)": make_config(3, 2, 1, [[1], [1]]),
    "q2 (1,1,1)": make_config(2, 1, 3, [[1, 1, 1]]),
    "q2 (2,1)": make_config(2, 1, 2, [[2, 1]]),
}


def test_equivalent_agrees_with_brute_force():
    # seeded pairs with equal distance distributions: the verdict is the
    # one found by mapping C1 through the whole group, and so is the
    # verdict of the brute-force fallback the search falls back to when
    # its budget runs out
    rng = random.Random(35)
    verdicts = []
    for name, cfg in BRUTE_SPACES.items():
        images = np.stack([as_rank_table(T) for T in all_symmetries(cfg)])
        pairs = 0
        while pairs < 40:
            words = rng.randrange(2, 6)
            c1 = Code(cfg, rng.sample(range(cfg.size), words))
            c2 = Code(cfg, rng.sample(range(cfg.size), words))
            if c1.distance_distribution != c2.distance_distribution:
                continue
            pairs += 1
            orbit = {tuple(sorted(row)) for row in images[:, list(c1.ranks)].tolist()}
            expect = "equivalent" if c2.ranks in orbit else "not_equivalent"
            budgets = (None, 1) if pairs % 4 == 0 else (None,)
            for budget in budgets:
                res = equivalent(c1, c2) if budget is None else equivalent(c1, c2, budget=budget)
                assert res.verdict == expect, (name, c1.ranks, c2.ranks, budget)
                if res:
                    assert apply_to_code(res.witness, c1) == c2
            verdicts.append((name, expect))
    # both verdicts occur, so neither is asserted vacuously
    assert {v for _, v in verdicts} == {"equivalent", "not_equivalent"}


def test_chain_from_pairs_fill_rule():
    # constrained entries come from the pairs, free entries are filled in
    # ascending order, and untouched tails stay identity; rows are row
    # ranks, level 1 least significant: (b1, b2) has rank b1 + q * b2
    T = chain_from_pairs(3, (1, 1), [0, 7], [5, 1])  # (0,0)->(2,1), (1,2)->(1,0)
    assert T.to_json()["tables"] == [[[2, 0, 1], [0, 1, 2], [0, 1, 2]], [[1, 2, 0]]]
    with pytest.raises(StructureError, match="two images"):
        chain_from_pairs(2, (1, 1), [2, 2], [0, 1])  # (0,1)->(0,0), (0,1)->(1,0)
    with pytest.raises(StructureError, match="collapse"):
        chain_from_pairs(2, (1, 1), [2, 3], [3, 1])  # (0,1)->(1,1), (1,1)->(1,0)


def test_parse_code_text():
    text = "# header\n0;0\n\n1;1  # trailing\n"
    c = parse_code_text(HAMMING2, text)
    assert c == code_of(HAMMING2, "0;0", "1;1")
    with pytest.raises(UsageError) as exc:
        parse_code_text(HAMMING2, "0;0\nbogus\n")
    assert "line 2" in str(exc.value)


def test_parse_code_json():
    doc = {"config": HAMMING2.to_json(), "vectors": ["0;0", "1;1"]}
    c = parse_code_json(doc)
    assert c == code_of(HAMMING2, "0;0", "1;1")
    with pytest.raises(UsageError):
        parse_code_json(doc, CHAIN2)  # config clash


def test_code_json_round_trip():
    c = code_of(HAMMING2, "0;0", "1;0")
    doc = c.to_json()
    assert parse_code_json(doc) == c
