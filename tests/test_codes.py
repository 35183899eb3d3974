"""Codes: invariants, symmetry action, equivalence search."""

import functools
import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import ohb.codes
from conftest import WHOLE_SPACES, make_config
from ohb import (
    ChainSymmetry,
    Code,
    SpaceConfig,
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
from ohb.errors import CAPS
from ohb.oracle import enumerate_isometries

HAMMING2 = make_config(2, 2, 1, [[1], [1]])
CHAIN2 = make_config(2, 1, 2, [[1, 1]])


def code_of(cfg, *texts):
    return Code(cfg, [parse_vector(cfg, t).rank() for t in texts])


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
        c = Code(cfg, [rng.randrange(cfg.size) for _ in range(12)] + [0])
        vs = c.vectors()
        pairs = Counter(distance(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])
        assert c.distance_distribution == tuple(sorted(pairs.items()))
        assert c._weights().tolist() == [weight(v) for v in vs]
    assert c.distance_distribution[-1][0] > 127


def test_singleton_code():
    inv = code_invariants(code_of(HAMMING2, "1;0"))
    assert inv["size"] == 1
    assert inv["min_distance"] is None
    assert inv["distance_distribution"] == []


def test_empty_code_rejected():
    with pytest.raises(UsageError):
        Code(HAMMING2, [])


@pytest.mark.parametrize("vectors", [[0.5, 1.7], [True, 2], ["1"], [HAMMING2.unrank(1)]],
                         ids=["floats", "a-bool", "a-string", "a-vector"])
def test_a_rank_that_is_no_integer_is_refused(vectors):
    # int() would read [0.5, 1.7, True] as the ranks (0, 1); a code takes
    # ranks only, so a BlockVector is refused too
    with pytest.raises(UsageError, match="code vector rank must be an integer"):
        Code(HAMMING2, vectors)
    assert Code(HAMMING2, [np.int64(1), 2]).ranks == (1, 2)


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
        c = Code(cfg, {rng.randrange(cfg.size) for _ in range(4)})
        T = random_symmetry(cfg, rng.randrange(10**9))
        img = apply_to_code(T, c)
        assert img.distance_distribution == c.distance_distribution
        assert img.size == c.size


def test_apply_matches_the_vector_action_past_int64():
    # q=2, m=8, n=8 has 2^64 points: image ranks are Python ints
    rng = random.Random(37)
    cfg = make_config(2, 8, 8, [[1] * 8] * 8)
    for _ in range(5):
        c = Code(cfg, [rng.randrange(cfg.size) for _ in range(10)])
        T = random_symmetry(cfg, rng.randrange(10**9))
        img = apply_to_code(T, c)
        assert img == Code(cfg, [T.apply(v).rank() for v in c.vectors()])
        assert max(img.ranks) >= 1 << 63 or max(c.ranks) >= 1 << 63


@pytest.mark.parametrize(
    "cfg",
    [
        make_config(2, 3, 2, [[2, 1], [1, 1], [2, 1]]),
        make_config(3, 2, 2, [[1, 2], [1, 2]]),
        make_config(2, 3, 2, [[1, 1]] * 3, e=2),
    ],
    ids=["q2-mixed", "gf3", "gf4"],
)
def test_apply_to_code_is_the_rank_table_action(cfg):
    # each chain's digits go through its chain map's rank table and land at
    # the output chain sigma sends them to: the code's image under the
    # whole-space table, with sigma moving chains of equal widths
    rng = random.Random(38)
    moved = 0
    for _ in range(12):
        T = random_symmetry(cfg, rng.randrange(10**9))
        moved += T.sigma != tuple(range(cfg.m))
        C = Code(cfg, rng.sample(range(cfg.size), 12))
        image = apply_to_code(T, C)
        assert image.ranks == tuple(sorted(as_rank_table(T)[list(C.ranks)].tolist()))
        assert all(type(r) is int for r in image.ranks)
        # the same image comes back on a second call
        assert apply_to_code(T, C) == image
    assert moved


def test_apply_to_code_on_four_chains_of_2_to_the_16_points():
    # 2^64 points: chain rank tables of 2^16 entries each, images summed as
    # Python ints past int64; sigma swaps chains of equal widths
    cfg = make_config(2, 4, 2, [[8, 8], [8, 8], [4, 12], [4, 12]])
    assert cfg.size == 1 << 64
    rng = random.Random(39)
    T = random_symmetry(cfg, 3)
    while T.sigma == tuple(range(cfg.m)):
        T = random_symmetry(cfg, rng.randrange(10**9))
    C = Code(cfg, [rng.randrange(cfg.size) for _ in range(40)] + [cfg.size - 1])
    image = apply_to_code(T, C)
    assert image == Code(cfg, [T.apply(v).rank() for v in C.vectors()])
    assert max(image.ranks) >= 1 << 63


def test_translations_move_weights_but_not_distances():
    c = code_of(CHAIN2, "0,0", "1,0")
    T = make_translation(parse_vector(CHAIN2, "0,1"))
    img = apply_to_code(T, c)
    assert Counter(map(weight, img.vectors())) != Counter(map(weight, c.vectors()))
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
        c1 = Code(cfg, {rng.randrange(cfg.size) for _ in range(3)})
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
            c = Code(cfg, {rng.randrange(cfg.size) for _ in range(rng.randrange(1, 5))})
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
    c1 = Code(cfg, {rng.randrange(cfg.size) for _ in range(8)})
    T = random_symmetry(cfg, rng.randrange(10**9))
    c2 = apply_to_code(T, c1)
    res = equivalent(c1, c2, budget=3)
    assert res.verdict == "inconclusive"
    assert res.reason == "budget exhausted"
    assert res.nodes == 4


def test_budget_stops_at_one_node_past_it():
    # a three-chain query over the oracle_list cap, so no fallback runs:
    # under its unbudgeted node count N a budget stops the search at
    # exactly budget + 1 nodes, and from N on it changes nothing
    cfg = make_config(2, 3, 2, [[1, 1]] * 3)
    assert cfg.size > CAPS["oracle_list"]
    rng = random.Random("sweep/6")
    c1 = Code(cfg, rng.sample(range(cfg.size), 6))
    c2 = apply_to_code(random_symmetry(cfg, rng.getrandbits(63)), c1)
    full = equivalent(c1, c2).to_json()
    assert full["verdict"] == "equivalent"
    for budget in range(full["nodes"] + 3):
        res = equivalent(c1, c2, budget=budget)
        if budget < full["nodes"]:
            assert (res.verdict, res.reason, res.nodes) == ("inconclusive", "budget exhausted", budget + 1)
        else:
            assert res.to_json() == full


def fallback_calls(monkeypatch):
    """Count the brute-force listings equivalent falls back to."""
    calls = []

    def listing(*args, **kwargs):
        calls.append(args)
        return enumerate_isometries(*args, **kwargs)

    monkeypatch.setattr(ohb.codes, "enumerate_isometries", listing)
    return calls


def test_budget_fallback_on_tiny_space(monkeypatch):
    # with the search budget strangled, the brute-force listing settles it;
    # two chains, as one chain is decided by canonical forms with no search
    calls = fallback_calls(monkeypatch)
    c1 = code_of(HAMMING2, "0;0", "1;0")
    c2 = code_of(HAMMING2, "0;1", "1;1")
    res = equivalent(c1, c2, budget=1)
    assert res.verdict == "equivalent"
    assert apply_to_code(res.witness, c1) == c2
    assert len(calls) == 1


# spaces small enough to map a code through every symmetry
BRUTE_SPACES = {
    "q2 (1,1)/(1,1)": make_config(2, 2, 2, [[1, 1], [1, 1]]),
    "GF(3) (1)/(1)": make_config(3, 2, 1, [[1], [1]]),
    "q2 (1,1,1)": make_config(2, 1, 3, [[1, 1, 1]]),
    "q2 (2,1)": make_config(2, 1, 2, [[2, 1]]),
}


def test_equivalent_agrees_with_brute_force(monkeypatch):
    # seeded pairs with equal distance distributions: the verdict is the
    # one found by mapping C1 through the whole group, and so is the
    # verdict of the brute-force fallback the search falls back to when
    # its budget runs out.  The one-chain spaces never fall back: their
    # budget-1 queries take the canonical-form path
    calls = fallback_calls(monkeypatch)
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
                if res.verdict == "equivalent":
                    assert apply_to_code(res.witness, c1) == c2
            verdicts.append((name, expect))
        assert bool(calls) == (cfg.m > 1), name
        calls.clear()
    # both verdicts occur, so neither is asserted vacuously
    assert {v for _, v in verdicts} == {"equivalent", "not_equivalent"}


# one-chain spaces small enough to list every symmetry; on each of them,
# codes with one distance distribution are equivalent
ONE_CHAIN_SPACES = {
    "q2 (1,1,1)": make_config(2, 1, 3, [[1, 1, 1]]),
    "q2 (2,1)": make_config(2, 1, 2, [[2, 1]]),
    "q2 (1,2)": make_config(2, 1, 2, [[1, 2]]),
    "q2 (1,1)": CHAIN2,
    "GF(3) (1,1)": make_config(3, 1, 2, [[1, 1]]),
    "GF(3) (1)": make_config(3, 1, 1, [[1]]),
}
# the smallest one where they need not be: 16 points, a group of 2^15
CHAIN4 = make_config(2, 1, 4, [[1, 1, 1, 1]])


@functools.cache
def group_images(cfg):
    return np.stack([as_rank_table(T) for T in all_symmetries(cfg)])


def orbit(cfg, ranks):
    """Every code the group maps the code with these ranks to."""
    images = np.sort(group_images(cfg)[:, list(ranks)], axis=1)
    return set(map(tuple, np.unique(images, axis=0).tolist()))


@settings(max_examples=300)
@seed(1)
@given(st.sampled_from(sorted(ONE_CHAIN_SPACES)), st.data())
def test_one_chain_equivalence_agrees_with_brute_force(name, data):
    # C2 is C1's image under a symmetry drawn from the whole group, or any
    # code of C1's size: the verdict is equivalent exactly when C2 lies in
    # C1's orbit, with a witness that maps C1 onto C2
    cfg = ONE_CHAIN_SPACES[name]
    words = data.draw(st.integers(1, min(cfg.size, 6)), label="words")
    c1 = Code(cfg, data.draw(st.sets(st.integers(0, cfg.size - 1), min_size=words, max_size=words), label="c1"))
    if data.draw(st.booleans(), label="image"):
        g = data.draw(st.integers(0, len(group_images(cfg)) - 1), label="symmetry")
        c2 = Code(cfg, group_images(cfg)[g, list(c1.ranks)].tolist())
    else:
        c2 = Code(cfg, data.draw(st.sets(st.integers(0, cfg.size - 1), min_size=words, max_size=words), label="c2"))
    res = equivalent(c1, c2)
    assert res.verdict == ("equivalent" if c2.ranks in orbit(cfg, c1.ranks) else "not_equivalent")
    if res.verdict == "equivalent":
        assert apply_to_code(res.witness, c1) == c2


@pytest.mark.parametrize("words", [5, 6])
def test_one_chain_forms_tell_apart_what_distances_do_not(words):
    # per distance distribution of the codes of this size on CHAIN4, its
    # first code against the next code of the class inside its orbit (or
    # itself) and the first outside it; inequivalent pairs of one
    # distribution occur
    classes = {}
    for ranks in combinations(range(CHAIN4.size), words):
        classes.setdefault(Code(CHAIN4, ranks).distance_distribution, []).append(ranks)
    apart = 0
    for same in classes.values():
        c1, inside = same[0], orbit(CHAIN4, same[0])
        for c2 in (next((c for c in same[1:] if c in inside), c1), next((c for c in same if c not in inside), None)):
            if c2 is None:
                continue
            res = equivalent(Code(CHAIN4, c1), Code(CHAIN4, c2))
            if c2 in inside:
                assert res.verdict == "equivalent"
                assert apply_to_code(res.witness, Code(CHAIN4, c1)) == Code(CHAIN4, c2)
            else:
                assert (res.verdict, res.reason) == ("not_equivalent", "chain forms differ")
                apart += 1
    assert apart > 0


def test_seeded_chain12_scrambles_are_equivalent():
    # pairs drawn as the benchmark's search draws its chain-12 queries:
    # 60 words and their image under a seeded random symmetry
    cfg = make_config(2, 1, 12, [[1] * 12])
    for i in range(24):
        rng = random.Random(f"chain-12/{i}")
        c1 = Code(cfg, rng.sample(range(cfg.size), 60))
        c2 = apply_to_code(random_symmetry(cfg, rng.getrandbits(63)), c1)
        res = equivalent(c1, c2)
        assert res.verdict == "equivalent", i
        assert apply_to_code(res.witness, c1) == c2


# (label, q as (p, e), pi, words, copies): the benchmark's scrambled
# queries on several chains, with fewer copies
SEEDED_SCRAMBLES = [
    ("hamming-8", (2, 1), [[1]] * 8, 40, 8),
    ("hamming-10", (2, 1), [[1]] * 10, 60, 6),
    ("m6-n2", (2, 1), [[1, 1]] * 6, 40, 8),
    ("gf4-m3-n2", (2, 2), [[1, 1]] * 3, 40, 8),
]
SEEDED_BUDGET = 20_000
# sha256 of the result documents below (verdict, reason, nodes and
# witness): any change to the order of the search or its node rule moves it
SEEDED_DIGEST = "da7a870439076cdfad9a0344b45f0f03c91f666803a7368e171c3bc7c88fd377"


def test_seeded_scrambles_keep_their_verdicts_nodes_and_witnesses():
    # each pair is drawn as the benchmark's search draws its scrambled
    # queries: seeded words and their image under a seeded random
    # symmetry; the budget stops most of them inside a level
    docs = []
    for label, (p, e), pi, words, copies in SEEDED_SCRAMBLES:
        cfg = make_config(p, len(pi), len(pi[0]), pi, e=e)
        for i in range(copies):
            rng = random.Random(f"{label}/{i}")
            c1 = Code(cfg, rng.sample(range(cfg.size), words))
            c2 = apply_to_code(random_symmetry(cfg, rng.getrandbits(63)), c1)
            res = equivalent(c1, c2, budget=SEEDED_BUDGET)
            if res.verdict == "equivalent":
                assert apply_to_code(res.witness, c1) == c2
            docs.append(res.to_json())
    assert {d["verdict"] for d in docs} == {"equivalent", "inconclusive"}
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == SEEDED_DIGEST


def check_whole_space_equivalent_to_itself(space):
    cfg = SpaceConfig.from_json(space)
    c = Code(cfg, range(cfg.size))
    res = equivalent(c, c)
    assert res.verdict == "equivalent"
    assert apply_to_code(res.witness, c) == c


def test_one_chain_code_of_1024_words():
    # the canonical forms do not recurse per word
    check_whole_space_equivalent_to_itself(WHOLE_SPACES["one chain"])


def test_two_chain_code_of_1024_words():
    # the word match walks an explicit stack, one level per word
    check_whole_space_equivalent_to_itself(WHOLE_SPACES["two chains"])


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


@pytest.mark.parametrize("chain_pi, src, dst", [((1,), [0, 1], [1]), ((1, 1), [[0], [1]], [[1], [0]])],
                         ids=["unequal-lengths", "two-dimensional"])
def test_chain_from_pairs_needs_two_flat_sequences_of_equal_length(chain_pi, src, dst):
    # a malformed call, not a pair set that fails to be a map
    with pytest.raises(UsageError, match="flat sequences of equal length"):
        chain_from_pairs(2, chain_pi, src, dst)


@pytest.mark.parametrize("cfg", [CHAIN2, make_config(3, 1, 2, [[1, 1]]), make_config(2, 1, 2, [[2, 1]]), HAMMING2,
                                 make_config(2, 2, 2, [[1, 2], [2, 1]]), make_config(3, 2, 1, [[1], [2]])],
                         ids=["chain", "gf3-chain", "mixed-chain", "hamming", "mixed-widths", "gf3-mixed-widths"])
def test_witness_chain_maps_are_ones_the_checking_constructor_accepts(cfg):
    # chain_from_pairs skips the constructor's checks, as its clash and
    # collapse checks leave permutation rows: each witness map must pass them
    rng = random.Random(41)
    for _ in range(12):
        c = Code(cfg, {rng.randrange(cfg.size) for _ in range(rng.randrange(1, 6))})
        img = apply_to_code(random_symmetry(cfg, rng.randrange(10**9)), c)
        res = equivalent(c, img)
        assert res.verdict == "equivalent" and apply_to_code(res.witness, c) == img
        for ch in res.witness.chains:
            assert ch == ChainSymmetry(cfg.q, ch.chain_pi, ch.to_json()["tables"])


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
    for bad in (5, "01", {"a": 1}):
        with pytest.raises(UsageError, match="vectors must be a list"):
            parse_code_json({**doc, "vectors": bad})


def test_code_json_round_trip():
    c = code_of(HAMMING2, "0;0", "1;0")
    doc = c.to_json()
    assert parse_code_json(doc) == c
