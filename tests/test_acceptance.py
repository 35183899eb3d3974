"""Acceptance gate: every shipped claim, one test per criterion.

Criteria 1-6 pin oracle counts against the closed forms (including the
two alternative closed forms that disagree with enumeration and must be
flagged, never silently matched).  Criterion 7 covers the linear case,
8 the seeded property suites, 9 the code-equivalence round trips.  Each
test asserts its stated wall-clock budget.
"""

import random
import time

import numpy as np

from conftest import make_config, random_vector
from ohb import (
    Code,
    Symmetry,
    apply_to_code,
    as_rank_table,
    aut_order_antichain,
    code_invariants,
    compose_symmetry,
    decompose_full,
    distance,
    enumerate_automorphisms,
    equivalent,
    identity_chain,
    invert_symmetry,
    is_linear,
    make_translation,
    random_chain,
    random_symmetry,
    weight,
)
from ohb.chains import chain_space_size, level_places
from ohb.oracle import enumerate_isometries
from ohb.space import dist_ranks, distance_matrix_array, sub_ranks


def timed(limit_s):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < limit_s, f"took {elapsed:.1f}s, budget {limit_s}s"

    return check


def test_1_chain_completeness_unit_pi():
    done = timed(1.0)
    report = enumerate_isometries(make_config(2, 1, 2, [[1, 1]]))
    assert report.isometry_count == 8
    assert report.formula_count == 8
    assert report.matches["formula"] is True
    assert report.alt_counts["unit_chain"] == 16
    assert report.matches["unit_chain"] is False
    assert report.discrepant is True
    done()


def test_2_hamming_case():
    done = timed(1.0)
    report = enumerate_isometries(make_config(2, 2, 1, [[1], [1]]))
    assert report.isometry_count == 8
    assert report.formula_count == 8
    assert report.matches["formula"] is True
    done()


def test_3_block_chain():
    done = timed(60.0)
    report = enumerate_isometries(make_config(2, 1, 2, [[2, 1]]))
    assert report.isometry_count == 1152
    assert report.formula_count == 1152
    assert report.matches["formula"] is True
    done()


def test_4_antichain_blocks():
    done = timed(60.0)
    report = enumerate_isometries(make_config(2, 3, 1, [[1], [1], [1]]))
    assert report.isometry_count == 48
    assert report.formula_count == 48
    assert report.matches["formula"] is True
    done()


def test_5_ordered_hamming():
    done = timed(300.0)
    report = enumerate_isometries(make_config(2, 2, 2, [[1, 1], [1, 1]]))
    assert report.isometry_count == 128
    assert report.formula_count == 128
    assert report.matches["formula"] is True
    assert report.alt_counts["unit_product"] == 512
    assert report.matches["unit_product"] is False
    assert report.discrepant is True
    done()


def test_6_larger_field_chain():
    done = timed(300.0)
    report = enumerate_isometries(make_config(3, 1, 2, [[1, 1]]))
    assert report.isometry_count == 1296
    assert report.formula_count == 1296
    assert report.matches["formula"] is True
    done()


def test_7_automorphisms_antichain():
    done = timed(60.0)
    expected = {
        (2, ((1,), (1,))): 2,
        (2, ((2,), (1,))): 6,
        (2, ((2,), (2,))): 72,
    }
    for (q, rows), count in expected.items():
        cfg = make_config(q, len(rows), 1, [list(r) for r in rows])
        assert aut_order_antichain(cfg) == count
        got, tables = enumerate_automorphisms(cfg, want_list=True)
        assert got == count
        for table in tables:
            assert is_linear(cfg, table)
            for a in range(cfg.size):
                for b in range(a + 1, cfg.size):
                    assert dist_ranks(cfg, table[a], table[b]) == dist_ranks(cfg, a, b)
    done()


PROPERTY_CONFIGS = [
    make_config(2, 1, 2, [[1, 1]]),
    make_config(2, 2, 1, [[1], [1]]),
    make_config(2, 2, 2, [[1, 1], [1, 1]]),
    make_config(2, 1, 2, [[2, 1]]),
    make_config(3, 1, 2, [[1, 1]]),
    make_config(2, 3, 1, [[1], [1], [1]]),
    make_config(2, 2, 2, [[2, 1], [1, 1]]),
    make_config(3, 2, 1, [[1], [2]]),
    make_config(2, 1, 3, [[1, 1, 1]]),
    make_config(2, 3, 2, [[1, 1], [1, 1], [1, 1]]),
    make_config(2, 2, 2, [[2, 1], [2, 1]]),
    make_config(2, 1, 2, [[1, 1]], e=2),
]


def test_8a_isometry_preservation():
    rng = random.Random(801)
    for t in range(1000):
        cfg = PROPERTY_CONFIGS[t % len(PROPERTY_CONFIGS)]
        T = random_symmetry(cfg, rng.randrange(10**9))
        u = random_vector(cfg, rng)
        v = random_vector(cfg, rng)
        assert distance(T.apply(u), T.apply(v)) == distance(u, v)


def test_8b_decompose_round_trips():
    rng = random.Random(802)
    for t in range(1000):
        cfg = PROPERTY_CONFIGS[t % len(PROPERTY_CONFIGS)]
        T = random_symmetry(cfg, rng.randrange(10**9))
        table = as_rank_table(T).tolist()
        R = decompose_full(cfg, table)
        assert as_rank_table(R).tolist() == table
        assert tuple(R.sigma) == tuple(T.sigma)


def test_8c_triangularity_prefix_independence():
    # sections read only the tail: rows agreeing from level j up stay
    # agreeing from level j up
    rng = random.Random(803)
    shapes = [(2, (1, 1)), (2, (2, 1)), (3, (1, 1)), (2, (1, 1, 1))]
    for t in range(1000):
        q, chain_pi = shapes[t % len(shapes)]
        T = random_chain(q, chain_pi, rng.randrange(10**9))
        S = chain_space_size(q, chain_pi)
        u, v = rng.randrange(S), rng.randrange(S)
        # levels j+1.. of v (from place[j] up) over levels ..j of u
        place = level_places(q, chain_pi)[rng.randrange(len(chain_pi))]
        mixed = u % place + v // place * place
        out_v, out_mixed = T.rank_table()[[v, mixed]] // place
        assert out_mixed == out_v


def test_8d_origin_fixing_symmetries_respect_chains():
    rng = random.Random(804)
    for t in range(1000):
        cfg = PROPERTY_CONFIGS[t % len(PROPERTY_CONFIGS)]
        T = random_symmetry(cfg, rng.randrange(10**9))
        zero = cfg.unrank(0)
        shift = make_translation(cfg.unrank(int(sub_ranks(cfg, 0, T.apply(zero).rank())[0])))
        T0 = compose_symmetry(shift, T)
        assert T0.apply(zero) == zero
        i = rng.randrange(cfg.m)
        # a nonzero vector supported on chain i alone
        sub = rng.randrange(1, cfg.chain_size[i])
        img = T0.apply(cfg.unrank(sub * cfg.chain_place[i])).rank()
        chains_hit = [k for k in range(cfg.m) if cfg.chain_subrank(img, k)]
        assert len(chains_hit) == 1
        j = chains_hit[0]
        assert cfg.pi[j] == cfg.pi[i]  # dimension profiles match


def test_8e_chain_subgroup_normal_sigma_subgroup_disjoint():
    rng = random.Random(805)
    for t in range(1000):
        cfg = PROPERTY_CONFIGS[t % len(PROPERTY_CONFIGS)]
        identity = tuple(range(cfg.m))
        g = random_symmetry(cfg, rng.randrange(10**9))
        h = random_symmetry(cfg, rng.randrange(10**9))
        h = Symmetry(cfg, identity, h.chains)
        conj = compose_symmetry(compose_symmetry(g, h), invert_symmetry(g))
        assert tuple(conj.sigma) == identity
        # decomposition is unique, so a map with nontrivial sigma can
        # never equal a chain-only map: check sigma is pinned
        k = random_symmetry(cfg, rng.randrange(10**9))
        k = Symmetry(cfg, k.sigma, [identity_chain(cfg.q, cfg.pi[i]) for i in range(cfg.m)])
        R = decompose_full(cfg, as_rank_table(k).tolist())
        assert tuple(R.sigma) == tuple(k.sigma)


def test_8f_metric_axioms_and_chain_sum_exhaustive():
    exhaustive = [
        make_config(2, 1, 2, [[1, 1]]),
        make_config(2, 2, 2, [[1, 1], [1, 1]]),
        make_config(2, 1, 2, [[2, 1]]),
        make_config(3, 1, 2, [[2, 1]]),
        make_config(2, 2, 2, [[2, 1], [2, 1]]),
        make_config(2, 1, 1, [[8]]),
        make_config(2, 2, 2, [[1, 1], [1, 1]], e=2),
    ]
    for cfg in exhaustive:
        assert cfg.size <= 256
        D = distance_matrix_array(cfg)
        S = cfg.size
        assert (D == D.T).all()
        assert (np.diag(D) == 0).all()
        assert ((D == 0) == np.eye(S, dtype=bool)).all()
        for k in range(S):
            assert (D <= D[:, k][:, None] + D[k, :][None, :]).all()
        # distance decomposes as the sum of per-chain chain distances,
        # each the highest level where the two rows' block ranks differ
        total = np.zeros((S, S), dtype=np.int64)
        for i, row in enumerate(cfg.pi):
            place = level_places(cfg.q, row)
            for a in range(S):
                for b in range(S):
                    ra, rb = cfg.chain_subrank(a, i), cfg.chain_subrank(b, i)
                    total[a, b] += max((j + 1 for j in range(cfg.n) if ra // place[j] != rb // place[j]), default=0)
        assert (total == D).all()


def test_9_code_equivalence_round_trips():
    done = timed(300.0)
    rng = random.Random(900)
    pool = [c for c in PROPERTY_CONFIGS if c.size <= 256]
    trials = 0
    while trials < 100:
        cfg = pool[trials % len(pool)]
        size = rng.randrange(1, 6)
        c1 = Code(cfg, {rng.randrange(cfg.size) for _ in range(size)})
        T = random_symmetry(cfg, rng.randrange(10**9))
        c2 = apply_to_code(T, c1)
        # screening invariants agree by construction, so the search may
        # never reject; it must return a verified witness
        assert code_invariants(c1)["distance_distribution"] == code_invariants(c2)["distance_distribution"]
        res = equivalent(c1, c2)
        assert res.verdict == "equivalent", f"trial {trials} on {cfg}"
        assert apply_to_code(res.witness, c1) == c2
        trials += 1
    # invariant-mismatched pairs are rejected with no search at all
    rejected = 0
    for cfg in pool:
        vs = sorted((cfg.unrank(r) for r in range(cfg.size)), key=lambda v: (weight(v), v.rank()))
        c_short = Code(cfg, [v.rank() for v in vs[:2]])
        c_long = Code(cfg, [v.rank() for v in vs[:3]])
        res = equivalent(c_short, c_long)
        assert res.verdict == "not_equivalent" and res.nodes == 0
        lo, hi = vs[1], vs[-1]
        if distance(vs[0], lo) != distance(vs[0], hi):
            res = equivalent(Code(cfg, [vs[0].rank(), lo.rank()]), Code(cfg, [vs[0].rank(), hi.rank()]))
            assert res.verdict == "not_equivalent" and res.nodes == 0
            rejected += 1
    assert rejected >= 5
    done()
