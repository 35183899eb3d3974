"""Linear symmetries: GL orders, the antichain closed form, enumeration."""

import math
from itertools import product

import numpy as np
import pytest

import model
from conftest import elementwise, make_config
from ohb import (
    AutReport,
    DomainError,
    UsageError,
    alt_chain_order_unit,
    alt_full_order_unit,
    aut_order_antichain,
    aut_report,
    enumerate_automorphisms,
    full_order,
    gl_order,
    is_linear,
    make_translation,
    as_rank_table,
    decompose_full,
)
from ohb.automorphisms import _aut_factors
from ohb.chains import _alt_factors, order_log10
from ohb.oracle import enumerate_isometries
from ohb.symmetry import _full_factors
from ohb.space import add_ranks


def test_gl_order_values():
    assert gl_order(2, 1) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 168
    assert gl_order(3, 1) == 2
    assert gl_order(3, 2) == 48
    assert gl_order(4, 1) == 3


def test_antichain_formula_values():
    assert aut_order_antichain(make_config(2, 2, 1, [[1], [1]])) == 2
    assert aut_order_antichain(make_config(2, 2, 1, [[2], [1]])) == 6
    assert aut_order_antichain(make_config(2, 2, 1, [[2], [2]])) == 72
    # (q-1)^m * m! in the all-unit case
    assert aut_order_antichain(make_config(3, 2, 1, [[1], [1]])) == 8


def test_antichain_formula_requires_single_level():
    with pytest.raises(DomainError):
        aut_order_antichain(make_config(2, 1, 2, [[1, 1]]))


def test_enumeration_matches_formula():
    for cfg in [
        make_config(2, 2, 1, [[1], [1]]),
        make_config(2, 2, 1, [[2], [1]]),
        make_config(2, 2, 1, [[2], [2]]),
        make_config(3, 2, 1, [[1], [1]]),
    ]:
        count, _ = enumerate_automorphisms(cfg)
        assert count == aut_order_antichain(cfg)


# every pi over q in {2, 3, 4} with q^N <= 128, chains in every order
SPACES_128 = [(q, [list(flat[i * n:(i + 1) * n]) for i in range(m)])
              for q in (2, 3, 4) for N in range(1, 8) if q ** N <= 128
              for m in range(1, N + 1) for n in range(1, N // m + 1)
              for flat in product(range(1, N + 1), repeat=m * n) if sum(flat) == N]


def space(q, pi):
    return make_config(3 if q == 3 else 2, len(pi), len(pi[0]), pi, e=2 if q == 4 else 1)


def test_every_space_of_at_most_128_points_counts_its_closed_form():
    # 334 spaces, plus two of unequal widths that once ran for minutes
    # because a basis vector of the narrower block could only be refused
    # as the image of one of the wider block by walking its whole subtree
    assert len(SPACES_128) == 334
    for q, pi in SPACES_128 + [(2, [[3], [5]]), (2, [[4], [5]])]:
        assert enumerate_automorphisms(space(q, pi))[0] == model.automorphism_order(q, pi)


def test_every_order_of_the_sweep_reads_its_digit_count_from_its_log10():
    # the full order, the n = 1 automorphism order and both alternative
    # forms: floor(log10) + 1 of the factors is the built order's length
    for q, pi in SPACES_128:
        cfg, m, n = space(q, pi), len(pi), len(pi[0])
        forms = [(_full_factors(cfg), full_order(cfg)), (_alt_factors(q, 1, n), alt_chain_order_unit(q, n)),
                 (_alt_factors(q, m, n), alt_full_order_unit(q, m, n))]
        if n == 1:
            forms.append((_aut_factors(cfg), aut_order_antichain(cfg)))
        for factors, value in forms:
            assert math.floor(order_log10(factors)) + 1 == len(str(value)), (q, pi, factors)


def test_enumerated_maps_are_linear_isometries():
    cfg = make_config(2, 2, 1, [[2], [1]])
    count, tables = enumerate_automorphisms(cfg, want_list=True)
    assert count == len(tables) == 6
    from ohb.space import dist_ranks

    for table in tables:
        assert is_linear(cfg, table)
        assert table[0] == 0
        for a in range(cfg.size):
            for b in range(a + 1, cfg.size):
                assert dist_ranks(cfg, table[a], table[b]) == dist_ranks(cfg, a, b)


def test_chain_has_only_triangular_linear_maps():
    # lower-triangular invertible 2x2 over F_2: diagonal forced, one free entry
    cfg = make_config(2, 1, 2, [[1, 1]])
    count, tables = enumerate_automorphisms(cfg, want_list=True)
    assert count == 2
    assert sorted(tables) == [[0, 1, 2, 3], [0, 1, 3, 2]]


def test_automorphisms_inside_isometry_group():
    cfg = make_config(2, 2, 1, [[1], [1]])
    _, auts = enumerate_automorphisms(cfg, want_list=True)
    _, isos = enumerate_isometries(cfg, want_list=True)
    iso_set = {tuple(t) for t in isos}
    for table in auts:
        assert tuple(table) in iso_set


def test_translation_is_not_linear():
    cfg = make_config(2, 1, 2, [[1, 1]])
    w = cfg.unrank(3)
    table = as_rank_table(make_translation(w)).tolist()
    assert not is_linear(cfg, table)


def test_scalar_law_checked_over_extensions():
    # the Frobenius map x -> x^2 on every element of a GF(4) space:
    # (x + y)^2 = x^2 + y^2, and x^2 = y^2 only when x = y, so the map is
    # additive and keeps every support; but (c*x)^2 = c^2 * x^2, so it is no
    # GF(4)-linear map, and the one comparison with the linear extension of
    # its basis images refuses it
    for cfg in [make_config(2, 1, 1, [[1]], e=2), make_config(2, 2, 2, [[1, 2], [2, 1]], e=2)]:
        f = cfg.field
        table = np.array([elementwise(cfg, lambda x: f.mul(x, x), r) for r in range(cfg.size)])
        ranks = np.arange(cfg.size)
        for b in ranks[:: max(1, cfg.size // 8)]:
            assert np.array_equal(table[add_ranks(cfg, ranks, b)], add_ranks(cfg, table, table[b]))
        decompose_full(cfg, table)  # an isometry
        assert not is_linear(cfg, table)
        # composed with itself it is the identity, which is linear
        assert np.array_equal(table[table], ranks) and is_linear(cfg, table[table])


def test_a_table_entry_that_is_no_integer_is_refused():
    # int() would read these floats as the identity table, which is linear
    cfg = make_config(2, 1, 2, [[1, 1]])
    with pytest.raises(UsageError, match="table entries must be an integer"):
        is_linear(cfg, [0.0, 1.9, 2.2, 3.0])
    with pytest.raises(UsageError, match="table has 3 entries, space has 4"):
        is_linear(cfg, [0, 1, 2])


def test_report_document():
    cfg = make_config(2, 2, 1, [[2], [2]])
    rep = aut_report(cfg)
    assert rep.formula_order == 72
    assert rep.enumerated_order == 72
    assert rep.discrepant is False
    doc = rep.to_json()
    assert doc["per_block_gl_orders"] == [[6], [6]]
    assert "elapsed" not in doc
    # a report of the closed form alone reads the same GL factors off its space
    assert AutReport(cfg, 72, None).to_json() == {**doc, "enumerated_order": None, "discrepant": None}

    chain = make_config(2, 1, 2, [[1, 1]])
    rep = aut_report(chain)
    assert rep.formula_order is None
    assert rep.enumerated_order == 2
    assert rep.discrepant is False
