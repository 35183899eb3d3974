"""Brute-force ground truth and its agreement with the closed forms."""

import json
import math

import pytest

from conftest import make_config
from ohb import CapExceeded, all_symmetries, as_rank_table
from ohb.oracle import enumerate_isometries
from ohb.space import distance_matrix_array


def test_distance_matrix_two_points():
    cfg = make_config(2, 1, 1, [[1]])
    assert distance_matrix_array(cfg).tolist() == [[0, 1], [1, 0]]


def test_distance_matrix_chain_example():
    cfg = make_config(2, 1, 2, [[1, 1]])
    D = distance_matrix_array(cfg)
    assert int(D[0, 2]) == 2  # (0,0) vs (0,1): top level differs
    assert int(D[0, 1]) == 1


def test_distance_matrix_shape_properties():
    cfg = make_config(3, 2, 1, [[1], [2]])
    D = distance_matrix_array(cfg)
    S = cfg.size
    assert D.shape == (S, S)
    assert (D == D.T).all()
    assert (D.diagonal() == 0).all()
    assert int(D.max()) <= cfg.m * cfg.n


def test_two_point_space():
    report = enumerate_isometries(make_config(2, 1, 1, [[1]]))
    assert report.isometry_count == 2
    assert report.matches["formula"]


def test_listing_is_a_group():
    cfg = make_config(2, 2, 1, [[1], [1]])
    report, tables = enumerate_isometries(cfg, want_list=True)
    assert report.isometry_count == len(tables) == 8
    as_tuples = {tuple(t) for t in tables}
    S = cfg.size
    for f in tables:
        inv = [0] * S
        for x, y in enumerate(f):
            inv[y] = x
        assert tuple(inv) in as_tuples
        for g in tables:
            comp = tuple(f[g[x]] for x in range(S))
            assert comp in as_tuples


def test_constructed_group_equals_oracle_set():
    for cfg in [make_config(2, 1, 2, [[1, 1]]), make_config(2, 2, 1, [[1], [1]])]:
        _, tables = enumerate_isometries(cfg, want_list=True)
        oracle_set = {tuple(t) for t in tables}
        built = {tuple(as_rank_table(T).tolist()) for T in all_symmetries(cfg)}
        assert built == oracle_set


def test_count_invariant_under_chain_relabeling():
    # isometric configs give equal counts, though the two stabilizer
    # chains take their base points in different rank orders
    a = enumerate_isometries(make_config(2, 2, 1, [[1], [2]])).isometry_count
    b = enumerate_isometries(make_config(2, 2, 1, [[2], [1]])).isometry_count
    assert a == b == 48


def test_cap_refusal_mentions_search_size():
    cfg = make_config(2, 2, 2, [[2, 2], [2, 2]])  # 256 points, over the count cap
    with pytest.raises(CapExceeded) as exc:
        enumerate_isometries(cfg)
    msg = str(exc.value)
    assert "256" in msg and "256!" in msg
    # the listing cap is tighter than the counting cap
    with pytest.raises(CapExceeded):
        enumerate_isometries(make_config(2, 1, 1, [[5]]), want_list=True)


def test_report_fields_and_alternates():
    report = enumerate_isometries(make_config(2, 1, 2, [[1, 1]]))
    assert report.isometry_count == 8
    assert report.formula_count == 8
    assert report.alt_counts == {"unit_chain": 16, "unit_product": 16}
    assert report.matches == {"formula": True, "unit_chain": False, "unit_product": False}
    assert report.discrepant

    doc = report.to_json()
    assert "elapsed" not in doc
    json.dumps(doc)  # serializable as-is

    # alternates are only stated for all-unit-width configs
    blocky = enumerate_isometries(make_config(2, 1, 2, [[2, 1]]))
    assert blocky.alt_counts == {}
    assert not blocky.discrepant


def test_orbit_sizes_multiply_to_the_count_and_stay_out_of_json():
    for cfg in [make_config(2, 2, 2, [[1, 1], [1, 1]]), make_config(3, 1, 2, [[1, 1]])]:
        report = enumerate_isometries(cfg)
        assert len(report.orbit_sizes) == cfg.size
        assert report.orbit_sizes[0] == cfg.size  # translations move 0 anywhere
        assert math.prod(report.orbit_sizes) == report.isometry_count
        assert "orbit_sizes" not in report.to_json()


def test_unit_chain_alternate_only_for_single_chain():
    report = enumerate_isometries(make_config(2, 2, 1, [[1], [1]]))
    assert "unit_chain" not in report.alt_counts
    assert "unit_product" in report.alt_counts
