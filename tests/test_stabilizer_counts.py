"""Stabilizer-chain counts against exhaustive listings and closed forms.

The oracle and the automorphism counter multiply orbit sizes along a
stabilizer chain.  Here each count is checked against the length of the
exhaustive listing (where listing is affordable), the oracle against
full_order, and the automorphism count against the block
upper-triangular closed form, computed below and nowhere in the package.
"""

from math import factorial, prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SMALL_CONFIGS, make_config
from ohb import enumerate_automorphisms, full_order, gl_order
from ohb.errors import CAPS
from ohb.oracle import enumerate_isometries

# listings longer than this are skipped: their cost follows the group order
LIST_ORDER_LIMIT = 5000


def block_triangular_order(cfg) -> int:
    """s_pi * prod over chains and levels of |GL(k_j, q)| * q^(k_j (k_1 + ... + k_(j-1)))."""
    s_pi = prod(factorial(cfg.pi.count(row)) for row in set(cfg.pi))
    total = s_pi
    for row in cfg.pi:
        for j, k in enumerate(row):
            total *= gl_order(cfg.q, k) * cfg.q ** (k * sum(row[:j]))
    return total


def check_config(cfg):
    report = enumerate_isometries(cfg)
    assert report.isometry_count == full_order(cfg)
    assert prod(report.orbit_sizes) == report.isometry_count
    if cfg.size <= CAPS["oracle_list"] and report.isometry_count <= LIST_ORDER_LIMIT:
        listed, tables = enumerate_isometries(cfg, want_list=True)
        assert listed.isometry_count == len(tables) == len({tuple(t) for t in tables})

    count, _ = enumerate_automorphisms(cfg)
    assert count == block_triangular_order(cfg)
    if count <= LIST_ORDER_LIMIT:
        listed, tables = enumerate_automorphisms(cfg, want_list=True)
        assert listed == len(tables) == len({tuple(t) for t in tables})


@pytest.mark.parametrize("cfg", SMALL_CONFIGS, ids=repr)
def test_counts_match_listings_and_closed_forms(cfg):
    check_config(cfg)


@st.composite
def tiny_configs(draw):
    """Spaces of at most 64 points: q^N <= 64 bounds N by dims."""
    p, e, dims = draw(st.sampled_from([(2, 1, 6), (3, 1, 3), (2, 2, 3)]))
    m = draw(st.integers(1, min(3, dims)))
    n = draw(st.integers(1, dims // m))
    widths = st.lists(st.integers(1, 2), min_size=n, max_size=n)
    pi = draw(st.lists(widths, min_size=m, max_size=m))
    if sum(map(sum, pi)) > dims:
        pi = [[1] * n] * m
    return make_config(p, m, n, pi, e=e)


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(tiny_configs())
def test_counts_on_drawn_configs(cfg):
    check_config(cfg)


# orders that visiting every element could not reach
@pytest.mark.parametrize(
    "p, pi, order",
    [
        (2, [[1, 1, 1], [1, 1, 1]], 32768),
        (2, [[1, 1, 1, 1, 1, 1]], 2 ** 63),
    ],
)
def test_oracle_pins_beyond_enumeration(p, pi, order):
    report = enumerate_isometries(make_config(p, len(pi), len(pi[0]), pi))
    assert report.isometry_count == order
    assert report.matches["formula"]


@pytest.mark.parametrize(
    "p, pi, order",
    [
        (2, [[1]] * 12, 479001600),
        (2, [[1, 2, 1], [1, 2, 1]], 73728),
        (2, [[3], [3]], 56448),
    ],
)
def test_automorphism_pins_beyond_enumeration(p, pi, order):
    cfg = make_config(p, len(pi), len(pi[0]), pi)
    count, tables = enumerate_automorphisms(cfg)
    assert count == order == block_triangular_order(cfg)
    assert tables is None
