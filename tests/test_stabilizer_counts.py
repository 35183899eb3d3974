"""Stabilizer-chain counts against exhaustive listings and closed forms.

The oracle and the automorphism counter multiply orbit sizes along a
stabilizer chain.  Here each count is checked against the length of the
exhaustive listing (where listing is affordable), the oracle against
full_order, and the automorphism count against the block
upper-triangular closed form of the test model, which imports nothing
from ohb.  The search core, stabilizer_orbits, is also run on groups
known without ohb.
"""

from itertools import permutations
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import SMALL_CONFIGS, make_config
from model import automorphism_order
from ohb import enumerate_automorphisms, full_order
from ohb.errors import CAPS
from ohb.oracle import enumerate_isometries, stabilizer_orbits

# listings longer than this are skipped: their cost follows the group order
LIST_ORDER_LIMIT = 5000


def check_config(cfg):
    report = enumerate_isometries(cfg)
    assert report.isometry_count == full_order(cfg)
    assert prod(report.orbit_sizes) == report.isometry_count
    if cfg.size <= CAPS["oracle_list"] and report.isometry_count <= LIST_ORDER_LIMIT:
        listed, tables = enumerate_isometries(cfg, want_list=True)
        assert listed.isometry_count == len(tables) == len({tuple(t) for t in tables})

    count, _ = enumerate_automorphisms(cfg)
    assert count == automorphism_order(cfg.q, cfg.pi)
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
@seed(1)
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
    assert count == order == automorphism_order(cfg.q, cfg.pi)
    assert tables is None


def test_search_core_on_the_symmetric_group():
    # a state is the images of 0..t-1; any unused point may come next
    sizes, listing = stabilizer_orbits(
        [0, 1, 2, 3],
        lambda t: tuple(range(t)),
        lambda state: [y for y in range(4) if y not in state],
        lambda state, y: state + (y,),
        np.array,
        want_list=True,
    )
    assert sizes == [4, 3, 2, 1]
    assert listing == [list(g) for g in permutations(range(4))]


def test_search_core_on_a_cyclic_group():
    # rotations of 5 points: the image of 0 fixes the image of 1
    def candidates(state):
        return range(5) if not state else [(state[0] + 1) % 5]

    def perm(state):
        return (np.arange(5) + state[0]) % 5

    sizes, listing = stabilizer_orbits(
        [0, 1], lambda t: tuple(range(t)), candidates, lambda state, y: state + (y,), perm, want_list=True
    )
    assert sizes == [5, 1]
    assert listing == [[(x + r) % 5 for x in range(5)] for r in range(5)]
    # without want_list the count is the same and nothing is listed
    assert stabilizer_orbits([0, 1], lambda t: tuple(range(t)), candidates,
                             lambda state, y: state + (y,), perm) == ([5, 1], None)
    # a base of 1100 points, deeper than a walk that recursed once per
    # level could go: each point goes one past the image of the point
    # before it, and a state keeps the images of 0 and of the last point
    n = 1100
    assert stabilizer_orbits(
        range(n),
        lambda t: (0, t - 1)[:t],
        lambda state: range(n) if not state else [(state[-1] + 1) % n],
        lambda state, y: state[:1] + (y,),
        lambda state: (np.arange(n) + state[0]) % n,
    ) == ([n] + [1] * (n - 1), None)
