"""Random chain maps and symmetries against the stdlib shuffle loop.

random_chain and random_symmetry replay the generator's word stream for
a long run of rows of two values in one vectorized pass, instead of
calling rng.shuffle once per table row.
The reference below is that loop, kept here only: every draw must give
the same tables and leave the generator in the same state.
"""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_config
from ohb import CapExceeded, ChainSymmetry, Symmetry, random_chain, random_symmetry
from ohb.chains import level_shapes, random_levels
from ohb.errors import CAPS
from ohb.cli import main

# chain maps need only q; spaces need a field with a built-in modulus
QS = [2, 3, 4, 5, 8, 9, 16]
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}
# chains of at most this many points keep the reference loop fast
POINTS = 1 << 12


def shuffled_rows(rng, shapes):
    """One rng.shuffle(list(range(sz))) per row of each (tails, sz) shape."""
    out = []
    for tails, sz in shapes:
        level = []
        for _ in range(tails):
            perm = list(range(sz))
            rng.shuffle(perm)
            level.append(perm)
        out.append(level)
    return out


def reference_chain(q, chain_pi, rng):
    return ChainSymmetry(q, chain_pi, shuffled_rows(rng, level_shapes(q, chain_pi)))


def reference_symmetry(cfg, rng):
    classes = {}
    for i, row in enumerate(cfg.pi):
        classes.setdefault(row, []).append(i)
    sigma = [0] * cfg.m
    for idxs in classes.values():
        for pos, img in zip(idxs, rng.sample(idxs, len(idxs))):
            sigma[pos] = img
    chain_maps = [reference_chain(cfg.q, row, rng) for row in cfg.pi]
    return Symmetry(cfg, sigma, chain_maps)


@st.composite
def chain_shapes(draw, max_points=POINTS):
    """(q, widths) with q^(sum of widths) <= max_points."""
    q = draw(st.sampled_from(QS))
    budget = int(math.log(max_points, q) + 1e-9)
    n = draw(st.integers(1, min(6, budget)))
    widths = []
    for j in range(n):
        widths.append(draw(st.integers(1, min(3, budget - sum(widths) - (n - 1 - j)))))
    return q, tuple(widths)


@settings(max_examples=200)
@given(chain_shapes(), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
# rows of two values that are replayed, and of 3, 4, 8 and 4096 values that
# are shuffled one by one
@example((2, (1, 1, 1, 1, 1, 2)), 1, 2)
@example((2, (1,) * 13), 6, 2)  # one chain of 8191 rows of two values
@example((3, (1, 1, 1, 1, 1)), 2, 1)
@example((4, (1, 1, 1, 1, 1)), 3, 1)
@example((2, (3, 3, 3, 3)), 4, 1)
@example((16, (3,)), 5, 2)
def test_random_chain_replays_the_shuffle_loop(shape, seed, calls):
    q, chain_pi = shape
    got, want = random.Random(seed), random.Random(seed)
    for _ in range(calls):
        assert random_chain(q, chain_pi, got) == reference_chain(q, chain_pi, want)
        # the generator is shared with other draws, before and after
        assert got.random() == want.random()
        assert got.gauss(0, 1) == want.gauss(0, 1)
    assert got.getstate() == want.getstate()


@st.composite
def spaces(draw):
    """Up to three chains of at most POINTS points, some with equal widths."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, min(6, int(math.log(POINTS, q) + 1e-9))))
    row = st.lists(st.integers(1, 2), min_size=n, max_size=n)
    pi = [draw(row)]
    for _ in range(m - 1):
        pi.append(pi[-1] if draw(st.booleans()) else draw(row))
    if q ** max(map(sum, pi)) > POINTS:
        pi = [[1] * n] * m
    p, e = FIELDS[q]
    return make_config(p, m, n, pi, e=e)


@settings(max_examples=100)
@given(spaces(), st.integers(0, 2 ** 32 - 1))
# chains whose rows of two values are replayed in one run together, and
# whose rows of three values are shuffled one by one
@example(make_config(2, 3, 6, [[1] * 6] * 3), 1)
@example(make_config(3, 3, 4, [[1] * 4] * 3), 2)
def test_random_symmetry_replays_the_shuffle_loop(cfg, seed):
    got, want = random.Random(seed), random.Random(seed)
    assert random_symmetry(cfg, got).to_json() == reference_symmetry(cfg, want).to_json()
    assert got.getstate() == want.getstate()


@pytest.mark.parametrize("sz", range(2, 10))
def test_run_rule_boundary(sz):
    # a run of at least 64 rows of two values is replayed, and every other
    # run is shuffled row by row; either way the rows split back into levels
    for rows in (32 * sz - 1, 32 * sz):
        shapes = [(rows - rows // 3, sz), (rows // 3, sz), (1, sz + 1)]
        got, want = random.Random(rows), random.Random(rows)
        levels = random_levels(got, shapes)
        assert [np.asarray(a).tolist() for a in levels] == shuffled_rows(want, shapes)
        assert got.getstate() == want.getstate()


@pytest.mark.parametrize("rows", [63, 64, 65, 8191])
def test_rows_of_two_values_replay_the_shuffle_loop(rows):
    # a row of two values takes one draw, so it ends at its first word
    # below 2 << 30; 63 rows are shuffled one by one, 64 or more replayed
    for seed in range(40):
        got, want = random.Random(seed), random.Random(seed)
        [level] = random_levels(got, [(rows, 2)])
        assert np.asarray(level).tolist() == shuffled_rows(want, [(rows, 2)])[0]
        assert got.getstate() == want.getstate()


class DrawsThroughRandom(random.Random):
    """A subclass that defines random(), so its randbelow reads random()
    instead of getrandbits words."""

    def random(self):
        return super().random()


def test_a_subclass_keeps_its_own_shuffles():
    # only the plain Mersenne Twister's shuffle is replayed
    got, want = DrawsThroughRandom(4), DrawsThroughRandom(4)
    assert random_chain(2, (1,) * 8, got) == reference_chain(2, (1,) * 8, want)
    assert got.getstate() == want.getstate()


def test_a_generator_without_state_still_draws():
    T = random_chain(2, (1,) * 8, random.SystemRandom())
    assert all(sorted(row) == [0, 1] for level in T.to_json()["tables"] for row in level)


def test_large_rows_stay_small_in_memory():
    # the 1024 rows of 2 values are replayed with scratch arrays the size
    # of their words; the 2 rows of 512 values are shuffled one by one
    random_chain(2, (1, 9, 1), 1)
    tracemalloc.start()
    try:
        T = random_chain(2, (1, 9, 1), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T == reference_chain(2, (1, 9, 1), random.Random(5))
    assert peak < 1 << 20


class NoDraws(random.Random):
    def getrandbits(self, k):
        raise AssertionError("a refused chain started drawing")


def test_a_chain_over_the_cap_is_refused_before_drawing():
    rng = NoDraws(3)
    state = rng.getstate()
    with pytest.raises(CapExceeded, match=r"chain 1 has 1099511627776 points, over the cap "
                       r"1048576; .* 2199023255550 table entries"):
        random_chain(2, (1,) * 40, rng)
    cfg = make_config(2, 2, 2, [[1, 1], [20, 1]])
    with pytest.raises(CapExceeded, match=r"chain 2 has 2097152 points.* 2097154 table entries"):
        random_symmetry(cfg, rng)
    assert rng.getstate() == state


def test_the_cap_is_the_points_entry(monkeypatch):
    monkeypatch.setitem(CAPS, "points", 64)
    assert random_chain(2, (1,) * 6, 1) == reference_chain(2, (1,) * 6, random.Random(1))
    with pytest.raises(CapExceeded, match=r"128 points, over the cap 64; .* 254 table entries"):
        random_chain(2, (1,) * 7, 1)


def test_cli_refuses_a_chain_over_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(random.Random, "getrandbits", NoDraws.getrandbits)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"field": {"p": 2}, "m": 1, "n": 40, "pi": [[1] * 40]}))
    assert main(["sym", "gen", "--space", str(space), "--seed", "1", "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["op"] == "sym.gen"
    assert doc["error"].startswith("chain 1 has 1099511627776 points, over the cap 1048576")
    assert main(["sym", "gen", "--space", str(space), "--seed", "1"]) == 1
    assert capsys.readouterr().out.startswith("error: chain 1 has 1099511627776 points")
