"""Random chain maps and symmetries against the stdlib shuffle loop.

random_chain and random_symmetry draw a run of at least 64 rows of two
values from a plain random.Random without calling rng.shuffle per row:
a numpy MT19937 set to the generator's state reads its 32-bit words
ahead, and each row reads its swap off its first word below 2 << 30.
The generator then draws the words used itself; when numpy read a whole
block before the one that holds the last word used, the generator's
state is first set to that block, untempered.  Other rows are shuffled
one by one.
The reference below is the shuffle loop, kept here only: every draw must
give the same tables and leave the generator in the same state, the
stored second gauss value included.
"""

import json
import math
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import make_config
from ohb import CapExceeded, ChainSymmetry, Symmetry, random_chain, random_symmetry
from ohb.chains import MT_BLOCK, level_shapes, random_levels
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
@seed(1)
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
@seed(1)
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


def at_position(seed, pos):
    """A generator pos words into its current block of 624, holding the
    second value of a gauss draw."""
    rng = random.Random(seed)
    rng.gauss(0, 1)
    version, state, gauss = rng.getstate()
    rng.setstate((version, state[:MT_BLOCK] + (pos,), gauss))
    return rng


def check_replay(rows, seed, pos):
    got, want = at_position(seed, pos), at_position(seed, pos)
    [level] = random_levels(got, [(rows, 2)])
    assert np.asarray(level).tolist() == shuffled_rows(want, [(rows, 2)])[0]
    assert got.getstate() == want.getstate()
    assert got.gauss(0, 1) == want.gauss(0, 1)
    assert got.random() == want.random()


# rng draws the words used itself, after its state is set to the read block
# before the last word's block when there is one: never at 64 rows, about
# half the time at 311 and 312 rows from a block end, always at 4095 rows
@pytest.mark.parametrize("pos", [0, 1, MT_BLOCK - 1, MT_BLOCK])
@pytest.mark.parametrize("rows", [64, 311, 312, 4095, 8191])
def test_the_replay_matches_the_shuffle_loop_anywhere_in_a_block(rows, pos):
    for seed in range(6):
        check_replay(rows, seed, pos)


def test_a_short_look_ahead_reads_more_words():
    # seed 1208's first 2 * 2000 + 4 * isqrt(2000) + 32 = 4208 words from a
    # block end hold only 1977 below 2 << 30, short of the 2000 rows
    words = at_position(1208, MT_BLOCK).getrandbits(32 * 4208).to_bytes(4 * 4208, "little")
    assert np.count_nonzero(np.frombuffer(words, dtype="<u4") < 2 << 30) == 1977
    check_replay(2000, 1208, MT_BLOCK)


def test_threads_share_the_look_ahead_generator():
    # one scratch generator serves every replay, so each sets its state and
    # reads its words under one lock; more threads than cores, switching often
    seeds = range(8)
    want = {seed: random_chain(2, (1,) * 10, seed) for seed in seeds}
    done, errors = [], []

    def draw(seeds):
        try:
            for _ in range(50):
                for seed in seeds:
                    assert random_chain(2, (1,) * 10, seed) == want[seed]
            done.extend(seeds)
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seeds[k::4],)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and sorted(done) == list(seeds)


def test_import_and_short_draws_leave_numpy_random_unimported():
    # numpy.random costs about 15 ms to import, so only the first replay of
    # 64 rows or more imports it
    code = ("import sys, ohb\n"
            "cfg = ohb.SpaceConfig(ohb.Field(2), 1, 6, [[1] * 6])\n"
            "ohb.random_chain(2, (1,) * 6, 1)\n"
            "print('numpy.random' in sys.modules)\n"
            "ohb.random_chain(2, (1,) * 7, 1)\n"
            "print('numpy.random' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={"PYTHONPATH": str(src), "PATH": ""})
    assert (res.returncode, res.stdout, res.stderr) == (0, "False\nTrue\n", "")


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
