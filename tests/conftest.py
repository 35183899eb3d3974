"""Shared helpers for the test suite."""

import random

import numpy as np
import pytest
from hypothesis import settings

import model
import ohb.chains
import ohb.space
import ohb.symmetry
from ohb import (
    BlockVector,
    Field,
    NotIsometryError,
    SpaceConfig,
    StructureError,
    UsageError,
)
from ohb.errors import CAPS

# every hypothesis test draws the same examples on every run, so tier-1
# stays deterministic; max_examples is set per test, and each test pins its
# examples with @seed, since without one they follow a hash of its source
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")


def make_config(p, m, n, pi, e=1):
    return SpaceConfig(Field(p, e), m, n, pi)


def random_vector(config, rng: random.Random) -> BlockVector:
    return config.unrank(rng.randrange(config.size))


def elementwise(config, op, *ranks) -> int:
    """Reference vector arithmetic: op applied to the field elements of
    the vectors with the given ranks, one coordinate at a time (a vector
    rank is its element ranks read as one base-q number, the first least
    significant)."""
    q = config.q
    coords = [[r // q**i % q for i in range(config.N)] for r in ranks]
    return sum(op(*xs) * q**i for i, xs in enumerate(zip(*coords)))


def chain_arrays(T):
    """The numpy arrays a chain map holds in its slots, tuples of arrays
    included, so that any stored form is counted."""
    values = [getattr(T, name, None) for name in type(T).__slots__]
    return [a for v in values for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]


def narrow_type(size):
    """The declared type of a rank table over size points."""
    return np.uint8 if size <= 1 << 8 else np.uint16 if size <= 1 << 16 else np.uint32


# whole spaces of 1024 points, each the code of every point: more words
# than a search that recursed once per word could match
WHOLE_SPACES = {
    "one chain": {"field": {"p": 2}, "m": 1, "n": 10, "pi": [[1] * 10]},
    "two chains": {"field": {"p": 2}, "m": 2, "n": 5, "pi": [[1] * 5] * 2},
}


# configs small enough for exhaustive checks, varied in shape
SMALL_CONFIGS = [
    make_config(2, 1, 1, [[1]]),
    make_config(2, 1, 2, [[1, 1]]),
    make_config(2, 2, 1, [[1], [1]]),
    make_config(2, 2, 2, [[1, 1], [1, 1]]),
    make_config(2, 1, 2, [[2, 1]]),
    make_config(3, 1, 2, [[1, 1]]),
    make_config(2, 3, 1, [[1], [1], [1]]),
    make_config(3, 2, 1, [[1], [2]]),
    make_config(2, 2, 1, [[2], [2]]),
]


# witness regimes as caps: every row up to the cap; the anchors only; none
REGIMES = (CAPS["witness_matrix"], 0, None)


def outcome(decompose, *args):
    """What a decomposition returned or how it refused under each regime (a
    table that is no bijection with a UsageError or a NotIsometryError)."""
    out = []
    for cap in REGIMES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(CAPS, "witness_matrix", cap or 0)
            if cap is None:
                for module in (ohb.space, ohb.chains, ohb.symmetry):
                    mp.setattr(module, "distance_witness", lambda *args: None)
            try:
                out.append(decompose(*args).to_json())
            except (NotIsometryError, StructureError, UsageError) as exc:
                out.append((type(exc).__name__, str(exc), getattr(exc, "witness", None),
                            getattr(exc, "chain_index", None)))
    return out


def model_outcome(decompose, *args):
    return model.outcomes(decompose, *args, caps=REGIMES)
