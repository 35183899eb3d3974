"""Shared helpers for the test suite."""

import random

from hypothesis import settings

from ohb import BlockVector, Field, SpaceConfig

# every hypothesis test draws the same examples on every run, so tier-1
# stays deterministic; max_examples is set per test
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")


def make_config(p, m, n, pi, e=1):
    return SpaceConfig(Field(p, e), m, n, pi)


def random_vector(config, rng: random.Random) -> BlockVector:
    return config.unrank(rng.randrange(config.size))


def random_rank(config, rng: random.Random) -> int:
    return rng.randrange(config.size)


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
