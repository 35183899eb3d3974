"""Shared helpers for the test suite."""

import random

import pytest
from hypothesis import settings

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
    block_rank,
    block_unrank,
)
from ohb.errors import CAPS

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


def elementwise(config, op, *ranks) -> int:
    """Reference vector arithmetic: op applied to the field elements of
    the vectors with the given ranks, one coordinate at a time (a vector
    rank is its element ranks read as one base-q number)."""
    coords = [block_unrank(config.q, r, config.N) for r in ranks]
    return block_rank(config.q, [op(*xs) for xs in zip(*coords)])


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


def outcome(decompose, *args):
    """What a decomposition returned or how it refused, three times: with
    every row scanned for a witness; with only the anchors the refusal
    names and ranks 0..15 scanned, so the anchors show; and with no witness
    found, so the message of the failing level or rank shows.  A table
    that is no bijection is refused with a UsageError (an entry out of
    range) or a NotIsometryError naming two ranks of one image."""
    out = []
    for regime in ("every row", "anchors", "none"):
        with pytest.MonkeyPatch.context() as mp:
            if regime == "anchors":
                mp.setitem(CAPS, "witness_matrix", 0)
            if regime == "none":
                for module in (ohb.space, ohb.chains, ohb.symmetry):
                    mp.setattr(module, "distance_witness", lambda *args: None)
            try:
                out.append(decompose(*args).to_json())
            except (NotIsometryError, StructureError, UsageError) as exc:
                out.append((type(exc), str(exc), getattr(exc, "witness", None), getattr(exc, "chain_index", None)))
    return out
