"""No public call allocates past a cap.

The walk calls each callable of `ohb.__all__` that takes a space config, a
field size or a chain shape, and `Symmetry.apply`, on two spaces past the
points cap: q=2 with one chain of one level of width 40 (2^40 points, a
chain past the cap), q=2 with one chain of 40 unit levels (2^40 points
again, and a group order of 2^40 bits built from levels of two block
values), and q=2 with three chains of seven unit levels (2^21 points,
chains of 128 points).  Each call builds its arguments from the
space and must answer or raise an OhbError; a refusal must peak under a
few MB (tracemalloc), so that it refuses before it allocates.  The walk
runs under an address-space limit, so that an allocation the kernel would
grant lazily fails at once instead.
"""

import contextlib
import resource
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ohb
from conftest import make_config
from ohb import (
    AutReport,
    BlockVector,
    ChainSymmetry,
    Code,
    OhbError,
    OracleReport,
    SpaceConfig,
    Symmetry,
    admissible_permutations,
    all_chain_symmetries,
    all_symmetries,
    alt_chain_order_unit,
    alt_full_order_unit,
    apply_to_code,
    as_rank_table,
    aut_order_antichain,
    aut_report,
    chain_from_pairs,
    chain_order,
    code_invariants,
    compose_chain,
    compose_symmetry,
    decompose_chain,
    decompose_full,
    distance,
    enumerate_automorphisms,
    enumerate_isometries,
    equivalent,
    format_vector,
    full_order,
    gl_order,
    identity_chain,
    identity_symmetry,
    invert_chain,
    invert_symmetry,
    is_linear,
    make_translation,
    parse_code_json,
    parse_code_text,
    parse_vector,
    random_chain,
    random_symmetry,
    s_pi_order,
    weight,
    weight_array,
)

SPACES = {
    "k40": make_config(2, 1, 1, [[40]]),
    "n40": make_config(2, 1, 40, [[1] * 40]),
    "m3-n7": make_config(2, 3, 7, [[1] * 7] * 3),
}
REFUSAL_PEAK = 4 << 20  # bytes a refusal may allocate on its way
ADDRESS_SPACE = 1 << 30  # bytes the walk may map beyond what the process maps


def ends(cfg):
    """Ranks 0, 1 and S - 1."""
    return [0, 1, cfg.size - 1]


def table(cfg):
    """An identity table of the space, or ranks 0 and 1 past 2^30 points."""
    return np.arange(cfg.size) if cfg.size <= 1 << 30 else [0, 1]


def chain_table(cfg):
    """An identity table of chain 1, or ranks 0 and 1 past 2^30 points."""
    return np.arange(cfg.chain_size[0]) if cfg.chain_size[0] <= 1 << 30 else [0, 1]


def text(cfg):
    return "\n".join(format_vector(cfg.unrank(r)) for r in ends(cfg))


def apply_keeps_nothing(cfg):
    """Symmetry.apply on a space past the points cap keeps no table."""
    T = random_symmetry(cfg, 1)
    before = tracemalloc.get_traced_memory()[0]
    assert all(T.apply(cfg.unrank(r)).config is cfg for r in ends(cfg))
    assert tracemalloc.get_traced_memory()[0] - before < 64 << 10


# name -> a call on the space, its arguments built from it
WALK = {
    "AutReport": lambda cfg: AutReport(cfg, 1, None),
    "BlockVector": lambda cfg: BlockVector(cfg, cfg.unrank(cfg.size - 1).blocks),
    "ChainSymmetry": lambda cfg: ChainSymmetry(cfg.q, cfg.pi[0],
                                               identity_chain(cfg.q, cfg.pi[0]).to_json()["tables"]),
    "Code": lambda cfg: Code(cfg, ends(cfg)),
    "OracleReport": lambda cfg: OracleReport(cfg, 1, 1, {}),
    "SpaceConfig": lambda cfg: SpaceConfig(cfg.field, cfg.m, cfg.n, cfg.pi),
    "Symmetry": lambda cfg: Symmetry(cfg, range(cfg.m), [identity_chain(cfg.q, row) for row in cfg.pi]),
    "Symmetry.apply": apply_keeps_nothing,
    "admissible_permutations": lambda cfg: next(admissible_permutations(cfg)),
    "all_chain_symmetries": lambda cfg: next(all_chain_symmetries(cfg.q, cfg.pi[0])),
    "all_symmetries": lambda cfg: next(all_symmetries(cfg)),
    "alt_chain_order_unit": lambda cfg: alt_chain_order_unit(cfg.q, cfg.n),
    "alt_full_order_unit": lambda cfg: alt_full_order_unit(cfg.q, cfg.m, cfg.n),
    "apply_to_code": lambda cfg: apply_to_code(random_symmetry(cfg, 2), Code(cfg, ends(cfg))),
    "as_rank_table": lambda cfg: as_rank_table(random_symmetry(cfg, 3)),
    "aut_order_antichain": aut_order_antichain,
    "aut_report": aut_report,
    "chain_from_pairs": lambda cfg: chain_from_pairs(cfg.q, cfg.pi[0], [0, 1], [1, 0]),
    "chain_order": lambda cfg: chain_order(cfg.q, cfg.pi[0]),
    "code_invariants": lambda cfg: code_invariants(Code(cfg, ends(cfg))),
    "compose_chain": lambda cfg: compose_chain(random_chain(cfg.q, cfg.pi[0], 4), random_chain(cfg.q, cfg.pi[0], 5)),
    "compose_symmetry": lambda cfg: compose_symmetry(random_symmetry(cfg, 6), random_symmetry(cfg, 7)),
    "decompose_chain": lambda cfg: decompose_chain(cfg.q, cfg.pi[0], chain_table(cfg)),
    "decompose_full": lambda cfg: decompose_full(cfg, table(cfg)),
    "distance": lambda cfg: distance(cfg.unrank(1), cfg.unrank(cfg.size - 1)),
    "enumerate_automorphisms": enumerate_automorphisms,
    "enumerate_isometries": enumerate_isometries,
    "equivalent": lambda cfg: equivalent(Code(cfg, ends(cfg)), Code(cfg, ends(cfg)[::-1])),
    "format_vector": lambda cfg: format_vector(cfg.unrank(cfg.size - 1)),
    "full_order": full_order,
    "gl_order": lambda cfg: gl_order(cfg.q, cfg.N),
    "identity_chain": lambda cfg: identity_chain(cfg.q, cfg.pi[0]),
    "identity_symmetry": identity_symmetry,
    "invert_chain": lambda cfg: invert_chain(random_chain(cfg.q, cfg.pi[0], 8)),
    "invert_symmetry": lambda cfg: invert_symmetry(random_symmetry(cfg, 9)),
    "is_linear": lambda cfg: is_linear(cfg, table(cfg)),
    "make_translation": lambda cfg: make_translation(cfg.unrank(cfg.size - 1)),
    "parse_code_json": lambda cfg: parse_code_json({"config": cfg.to_json(), "vectors": ends(cfg)}, cfg),
    "parse_code_text": lambda cfg: parse_code_text(cfg, text(cfg)),
    "parse_vector": lambda cfg: parse_vector(cfg, format_vector(cfg.unrank(cfg.size - 1))),
    "random_chain": lambda cfg: random_chain(cfg.q, cfg.pi[0], 10),
    "random_symmetry": lambda cfg: random_symmetry(cfg, 11),
    "s_pi_order": s_pi_order,
    "weight": lambda cfg: weight(cfg.unrank(cfg.size - 1)),
    "weight_array": weight_array,
}
# callables of ohb.__all__ that take no space, field size or chain shape:
# a field is built from p and e, and a verdict from a search's outcome
NO_SPACE = {"EquivalenceResult", "Field"}


@contextlib.contextmanager
def address_space_limit(extra):
    """The process may map at most `extra` more bytes while inside, where
    /proc/self/status gives its current mapping (Linux); elsewhere no
    limit is set."""
    status = Path("/proc/self/status")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if not status.exists():
        yield
        return
    mapped = next(int(line.split()[1]) << 10 for line in status.read_text().splitlines()
                  if line.startswith("VmSize:"))
    limit = mapped + extra if hard == resource.RLIM_INFINITY else min(mapped + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_every_public_callable_is_walked():
    callables = {name for name in ohb.__all__ if callable(getattr(ohb, name))
                 and not (isinstance(getattr(ohb, name), type) and issubclass(getattr(ohb, name), Exception))}
    assert (set(WALK) - {"Symmetry.apply"}) | NO_SPACE == callables
    assert not set(WALK) & NO_SPACE


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("name", sorted(WALK))
def test_a_call_past_the_points_cap_answers_or_refuses_before_it_allocates(name, space):
    cfg = SPACES[space]
    refusal = None
    with address_space_limit(ADDRESS_SPACE):
        tracemalloc.start()
        try:
            try:
                WALK[name](cfg)
            except OhbError as exc:
                refusal = exc
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    if refusal is not None:
        assert peak < REFUSAL_PEAK, f"{name} refused ({refusal}) after allocating {peak} bytes"
