"""The full symmetry group of an ordered Hamming block space.

Every isometry of the space factors uniquely as T(v)_i = g_{s(i)}(v_{s(i)}):
an admissible permutation s of the chains (output row i is fed by input
row s(i)) after a triangular symmetry g_k on each input chain k.  The
Symmetry class stores exactly that canonical pair; translations are
ordinary triangular maps and need no separate representation.

Throughout the Python API, permutations are 0-based tuples; the JSON
form uses the 1-based image sequence.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import permutations, product

import numpy as np

from .chains import (
    ChainSymmetry,
    all_chain_symmetries,
    chain_order,
    compose_chain,
    decompose_chain,
    identity_chain,
    invert_chain,
    level_shapes,
    log10_factorial,
    random_levels,
    refuse_large_chains,
)
from .errors import (
    CAPS,
    NotIsometryError,
    StructureError,
    UsageError,
    ValidationError,
    check_cap,
    json_int,
)
from .fields import block_rank, block_unrank
from .space import (
    BlockVector,
    SpaceConfig,
    add_ranks,
    bijection_array,
    distance_witness,
    sub_ranks,
)


def is_admissible(sigma, config: SpaceConfig) -> bool:
    """True iff chain s(i) has the same block widths as chain i for all i."""
    sigma = tuple(int(x) for x in sigma)
    if sorted(sigma) != list(range(config.m)):
        raise UsageError(f"not a permutation of 0..{config.m - 1}: {sigma}")
    return all(config.pi[sigma[i]] == config.pi[i] for i in range(config.m))


def admissible_permutations(config: SpaceConfig):
    """All admissible permutations, as 0-based tuples, deterministic order.

    Chains are grouped by width profile (first appearance first); the
    permutation of the last group varies fastest.  Generated lazily, so
    the first sigma costs no more than one permutation per group.
    """
    classes = {}
    for i, row in enumerate(config.pi):
        classes.setdefault(row, []).append(i)
    groups = list(classes.values())
    sigma = [0] * config.m

    def rec(g):
        if g == len(groups):
            yield tuple(sigma)
            return
        for images in permutations(groups[g]):
            for i, img in zip(groups[g], images):
                sigma[i] = img
            yield from rec(g + 1)

    return rec(0)


def s_pi_order(config: SpaceConfig) -> int:
    counts = Counter(config.pi)
    total = 1
    for c in counts.values():
        total *= math.factorial(c)
    return total


def full_order(config: SpaceConfig) -> int:
    """Order of the symmetry group: product of the chain group orders
    times the number of admissible permutations."""
    total = s_pi_order(config)
    for row in config.pi:
        total *= chain_order(config.q, row)
    return total


def full_order_log10(config: SpaceConfig):
    """log10 of full_order(config), summed from log10_factorial without
    computing a factorial, so that a caller can refuse an order too
    large to print before building it."""
    total = sum(log10_factorial(c) for c in Counter(config.pi).values())
    for row in config.pi:
        total += sum(tails * log10_factorial(sz) for tails, sz in level_shapes(config.q, row))
    return total


def alt_full_order_unit(q, m, n) -> int:
    """Alternative closed form sometimes quoted for the all-unit-width
    space: (q!)^(m*(q^n-1)/(q-1) + m) * m!.

    Carries the same extra q!-per-chain factor as alt_chain_order_unit
    and disagrees with full_order and with enumeration; reported next
    to the enumerated count so the mismatch is visible.
    """
    return math.factorial(q) ** (m * ((q ** n - 1) // (q - 1)) + m) * math.factorial(m)


class Symmetry:
    """Canonical (sigma, chains) form of a space isometry.

    sigma is 0-based: output row i is input row sigma[i] transformed by
    chains[sigma[i]].  chains[k] acts on chain k of the input.
    """

    __slots__ = ("config", "sigma", "chains")

    def __init__(self, config: SpaceConfig, sigma, chains):
        sigma = tuple(int(x) for x in sigma)
        if not is_admissible(sigma, config):
            raise ValidationError(f"permutation {sigma} moves a chain onto different widths")
        chains = tuple(chains)
        if len(chains) != config.m:
            raise UsageError(f"need {config.m} chain symmetries, got {len(chains)}")
        for k, ch in enumerate(chains):
            if not isinstance(ch, ChainSymmetry):
                raise UsageError(f"chain {k + 1}: not a ChainSymmetry")
            if ch.q != config.q or ch.chain_pi != config.pi[k]:
                raise UsageError(
                    f"chain {k + 1}: shape {ch.chain_pi} over q={ch.q} does not "
                    f"match config row {config.pi[k]} over q={config.q}"
                )
        self.config = config
        self.sigma = sigma
        self.chains = chains

    def apply(self, v: BlockVector) -> BlockVector:
        if v.config != self.config:
            raise UsageError("vector does not belong to this symmetry's space")
        cfg = self.config
        q = cfg.q
        out = []
        for i, k in enumerate(self.sigma):
            ch = self.chains[k]
            # the row rank of chain k, read like a vector rank
            r = block_rank(q, [x for b in v.blocks[k] for x in b])
            out.append(tuple(
                block_unrank(q, level.item(r // p), width)
                for level, p, width in zip(ch.tables, ch._place, cfg.pi[i])
            ))
        # every block is an entry of a permutation table that
        # ChainSymmetry validated, so the result needs no checks
        return BlockVector._trusted(cfg, tuple(out))

    def __eq__(self, other):
        return (
            isinstance(other, Symmetry)
            and self.config == other.config
            and self.sigma == other.sigma
            and self.chains == other.chains
        )

    def __hash__(self):
        return hash((self.config, self.sigma, self.chains))

    def __repr__(self):
        return f"Symmetry(sigma={tuple(x + 1 for x in self.sigma)}, m={self.config.m})"

    def to_json(self) -> dict:
        return {
            "sigma": [x + 1 for x in self.sigma],
            "chains": [ch.to_json() for ch in self.chains],
        }

    @classmethod
    def from_json(cls, doc, config: SpaceConfig) -> "Symmetry":
        try:
            sigma = tuple(json_int(x, "sigma entry") - 1 for x in doc["sigma"])
            chains = [
                ChainSymmetry.from_json(cd, config.q) for cd in doc["chains"]
            ]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"bad symmetry document: {exc}") from exc
        return cls(config, sigma, chains)


def identity_symmetry(config: SpaceConfig) -> Symmetry:
    return Symmetry(
        config,
        tuple(range(config.m)),
        [identity_chain(config.q, row) for row in config.pi],
    )


def compose_symmetry(A: Symmetry, B: Symmetry) -> Symmetry:
    """The symmetry v -> A(B(v)), in canonical form."""
    if A.config != B.config:
        raise UsageError("cannot compose symmetries of different spaces")
    m = A.config.m
    sigma = tuple(B.sigma[A.sigma[i]] for i in range(m))
    inv_b = [0] * m
    for i, j in enumerate(B.sigma):
        inv_b[j] = i
    chains = [compose_chain(A.chains[inv_b[j]], B.chains[j]) for j in range(m)]
    return Symmetry(A.config, sigma, chains)


def invert_symmetry(A: Symmetry) -> Symmetry:
    m = A.config.m
    inv = [0] * m
    for i, j in enumerate(A.sigma):
        inv[j] = i
    chains = [invert_chain(A.chains[A.sigma[j]]) for j in range(m)]
    return Symmetry(A.config, tuple(inv), chains)


def make_translation(w: BlockVector) -> Symmetry:
    """The symmetry v -> v + w as a chain-only triangular map: every
    level adds w's block there, whatever the tail."""
    cfg = w.config
    r = w.rank()  # a Python int: its digits are w's block ranks, in order
    chains = []
    for row in cfg.pi:
        tables = []
        for tails, sz in level_shapes(cfg.q, row):
            tables.append(np.broadcast_to(add_ranks(cfg, np.arange(sz), r % sz), (tails, sz)))
            r //= sz
        chains.append(ChainSymmetry(cfg.q, row, tables))
    return Symmetry(cfg, tuple(range(cfg.m)), chains)


def random_symmetry(config: SpaceConfig, seed) -> Symmetry:
    """Uniformly random symmetry, reproducible from the seed: sigma by one
    rng.sample per class of equal chains, then each chain as random_chain
    draws it, with the same stream contract and the same refusal."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    refuse_large_chains(config.q, config.pi)
    classes = {}
    for i, row in enumerate(config.pi):
        classes.setdefault(row, []).append(i)
    sigma = [0] * config.m
    for idxs in classes.values():
        for pos, img in zip(idxs, rng.sample(idxs, len(idxs))):
            sigma[pos] = img
    levels = iter(random_levels(rng, [s for row in config.pi for s in level_shapes(config.q, row)]))
    chains = [ChainSymmetry(config.q, row, [next(levels) for _ in row]) for row in config.pi]
    return Symmetry(config, tuple(sigma), chains)


def all_symmetries(config: SpaceConfig):
    """Yield the whole symmetry group in canonical form, up to the group cap."""
    check_cap("symmetry group", full_order(config), "elements", CAPS["group"])
    chain_groups = [list(all_chain_symmetries(config.q, row)) for row in config.pi]
    for sigma in admissible_permutations(config):
        for chains in product(*chain_groups):
            yield Symmetry(config, sigma, chains)


def as_rank_table(T: Symmetry, override: bool = False) -> np.ndarray:
    """Dense action of T on every vector rank.  A space over the points
    cap is refused unless override is set, as decompose_full sets it for
    a table that already holds every point."""
    cfg = T.config
    if not override:
        cfg.check_materialize()
    ranks = np.arange(cfg.size, dtype=np.int64)
    out = np.zeros(cfg.size, dtype=np.int64)
    for i in range(cfg.m):
        k = T.sigma[i]
        ct = T.chains[k].rank_table()
        sub = (ranks // cfg.chain_place[k]) % cfg.chain_size[k]
        out += ct[sub] * cfg.chain_place[i]
    return out


# decomposition of a raw bijection table into canonical form


def decompose_full(config: SpaceConfig, table) -> Symmetry:
    """Recover the canonical (sigma, chains) form of an isometry given
    as a dense table over vector ranks.

    The translation part is read off at 0, the chain permutation from
    the images of weight-1 vectors, and each chain map by restriction;
    the result is verified pointwise against the table.  A map that
    preserves no decomposition is rejected with a distance witness when
    one can be found (the ranks where the failure showed are tried
    first), otherwise with the chain index that failed.
    """
    f = bijection_array(table, config.size)

    def reject(chain_index, context, *anchors):
        w = distance_witness(config.q, config.pi, f, anchors)
        if w is not None:
            raise NotIsometryError(
                f"distance not preserved for ranks {w[0]} and {w[1]}", witness=w
            )
        raise StructureError(context, chain_index=chain_index)

    q = config.q
    m = config.m
    # f minus the translation w = f(0), on each chain axis only: nothing
    # else is read before the final check against f itself
    w_rank = int(f[0])
    axes = []
    for k in range(m):
        img = f[np.arange(config.chain_size[k]) * config.chain_place[k]]
        axes.append(sub_ranks(config, img, w_rank) if w_rank else img)
    # each chain's weight-1 sphere at level 1 must land inside a single
    # chain with the same widths
    tau = [None] * m
    for k in range(m):
        target = None
        for x in range(1, q ** config.pi[k][0]):
            r = x * config.chain_place[k]
            img = int(axes[k][x])
            hit = [i for i in range(m) if config.chain_subrank(img, i) != 0]
            if len(hit) != 1:
                reject(k + 1, f"image of a weight-1 point of chain {k + 1} has weight != 1", r)
            j = hit[0]
            if config.chain_subrank(img, j) >= q ** config.pi[j][0]:
                reject(k + 1, f"image of a weight-1 point of chain {k + 1} has weight > 1", r)
            if target is None:
                target = j
            elif target != j:
                reject(k + 1, f"chain {k + 1} maps into two different chains", r)
        tau[k] = target
    if sorted(tau) != list(range(m)):
        dup = next(j for j in range(m) if tau.count(j) > 1)
        second = [k for k in range(m) if tau[k] == dup][1]
        reject(dup + 1, f"two chains map into chain {dup + 1}", config.chain_place[second])
    for k in range(m):
        if config.pi[k] != config.pi[tau[k]]:
            reject(k + 1, f"chain {k + 1} maps onto a chain with different widths")

    chains = [None] * m
    for k in range(m):
        place, t_place = config.chain_place[k], config.chain_place[tau[k]]
        sub = axes[k] // t_place
        off = np.nonzero(sub % config.chain_size[tau[k]] * t_place != axes[k])[0]
        if len(off):
            reject(k + 1, f"image of chain {k + 1} leaves chain {tau[k] + 1}", int(off[0]) * place)
        try:
            chains[k] = decompose_chain(q, config.pi[k], sub)
        except NotIsometryError as exc:
            u, v = (x * place for x in exc.witness)
            raise NotIsometryError(
                f"distance not preserved for ranks {u} and {v}", witness=(u, v)
            ) from exc
        except StructureError as exc:
            raise StructureError(str(exc), chain_index=k + 1) from exc

    sigma = [0] * m
    for k in range(m):
        sigma[tau[k]] = k
    cand = Symmetry(config, tuple(sigma), chains)
    if w_rank:
        cand = compose_symmetry(make_translation(config.unrank(w_rank)), cand)

    bad = np.nonzero(as_rank_table(cand, override=True) != f)[0]
    if len(bad):
        r = int(bad[0])
        reject(None, f"map disagrees with its chain decomposition at rank {r}", r)
    return cand
