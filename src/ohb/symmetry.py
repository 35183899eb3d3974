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
from functools import partial
from itertools import permutations, product

import numpy as np

from .chains import (
    ChainSymmetry,
    _chain_table,
    _decompose_bijection,
    _levels,
    all_chain_symmetries,
    chain_order,
    chain_order_log10,
    chain_ranks,
    compose_chain,
    identity_chain,
    invert_chain,
    level_shapes,
    log10_factorial,
    random_levels,
    refuse_large_chains,
)
from .errors import (
    NotIsometryError,
    StructureError,
    UsageError,
    ValidationError,
    check_group_cap,
    int_arg,
    int_tuple,
    seq,
)
from .space import (
    BlockVector,
    SpaceConfig,
    add_ranks,
    bijection_array,
    distance_witness,
    rank_array,
    sub_ranks,
)


RUN_ENTRIES = 1 << 12  # the most joint digits of a run of several chains in Symmetry.apply


def _admissible(sigma: tuple, config: SpaceConfig) -> bool:
    """True iff chain s(i) has the same block widths as chain i for all i,
    for a sigma already read as Python ints."""
    if sorted(sigma) != list(range(config.m)):
        raise UsageError(f"not a permutation of 0..{config.m - 1}: {sigma}")
    return all(config.pi[sigma[i]] == config.pi[i] for i in range(config.m))


def inverse(perm) -> tuple:
    """The inverse of a permutation of 0..len(perm)-1."""
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def width_classes(config: SpaceConfig):
    """The chains grouped by width profile: lists of 0-based chain
    indices, classes and their members in order of first appearance."""
    classes = {}
    for i, row in enumerate(config.pi):
        classes.setdefault(row, []).append(i)
    return list(classes.values())


def admissible_permutations(config: SpaceConfig):
    """All admissible permutations, as 0-based tuples, deterministic order.

    Chains are grouped by width_classes; the permutation of the last
    group varies fastest.  Generated lazily, so the first sigma costs no
    more than one permutation per group.
    """
    groups = width_classes(config)
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
    return math.prod(math.factorial(len(c)) for c in width_classes(config))


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
    return (sum(log10_factorial(len(c)) for c in width_classes(config))
            + sum(chain_order_log10(config.q, row) for row in config.pi))


def alt_full_order_unit(q, m, n) -> int:
    """Alternative closed form sometimes quoted for the all-unit-width
    space: (q!)^(m*(q^n-1)/(q-1) + m) * m!.

    Carries the same extra q!-per-chain factor as alt_chain_order_unit
    and disagrees with full_order and with enumeration; reported next
    to the enumerated count so the mismatch is visible.
    """
    q, m, n = int_arg(q, "field size", 2), int_arg(m, "m", 1), int_arg(n, "n", 1)
    return math.factorial(q) ** (m * ((q ** n - 1) // (q - 1)) + m) * math.factorial(m)


class Symmetry:
    """Canonical (sigma, chains) form of a space isometry.

    sigma is 0-based: output row i is input row sigma[i] transformed by
    chains[sigma[i]].  chains[k] acts on chain k of the input.
    """

    __slots__ = ("config", "sigma", "chains", "_runs")

    def __init__(self, config: SpaceConfig, sigma, chains):
        sigma = int_tuple(sigma, "sigma entry")
        if not _admissible(sigma, config):
            raise ValidationError(f"permutation {sigma} moves a chain onto different widths")
        chains = seq(chains, "chain symmetry")
        if len(chains) != config.m:
            raise UsageError(f"need {config.m} chain symmetries, got {len(chains)}")
        for k, ch in enumerate(chains):
            if not isinstance(ch, ChainSymmetry):
                raise UsageError(f"chain {k + 1}: not a ChainSymmetry")
            if ch.q != config.q or ch.chain_pi != config.pi[k]:
                raise UsageError(f"chain {k + 1}: shape {ch.chain_pi} over q={ch.q} does not "
                                 f"match config row {config.pi[k]} over q={config.q}")
        self.config = config
        self.sigma = sigma
        self.chains = chains
        self._runs = None  # what apply reads, per run of input chains

    def apply(self, v: BlockVector) -> BlockVector:
        """The image T(v): the sum, over runs of adjacent input chains, of the
        run's _run_table at v's joint digit there.  The first call cuts runs
        of at most RUN_ENTRIES joint digits (a wider chain is a run of its
        own) and keeps a memoryview of each table."""
        cfg = self.config
        if v.config is not cfg and v.config != cfg:
            raise UsageError("vector does not belong to this symmetry's space")
        runs = self._runs
        if runs is None:
            inv, cuts = inverse(self.sigma), [0]
            for k in range(1, cfg.m):
                if cfg.chain_place[k] // cfg.chain_place[cuts[-1]] * cfg.chain_size[k] > RUN_ENTRIES:
                    cuts.append(k)
            tables = [_run_table(self, inv, lo, hi) for lo, hi in zip(cuts, cuts[1:] + [cfg.m])]
            runs = self._runs = [(t.tolist() if t.dtype == object else memoryview(t), cfg.chain_place[lo], len(t))
                                 for lo, t in zip(cuts, tables)]
        r, out = v._rank, 0
        for table, place, size in runs:
            out += table[r // place % size]
        image = BlockVector.__new__(BlockVector)
        image.config, image._rank, image._blocks = cfg, out, None
        return image

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
            sigma = tuple(x - 1 for x in int_tuple(doc["sigma"], "sigma entry"))
            chains = [ChainSymmetry.from_json(cd, config.q) for cd in doc["chains"]]
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
    inv_b = inverse(B.sigma)
    chains = [compose_chain(A.chains[inv_b[j]], B.chains[j]) for j in range(m)]
    return Symmetry(A.config, sigma, chains)


def invert_symmetry(A: Symmetry) -> Symmetry:
    chains = [invert_chain(A.chains[A.sigma[j]]) for j in range(A.config.m)]
    return Symmetry(A.config, inverse(A.sigma), chains)


def make_translation(w: BlockVector) -> Symmetry:
    """The symmetry v -> v + w as a chain-only triangular map: chain k's
    rank table adds w's chain-k digit to each point of the chain."""
    cfg = w.config
    chains = [ChainSymmetry._of(cfg.q, row, add_ranks(cfg, chain_ranks(f"chain {k + 1}", size),
                                                      cfg.chain_subrank(w.rank(), k)))
              for k, (row, size) in enumerate(zip(cfg.pi, cfg.chain_size))]
    return Symmetry(cfg, tuple(range(cfg.m)), chains)


def random_symmetry(config: SpaceConfig, seed) -> Symmetry:
    """Uniformly random symmetry, reproducible from the seed: sigma by one
    rng.sample per class of equal chains, then each chain as random_chain
    draws it, with the same stream contract and the same refusal."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    refuse_large_chains(config.q, config.pi)
    sigma = [0] * config.m
    for idxs in width_classes(config):
        for pos, img in zip(idxs, rng.sample(idxs, len(idxs))):
            sigma[pos] = img
    levels = iter(random_levels(rng, [s for row in config.pi for s in level_shapes(config.q, row)]))
    chains = [ChainSymmetry._of(config.q, row, _chain_table([next(levels) for _ in row])) for row in config.pi]
    return Symmetry(config, tuple(sigma), chains)


def all_symmetries(config: SpaceConfig):
    """Yield the whole symmetry group in canonical form, up to the group cap."""
    check_group_cap("symmetry group", full_order_log10(config), lambda: full_order(config))
    chain_groups = [list(all_chain_symmetries(config.q, row)) for row in config.pi]
    for sigma in admissible_permutations(config):
        for chains in product(*chain_groups):
            yield Symmetry(config, sigma, chains)


def as_rank_table(T: Symmetry) -> np.ndarray:
    """Dense action of T on every vector rank, a fresh array; a space over
    the points cap is refused."""
    T.config.check_materialize()
    out = _run_table(T, inverse(T.sigma), 0, T.config.m)
    return out if out.flags.writeable else out.astype(np.int64)


def _run_table(T: Symmetry, inv, lo, hi) -> np.ndarray:
    """The images of adjacent input chains lo..hi-1 by their joint digit: the
    sum of each chain k's rank table scaled to the place of output chain
    inv[k], in int64, or in exact Python ints past 2^63 points, where int64
    overflows.  A lone chain feeding output chain 1 gives its narrow
    read-only table itself."""
    cfg = T.config
    out = None
    for k in range(lo, hi):  # chain k's digit is the outer axis, above lo..k-1
        table, to = T.chains[k]._table, cfg.chain_place[inv[k]]
        if to != 1 or hi - lo > 1:
            table = table.astype(object if cfg.size > 1 << 63 else np.int64) * to
        out = table if out is None else (table[:, None] + out).ravel()
    return out


# decomposition of a raw bijection table into canonical form


def decompose_full(config: SpaceConfig, table) -> Symmetry:
    """Recover the canonical (sigma, chains) form of an isometry given
    as a dense table over vector ranks.

    With w = f(0), tau comes from the images of each chain's level-1
    weight-1 vectors and chain k's map is f's chain-tau(k) digit on k's
    axis, w included: a digit of f - w is 0 where f's is w's, so no field
    arithmetic runs on an accepted table.  With several chains the checks
    are masks over the axis digits, each width class's maps are extracted,
    rebuilt and compared in one pass, and the result is compared with f.
    A refusal is that of f - w: a distance witness if one is found (the
    failing ranks first), else the chain index.  A table that is no
    bijection is refused as bijection_array refuses it, at once with one
    chain, else only on a refusal unless f permutes the candidate's images
    where the two differ."""
    checked = config.m == 1  # f is known to be a bijection
    f = (bijection_array if checked else rank_array)(table, config.size)

    def reject(chain_index, context, *anchors):
        if not checked:
            bijection_array(f, config.size)
        pair = distance_witness(config.q, config.pi, f, anchors)
        if pair is not None:
            raise NotIsometryError(f"distance not preserved for ranks {pair[0]} and {pair[1]}", witness=pair)
        raise StructureError(context, chain_index=chain_index)

    def chain_map(k, g):
        """Chain k's map read off g, its axis digits, refused as f is."""
        try:
            wk = config.chain_subrank(w, tau[k])
            return _decompose_bijection(q, config.pi[k], g, wk, partial(sub_ranks, config))
        except (NotIsometryError, StructureError) as exc:
            if not checked:
                bijection_array(f, config.size)
            if isinstance(exc, StructureError):
                raise StructureError(str(exc), chain_index=k + 1) from exc
            u, v = (x * config.chain_place[k] for x in exc.witness)
            raise NotIsometryError(f"distance not preserved for ranks {u} and {v}", witness=(u, v)) from exc

    q, m, w = config.q, config.m, int(f[0])
    if m == 1:
        tau, low = [0], q ** config.pi[0][0]
        up = np.flatnonzero(f[1:low] // low != w // low)
        if len(up):
            reject(1, "image of a weight-1 point of chain 1 has weight > 1", int(up[0]) + 1)
        return Symmetry(config, (0,), [chain_map(0, f)])

    # the axis points chain by chain, rank 0 first, and f's chain digits there
    place, size = np.array(config.chain_place), np.array(config.chain_size)
    chain = np.repeat(np.arange(m), size)
    start = np.cumsum(size) - size
    x = np.arange(len(chain)) - start[chain]
    ranks = x * place[chain]
    img = f[ranks]
    if (np.diff(np.sort(img)) == 0).sum() > m - 1:  # more than w on every axis
        bijection_array(f, config.size)  # raises: f repeats an image on the chain axes
    digits = img[:, None] // place % size
    moved = digits != digits[0]  # the nonzero chain digits of f - w

    # each chain's weight-1 points at level 1 must land inside a single chain
    first = q ** np.array([row[0] for row in config.pi])
    probe = np.flatnonzero((x > 0) & (x < first[chain]))
    hit = moved[probe].argmax(1)
    tau = hit[np.searchsorted(chain[probe], np.arange(m))]
    one = moved[probe].sum(1) == 1
    low = digits[probe, hit] // first[hit] == digits[0, hit] // first[hit]
    bad = np.flatnonzero(~one | ~low | (hit != tau[chain[probe]]))
    if len(bad):
        k, r = int(chain[probe[bad[0]]]), int(ranks[probe[bad[0]]])
        if one[bad[0]] and low[bad[0]]:
            reject(k + 1, f"chain {k + 1} maps into two different chains", r)
        weight = "> 1" if one[bad[0]] else "!= 1"
        reject(k + 1, f"image of a weight-1 point of chain {k + 1} has weight {weight}", r)
    # tau is a permutation: the probes above have distinct images (no image
    # on the axes repeats), as many as the level-1 weight-1 points they hit
    for k in range(m):
        if config.pi[k] != config.pi[tau[k]]:
            reject(k + 1, f"chain {k + 1} maps onto a chain with different widths")

    # in chain order: a point whose image leaves chain tau(k), or a map not rebuilt from its levels
    moved[np.arange(len(chain)), tau[chain]] = False
    leaves = np.flatnonzero(moved.any(1))
    chains, failed = [None] * m, m
    for members in map(np.array, width_classes(config)):
        row = config.pi[members[0]]
        g = digits[start[members][:, None] + np.arange(size[members[0]]), tau[members][:, None]]
        levels = _levels(q, row, g)
        rebuilt = _chain_table(levels)
        for i, same in enumerate((rebuilt == g).all(1)):
            if same:
                chains[members[i]] = ChainSymmetry._of(q, row, rebuilt[i])
            else:
                failed = min(failed, int(members[i]))
    if len(leaves) and chain[leaves[0]] <= failed:
        k = int(chain[leaves[0]])
        reject(k + 1, f"image of chain {k + 1} leaves chain {tau[k] + 1}", int(ranks[leaves[0]]))
    if failed < m:
        chain_map(failed, digits[start[failed]:start[failed] + size[failed], tau[failed]])  # raises

    cand = Symmetry(config, inverse(tau.tolist()), chains)
    rt = _run_table(cand, tau, 0, m)
    bad = np.flatnonzero(rt != f)
    if len(bad):
        # f equals the bijection rt off bad, so is one iff f[bad] permutes rt[bad]
        checked = np.array_equal(np.sort(f[bad]), np.sort(rt[bad]))
        del rt  # not kept through the witness scan
        reject(None, f"map disagrees with its chain decomposition at rank {bad[0]}", int(bad[0]))
    return cand
