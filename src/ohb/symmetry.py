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

import random
from functools import partial
from itertools import permutations, product

import numpy as np

from .chains import (
    ChainSymmetry,
    _alt_factors,
    _chain_factors,
    _chain_table,
    _decompose_bijection,
    _levels,
    all_chain_symmetries,
    chain_ranks,
    check_group_cap,
    compose_chain,
    identity_chain,
    invert_chain,
    level_shapes,
    order,
    random_levels,
    refuse_large_chains,
)
from .errors import (
    CAPS,
    NotIsometryError,
    StructureError,
    UsageError,
    ValidationError,
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
    return order(_s_pi_factors(config))


def _s_pi_factors(config):
    return [("!", len(c), 1) for c in width_classes(config)]


def full_order(config: SpaceConfig) -> int:
    """Order of the symmetry group: product of the chain group orders
    times the number of admissible permutations."""
    return order(_full_factors(config))


def _full_factors(config):
    return _s_pi_factors(config) + [f for row in config.pi for f in _chain_factors(config.q, row)]


def alt_full_order_unit(q, m, n) -> int:
    """Alternative closed form sometimes quoted for the all-unit-width
    space: (q!)^(m*(q^n-1)/(q-1) + m) * m!.

    Carries the same extra q!-per-chain factor as alt_chain_order_unit
    and disagrees with full_order and with enumeration; reported next
    to the enumerated count so the mismatch is visible.
    """
    return order(_alt_factors(int_arg(q, "field size", 2), int_arg(m, "m", 1), int_arg(n, "n", 1)))


class Symmetry:
    """Canonical (sigma, chains) form of a space isometry.

    sigma is 0-based: output row i is input row sigma[i] transformed by
    chains[sigma[i]].  chains[k] acts on chain k of the input.
    """

    __slots__ = ("config", "sigma", "chains", "_images")

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
        self._images = None  # what apply reads: a memoryview of _image_table

    def apply(self, v: BlockVector) -> BlockVector:
        """The image T(v).  Within the points cap, the first call keeps a
        memoryview of _image_table, and each call reads v's entry there.
        Past it, the image is the sum over output chains i of chain
        sigma[i]'s table entry at v's digit there, placed at i, in exact
        Python ints, and nothing is kept."""
        cfg = self.config
        if v.config is not cfg and v.config != cfg:
            raise UsageError("vector does not belong to this symmetry's space")
        r, images = v._rank, self._images
        if images is None and cfg.size <= CAPS["points"]:
            images = self._images = memoryview(_image_table(self))
        if images is not None:
            out = images[r]
        else:
            place, size, out = cfg.chain_place, cfg.chain_size, 0
            for i, k in enumerate(self.sigma):
                out += self.chains[k]._table.item(r // place[k] % size[k]) * place[i]
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
    check_group_cap("symmetry group", _full_factors(config))
    chain_groups = [list(all_chain_symmetries(config.q, row)) for row in config.pi]
    for sigma in admissible_permutations(config):
        for chains in product(*chain_groups):
            yield Symmetry(config, sigma, chains)


def as_rank_table(T: Symmetry) -> np.ndarray:
    """Dense action of T on every vector rank, a fresh int64 array; a space
    over the points cap is refused."""
    T.config.check_materialize()
    return _image_table(T).astype(np.int64)


def _image_table(T: Symmetry) -> np.ndarray:
    """The image of every rank: the sum of each input chain k's rank table
    placed at output chain inv[k], in the narrowest unsigned type that
    holds a rank.  Every partial sum is a rank, so that type is exact.  A
    lone chain gives its own read-only table."""
    cfg = T.config
    if cfg.m == 1:
        return T.chains[0]._table
    inv, dtype, out = inverse(T.sigma), np.min_scalar_type(cfg.size - 1), None
    for k, ch in enumerate(T.chains):  # chain k's digit is the outer axis, above 0..k-1
        table = ch._table.astype(dtype) * dtype.type(cfg.chain_place[inv[k]])
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
    rt = _image_table(cand)
    bad = np.flatnonzero(rt != f)
    if len(bad):
        # f equals the bijection rt off bad, so is one iff f[bad] permutes rt[bad]
        checked = np.array_equal(np.sort(f[bad]), np.sort(rt[bad]))
        del rt  # not kept through the witness scan
        reject(None, f"map disagrees with its chain decomposition at rank {bad[0]}", int(bad[0]))
    return cand
