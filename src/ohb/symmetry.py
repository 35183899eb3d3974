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
from itertools import permutations, product

import numpy as np

from .chains import (
    ChainSymmetry,
    _decompose_bijection,
    all_chain_symmetries,
    chain_order,
    compose_chain,
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
    int_arg,
    json_int,
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


def is_admissible(sigma, config: SpaceConfig) -> bool:
    """True iff chain s(i) has the same block widths as chain i for all i."""
    sigma = tuple(int_arg(x, "sigma entry") for x in sigma)
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
    total = sum(log10_factorial(len(c)) for c in width_classes(config))
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

    __slots__ = ("config", "sigma", "chains", "_gathers")

    def __init__(self, config: SpaceConfig, sigma, chains):
        sigma = tuple(int_arg(x, "sigma entry") for x in sigma)
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
        self._gathers = None  # per output chain, what apply reads

    def apply(self, v: BlockVector) -> BlockVector:
        """The image T(v), read off v's rank one chain digit at a time.
        The first call keeps, per output chain i, a memoryview of the rank
        table of chain map sigma[i] (kept on that map, 8 bytes a row) with
        the places of its input and output digits."""
        cfg = self.config
        if v.config is not cfg and v.config != cfg:
            raise UsageError("vector does not belong to this symmetry's space")
        gathers = self._gathers
        if gathers is None:
            gathers = self._gathers = tuple(
                (memoryview(self.chains[k].rank_table()), cfg.chain_place[k], cfg.chain_size[k], cfg.chain_place[i])
                for i, k in enumerate(self.sigma)
            )
        r, out = v._rank, 0
        for table, place, size, to in gathers:
            out += table[r // place % size] * to
        return BlockVector._of_rank(cfg, out)

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
    inv_b = inverse(B.sigma)
    chains = [compose_chain(A.chains[inv_b[j]], B.chains[j]) for j in range(m)]
    return Symmetry(A.config, sigma, chains)


def invert_symmetry(A: Symmetry) -> Symmetry:
    chains = [invert_chain(A.chains[A.sigma[j]]) for j in range(A.config.m)]
    return Symmetry(A.config, inverse(A.sigma), chains)


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
        chains.append(ChainSymmetry._trusted(cfg.q, row, tables))
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
    chains = [ChainSymmetry._trusted(config.q, row, [next(levels) for _ in row]) for row in config.pi]
    return Symmetry(config, tuple(sigma), chains)


def all_symmetries(config: SpaceConfig):
    """Yield the whole symmetry group in canonical form, up to the group cap."""
    check_cap("symmetry group", full_order(config), "elements", CAPS["group"])
    chain_groups = [list(all_chain_symmetries(config.q, row)) for row in config.pi]
    for sigma in admissible_permutations(config):
        for chains in product(*chain_groups):
            yield Symmetry(config, sigma, chains)


def as_rank_table(T: Symmetry) -> np.ndarray:
    """Dense action of T on every vector rank; a space over the points
    cap is refused."""
    T.config.check_materialize()
    return _rank_table(T)


def _rank_table(T: Symmetry) -> np.ndarray:
    """as_rank_table without the cap: each chain map's rank table, scaled to
    the digit of the chain it lands on, summed over the chain axes."""
    cfg = T.config
    inv = inverse(T.sigma)
    # chain m-1 is the outermost axis, so the raveled sum is in rank order
    out = np.zeros(1, dtype=np.int64)
    for k in reversed(range(cfg.m)):
        out = (out[:, None] + T.chains[k].rank_table() * cfg.chain_place[inv[k]]).ravel()
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
    first), otherwise with the chain index that failed.  A table that is
    no bijection is refused as bijection_array refuses it.  That count
    runs first with one chain; with several, only on a refusal, and not
    when the table permutes the candidate's images where the two differ.
    """
    checked = config.m == 1  # f is known to be a bijection
    f = (bijection_array if checked else rank_array)(table, config.size)

    def reject(chain_index, context, *anchors):
        if not checked:
            bijection_array(f, config.size)
        w = distance_witness(config.q, config.pi, f, anchors)
        if w is not None:
            raise NotIsometryError(
                f"distance not preserved for ranks {w[0]} and {w[1]}", witness=w
            )
        raise StructureError(context, chain_index=chain_index)

    q, m = config.q, config.m
    # f minus the translation w = f(0), on each chain axis only: nothing
    # else is read before the final check against f itself
    w_rank = int(f[0])
    axes = []
    for k in range(m):
        img = f[np.arange(config.chain_size[k]) * config.chain_place[k]]
        axes.append(sub_ranks(config, img, w_rank) if w_rank else img)
    if not checked:
        points = np.sort(np.concatenate([axes[0][:1], *(a[1:] for a in axes)]))
        if (points[1:] == points[:-1]).any():
            bijection_array(f, config.size)  # raises: f repeats an image on the chain axes
    # each chain's weight-1 sphere at level 1 must land inside a single
    # chain with the same widths
    tau = [None] * m
    for k in range(m):
        for x in range(1, q ** config.pi[k][0]):
            r = x * config.chain_place[k]
            img = int(axes[k][x])
            hit = [i for i in range(m) if config.chain_subrank(img, i) != 0]
            if len(hit) != 1:
                reject(k + 1, f"image of a weight-1 point of chain {k + 1} has weight != 1", r)
            j = hit[0]
            if config.chain_subrank(img, j) >= q ** config.pi[j][0]:
                reject(k + 1, f"image of a weight-1 point of chain {k + 1} has weight > 1", r)
            if tau[k] is None:
                tau[k] = j
            elif tau[k] != j:
                reject(k + 1, f"chain {k + 1} maps into two different chains", r)
    # tau is a permutation: the probes above have distinct images (no image
    # on the axes repeats), as many as the level-1 weight-1 points they hit
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
            # sub is a bijection: its points are in range and not repeated
            ch = _decompose_bijection(q, config.pi[k], sub)
        except (NotIsometryError, StructureError) as exc:
            if not checked:
                bijection_array(f, config.size)
            if isinstance(exc, StructureError):
                raise StructureError(str(exc), chain_index=k + 1) from exc
            u, v = (x * place for x in exc.witness)
            raise NotIsometryError(f"distance not preserved for ranks {u} and {v}", witness=(u, v)) from exc
        # adding w back, as make_translation does: each level adds w's
        # block at that level of the chain it lands on
        wk = config.chain_subrank(w_rank, tau[k])
        chains[k] = ChainSymmetry._trusted(q, config.pi[k], [
            add_ranks(config, level, wk // p % level.shape[1]) for level, p in zip(ch.tables, ch._place)
        ]) if wk else ch

    cand = Symmetry(config, inverse(tau), chains)
    if m > 1:  # with one chain, _decompose_bijection compared the whole table
        rt = _rank_table(cand)
        bad = np.flatnonzero(rt != f)
        if len(bad):
            # f equals the bijection rt off bad, so is one iff f[bad] permutes rt[bad]
            checked = np.array_equal(np.sort(f[bad]), np.sort(rt[bad]))
            del rt  # not kept through the witness scan
            reject(None, f"map disagrees with its chain decomposition at rank {bad[0]}", int(bad[0]))
    return cand
