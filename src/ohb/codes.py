"""Codes in an ordered Hamming block space and equivalence search.

A code is any finite nonempty set of vectors.  Two codes are equivalent
when some isometry of the space maps one onto the other.  Isometries
include translations, so the weight distribution is NOT an invariant of
equivalence; screening uses the size and the multiset of pairwise
distances, both of which are.

A code keeps, per chain, one int64 array of its codewords' chain digits.
Invariants and pruning read per-chain distance arrays computed on those
digits by the one distance builder `rank_distance`, so every chain must
have fewer than 2^63 points, as any chain that can carry a
ChainSymmetry has.

The search walks admissible chain permutations on the outside and
matches codewords by backtracking, pruning with per-chain distances
(a matching extends to a triangular map on a chain iff it preserves
that chain's distances).  A complete matching is turned into an
explicit witness Symmetry by filling each permutation table level by
level: constrained entries come from the matched pairs, the rest are
completed in ascending order, and untouched tails stay identity.
"""

from __future__ import annotations

import numpy as np

from .chains import ChainSymmetry, level_places, level_shapes
from .errors import CAPS, StructureError, UsageError, json_int
from .oracle import enumerate_isometries
from .space import (
    BlockVector,
    SpaceConfig,
    format_vector,
    parse_vector,
    rank_distance,
)
from .symmetry import (
    Symmetry,
    admissible_permutations,
    decompose_full,
    full_order,
)

DEFAULT_BUDGET = 200_000
# chain digits are int64; a chain this large could not carry a
# ChainSymmetry anyway, as its first level table has one entry per point
CHAIN_SIZE_LIMIT = 1 << 63


class Code:
    """An immutable set of vectors from one space, stored as sorted ranks."""

    def __init__(self, config: SpaceConfig, vectors):
        for k, size in enumerate(config.chain_size):
            if size >= CHAIN_SIZE_LIMIT:
                raise UsageError(
                    f"chain {k + 1} has {config.q}^{config.chain_dims[k]} points; "
                    "codes need every chain under 2^63 points"
                )
        ranks = set()
        for v in vectors:
            if isinstance(v, BlockVector):
                if v.config != config:
                    raise UsageError("code vector from a different space")
                ranks.add(v.rank())
            else:
                r = int(v)
                if not 0 <= r < config.size:
                    raise UsageError(f"vector rank {r} out of range")
                ranks.add(r)
        if not ranks:
            raise UsageError("a code needs at least one vector")
        self.config = config
        self.ranks = tuple(sorted(ranks))
        self._digits = [
            np.array([config.chain_subrank(r, k) for r in self.ranks], dtype=np.int64)
            for k in range(config.m)
        ]
        self._dist_dist = None
        self._weight_dist = None

    @property
    def size(self) -> int:
        return len(self.ranks)

    def vectors(self):
        return [self.config.unrank(r) for r in self.ranks]

    def __contains__(self, v):
        r = v.rank() if isinstance(v, BlockVector) else int(v)
        return r in set(self.ranks)

    def __eq__(self, other):
        return (
            isinstance(other, Code)
            and self.config == other.config
            and self.ranks == other.ranks
        )

    def __hash__(self):
        return hash((self.config, self.ranks))

    def __repr__(self):
        return f"Code(size={self.size})"

    def _chain_distances(self) -> np.ndarray:
        """The (words, words, m) int8 array of per-chain distances between
        codewords in rank order.  A chain distance is at most n < 64,
        since a chain has at least 2^n points."""
        q, pi = self.config.q, self.config.pi
        return np.stack(
            [rank_distance(q, (pi[k],), d[:, None], d, np.int8) for k, d in enumerate(self._digits)],
            axis=-1,
        )

    def _weights(self) -> np.ndarray:
        """The weight of each codeword in rank order."""
        q, pi = self.config.q, self.config.pi
        return sum(rank_distance(q, (pi[k],), d, 0) for k, d in enumerate(self._digits))

    @property
    def distance_distribution(self):
        """Sorted (distance, count) pairs over unordered distinct pairs."""
        if self._dist_dist is None:
            # int64: the sum over chains can exceed int8
            dist = self._chain_distances().sum(axis=-1, dtype=np.int64)
            self._dist_dist = _counts(dist[np.triu_indices(self.size, 1)])
        return self._dist_dist

    @property
    def weight_distribution(self):
        """Sorted (weight, count) pairs.  Not preserved by equivalence
        (translations move it); kept for reporting only."""
        if self._weight_dist is None:
            self._weight_dist = _counts(self._weights())
        return self._weight_dist

    @property
    def min_distance(self):
        dd = self.distance_distribution
        return dd[0][0] if dd else None

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "vectors": [format_vector(v) for v in self.vectors()],
        }


def _counts(values: np.ndarray):
    """Sorted (value, count) pairs of Python ints."""
    values, counts = np.unique(values, return_counts=True)
    return tuple(zip(values.tolist(), counts.tolist()))


def code_invariants(C: Code) -> dict:
    """The equivalence-invariant record: size, minimum distance, and
    the full pairwise distance distribution."""
    return {
        "size": C.size,
        "min_distance": C.min_distance,
        "distance_distribution": [list(p) for p in C.distance_distribution],
    }


def apply_to_code(T: Symmetry, C: Code) -> Code:
    """The image code: output chain i holds chain sigma[i]'s digits
    mapped through its chain map, reassembled into Python-int ranks."""
    if T.config != C.config:
        raise UsageError("symmetry and code live in different spaces")
    cfg = C.config
    digits = [T.chains[k].apply_ranks(C._digits[k]).tolist() for k in T.sigma]
    image = Code(cfg, [sum(d * p for d, p in zip(word, cfg.chain_place)) for word in zip(*digits)])
    if image.size != C.size or image.distance_distribution != C.distance_distribution:
        raise StructureError("isometry image changed a metric invariant")
    return image


def parse_code_text(config: SpaceConfig, text: str) -> Code:
    """One vector per line in the space text format; # starts a comment."""
    vectors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            vectors.append(parse_vector(config, line))
        except UsageError as exc:
            raise UsageError(f"line {lineno}: {exc}") from exc
    return Code(config, vectors)


def parse_code_json(doc: dict, config: SpaceConfig | None = None) -> Code:
    try:
        file_config = SpaceConfig.from_json(doc["config"])
        entries = doc["vectors"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad code document: {exc}") from exc
    if config is not None and file_config != config:
        raise UsageError("code file declares a different space than requested")
    if not isinstance(entries, list):
        raise UsageError(f"bad code document: vectors must be a list, got {type(entries).__name__}")
    cfg = config or file_config
    vectors = []
    for entry in entries:
        if isinstance(entry, str):
            vectors.append(parse_vector(cfg, entry))
        else:
            vectors.append(json_int(entry, "code entry"))
    return Code(cfg, vectors)


class EquivalenceResult:
    """Verdict of an equivalence query: equivalent (with a verified
    witness), not_equivalent (with the reason), or inconclusive when
    the budget truncated the search."""

    def __init__(self, verdict, witness=None, reason=None, nodes=0):
        self.verdict = verdict
        self.witness = witness
        self.reason = reason
        self.nodes = nodes

    def __bool__(self):
        return self.verdict == "equivalent"

    def __repr__(self):
        return f"EquivalenceResult({self.verdict!r}, nodes={self.nodes})"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness else None,
            "reason": self.reason,
            "nodes": self.nodes,
        }


def chain_from_pairs(q, chain_pi, src, dst) -> ChainSymmetry:
    """Build a triangular map sending each src row to its dst row, both
    given as arrays of row ranks.

    The pairs must preserve chain distance (checked implicitly: any
    contradiction surfaces as an inconsistent or non-injective table
    entry).  Unconstrained entries are filled in ascending order and
    untouched tails stay identity, so the result is deterministic.
    """
    place = level_places(q, chain_pi)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    tables = []
    for j, (tails, sz) in enumerate(level_shapes(q, chain_pi)):
        tail = src // place[j + 1]
        s, d = src // place[j] % sz, dst // place[j] % sz
        perm = np.full((tails, sz), -1, dtype=np.int64)
        perm[tail, s] = d
        clash = np.nonzero(perm[tail, s] != d)[0]
        if len(clash):
            raise StructureError(
                f"level {j + 1}, tail {tail[clash[0]]}: pairs assign two images to one point"
            )
        used = np.zeros((tails, sz), dtype=bool)
        used[tail, d] = True
        short = np.nonzero(used.sum(axis=1) != (perm >= 0).sum(axis=1))[0]
        if len(short):
            raise StructureError(f"level {j + 1}, tail {short[0]}: pairs collapse two points")
        # row-major order pairs each row's free slots with its unused
        # values, both ascending
        perm[perm < 0] = np.nonzero(~used)[1]
        tables.append(perm)
    return ChainSymmetry(q, chain_pi, tables)


def equivalent(C1: Code, C2: Code, budget: int = DEFAULT_BUDGET) -> EquivalenceResult:
    """Search for a symmetry mapping C1 onto C2.

    Invariant screening first (no search on mismatch); then for each
    admissible chain permutation, codewords are matched by backtracking
    with per-chain distance pruning; a found matching is completed to a
    witness and verified before being returned.  If the budget cuts the
    search off, a brute-force fallback lists every isometry when the
    space is within the oracle_list cap and the group within the group
    cap; otherwise the verdict is inconclusive.
    """
    if C1.config != C2.config:
        raise UsageError("codes live in different spaces")
    cfg = C1.config
    if C1.size != C2.size:
        return EquivalenceResult("not_equivalent", reason="size mismatch", nodes=0)
    if C1.distance_distribution != C2.distance_distribution:
        return EquivalenceResult(
            "not_equivalent", reason="distance distribution mismatch", nodes=0
        )

    # A in (weight, rank) order for pruning: ranks are ascending, so a
    # stable sort by weight breaks ties by rank
    order = np.argsort(C1._weights(), kind="stable")
    cda = C1._chain_distances()[order][:, order]
    cdb = C2._chain_distances()
    na = C1.size

    nodes = 0
    aborted = False

    def rec(t):
        nonlocal nodes, aborted
        if t == na:
            return True
        # candidate b keeps every chain distance to the words matched so far
        ok = (cdb_tau[:, match[:t]] == cda[t, :t]).all((1, 2)).tolist()
        for b in range(na):
            if used[b]:
                continue
            nodes += 1
            if nodes > budget:
                aborted = True
                return False
            if ok[b]:
                match[t] = b
                used[b] = True
                if rec(t + 1):
                    return True
                used[b] = False
            if aborted:
                return False
        return False

    for sigma in admissible_permutations(cfg):
        tau = [0] * cfg.m
        for i, k in enumerate(sigma):
            tau[k] = i
        cdb_tau = cdb[:, :, tau]
        match = np.full(na, -1)
        used = [False] * na
        if rec(0):
            chains = [
                chain_from_pairs(cfg.q, cfg.pi[k], C1._digits[k][order], C2._digits[tau[k]][match])
                for k in range(cfg.m)
            ]
            T = Symmetry(cfg, sigma, chains)
            if apply_to_code(T, C1) != C2:
                raise StructureError("matched witness failed verification")
            return EquivalenceResult("equivalent", witness=T, nodes=nodes)
        if aborted:
            break

    if not aborted:
        return EquivalenceResult("not_equivalent", reason="search exhausted", nodes=nodes)

    if cfg.size <= CAPS["oracle_list"] and full_order(cfg) <= CAPS["group"]:
        _, tables = enumerate_isometries(cfg, want_list=True)
        src = set(C1.ranks)
        dst = set(C2.ranks)
        for table in tables:
            if {table[r] for r in src} == dst:
                T = decompose_full(cfg, table)
                if apply_to_code(T, C1) != C2:
                    raise StructureError("fallback witness failed verification")
                return EquivalenceResult("equivalent", witness=T, nodes=nodes)
        return EquivalenceResult(
            "not_equivalent", reason="every isometry checked", nodes=nodes
        )
    return EquivalenceResult("inconclusive", reason="budget exhausted", nodes=nodes)

