"""Codes in an ordered Hamming block space and equivalence search.

A code is any finite nonempty set of vectors.  Two codes are equivalent
when some isometry of the space maps one onto the other.  Isometries
include translations, so the weight distribution is NOT an invariant of
equivalence; screening uses the size and the multiset of pairwise
distances, both of which are.

The search walks admissible chain permutations on the outside and
matches codewords by backtracking, pruning with per-chain distances
(a matching extends to a triangular map on a chain iff it preserves
that chain's distances).  A complete matching is turned into an
explicit witness Symmetry by filling each permutation table level by
level: constrained entries come from the matched pairs, the rest are
completed in ascending order, and untouched tails stay identity.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .chains import ChainSymmetry, level_places, level_shapes
from .errors import StructureError, UsageError
from .fields import block_rank
from .space import (
    BlockVector,
    SpaceConfig,
    chain_distance,
    distance,
    format_vector,
    parse_vector,
    weight,
)
from .symmetry import (
    Symmetry,
    admissible_permutations,
    decompose_full,
    full_order,
)

DEFAULT_BUDGET = 200_000
FALLBACK_POINT_CAP = 16
FALLBACK_GROUP_CAP = 1 << 20


class Code:
    """An immutable set of vectors from one space, stored as sorted ranks."""

    def __init__(self, config: SpaceConfig, vectors):
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

    @property
    def distance_distribution(self):
        """Sorted (distance, count) pairs over unordered distinct pairs."""
        if self._dist_dist is None:
            vs = self.vectors()
            counts = Counter()
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    counts[distance(vs[i], vs[j])] += 1
            self._dist_dist = tuple(sorted(counts.items()))
        return self._dist_dist

    @property
    def weight_distribution(self):
        """Sorted (weight, count) pairs.  Not preserved by equivalence
        (translations move it); kept for reporting only."""
        if self._weight_dist is None:
            counts = Counter(weight(v) for v in self.vectors())
            self._weight_dist = tuple(sorted(counts.items()))
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


def code_invariants(C: Code) -> dict:
    """The equivalence-invariant record: size, minimum distance, and
    the full pairwise distance distribution."""
    return {
        "size": C.size,
        "min_distance": C.min_distance,
        "distance_distribution": [list(p) for p in C.distance_distribution],
    }


def apply_to_code(T: Symmetry, C: Code) -> Code:
    if T.config != C.config:
        raise UsageError("symmetry and code live in different spaces")
    image = Code(C.config, [T.apply(v) for v in C.vectors()])
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
    cfg = config or file_config
    vectors = []
    for entry in entries:
        if isinstance(entry, str):
            vectors.append(parse_vector(cfg, entry))
        else:
            vectors.append(int(entry))
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


def chain_from_pairs(q, chain_pi, pairs) -> ChainSymmetry:
    """Build a triangular map sending each src row to its dst row.

    The pairs must preserve chain distance (checked implicitly: any
    contradiction surfaces as an inconsistent or non-injective table
    entry).  Unconstrained entries are filled in ascending order and
    untouched tails stay identity, so the result is deterministic.
    """
    n = len(chain_pi)
    place = level_places(q, chain_pi)
    src = np.array([s for s, _ in pairs], dtype=np.int64).reshape(-1, n)
    dst = np.array([d for _, d in pairs], dtype=np.int64).reshape(-1, n)
    src_rank = src @ np.array(place[:-1], dtype=np.int64)
    tables = []
    for j, (tails, sz) in enumerate(level_shapes(q, chain_pi)):
        tail = src_rank // place[j + 1]
        perm = np.full((tails, sz), -1, dtype=np.int64)
        perm[tail, src[:, j]] = dst[:, j]
        clash = np.nonzero(perm[tail, src[:, j]] != dst[:, j])[0]
        if len(clash):
            raise StructureError(
                f"level {j + 1}, tail {tail[clash[0]]}: pairs assign two images to one point"
            )
        used = np.zeros((tails, sz), dtype=bool)
        used[tail, dst[:, j]] = True
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
    search off, a brute-force fallback runs when the space is small
    enough; otherwise the verdict is inconclusive.
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

    # per-codeword chain rows (block ranks), A ordered for pruning
    a_vecs = sorted(C1.vectors(), key=lambda v: (weight(v), v.rank()))
    b_vecs = C2.vectors()
    rows_a = [_chain_rows(cfg, v) for v in a_vecs]
    rows_b = [_chain_rows(cfg, v) for v in b_vecs]
    na = len(rows_a)
    cda = [
        [
            tuple(chain_distance(rows_a[i][k], rows_a[j][k]) for k in range(cfg.m))
            for j in range(na)
        ]
        for i in range(na)
    ]
    cdb = [
        [
            tuple(chain_distance(rows_b[i][k], rows_b[j][k]) for k in range(cfg.m))
            for j in range(na)
        ]
        for i in range(na)
    ]

    nodes = 0
    aborted = False
    match = [-1] * na
    used = [False] * na

    def rec(t, tau):
        nonlocal nodes, aborted
        if t == na:
            return True
        for b in range(na):
            if used[b]:
                continue
            nodes += 1
            if nodes > budget:
                aborted = True
                return False
            ok = True
            for s in range(t):
                da = cda[t][s]
                db = cdb[b][match[s]]
                for k in range(cfg.m):
                    if da[k] != db[tau[k]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                match[t] = b
                used[b] = True
                if rec(t + 1, tau):
                    return True
                used[b] = False
                match[t] = -1
            if aborted:
                return False
        return False

    for sigma in admissible_permutations(cfg):
        tau = [0] * cfg.m
        for i, k in enumerate(sigma):
            tau[k] = i
        match = [-1] * na
        used = [False] * na
        if rec(0, tau):
            chains = [
                chain_from_pairs(
                    cfg.q,
                    cfg.pi[k],
                    [(rows_a[i][k], rows_b[match[i]][tau[k]]) for i in range(na)],
                )
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

    if cfg.size <= FALLBACK_POINT_CAP and full_order(cfg) <= FALLBACK_GROUP_CAP:
        from .oracle import enumerate_isometries

        _, tables = enumerate_isometries(cfg, cap=FALLBACK_POINT_CAP, want_list=True)
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


def _chain_rows(cfg: SpaceConfig, v: BlockVector):
    return [tuple(block_rank(cfg.q, b) for b in v.blocks[k]) for k in range(cfg.m)]
