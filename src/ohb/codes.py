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

With one chain the isometries are all the triangular maps, so codes are
equivalent iff the tries of their words' level digits (top level at the
root) are isomorphic: AHU canonical forms (Aho, Hopcroft and Ullman,
1974) decide it, and children of equal form pair up words.  Otherwise
the search walks admissible chain permutations on the outside and
matches codewords one per level of oracle.depth_first, pruning with
per-chain distances (a matching extends to a triangular map on a chain
iff it preserves that chain's distances).  Word pairs become an explicit
witness Symmetry by filling each permutation table level by level:
constrained entries come from the pairs, the rest are completed in
ascending order, and untouched tails stay identity.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .chains import ChainSymmetry, _chain_table, _check_dims, level_places, level_shapes
from .errors import CAPS, StructureError, UsageError, check_cap, int_arg, int_array, int_text, int_tuple
from .oracle import depth_first, enumerate_isometries
from .space import SpaceConfig, format_vector, parse_vector, rank_distance
from .symmetry import (
    Symmetry,
    admissible_permutations,
    decompose_full,
    full_order,
    inverse,
)

DEFAULT_BUDGET = 200_000
# chain digits are int64; a chain this large could not carry a
# ChainSymmetry anyway, as its first level table has one entry per point
CHAIN_SIZE_LIMIT = 1 << 63


class Code:
    """An immutable set of vectors from one space, given and stored as
    integer ranks (sorted); vectors() is their text-I/O view."""

    def __init__(self, config: SpaceConfig, ranks):
        for k, size in enumerate(config.chain_size):
            if size >= CHAIN_SIZE_LIMIT:
                raise UsageError(f"chain {k + 1} has {config.q}^{config.chain_dims[k]} points; "
                                 "codes need every chain under 2^63 points")
        read = set()
        for r in int_tuple(ranks, "code vector rank"):
            if not 0 <= r < config.size:
                raise UsageError(f"vector rank {r} out of range")
            read.add(r)
        if not read:
            raise UsageError("a code needs at least one vector")
        self.config = config
        self.ranks = tuple(sorted(read))
        self._digits = [
            np.array([r // place % size for r in self.ranks], dtype=np.int64)
            for place, size in zip(config.chain_place, config.chain_size)
        ]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def vectors(self):
        return [self.config.unrank(r) for r in self.ranks]

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

    @cached_property
    def distance_distribution(self):
        """Sorted (distance, count) pairs over unordered distinct pairs."""
        # int64: the sum over chains can exceed int8
        dist = self._chain_distances().sum(axis=-1, dtype=np.int64)
        return _counts(dist[np.triu_indices(self.size, 1)])

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
    """Sorted (value, count) pairs of Python ints, for values >= 0."""
    counts = np.bincount(values)
    values = np.flatnonzero(counts)
    return tuple(zip(values.tolist(), counts[values].tolist()))


def code_invariants(C: Code) -> dict:
    """The equivalence-invariant record: size, minimum distance, and
    the full pairwise distance distribution."""
    return {
        "size": C.size,
        "min_distance": C.min_distance,
        "distance_distribution": [list(p) for p in C.distance_distribution],
    }


def apply_to_code(T: Symmetry, C: Code) -> Code:
    """The image code: output chain i holds chain sigma[i]'s digits read off
    its chain map's rank table, reassembled into Python-int ranks."""
    if T.config != C.config:
        raise UsageError("symmetry and code live in different spaces")
    cfg = C.config
    digits = [T.chains[k]._table[C._digits[k]].tolist() for k in T.sigma]
    image = Code(cfg, [sum(d * p for d, p in zip(word, cfg.chain_place)) for word in zip(*digits)])
    if image.size != C.size or image.distance_distribution != C.distance_distribution:
        raise StructureError("isometry image changed a metric invariant")
    return image


def parse_code_text(config: SpaceConfig, text: str) -> Code:
    """One vector per line in the space text format; # starts a comment."""
    ranks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ranks.append(parse_vector(config, line).rank())
        except UsageError as exc:
            raise UsageError(f"line {lineno}: {exc}") from exc
    return Code(config, ranks)


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
    ranks = [parse_vector(cfg, e).rank() if isinstance(e, str) else int_arg(e, "code entry") for e in entries]
    return Code(cfg, ranks)


class EquivalenceResult:
    """Verdict of an equivalence query: equivalent (with a verified
    witness), not_equivalent (with the reason), or inconclusive when
    the budget truncated the search."""

    def __init__(self, verdict, witness=None, reason=None, nodes=0):
        self.verdict = verdict
        self.witness = witness
        self.reason = reason
        self.nodes = nodes

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
    untouched tails stay identity, so the result is deterministic.  A
    chain over the points cap is refused before any table is built.
    """
    q, chain_pi = _check_dims(q, chain_pi)
    place = level_places(q, chain_pi)
    check_cap("chain", place[-1], "points", CAPS["points"], "a map of it built from word pairs would hold "
              f"{int_text(sum(tails * sz for tails, sz in level_shapes(q, chain_pi)))} table entries")
    src = int_array(src, "source rows")
    dst = int_array(dst, "target rows")
    if src.ndim != 1 or src.shape != dst.shape:
        raise UsageError(f"source and target rows must be two flat sequences of equal length, "
                         f"got shapes {src.shape} and {dst.shape}")
    if ((src < 0) | (src >= place[-1]) | (dst < 0) | (dst >= place[-1])).any():
        raise UsageError(f"a row rank is out of [0, {place[-1]})")
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
        # values, both ascending, so each row is a permutation
        perm[perm < 0] = np.nonzero(~used)[1]
        tables.append(perm)
    return ChainSymmetry._of(q, chain_pi, _chain_table(tables))


def equivalent(C1: Code, C2: Code, budget: int = DEFAULT_BUDGET) -> EquivalenceResult:
    """Search for a symmetry mapping C1 onto C2.

    Invariant screening first (no search on mismatch).  With one chain,
    canonical trie forms decide: nodes counts the trie nodes whose form
    was built, over both codes, and budget is unused, so the verdict is
    never inconclusive.  Otherwise, for each admissible chain
    permutation, codewords are matched by backtracking with per-chain
    distance pruning; nodes counts every unused word a level passes, and
    stops at budget + 1.  If the budget cuts the search off, a brute-force
    fallback lists every isometry when the space is within the
    oracle_list cap and the group within the group cap; otherwise the
    verdict is inconclusive.  A witness is verified before it is returned.
    """
    budget = int_arg(budget, "budget", 0)
    if C1.config != C2.config:
        raise UsageError("codes live in different spaces")
    cfg = C1.config
    if C1.size != C2.size:
        return EquivalenceResult("not_equivalent", reason="size mismatch", nodes=0)
    if C1.distance_distribution != C2.distance_distribution:
        return EquivalenceResult(
            "not_equivalent", reason="distance distribution mismatch", nodes=0
        )
    if cfg.m == 1:
        return _equivalent_one_chain(C1, C2)

    # A in (weight, rank) order for pruning: ranks are ascending, so a
    # stable sort by weight breaks ties by rank
    order = np.argsort(C1._weights(), kind="stable")
    cda = C1._chain_distances()[order][:, order]
    cdb = C2._chain_distances()
    na = C1.size

    match = np.full(na, -1)  # match[t] is the word of C2 matched to word t of C1
    nodes = 0

    def candidates(t):
        # the unused words that keep every chain distance to the words
        # matched so far; each unused word passed is a node, up to budget + 1
        nonlocal nodes
        ok = (cdb_tau[:, match[:t]] == cda[t, :t]).all((1, 2)).tolist()
        for used in match[:t].tolist():
            ok[used] = None
        for b, keeps in enumerate(ok):
            if keeps is not None and nodes <= budget:
                nodes += 1
                if keeps and nodes <= budget:
                    yield b

    def child(t, b):
        match[t] = b
        return t + 1

    for sigma in admissible_permutations(cfg):
        tau = inverse(sigma)
        cdb_tau = cdb[:, :, tau]
        if next(depth_first(0, candidates(0), na, candidates, child), None) is not None:
            chains = [
                chain_from_pairs(cfg.q, cfg.pi[k], C1._digits[k][order], C2._digits[tau[k]][match])
                for k in range(cfg.m)
            ]
            return _verified(Symmetry(cfg, sigma, chains), C1, C2, "matched", nodes)
        if nodes > budget:
            break

    if nodes <= budget:
        return EquivalenceResult("not_equivalent", reason="search exhausted", nodes=nodes)

    if cfg.size <= CAPS["oracle_list"] and full_order(cfg) <= CAPS["group"]:
        _, tables = enumerate_isometries(cfg, want_list=True)
        src = set(C1.ranks)
        dst = set(C2.ranks)
        for table in tables:
            if {table[r] for r in src} == dst:
                return _verified(decompose_full(cfg, table), C1, C2, "fallback", nodes)
        return EquivalenceResult(
            "not_equivalent", reason="every isometry checked", nodes=nodes
        )
    return EquivalenceResult("inconclusive", reason="budget exhausted", nodes=nodes)


def _equivalent_one_chain(C1: Code, C2: Code) -> EquivalenceResult:
    q, pi = C1.config.q, C1.config.pi[0]
    # leaves up: a node is keyed by its words' row rank with the levels
    # below it cut off and lists its children as sorted (form, key) pairs; a
    # form numbers a tuple of child forms, in one table per level both share
    forms = [dict.fromkeys(C.ranks, 0) for C in (C1, C2)]
    kids = ([], [])
    for k in pi:
        sz, table = q ** k, {}
        for c in (0, 1):
            groups = {}
            for key, form in forms[c].items():
                groups.setdefault(key // sz, []).append((form, key))
            kids[c].append({key: sorted(g) for key, g in groups.items()})
            forms[c] = {key: table.setdefault(tuple(f for f, _ in g), len(table)) for key, g in kids[c][-1].items()}
    nodes = sum(len(level) for levels in kids for level in levels)
    if forms[0] != forms[1]:
        return EquivalenceResult("not_equivalent", reason="chain forms differ", nodes=nodes)
    # from the root down: children of equal form share an index
    pairs = [(0, 0)]
    for g1, g2 in zip(reversed(kids[0]), reversed(kids[1])):
        pairs = [(x, y) for a, b in pairs for (_, x), (_, y) in zip(g1[a], g2[b])]
    T = Symmetry(C1.config, (0,), [chain_from_pairs(q, pi, *zip(*pairs))])
    return _verified(T, C1, C2, "chain-form", nodes)


def _verified(T: Symmetry, C1: Code, C2: Code, source: str, nodes: int) -> EquivalenceResult:
    """The equivalent verdict with witness T, once T is checked to map C1
    onto C2; source names the search that found T in the refusal."""
    if apply_to_code(T, C1) != C2:
        raise StructureError(f"{source} witness failed verification")
    return EquivalenceResult("equivalent", witness=T, nodes=nodes)
