"""Ordered Hamming block spaces.

A space is fixed by (q, m, n, pi): m disjoint chains of length n over
F_q, with block dimensions pi[i][j] >= 1 at chain i, level j.  Poset
element (i, j) sits below (i, j') exactly when j <= j' on the same
chain; the weight of a vector is the size of the down-closure of its
block support, so per chain it contributes the highest nonzero level.

A vector is its canonical rank: mixed radix over block ranks with
block (1, 1) least significant, then levels within chain 1, then chain
2, and so on.  Every serialized table in this package indexes by that
rank.  The metric is computed once, by rank_distance, and vector
addition once, by add_ranks and sub_ranks.  BlockVector, an immutable
grid of block values, is the value type of text I/O and of the scalar
entry points; weight, distance and make_translation rank it and
compute on the rank.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CAPS, NotIsometryError, UsageError, check_cap, json_int
from .fields import Field, block_rank, block_unrank


class SpaceConfig:
    """The tuple (field, m, n, pi) plus cached offsets and powers."""

    def __init__(self, field: Field, m: int, n: int, pi):
        if m < 1 or n < 1:
            raise UsageError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        pi = tuple(tuple(int(k) for k in row) for row in pi)
        if len(pi) != m or any(len(row) != n for row in pi):
            raise UsageError(f"pi must be an {m}x{n} grid")
        if any(k < 1 for row in pi for k in row):
            raise UsageError("all block dimensions must be >= 1")
        self.field = field
        self.q = field.q
        self.m = m
        self.n = n
        self.pi = pi
        self.N = sum(k for row in pi for k in row)
        self.size = self.q ** self.N

        # per-chain subrank geometry: chain i occupies a base-(q^dims_i)
        # digit of the vector rank
        self.chain_dims = tuple(sum(row) for row in pi)
        self.chain_size = tuple(self.q ** d for d in self.chain_dims)
        self.chain_place = tuple(math.prod(self.chain_size[:i]) for i in range(m))

    def check_materialize(self):
        """Refuse a dense table over every point of a space over the points cap."""
        check_cap("space", self.size, "points", CAPS["points"], symbol="q^N")

    # canonical ranking

    def rank(self, v: "BlockVector") -> int:
        self._check_vector(v)
        # every element rank, block (1, 1) first, as one base-q number
        return block_rank(self.q, [x for row in v.blocks for b in row for x in b])

    def unrank(self, r: int) -> "BlockVector":
        if not 0 <= r < self.size:
            raise UsageError(f"vector rank {r} out of [0, {self.size})")
        blocks = []
        for i in range(self.m):
            row = []
            for j in range(self.n):
                k = self.pi[i][j]
                row.append(block_unrank(self.q, r % self.q ** k, k))
                r //= self.q ** k
            blocks.append(tuple(row))
        return BlockVector._trusted(self, tuple(blocks))

    def chain_subrank(self, r: int, i: int) -> int:
        """The chain-i digit of a vector rank."""
        return (r // self.chain_place[i]) % self.chain_size[i]

    def _check_vector(self, v):
        if not isinstance(v, BlockVector) or v.config != self:
            raise UsageError("vector does not belong to this space")

    # equality / io

    def __eq__(self, other):
        return (
            isinstance(other, SpaceConfig)
            and self.field == other.field
            and self.m == other.m
            and self.n == other.n
            and self.pi == other.pi
        )

    def __hash__(self):
        return hash((self.field, self.m, self.n, self.pi))

    def __repr__(self):
        return f"SpaceConfig(q={self.q}, m={self.m}, n={self.n}, pi={self.pi})"

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "m": self.m,
            "n": self.n,
            "pi": [list(row) for row in self.pi],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SpaceConfig":
        try:
            field = Field.from_json(doc["field"])
            pi = [[json_int(k, "space pi entry") for k in row] for row in doc["pi"]]
            return cls(field, json_int(doc["m"], "space m"), json_int(doc["n"], "space n"), pi)
        except KeyError as exc:
            raise UsageError(f"bad space config: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad space config: {exc}") from exc


class BlockVector:
    """An element of the space: an m x n grid of block values.

    blocks[i][j] is a tuple of pi[i][j] element ranks.  Immutable; it
    carries no arithmetic: compute on its rank (see add_ranks).
    """

    __slots__ = ("config", "blocks", "_rank")

    def __init__(self, config: SpaceConfig, blocks):
        blocks = tuple(tuple(tuple(b) for b in row) for row in blocks)
        if len(blocks) != config.m:
            raise UsageError(f"expected {config.m} chains, got {len(blocks)}")
        for i, row in enumerate(blocks):
            if len(row) != config.n:
                raise UsageError(f"chain {i + 1} needs {config.n} blocks")
            for j, b in enumerate(row):
                if len(b) != config.pi[i][j]:
                    raise UsageError(
                        f"block ({i + 1},{j + 1}) needs width {config.pi[i][j]}"
                    )
                if any(not 0 <= x < config.q for x in b):
                    raise UsageError(f"element rank out of range in block ({i + 1},{j + 1})")
        self.config = config
        self.blocks = blocks
        self._rank = None

    @classmethod
    def _trusted(cls, config: SpaceConfig, blocks) -> "BlockVector":
        """A vector from blocks already known to fit config: nested
        tuples of in-range element ranks with the right widths.  Skips
        the checks of __init__."""
        v = cls.__new__(cls)
        v.config = config
        v.blocks = blocks
        v._rank = None
        return v

    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.config.rank(self)
        return self._rank

    def __eq__(self, other):
        return (
            isinstance(other, BlockVector)
            and self.config == other.config
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"BlockVector({format_vector(self)!r})"


# metric operations


def weight(v: BlockVector) -> int:
    """Size of the down-closure of the support: per chain, the highest
    nonzero level."""
    cfg = v.config
    return rank_distance(cfg.q, cfg.pi, v.rank(), 0)


def distance(u: BlockVector, v: BlockVector) -> int:
    if u.config != v.config:
        raise UsageError("vectors from different spaces")
    return rank_distance(u.config.q, u.config.pi, u.rank(), v.rank())


# vectorized rank arithmetic on base-p digits (XOR for p = 2): the one
# vector addition, used by the automorphism search, make_translation and
# decompose_full


def _combine(p: int, a, b, sign: int) -> np.ndarray:
    """a + sign * b digit by digit in base p, on int64 rank arrays, over
    as many digits as the larger rank has."""
    a = np.atleast_1d(np.asarray(a, dtype=np.int64))
    b = np.asarray(b, dtype=np.int64)
    if p == 2:
        return a ^ b
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    top = int(max(a.max(initial=0), b.max(initial=0)))
    place = 1
    while place <= top:
        out += (a // place % p + sign * (b // place % p)) % p * place
        place *= p
    return out


def add_ranks(config: SpaceConfig, a, b) -> np.ndarray:
    """Componentwise field addition on arrays of vector ranks."""
    return _combine(config.field.p, a, b, 1)


def sub_ranks(config: SpaceConfig, a, b) -> np.ndarray:
    return _combine(config.field.p, a, b, -1)


def scale_ranks(config: SpaceConfig, c: int, a) -> np.ndarray:
    """Scalar multiplication by the field element of rank c, on vector ranks."""
    q = config.q
    a = np.atleast_1d(np.asarray(a, dtype=np.int64))
    mul_row = np.array([config.field.mul(c, x) for x in range(q)], dtype=np.int64)
    out = np.zeros_like(a)
    place = 1
    r = a.copy()
    for _ in range(config.N):
        out += mul_row[r % q] * place
        r //= q
        place *= q
    return out


def rank_distance(q: int, pi, a, b, dtype=np.int64):
    """Distances between arrays of ranks (broadcast against each other)
    in the space with chain rows pi over a field of size q.  Two Python
    ints give a Python int, exact at any size of space.

    Blocks are mixed-radix digits in canonical order; per chain, the
    distance is the highest level whose digits differ, which is the
    number of levels whose tail (that level and all above it) differs."""
    total = 0
    if not (isinstance(a, int) and isinstance(b, int)):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        total = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=dtype)
    place = 1
    for row in pi:
        size = q ** sum(row)
        da, db = (a // place) % size, (b // place) % size
        below = 1
        for k in row:
            total += da // below != db // below
            below *= q ** k
        place *= size
    return total


def weight_array(config: SpaceConfig) -> np.ndarray:
    """Weights of every vector rank: the distance of each rank to 0."""
    config.check_materialize()
    return rank_distance(config.q, config.pi, np.arange(config.size), 0)


def dist_ranks(config: SpaceConfig, a, b) -> np.ndarray:
    """Pairwise distances between two equal-length arrays of vector ranks."""
    return rank_distance(config.q, config.pi, np.atleast_1d(a), np.atleast_1d(b))


def distance_matrix_array(config: SpaceConfig) -> np.ndarray:
    """Full q^N x q^N distance matrix under the canonical ranking."""
    ranks = np.arange(config.size)
    return rank_distance(config.q, config.pi, ranks[:, None], ranks, dtype=np.int8)


# checks of maps given as dense rank tables

WITNESS_ANCHORS = 16


def bijection_array(table, size: int) -> np.ndarray:
    """The table as an int64 array, checked to be a bijection of [0, size).

    A repeated image is reported at the first rank whose image repeats,
    paired with the earlier rank that has the same image.
    """
    try:
        f = np.asarray(table, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"table entries must be integer ranks: {exc}") from exc
    if f.shape != (size,):
        raise UsageError(f"table has {f.size} entries, space has {size}")
    if size and (f.min() < 0 or f.max() >= size):
        raise UsageError("table entry out of range")
    if size and np.bincount(f, minlength=size).max() > 1:
        values, first = np.unique(f, return_index=True)
        owner = np.empty(size, dtype=np.int64)
        owner[values] = first
        r = int(np.nonzero(owner[f] != np.arange(size))[0][0])
        u = int(owner[f[r]])
        raise NotIsometryError(
            f"not a bijection: ranks {u} and {r} share the image {int(f[r])}",
            witness=(u, r),
        )
    return f


def distance_witness(q: int, pi, f: np.ndarray, anchors=()):
    """A rank pair (u, v) with d(u, v) != d(f(u), f(v)), or None.

    Up to CAPS["witness_matrix"] points this is the first such pair in
    row-major order of the full distance matrix.  Beyond that, only the
    rows of the given anchors and then of ranks 0..WITNESS_ANCHORS-1
    are scanned, so a non-isometry can go unwitnessed.
    """
    S = len(f)
    ranks = np.arange(S)
    if S <= CAPS["witness_matrix"]:
        bad = np.argwhere(
            rank_distance(q, pi, f[:, None], f, np.int8)
            != rank_distance(q, pi, ranks[:, None], ranks, np.int8)
        )
        return (int(bad[0][0]), int(bad[0][1])) if len(bad) else None
    for u in dict.fromkeys([*anchors, *range(min(S, WITNESS_ANCHORS))]):
        bad = np.nonzero(rank_distance(q, pi, u, ranks) != rank_distance(q, pi, f[u], f))[0]
        if len(bad):
            return int(u), int(bad[0])
    return None


# text and file formats


def format_vector(v: BlockVector) -> str:
    """Semicolon-separated chains, comma-separated blocks, juxtaposed
    element ranks (single digits, so q <= 10)."""
    if v.config.q > 10:
        raise UsageError("text format needs q <= 10; use ranks instead")
    return ";".join(
        ",".join("".join(str(x) for x in b) for b in row) for row in v.blocks
    )


def parse_vector(config: SpaceConfig, text: str) -> BlockVector:
    if config.q > 10:
        raise UsageError("text format needs q <= 10; use ranks instead")
    chains = text.strip().split(";")
    if len(chains) != config.m:
        raise UsageError(f"expected {config.m} chains, got {len(chains)}")
    blocks = []
    for i, chain in enumerate(chains):
        parts = chain.split(",")
        if len(parts) != config.n:
            raise UsageError(f"chain {i + 1}: expected {config.n} blocks, got {len(parts)}")
        row = []
        for j, part in enumerate(parts):
            part = part.strip()
            if len(part) != config.pi[i][j] or not part.isdigit():
                raise UsageError(
                    f"block ({i + 1},{j + 1}): expected {config.pi[i][j]} digits, got {part!r}"
                )
            b = tuple(int(ch) for ch in part)
            if any(x >= config.q for x in b):
                raise UsageError(f"block ({i + 1},{j + 1}): digit out of F_{config.q}")
            row.append(b)
        blocks.append(tuple(row))
    return BlockVector(config, tuple(blocks))
