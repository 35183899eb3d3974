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
addition once, by add_ranks and sub_ranks.  When q = 2^e every digit
is a bit field of the rank, so rank_distance reads a ^ b by masks and
add_ranks is XOR.  BlockVector, the value type of text I/O and of the
scalar entry points, holds its rank: built from blocks, it ranks them
by plain mixed radix; built from a rank, it derives its blocks only
when they are read.  SpaceConfig.rank and unrank read and wrap that
rank, and weight, distance and Symmetry.apply compute on it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CAPS, NotIsometryError, UsageError, check_cap, int_arg, int_array, int_tuple, seq
from .fields import Field


class SpaceConfig:
    """The tuple (field, m, n, pi) plus cached offsets and powers."""

    def __init__(self, field: Field, m: int, n: int, pi):
        m, n = int_arg(m, "m", 1), int_arg(n, "n", 1)
        pi = tuple(int_tuple(row, "block dimension", 1) for row in seq(pi, "pi row"))
        if len(pi) != m or any(len(row) != n for row in pi):
            raise UsageError(f"pi must be an {m}x{n} grid")
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
        if not isinstance(v, BlockVector) or v.config != self:
            raise UsageError("vector does not belong to this space")
        return v._rank

    def unrank(self, r: int) -> "BlockVector":
        r = int_arg(r, "vector rank")
        if not 0 <= r < self.size:
            raise UsageError(f"vector rank {r} out of [0, {self.size})")
        return BlockVector._of_rank(self, r)

    def chain_subrank(self, r: int, i: int) -> int:
        """The chain-i digit of a vector rank, i 0-based."""
        r, i = int_arg(r, "vector rank", 0), int_arg(i, "chain index", 0)
        if r >= self.size or i >= self.m:
            raise UsageError(f"vector rank {r} or chain index {i} out of range")
        return (r // self.chain_place[i]) % self.chain_size[i]

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
            return cls(field, doc["m"], doc["n"], doc["pi"])
        except KeyError as exc:
            raise UsageError(f"bad space config: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad space config: {exc}") from exc


class BlockVector:
    """An element of the space, held as its canonical rank.

    blocks is its m x n grid of block values: blocks[i][j] is a tuple of
    pi[i][j] element ranks, Python ints.  A vector built from blocks
    checks them, ranks them in the same pass and keeps them; one built
    from a rank (unrank, Symmetry.apply) derives them on first read and
    keeps them.  Equal vectors have equal config and rank.  Immutable; it
    carries no arithmetic: compute on its rank (see add_ranks).
    """

    __slots__ = ("config", "_rank", "_blocks")

    def __init__(self, config: SpaceConfig, blocks):
        blocks = tuple(tuple(int_tuple(b, "element rank") for b in seq(row, "block")) for row in seq(blocks, "chain row"))
        if len(blocks) != config.m:
            raise UsageError(f"expected {config.m} chains, got {len(blocks)}")
        q, r, place = config.q, 0, 1
        for i, row in enumerate(blocks):
            if len(row) != config.n:
                raise UsageError(f"chain {i + 1} needs {config.n} blocks")
            for j, b in enumerate(row):
                if len(b) != config.pi[i][j]:
                    raise UsageError(
                        f"block ({i + 1},{j + 1}) needs width {config.pi[i][j]}"
                    )
                for x in b:
                    if not 0 <= x < q:
                        raise UsageError(f"element rank out of range in block ({i + 1},{j + 1})")
                    r += x * place
                    place *= q
        self.config = config
        self._rank = r
        self._blocks = blocks

    @classmethod
    def _of_rank(cls, config: SpaceConfig, r: int) -> "BlockVector":
        """The vector of rank r, a Python int in [0, config.size)."""
        v = cls.__new__(cls)
        v.config = config
        v._rank = r
        v._blocks = None
        return v

    @property
    def blocks(self):
        if self._blocks is None:
            q, r, grid = self.config.q, self._rank, []
            for widths in self.config.pi:
                row = []
                for k in widths:
                    r, x = divmod(r, q ** k)
                    row.append(tuple(x // q ** t % q for t in range(k)))  # first element least significant
                grid.append(tuple(row))
            self._blocks = tuple(grid)
        return self._blocks

    def rank(self) -> int:
        return self._rank

    def __eq__(self, other):
        return (
            isinstance(other, BlockVector)
            and self._rank == other._rank
            and self.config == other.config
        )

    def __hash__(self):
        return hash(self._rank)

    def __repr__(self):
        if self.config.q > 10:  # no text format: one digit per element
            return f"BlockVector(rank={self._rank})"
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
    q, field = config.q, config.field
    a = np.atleast_1d(np.asarray(a, dtype=np.int64))
    mul_row = np.arange(q) * c % q if field.e == 1 else field._mul[c].astype(np.int64)
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
    number of levels whose tail (that level and all above it) differs.

    When q = 2^e digits are bit fields of x = a ^ b: a level's tail
    differs exactly when the chain's bits of x reach the level's lowest
    bit.  Arrays take that path up to 62 bits, narrowed to the fewest
    bits that hold the space, with the count in int8 (at most 62
    levels).  Otherwise digits are read with // and %, whose place
    values past 2^63 raise OverflowError on int64 arrays, never wrap."""
    exact = isinstance(a, int) and isinstance(b, int)
    if not exact:
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    e = q.bit_length() - 1
    bits = e * sum(map(sum, pi))
    if q == 1 << e and (exact or bits <= 62):
        x, total = a ^ b, 0
        if not exact:
            x = x.astype(np.min_scalar_type((1 << bits) - 1))
            total = np.zeros(x.shape, dtype=np.int8)
        low = 0  # the lowest bit of the level
        for row in pi:
            high = low + e * sum(row)
            xk = x & ((1 << high) - (1 << low))
            for k in row:
                total += xk >= 1 << low
                low += e * k
        return total if exact else total.astype(dtype, copy=False)
    total = 0
    if not exact:
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


def rank_array(table, size: int) -> np.ndarray:
    """The table as an int64 array of size entries, read by int_array: an
    integer array is taken whole, and an entry that is no integer is
    refused, not coerced."""
    f = int_array(table, "table entries")
    if f.shape != (size,):
        raise UsageError(f"table has {f.size} entries, space has {size}")
    return f


def bijection_array(table, size: int) -> np.ndarray:
    """The table as an int64 array, checked to be a bijection of [0, size).

    An entry out of range is refused first, then a repeated image at the
    first rank whose image repeats, paired with the earlier rank of that
    image.  decompose_full counts a table of several chains only to refuse it.
    """
    f = rank_array(table, size)
    if size and (f.min() < 0 or f.max() >= size):
        raise UsageError("table entry out of range")
    if size and np.bincount(f, minlength=size).max() > 1:
        order = np.argsort(f, kind="stable")  # each image's ranks, ascending
        images = f[order]
        r = int(order[1:][images[1:] == images[:-1]].min())
        u = int(order[np.searchsorted(images, f[r])])
        raise NotIsometryError(
            f"not a bijection: ranks {u} and {r} share the image {int(f[r])}",
            witness=(u, r),
        )
    return f


def distance_witness(q: int, pi, f: np.ndarray, anchors=()):
    """A rank pair (u, v) with d(u, v) != d(f(u), f(v)), or None.

    Rows u of the distance matrix are compared with the rows of f, and
    the first bad column of the first bad row is returned.  Up to
    CAPS["witness_matrix"] points every row is scanned in rank order,
    max(1, 2^16 // S) rows per comparison, which gives the first bad pair
    in row-major order.  Beyond that, only the rows of the given anchors
    and then of ranks 0..WITNESS_ANCHORS-1 are scanned, each in column
    chunks of 2^13, 2^15, ... up to its first bad column, so a
    non-isometry can go unwitnessed.
    """
    S = len(f)
    if S <= CAPS["witness_matrix"]:
        step = max(1, (1 << 16) // S)
        blocks, first = (np.arange(i, min(i + step, S)) for i in range(0, S, step)), S
    else:
        blocks, first = ([u] for u in dict.fromkeys([*anchors, *range(min(S, WITNESS_ANCHORS))])), 1 << 13
    for us in blocks:
        us = np.asarray(us, dtype=np.int64)[:, None]
        lo, width = 0, first
        while lo < S:
            cols = np.arange(lo, min(lo + width, S))
            bad = np.flatnonzero(rank_distance(q, pi, us, cols, np.int8)
                                 != rank_distance(q, pi, f[us], f[lo:lo + width], np.int8))
            if len(bad):
                i, v = divmod(int(bad[0]), len(cols))
                return int(us[i, 0]), lo + v
            lo, width = lo + width, 4 * width
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
    """The vector in the text format of format_vector; only ASCII text is read."""
    if config.q > 10:
        raise UsageError("text format needs q <= 10; use ranks instead")
    if not text.isascii():
        raise UsageError(f"vector text must be ASCII, got {text!r}")
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
