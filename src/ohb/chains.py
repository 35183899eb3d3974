"""Triangular symmetries of a single chain space.

A chain of length n with block widths (k_1, ..., k_n) over F_q carries
the metric d(u, v) = max level where the rows differ.  Its isometries
are exactly the triangular maps

    T(v_1, ..., v_n) = (F_1(v_1; v_2..v_n), ..., F_n(v_n))

where each F_j may read the tail (the levels above j) but must be a
bijection of the level-j block for every fixed tail.  This module
stores such a map as one integer array per level, indexed by (tail
rank, block value), and provides application, composition, inversion,
decomposition of a raw bijection table, uniform sampling, and the group
order.

A row is given by its rank or, to `apply`, as a tuple of block ranks,
one per level.  Row ranks are mixed radix with level 1 least
significant, matching the canonical vector ordering.  So the tail of
level j in a row of rank r is r // place[j+1], and (tail, block value)
flattened is r // place[j].
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate, groupby, permutations, product

import numpy as np

from .errors import (
    CAPS,
    NotIsometryError,
    StructureError,
    UsageError,
    ValidationError,
    check_cap,
    json_int,
)
from .space import bijection_array, distance_witness

LOG10_E = math.log10(math.e)
LOG10_2PI = math.log10(2 * math.pi)


def _check_dims(q, chain_pi):
    if not isinstance(q, int) or q < 2:
        raise UsageError(f"field size must be an integer >= 2, got {q!r}")
    chain_pi = tuple(int(k) for k in chain_pi)
    if not chain_pi or any(k < 1 for k in chain_pi):
        raise UsageError(f"chain shape must be nonempty positive widths, got {chain_pi}")
    return chain_pi


def level_places(q, chain_pi):
    """Place value of each level in a row rank, then the space size:
    place[j] = q^(k_1 + ... + k_j) for j = 0..n."""
    place = [1]
    for k in chain_pi:
        place.append(place[-1] * q ** k)
    return tuple(place)


def level_shapes(q, chain_pi):
    """Shape (tails, q^k_j) of each level's table: one row per rank of
    the levels above, one column per block value."""
    place = level_places(q, chain_pi)
    return tuple(
        (place[-1] // place[j + 1], place[j + 1] // place[j]) for j in range(len(chain_pi))
    )


def chain_space_size(q, chain_pi):
    return q ** sum(chain_pi)


class ChainSymmetry:
    """A triangular symmetry, stored as one integer array per level.

    tables[j] is a read-only integer array of shape (tails, q^k_{j+1}):
    row t is the permutation applied to the level j+1 block when the
    tail (levels j+2..n) has rank t, level j+2 least significant.  The
    last level has a single row (empty tail).  Entries are stored in the
    narrowest unsigned type that holds them (uint8 up to 256 block
    values), so a map costs a byte per entry where int64 would cost
    eight; arithmetic on them goes through int64.
    """

    __slots__ = ("q", "chain_pi", "tables", "_place")

    def __init__(self, q, chain_pi, tables):
        chain_pi = _check_dims(q, chain_pi)
        shapes = level_shapes(q, chain_pi)
        if len(tables) != len(shapes):
            raise UsageError(f"need {len(shapes)} table levels, got {len(tables)}")
        clean = []
        for j, ((tails, sz), level) in enumerate(zip(shapes, tables)):
            if len(level) != tails:
                raise UsageError(f"level {j + 1} needs {tails} tail entries, got {len(level)}")
            try:
                arr = np.array(level, dtype=np.int64)
            except (OverflowError, ValueError):
                arr = None
            if arr is None or arr.shape != (tails, sz):
                raise ValidationError(f"level {j + 1}: entries are not permutations of [0, {sz})")
            bad = np.nonzero((np.sort(arr, axis=1) != np.arange(sz)).any(axis=1))[0]
            if len(bad):
                raise ValidationError(
                    f"level {j + 1}, tail {bad[0]}: entry is not a permutation of [0, {sz})"
                )
            arr = arr.astype(np.uint8 if sz <= 1 << 8 else np.uint16 if sz <= 1 << 16 else np.int64)
            arr.flags.writeable = False
            clean.append(arr)
        self.q = q
        self.chain_pi = chain_pi
        self.tables = tuple(clean)
        self._place = level_places(q, chain_pi)

    @property
    def n(self):
        return len(self.chain_pi)

    def apply(self, row) -> tuple:
        row = tuple(int(x) for x in row)
        if len(row) != self.n:
            raise UsageError(f"row has {len(row)} levels, expected {self.n}")
        place = self._place
        r = 0
        for j, x in enumerate(row):
            if not 0 <= x * place[j] < place[j + 1]:
                raise UsageError(f"level {j + 1}: block rank {x} out of range")
            r += x * place[j]
        return tuple([level.item(r // p) for level, p in zip(self.tables, place)])

    def apply_ranks(self, ranks) -> np.ndarray:
        """Image of each row rank in an int64 array, as an int64 array."""
        out = np.zeros_like(ranks)
        for level, p in zip(self.tables, self._place):
            out += level.ravel()[ranks // p].astype(np.int64) * p
        return out

    def rank_table(self) -> np.ndarray:
        """Dense table: image rank of every row rank."""
        return self.apply_ranks(np.arange(self._place[-1]))

    def _tail_images(self) -> list:
        """For each level, the image of every tail rank under this map
        (levels above a tail depend only on that tail)."""
        rt = self.rank_table()
        return [rt[::p] // p for p in self._place[1:]]

    def __eq__(self, other):
        return (
            isinstance(other, ChainSymmetry)
            and self.q == other.q
            and self.chain_pi == other.chain_pi
            and all(np.array_equal(a, b) for a, b in zip(self.tables, other.tables))
        )

    def __hash__(self):
        return hash((self.q, self.chain_pi, *(level.tobytes() for level in self.tables)))

    def __repr__(self):
        return f"ChainSymmetry(q={self.q}, pi={self.chain_pi})"

    def to_json(self) -> dict:
        return {
            "pi": list(self.chain_pi),
            "tables": [level.tolist() for level in self.tables],
        }

    @classmethod
    def from_json(cls, doc, q) -> "ChainSymmetry":
        try:
            pi = tuple(json_int(k, "chain pi entry") for k in doc["pi"])
            tables = [
                [[json_int(x, "table entry") for x in row] for row in level]
                for level in doc["tables"]
            ]
            return cls(q, pi, tables)
        except (KeyError, TypeError) as exc:
            raise UsageError(f"bad chain symmetry document: {exc}") from exc


def identity_chain(q, chain_pi) -> ChainSymmetry:
    chain_pi = _check_dims(q, chain_pi)
    shapes = level_shapes(q, chain_pi)
    return ChainSymmetry(q, chain_pi, [np.broadcast_to(np.arange(sz), (t, sz)) for t, sz in shapes])


def compose_chain(A: ChainSymmetry, B: ChainSymmetry) -> ChainSymmetry:
    """The map u -> A(B(u))."""
    if A.q != B.q or A.chain_pi != B.chain_pi:
        raise UsageError("cannot compose chain symmetries of different shapes")
    # A's level-j row is selected by B's image of the tail
    tables = [a[t[:, None], b] for a, b, t in zip(A.tables, B.tables, B._tail_images())]
    return ChainSymmetry(A.q, A.chain_pi, tables)


def invert_chain(A: ChainSymmetry) -> ChainSymmetry:
    tables = []
    for a, t in zip(A.tables, A._tail_images()):
        inv = np.empty_like(a)
        inv[t[:, None], a] = np.arange(a.shape[1])
        tables.append(inv)
    return ChainSymmetry(A.q, A.chain_pi, tables)


def chain_order(q, chain_pi) -> int:
    """Number of triangular symmetries: prod over levels of
    (q^{k_j}!)^(q^{k_{j+1}+...+k_n})."""
    chain_pi = _check_dims(q, chain_pi)
    total = 1
    for tails, sz in level_shapes(q, chain_pi):
        total *= math.factorial(sz) ** tails
    return total


def log10_factorial(x: int) -> Fraction:
    """log10(x!) without building x!: lgamma below 2^20, and beyond it
    Stirling's series to its 1/(12x) term (error under 1e-19), which
    reads x only through Python-int arithmetic and log10(x), so x may lie
    far past the float range."""
    if x < 1 << 20:
        return Fraction(math.lgamma(x + 1) / math.log(10))
    lg = math.log10(x)
    return x * Fraction(lg - LOG10_E) + Fraction((lg + LOG10_2PI) / 2) + Fraction(LOG10_E / 12) / x


def alt_chain_order_unit(q, n) -> int:
    """Alternative closed form sometimes quoted for the all-unit-width
    chain: (q!)^((q^n - 1)/(q - 1) + 1).

    Disagrees with chain_order (and with direct enumeration) by one
    factor of q!; kept so reports can state both values and flag the
    mismatch instead of silently picking one.
    """
    return math.factorial(q) ** ((q ** n - 1) // (q - 1) + 1)


def refuse_large_chains(q, chain_pis):
    """Refuse, before anything is drawn, a chain over the points cap: its
    random map could not be built."""
    for k, chain_pi in enumerate(chain_pis):
        entries = sum(tails * sz for tails, sz in level_shapes(q, chain_pi))
        check_cap(f"chain {k + 1}", chain_space_size(q, chain_pi), "points", CAPS["points"],
                  f"a random map of it would hold {entries} table entries")


def _replay_shuffles(rng, rows, sz):
    """`rows` calls of rng.shuffle(list(range(sz))) as one (rows, sz) array.

    Each shuffle draws randbelow(n) for n = sz, ..., 2: the top k bits of
    the first 32-bit word below n << (32 - k), k = n.bit_length().  Pointer
    doubling on F (word after a shuffle from word x) finds every row's
    first word; then the swaps run over all rows at once.
    """
    bounds = range(sz, 1, -1)
    limits = [n << (32 - n.bit_length()) for n in bounds]
    # mean word count plus two deviations: about 1 call in 40 fetches twice
    mean = sum(2 ** 32 / c for c in limits)
    var = sum(2 ** 32 * (2 ** 32 - c) / c ** 2 for c in limits)
    want = int(rows * mean + 2 * math.sqrt(rows * var))

    def after(c):  # [x], x <= W + 1: 1 + the first index >= x of a word below c, or W + 1
        W = len(words)
        hit = np.where(words < c, np.arange(1, W + 1), W + 1)
        return np.append(np.minimum.accumulate(hit[::-1])[::-1], [W + 1, W + 1])

    state = rng.getstate()
    words = np.empty(0, dtype=np.uint32)
    while True:
        more = rng.getrandbits(32 * want).to_bytes(4 * want, "little")
        words = np.concatenate([words, np.frombuffer(more, dtype="<u4")])
        F = np.arange(len(words) + 2)
        for c in limits:
            F = after(c)[F]
        starts, G = np.zeros(1, dtype=np.int64), F
        while len(starts) < rows:
            starts, G = np.concatenate([starts, G[starts]]), G[G]
        used = int(F[starts[rows - 1]])
        if used <= len(words):
            break
    perms = np.repeat(np.arange(sz), rows).reshape(sz, rows)  # perms[i]: entry i of each row
    every, pos = np.arange(rows), starts[:rows]
    for n, c in zip(bounds, limits):
        pos = after(c)[pos]
        j = words[pos - 1] >> (32 - n.bit_length())
        perms[n - 1], perms[j, every] = perms[j, every], perms[n - 1].copy()
    rng.setstate(state)
    rng.getrandbits(32 * used)
    return perms.T


def random_levels(rng, shapes) -> list:
    """Per (tails, sz) shape, the rows of one rng.shuffle(list(range(sz)))
    per tail, in order, leaving rng where those shuffles leave it.  With a
    plain random.Random, a run of shapes with at least 32 * sz rows of at
    most 8 values is replayed in one piece; fewer rows shuffle faster."""
    out = []
    for sz, group in groupby(shapes, key=lambda shape: shape[1]):
        tails = [t for t, _ in group]
        rows = sum(tails)
        if sz <= 8 and rows >= 32 * sz and type(rng) is random.Random:
            block = _replay_shuffles(rng, rows, sz)
        else:
            block = [list(range(sz)) for _ in range(rows)]
            for perm in block:
                rng.shuffle(perm)
        out += [block[end - t:end] for t, end in zip(tails, accumulate(tails))]
    return out


def random_chain(q, chain_pi, seed) -> ChainSymmetry:
    """Uniformly random triangular symmetry, reproducible from the seed.

    Tables are drawn level by level (ascending), tail rank ascending: the
    tables, and a random.Random seed's state afterwards, are those of one
    rng.shuffle(list(range(q^k))) per row.  A chain over the points cap
    raises CapExceeded before anything is drawn.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    chain_pi = _check_dims(q, chain_pi)
    refuse_large_chains(q, [chain_pi])
    return ChainSymmetry(q, chain_pi, random_levels(rng, level_shapes(q, chain_pi)))


def all_chain_symmetries(q, chain_pi):
    """Yield every triangular symmetry of the chain, up to the group cap."""
    chain_pi = _check_dims(q, chain_pi)
    check_cap("chain group", chain_order(q, chain_pi), "elements", CAPS["group"])
    # one pool of permutations per (level, tail) slot, levels ascending
    pools, cuts = [], [0]
    for tails, sz in level_shapes(q, chain_pi):
        pools += [tuple(permutations(range(sz)))] * tails
        cuts.append(len(pools))
    for choice in product(*pools):
        yield ChainSymmetry(q, chain_pi, [choice[a:b] for a, b in zip(cuts, cuts[1:])])


def decompose_chain(q, chain_pi, table) -> ChainSymmetry:
    """Recover the triangular form of a distance-preserving bijection
    given as a dense table over row ranks.

    Tables are extracted at the zero prefix, then the reconstruction is
    checked against f on every point; any mismatch is reported as a
    distance violation with a witness pair when one exists.  The ranks
    where the mismatch showed are tried first as witness anchors.
    """
    chain_pi = _check_dims(q, chain_pi)
    place = level_places(q, chain_pi)
    f = bijection_array(table, place[-1])

    def reject(context, *anchors):
        w = distance_witness(q, (chain_pi,), f, anchors)
        if w is not None:
            raise NotIsometryError(
                f"distance not preserved for row ranks {w[0]} and {w[1]}",
                witness=w,
            )
        raise StructureError(f"bijection has no triangular form: {context}")

    tables = []
    for j, (tails, sz) in enumerate(level_shapes(q, chain_pi)):
        # row t, column x: the level-j digit of f at the rank with tail t,
        # level-j digit x and zeros below
        level = f[::place[j]].reshape(tails, sz) // place[j] % sz
        order = np.argsort(level, axis=1, kind="stable")
        repeats = np.argwhere(np.diff(np.take_along_axis(level, order, axis=1), axis=1) == 0)
        if len(repeats):
            t, i = (int(x) for x in repeats[0])
            base = t * place[j + 1]
            reject(
                f"level {j + 1}, tail {t}: extracted entry is not a permutation",
                base + int(order[t, i]) * place[j],
                base + int(order[t, i + 1]) * place[j],
            )
        tables.append(level)

    T = ChainSymmetry(q, chain_pi, tables)
    rt = T.rank_table()
    bad = np.nonzero(rt != f)[0]
    if len(bad):
        r = int(bad[0])
        reject(
            f"rank {r}: map disagrees with its zero-prefix extraction "
            f"({f[r]} vs {rt[r]}), so some level reads a lower level",
            r,
        )
    return T
