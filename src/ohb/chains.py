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
flattened is r // place[j].  As F_j reads only its tail, a rank table is
built top level first, one multiply-add per level and no division, and
kept; the levels are read back off it at the zero prefix, so compose is
one gather of rank tables and invert one scatter.
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
    int_arg,
    int_array,
    int_text,
    int_tuple,
    seq,
)
from .space import bijection_array, distance_witness

LOG10_E = math.log10(math.e)
LOG10_2PI = math.log10(2 * math.pi)


def _check_dims(q, chain_pi):
    """q and chain_pi as Python ints, so that q ** k stays exact."""
    q = int_arg(q, "field size", 2)
    chain_pi = int_tuple(chain_pi, "chain width", 1)
    if not chain_pi:
        raise UsageError("chain shape must be nonempty")
    return q, chain_pi


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


def _levels(q, chain_pi, f) -> list:
    """The level tables read off rank tables f (..., S): row t, column x of
    level j is f's level-j digit at tail t, level-j digit x and zeros below."""
    two = q & (q - 1) == 0  # shift and mask
    return [((f[..., ::p] >> (p.bit_length() - 1)) & (sz - 1) if two else f[..., ::p] // p % sz)
            .reshape(*f.shape[:-1], tails, sz)
            for p, (tails, sz) in zip(level_places(q, chain_pi), level_shapes(q, chain_pi))]


def _chain_table(levels) -> np.ndarray:
    """The rank tables (..., S) of maps given by levels (..., tails, sz), top
    level first: a level's images are its tail's image times sz plus it."""
    table = np.zeros((*levels[0].shape[:-2], 1), dtype=np.int64)
    for level in reversed(levels):
        table = (table[..., None] * level.shape[-1] + level).reshape(*level.shape[:-2], -1)
    return table


def _first_bad_row(level):
    """The first row of a (tails, sz) integer array that is not a permutation
    of [0, sz), or None.  An entry out of range counts in a spare last cell."""
    tails, sz = level.shape
    cells = np.where((level >= 0) & (level < sz), level + np.arange(0, tails * sz, sz)[:, None], tails * sz)
    holes = np.flatnonzero(np.bincount(cells.ravel(), minlength=tails * sz + 1)[:-1] == 0)
    return int(holes[0]) // sz if len(holes) else None


class ChainSymmetry:
    """A triangular symmetry, stored as one integer array per level.

    tables[j] is a read-only integer array of shape (tails, q^k_{j+1}):
    row t is the permutation applied to the level j+1 block when the
    tail (levels j+2..n) has rank t, level j+2 least significant.  The
    last level has a single row (empty tail).  Entries are stored in the
    narrowest unsigned type that holds them (uint8 up to 256 block
    values), so a map costs a byte per entry where int64 would cost
    eight; arithmetic on them goes through int64.

    _table is the read-only int64 rank table, 8 bytes a row, once
    rank_table() has built it or compose or invert has read the map off
    it.  So compose_chain, invert_chain and as_rank_table leave a table
    kept on their operands as well as on their result.
    """

    __slots__ = ("q", "chain_pi", "tables", "_place", "_table")

    def __init__(self, q, chain_pi, tables):
        q, chain_pi = _check_dims(q, chain_pi)
        shapes = level_shapes(q, chain_pi)
        tables = seq(tables, "table level")
        if len(tables) != len(shapes):
            raise UsageError(f"need {len(shapes)} table levels, got {len(tables)}")
        clean = []
        for j, ((tails, sz), level) in enumerate(zip(shapes, tables)):
            name = f"level {j + 1} entry"
            rows = level if isinstance(level, np.ndarray) else seq(level, f"level {j + 1} row")
            if len(rows) != tails:
                raise UsageError(f"level {j + 1} needs {tails} tail entries, got {len(rows)}")
            try:
                arr = np.array(rows, dtype=object)  # the level's one conversion
            except ValueError:  # rows of arrays that differ in shape
                arr = np.empty(0)
            if arr.shape != (tails, sz):
                for row in rows:  # types before shape: a row of non-integers is a usage error
                    int_tuple(row, name)
                raise ValidationError(f"level {j + 1}: entries are not permutations of [0, {sz})")
            arr = int_array(arr, name)
            t = _first_bad_row(arr)
            if t is not None:
                raise ValidationError(f"level {j + 1}, tail {t}: entry is not a permutation of [0, {sz})")
            clean.append(arr)
        self._store(q, chain_pi, clean)

    @classmethod
    def _trusted(cls, q, chain_pi, tables, table=None) -> "ChainSymmetry":
        """A map from tables already known to fit: chain_pi checked, and every
        level a (tails, q^k) array or nested list whose rows are permutations,
        as the builders below and chain_from_pairs make them.  Skips the checks
        of __init__.  A given rank table (int64, no one else's) is kept."""
        T = cls.__new__(cls)
        T._store(q, chain_pi, tables)
        if table is not None:
            table.flags.writeable = False
            T._table = table
        return T

    @classmethod
    def _from_table(cls, q, chain_pi, f) -> "ChainSymmetry":
        """The map whose rank table is f, a fresh int64 array; it keeps f."""
        return cls._trusted(q, chain_pi, _levels(q, chain_pi, f), f)

    def _store(self, q, chain_pi, tables):
        clean = []
        for level in tables:
            sz = len(level[0])
            # a fresh C-ordered copy, so a caller's array is never frozen
            dtype = np.uint8 if sz <= 1 << 8 else np.uint16 if sz <= 1 << 16 else np.int64
            arr = np.array(level, dtype=dtype, order="C")
            arr.flags.writeable = False
            clean.append(arr)
        self.q = q
        self.chain_pi = chain_pi
        self.tables = tuple(clean)
        self._place = level_places(q, chain_pi)
        self._table = None

    @property
    def n(self):
        return len(self.chain_pi)

    def apply(self, row) -> tuple:
        row = int_tuple(row, "block rank")
        if len(row) != self.n:
            raise UsageError(f"row has {len(row)} levels, expected {self.n}")
        place = self._place
        r = 0
        for j, x in enumerate(row):
            if not 0 <= x * place[j] < place[j + 1]:
                raise UsageError(f"level {j + 1}: block rank {x} out of range")
            r += x * place[j]
        return tuple([level.item(r // p) for level, p in zip(self.tables, place)])

    def rank_table(self) -> np.ndarray:
        """Dense read-only int64 table: image rank of every row rank, built
        by _chain_table on the first call, then kept."""
        if self._table is None:
            table = _chain_table(self.tables)
            table.flags.writeable = False
            self._table = table
        return self._table

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
            return cls(q, doc["pi"], doc["tables"])
        except (KeyError, TypeError) as exc:
            raise UsageError(f"bad chain symmetry document: {exc}") from exc


def identity_chain(q, chain_pi) -> ChainSymmetry:
    q, chain_pi = _check_dims(q, chain_pi)
    shapes = level_shapes(q, chain_pi)
    return ChainSymmetry._trusted(q, chain_pi, [np.broadcast_to(np.arange(sz), (t, sz)) for t, sz in shapes])


def compose_chain(A: ChainSymmetry, B: ChainSymmetry) -> ChainSymmetry:
    """The map u -> A(B(u))."""
    if A.q != B.q or A.chain_pi != B.chain_pi:
        raise UsageError("cannot compose chain symmetries of different shapes")
    return ChainSymmetry._from_table(A.q, A.chain_pi, A.rank_table()[B.rank_table()])


def invert_chain(A: ChainSymmetry) -> ChainSymmetry:
    table = A.rank_table()
    inv = np.empty_like(table)
    inv[table] = np.arange(len(table))
    return ChainSymmetry._from_table(A.q, A.chain_pi, inv)


def chain_order(q, chain_pi) -> int:
    """Number of triangular symmetries: prod over levels of
    (q^{k_j}!)^(q^{k_{j+1}+...+k_n})."""
    q, chain_pi = _check_dims(q, chain_pi)
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
    q, n = int_arg(q, "field size", 2), int_arg(n, "chain length", 1)
    return math.factorial(q) ** ((q ** n - 1) // (q - 1) + 1)


def refuse_large_chains(q, chain_pis):
    """Refuse, before anything is drawn, a chain over the points cap: its
    random map could not be built."""
    for k, chain_pi in enumerate(chain_pis):
        entries = sum(tails * sz for tails, sz in level_shapes(q, chain_pi))
        check_cap(f"chain {k + 1}", chain_space_size(q, chain_pi), "points", CAPS["points"],
                  f"a random map of it would hold {int_text(entries)} table entries")


def _replay_shuffles(rng, rows):
    """`rows` calls of rng.shuffle([0, 1]) as one (rows, 2) array.

    Each shuffle draws randbelow(2): the top bit of the first 32-bit word
    below 2 << 30.  So row [1 - j, j] reads j off that word, and as each
    row takes at least one word, fetching only the rows still missing
    never draws a word too many.
    """
    found = []
    while rows:
        words = np.frombuffer(rng.getrandbits(32 * rows).to_bytes(4 * rows, "little"), dtype="<u4")
        found.append(words[words < 2 << 30] >> 30)
        rows -= len(found[-1])
    j = np.concatenate(found)
    return np.stack([1 - j, j], axis=1)


def random_levels(rng, shapes) -> list:
    """Per (tails, sz) shape, the rows of one rng.shuffle(list(range(sz)))
    per tail, in order, leaving rng where those shuffles leave it.  With a
    plain random.Random, a run of shapes with at least 64 rows of two
    values is replayed in one piece; other rows are shuffled one by one."""
    out = []
    for sz, group in groupby(shapes, key=lambda shape: shape[1]):
        tails = [t for t, _ in group]
        rows = sum(tails)
        if sz == 2 and rows >= 64 and type(rng) is random.Random:
            block = _replay_shuffles(rng, rows)
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
    q, chain_pi = _check_dims(q, chain_pi)
    refuse_large_chains(q, [chain_pi])
    return ChainSymmetry._trusted(q, chain_pi, random_levels(rng, level_shapes(q, chain_pi)))


def all_chain_symmetries(q, chain_pi):
    """Yield every triangular symmetry of the chain, up to the group cap."""
    q, chain_pi = _check_dims(q, chain_pi)
    check_cap("chain group", chain_order(q, chain_pi), "elements", CAPS["group"])
    # one pool of permutations per (level, tail) slot, levels ascending: no row needs a check
    pools, cuts = [], [0]
    for tails, sz in level_shapes(q, chain_pi):
        pools += [tuple(permutations(range(sz)))] * tails
        cuts.append(len(pools))
    for choice in product(*pools):
        yield ChainSymmetry._trusted(q, chain_pi, [choice[a:b] for a, b in zip(cuts, cuts[1:])])


def decompose_chain(q, chain_pi, table) -> ChainSymmetry:
    """Recover the triangular form of a distance-preserving bijection
    given as a dense table over row ranks.

    Tables are extracted at the zero prefix and their rank table compared
    with f.  If the two agree, every extracted row is a permutation, since
    a row that is not sends two fibres into one.  If not, the first row
    that is no permutation, level by level, or else the first rank where
    they disagree is reported as a distance violation with a witness pair
    when one exists, its ranks tried first as witness anchors.
    """
    q, chain_pi = _check_dims(q, chain_pi)
    return _decompose_bijection(q, chain_pi, bijection_array(table, chain_space_size(q, chain_pi)))


def _decompose_bijection(q, chain_pi, f, w=0, sub=None) -> ChainSymmetry:
    """decompose_chain of f, an int64 bijection of the row ranks, keeping the
    rebuilt rank table.  Its level rows are all permutations iff that table
    is a bijection, so only then is the row scan skipped.  A refusal is the
    one of f - w (sub subtracts ranks): only a bad row's anchors and the
    two ranks named move, as a translation keeps distances."""
    tables = _levels(q, chain_pi, f)
    rt = _chain_table(tables)
    if np.array_equal(rt, f):
        return ChainSymmetry._trusted(q, chain_pi, tables, rt)
    place = level_places(q, chain_pi)

    def reject(context, *anchors):
        pair = distance_witness(q, (chain_pi,), f, anchors)
        if pair is not None:
            raise NotIsometryError(
                f"distance not preserved for row ranks {pair[0]} and {pair[1]}",
                witness=pair,
            )
        raise StructureError(f"bijection has no triangular form: {context}")

    if np.bincount(rt, minlength=len(f)).max() > 1:
        for j, level in enumerate(tables):
            t = _first_bad_row(level)
            if t is not None:
                row = sub(level[t], w // place[j] % level.shape[1]) if w else level[t]
                # the anchors: the row's first two equal entries in sorted order
                order = np.argsort(row, kind="stable")
                i = int(np.flatnonzero(np.diff(row[order]) == 0)[0])
                anchors = (t * place[j + 1] + int(x) * place[j] for x in order[i:i + 2])
                reject(f"level {j + 1}, tail {t}: extracted entry is not a permutation", *anchors)
    r = int(np.flatnonzero(rt != f)[0])
    a, b = sub(np.array([f[r], rt[r]]), w) if w else (f[r], rt[r])
    reject(
        f"rank {r}: map disagrees with its zero-prefix extraction "
        f"({a} vs {b}), so some level reads a lower level",
        r,
    )
