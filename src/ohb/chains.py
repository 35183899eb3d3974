"""Triangular symmetries of a single chain space.

A chain of length n with block widths (k_1, ..., k_n) over F_q carries
the metric d(u, v) = max level where the rows differ.  Its isometries
are exactly the triangular maps

    T(v_1, ..., v_n) = (F_1(v_1; v_2..v_n), ..., F_n(v_n))

where each F_j may read the tail (the levels above j) but must be a
bijection of the level-j block for every fixed tail.  This module
stores such a map as its rank table, and provides application,
composition, inversion, decomposition of a raw bijection table, uniform
sampling, and the group order.  Every group order in ohb is a list of
factors, which `order` multiplies out, refusing one too long to build,
and `order_log10` reads as a log10 without building any.

A row is given by its rank or, to `apply`, as a tuple of block ranks,
one per level.  Row ranks are mixed radix with level 1 least
significant, matching the canonical vector ordering.  So the tail of
level j in a row of rank r is r // place[j+1], and (tail, block value)
flattened is r // place[j].  A map is stored as its rank table alone: the
image rank of every row rank, in the narrowest unsigned type that holds
one.  As F_j reads only its tail, the table is built from the level
arrays top level first, one multiply-add per level and no division, and
the levels are read back off it at the zero prefix (`_levels`) only for
JSON and decompose_chain; compose is one gather and invert one scatter.
"""

from __future__ import annotations

import functools
import math
import random
import threading
from fractions import Fraction
from itertools import accumulate, groupby, permutations

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
    print_limit,
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
    """The rank tables (..., S) of maps given by levels (..., tails, sz),
    arrays or nested lists, in the narrowest unsigned type that holds a row
    rank, top level first: a level's images are its tail's image times sz
    plus it.  Every partial image is below S, so the narrow type is exact."""
    levels = [np.asarray(level) for level in levels]
    dtype = np.min_scalar_type(math.prod(level.shape[-1] for level in levels) - 1)
    table = levels[-1].reshape(*levels[-1].shape[:-2], -1).astype(dtype)
    for level in reversed(levels[:-1]):
        images = table[..., None] * level.shape[-1] + level.astype(dtype, copy=False)
        table = images.reshape(*level.shape[:-2], -1)
    return table


def _first_bad_row(level):
    """The first row of a (tails, sz) integer array that is not a permutation
    of [0, sz), or None.  An entry out of range counts in a spare last cell."""
    tails, sz = level.shape
    cells = np.where((level >= 0) & (level < sz), level + np.arange(0, tails * sz, sz)[:, None], tails * sz)
    holes = np.flatnonzero(np.bincount(cells.ravel(), minlength=tails * sz + 1)[:-1] == 0)
    return int(holes[0]) // sz if len(holes) else None


class ChainSymmetry:
    """A triangular symmetry, stored as its rank table alone.

    _table is the read-only array of the image of every row rank, uint8 up
    to 256 points, uint16 up to 65536 and uint32 beyond; rank_table() hands
    out an int64 copy.  The one levels view, to_json()["tables"], reads the
    levels off it as lists: tables[j] has tails rows of q^k_{j+1} entries,
    and row t is the permutation of the level j+1 block when the tail
    (levels j+2..n) has rank t, level j+2 least significant.  The last
    level has a single row (empty tail).  The constructor takes that form.
    """

    __slots__ = ("q", "chain_pi", "_table")

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
        self.q, self.chain_pi, self._table = q, chain_pi, _chain_table(clean)
        self._table.flags.writeable = False

    @classmethod
    def _of(cls, q, chain_pi, table) -> "ChainSymmetry":
        """The map whose rank table is table, for builders whose chain_pi is
        checked and whose table is known to be a map's: no check runs.  A
        narrow table is kept as it is, frozen; a wider one is narrowed."""
        T = cls.__new__(cls)
        T.q, T.chain_pi = q, chain_pi
        T._table = table.astype(np.min_scalar_type(len(table) - 1), copy=False)
        T._table.flags.writeable = False
        return T

    @property
    def n(self):
        return len(self.chain_pi)

    def apply(self, row) -> tuple:
        row = int_tuple(row, "block rank")
        if len(row) != self.n:
            raise UsageError(f"row has {len(row)} levels, expected {self.n}")
        place, r = level_places(self.q, self.chain_pi), 0
        for j, x in enumerate(row):
            if not 0 <= x * place[j] < place[j + 1]:
                raise UsageError(f"level {j + 1}: block rank {x} out of range")
            r += x * place[j]
        image = self._table.item(r)
        return tuple(image % place[j + 1] // place[j] for j in range(self.n))

    def rank_table(self) -> np.ndarray:
        """The image rank of every row rank, a fresh int64 array."""
        return self._table.astype(np.int64)

    def __eq__(self, other):
        return (
            isinstance(other, ChainSymmetry)
            and self.q == other.q
            and self.chain_pi == other.chain_pi
            and np.array_equal(self._table, other._table)
        )

    def __hash__(self):
        return hash((self.q, self.chain_pi, self._table.tobytes()))

    def __repr__(self):
        return f"ChainSymmetry(q={self.q}, pi={self.chain_pi})"

    def to_json(self) -> dict:
        return {
            "pi": list(self.chain_pi),
            "tables": [level.tolist() for level in _levels(self.q, self.chain_pi, self._table)],
        }

    @classmethod
    def from_json(cls, doc, q) -> "ChainSymmetry":
        try:
            return cls(q, doc["pi"], doc["tables"])
        except (KeyError, TypeError) as exc:
            raise UsageError(f"bad chain symmetry document: {exc}") from exc


def chain_ranks(name, size):
    """np.arange(size), the identity rank table of a chain of `size`
    points, refused over the points cap before it is allocated."""
    check_cap(name, size, "points", CAPS["points"], "its rank table would hold one entry per point")
    return np.arange(size)


def identity_chain(q, chain_pi) -> ChainSymmetry:
    q, chain_pi = _check_dims(q, chain_pi)
    return ChainSymmetry._of(q, chain_pi, chain_ranks("chain", chain_space_size(q, chain_pi)))


def compose_chain(A: ChainSymmetry, B: ChainSymmetry) -> ChainSymmetry:
    """The map u -> A(B(u))."""
    if A.q != B.q or A.chain_pi != B.chain_pi:
        raise UsageError("cannot compose chain symmetries of different shapes")
    return ChainSymmetry._of(A.q, A.chain_pi, A._table[B._table])


def invert_chain(A: ChainSymmetry) -> ChainSymmetry:
    table = A._table
    inv = np.empty_like(table)
    inv[table] = np.arange(len(table), dtype=table.dtype)
    return ChainSymmetry._of(A.q, A.chain_pi, inv)


def chain_order(q, chain_pi) -> int:
    """Number of triangular symmetries: prod over levels of
    (q^{k_j}!)^(q^{k_{j+1}+...+k_n})."""
    return order(_chain_factors(*_check_dims(q, chain_pi)))


def _chain_factors(q, chain_pi):
    return [("!", sz, tails) for tails, sz in level_shapes(q, chain_pi)]


def order(factors) -> int:
    """The exact product of a closed form's factors, each (kind, a, b):
    ("!", x, e) is (x!)^e and ("GL", q, k) is |GL(k, q)|.  An order of more decimal digits than
    the points cap's factorial is refused from order_log10 before anything
    is multiplied; one the factors bound below 2^(cap - 1) <= cap! needs
    no log10, as x! <= 2^(x * bits(x)) and |GL(k, q)| < 2^(k^2 * bits(q))."""
    cap = CAPS["points"]
    if sum(b * (a if kind == "!" else b) * a.bit_length() for kind, a, b in factors) >= cap:
        check_cap("group order", math.floor(order_log10(factors)) + 1, "decimal digits",
                  math.floor(log10_factorial(cap)) + 1,
                  f"an order is built only up to the digits of {int_text(cap)}!, the points cap's factorial")
    return math.prod(math.factorial(a) ** b if kind == "!" else math.prod(a ** b - a ** t for t in range(b))
                     for kind, a, b in factors)


def order_log10(factors) -> Fraction:
    """log10 of order(factors), built from no factor: log10_factorial, and
    |GL(k, q)| = q^(k^2) * prod_{j=1..k} (1 - q^-j), whose terms past
    j = 64 round to 1 in a float."""
    return sum(b * log10_factorial(a) if kind == "!" else b * b * Fraction(math.log10(a))
               + Fraction(sum(math.log10(1 - 1 / a ** j) for j in range(1, min(b, 64) + 1)))
               for kind, a, b in factors)


def check_group_cap(subject, factors):
    """check_cap of a group of order(factors) elements against the group
    cap, read from order_log10 first: an order past both the cap's bit
    count and the digits Python prints (print_limit) is over the cap, and
    is refused by its digit count, as int_text shows it, before it is
    built.  Returns the order."""
    log10 = order_log10(factors)
    if log10 > max(print_limit(), CAPS["group"].bit_length()):
        check_cap(subject, math.inf, "elements", CAPS["group"], shown=f"<{math.floor(log10) + 1}-digit number>")
    value = order(factors)
    check_cap(subject, value, "elements", CAPS["group"])
    return value


def log10_factorial(x: int) -> Fraction:
    """log10(x!) without building x!: lgamma below 2^20, and beyond it
    Stirling's series to its 1/(12x) term (error under 1e-19), which
    reads x only through Python-int arithmetic and log10(x), so x may lie
    far past the float range."""
    if x < 1 << 20:
        return Fraction(math.lgamma(x + 1) / math.log(10))
    lg = math.log10(x)
    return x * Fraction(lg - LOG10_E) + Fraction((lg + LOG10_2PI) / 2) + Fraction(LOG10_E * (1 / (12 * x)))


def alt_chain_order_unit(q, n) -> int:
    """Alternative closed form sometimes quoted for the all-unit-width
    chain: (q!)^((q^n - 1)/(q - 1) + 1).

    Disagrees with chain_order (and with direct enumeration) by one
    factor of q!; kept so reports can state both values and flag the
    mismatch instead of silently picking one.
    """
    return order(_alt_factors(int_arg(q, "field size", 2), 1, int_arg(n, "chain length", 1)))


def _alt_factors(q, m, n):
    """alt_full_order_unit's factors, which are alt_chain_order_unit's at m = 1."""
    return [("!", q, m * ((q ** n - 1) // (q - 1)) + m), ("!", m, 1)]


def refuse_large_chains(q, chain_pis):
    """Refuse, before anything is drawn, a chain over the points cap: its
    random map could not be built."""
    for k, chain_pi in enumerate(chain_pis):
        entries = sum(tails * sz for tails, sz in level_shapes(q, chain_pi))
        check_cap(f"chain {k + 1}", chain_space_size(q, chain_pi), "points", CAPS["points"],
                  f"a random map of it would hold {int_text(entries)} table entries")


MT_BLOCK = 624  # words of Mersenne Twister state, regenerated as one block
SHUFFLED_PAIRS = np.array([[1, 0], [0, 1]], dtype=np.uint8)  # row j is [1 - j, j]


@functools.cache
def _stream():
    """One scratch numpy MT19937 that reads a random.Random's word stream
    ahead, and the lock held while its state is set and read.  Built on the
    first replay, so `import ohb` leaves numpy.random unimported.  The lock
    is not the generator's own, which random_raw takes itself and which
    numpy does not promise to be reentrant."""
    from numpy.random import MT19937

    return MT19937(0), threading.Lock()


def _untemper(words):
    """The Mersenne Twister state words behind uint32 output words: its
    tempering (Matsumoto & Nishimura, 1998) undone, last step first."""
    y = words ^ (words >> 18)
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):  # each pass fixes 7 more low bits
        x = y ^ ((x << 7) & 0x9D2C5680)
    return x ^ (x >> 11) ^ (x >> 22)


def _replay_shuffles(rng, rows):
    """`rows` calls of rng.shuffle([0, 1]) as one (rows, 2) array.

    Each shuffle draws randbelow(2): the top bit of the first 32-bit word
    below 2 << 30, so row [1 - j, j] reads j off that word.  A numpy
    MT19937 set to rng's state reads the words ahead, and more while too
    few are accepted.  rng then draws the words used itself, from the
    start of the block that holds the last one: when a read block comes
    before that block, rng's state is first set to it, untempered, so that
    rng regenerates at most two blocks.
    """
    version, state, gauss = rng.getstate()
    key, pos = state[:MT_BLOCK], state[MT_BLOCK]
    ahead = 2 * rows + 4 * math.isqrt(rows) + 32  # mean words + about 2.8 sigma
    gen, lock = _stream()
    with lock:
        gen.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}
        words = gen.random_raw(ahead)
        hits = (words < 2 << 30).nonzero()[0]
        while len(hits) < rows:
            words = np.concatenate([words, gen.random_raw(MT_BLOCK)])
            hits = (words < 2 << 30).nonzero()[0]
    hits = hits[:rows]
    used = int(hits[-1]) + 1
    start = (pos + used - 1) // MT_BLOCK * MT_BLOCK - pos  # of the last word's block
    if start >= MT_BLOCK:
        block = _untemper(words[start - MT_BLOCK:start].astype(np.uint32))
        rng.setstate((version, tuple(block.tolist()) + (MT_BLOCK,), gauss))
        used -= start
    rng.getrandbits(32 * used)
    return SHUFFLED_PAIRS.take(words[hits] >> 30, axis=0)


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
    return ChainSymmetry._of(q, chain_pi, _chain_table(random_levels(rng, level_shapes(q, chain_pi))))


def all_chain_symmetries(q, chain_pi):
    """Yield every triangular symmetry of the chain, up to the group cap, in
    the order of itertools.product over the (level, tail) slots, levels
    ascending.  The rank tables are built 4096 maps at a time: each slot's
    pick is an unravelled index into its level's array of permutations."""
    q, chain_pi = _check_dims(q, chain_pi)
    size = check_group_cap("chain group", _chain_factors(q, chain_pi))
    shapes = level_shapes(q, chain_pi)
    perms = [np.array(list(permutations(range(sz)))) for _, sz in shapes]
    radix = [len(p) for p, (tails, _) in zip(perms, shapes) for _ in range(tails)]
    for start in range(0, size, 1 << 12):
        picks = iter(np.unravel_index(np.arange(start, min(start + (1 << 12), size)), radix))
        table = _chain_table([np.stack([p[next(picks)] for _ in range(tails)], axis=1)
                              for p, (tails, _) in zip(perms, shapes)])
        for row in table:
            yield ChainSymmetry._of(q, chain_pi, row)


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
    """decompose_chain of f, an int64 bijection of the row ranks: the map of
    the rebuilt rank table.  Its level rows are all permutations iff that table
    is a bijection, so only then is the row scan skipped.  A refusal is the
    one of f - w (sub subtracts ranks): only a bad row's anchors and the
    two ranks named move, as a translation keeps distances."""
    tables = _levels(q, chain_pi, f)
    rt = _chain_table(tables)
    if np.array_equal(rt, f):
        return ChainSymmetry._of(q, chain_pi, rt)
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
