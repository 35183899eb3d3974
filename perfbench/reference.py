"""Independent reference computations for the benchmark's output checks.

Nothing in this module imports ohb.  Ranks, distances, group orders and
the action of a symmetry document are recomputed here from their
definitions, so a wrong answer from the library cannot pass a check
that runs through the same code.

Conventions (the ones ohb documents): a vector rank is mixed radix over
field-element ranks, first element of block (1, 1) least significant,
then the rest of chain 1 level by level, then chain 2, and so on.  A
symmetry document is ``{"sigma": [...1-based...], "chains": [{"pi":
..., "tables": ...}]}`` where output chain i is input chain sigma[i]
transformed by that input chain's tables, and ``tables[j][t]`` is the
permutation of level j's block values when the levels above j have
rank t (level j+1 least significant).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# Oracle counts pinned by the acceptance criteria, keyed by (q, pi).
PINNED_ISOMETRY_COUNTS = {
    (2, ((1, 1),)): 8,
    (2, ((1,), (1,))): 8,
    (2, ((2, 1),)): 1152,
    (2, ((1,), (1,), (1,))): 48,
    (2, ((1, 1), (1, 1))): 128,
    (3, ((1, 1),)): 1296,
}


def _perm_classes(pi) -> int:
    """Number of chain permutations that keep every chain's widths."""
    total = 1
    for c in Counter(tuple(row) for row in pi).values():
        total *= math.factorial(c)
    return total


def isometry_order(q: int, pi) -> int:
    """|Isom| = s_pi * prod over chains and levels of (q^k_j)!^(q^(k_j+1 + ... + k_n))."""
    total = _perm_classes(pi)
    for row in pi:
        for j, k in enumerate(row):
            total *= math.factorial(q ** k) ** (q ** sum(row[j + 1:]))
    return total


def gl_order(q: int, k: int) -> int:
    total = 1
    for t in range(k):
        total *= q ** k - q ** t
    return total


def automorphism_order(q: int, pi) -> int:
    """Linear isometries are block upper-triangular per chain:
    s_pi * prod |GL(k_j, q)| * q^(k_j * (k_1 + ... + k_{j-1}))."""
    total = _perm_classes(pi)
    for row in pi:
        below = 0
        for k in row:
            total *= gl_order(q, k) * q ** (k * below)
            below += k
    return total


class Geometry:
    """Rank layout of the space over GF(p^e) with block widths pi."""

    def __init__(self, p: int, e: int, pi):
        q = p ** e
        self.p = p
        self.e = e
        self.q = q
        self.pi = tuple(tuple(int(k) for k in row) for row in pi)
        self.m = len(self.pi)
        self.n = len(self.pi[0])
        self.level_size = [[q ** k for k in row] for row in self.pi]
        self.chain_size = [q ** sum(row) for row in self.pi]
        self.chain_place = []
        place = 1
        for s in self.chain_size:
            self.chain_place.append(place)
            place *= s
        self.size = place
        self.digits = sum(sum(row) for row in self.pi) * e

    def blocks(self, rank: int):
        """Chains of levels of element-rank tuples, as BlockVector takes them."""
        out = []
        for row in self.pi:
            levels = []
            for k in row:
                block = []
                for _ in range(k):
                    block.append(rank % self.q)
                    rank //= self.q
                levels.append(tuple(block))
            out.append(tuple(levels))
        return tuple(out)

    def add(self, a, b, sign: int = 1) -> np.ndarray:
        """Vector addition (sign=-1: subtraction) on ranks, digit by base-p digit."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        place = 1
        for _ in range(self.digits):
            out += ((a // place % self.p + sign * (b // place % self.p)) % self.p) * place
            place *= self.p
        return out

    def levels(self, ranks, i):
        """Level digits of chain i for an array of vector ranks."""
        sub = (np.asarray(ranks, dtype=np.int64) // self.chain_place[i]) % self.chain_size[i]
        out = []
        for sz in self.level_size[i]:
            out.append(sub % sz)
            sub = sub // sz
        return out

    def distance(self, a, b) -> np.ndarray:
        """Sum over chains of the highest level where a and b differ."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        total = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self.m):
            la, lb = self.levels(a, i), self.levels(b, i)
            top = np.zeros_like(total)
            for j in range(self.n):
                top = np.where(la[j] != lb[j], j + 1, top)
            total += top
        return total

    def weight(self, a) -> np.ndarray:
        return self.distance(a, 0)

    def rank_of_blocks(self, blocks) -> int:
        r, place = 0, 1
        for row in blocks:
            for block in row:
                for x in block:
                    r += int(x) * place
                    place *= self.q
        return r

    def format(self, rank: int) -> str:
        """The text form `b,b;b,b` with juxtaposed element digits."""
        chains = []
        for row in self.pi:
            levels = []
            for k in row:
                digits = []
                for _ in range(k):
                    digits.append(str(rank % self.q))
                    rank //= self.q
                levels.append("".join(digits))
            chains.append(",".join(levels))
        return ";".join(chains)

    def apply(self, doc, ranks) -> np.ndarray:
        """Images of vector ranks under a symmetry document."""
        ranks = np.asarray(ranks, dtype=np.int64)
        tables = [[np.asarray(level, dtype=np.int64) for level in ch["tables"]] for ch in doc["chains"]]
        out = np.zeros_like(ranks)
        for i, s in enumerate(doc["sigma"]):
            k = s - 1
            digits = self.levels(ranks, k)
            sizes = self.level_size[k]
            image = np.zeros_like(ranks)
            place = 1
            for j in range(self.n):
                tail = np.zeros_like(ranks)
                tail_place = 1
                for l in range(j + 1, self.n):
                    tail += digits[l] * tail_place
                    tail_place *= sizes[l]
                image += tables[k][j][tail, digits[j]] * place
                place *= sizes[j]
            out += image * self.chain_place[i]
        return out

    def distance_distribution(self, ranks):
        """Sorted (distance, count) pairs over unordered distinct pairs."""
        ranks = np.asarray(sorted(ranks), dtype=np.int64)
        iu, ju = np.triu_indices(len(ranks), k=1)
        d = self.distance(ranks[iu], ranks[ju])
        return tuple(sorted(Counter(d.tolist()).items()))

    def breaks_distance(self, table, u: int, v: int) -> bool:
        """True iff the map `table` changes the distance of (u, v)."""
        return int(self.distance(u, v)) != int(self.distance(table[u], table[v]))


def field_tables(p: int, e: int, modulus):
    """Addition and multiplication tables of GF(p^e) over element ranks
    (polynomial coefficients, low order first, as base-p digits)."""
    q = p ** e

    def coeffs(r):
        return [(r // p ** t) % p for t in range(e)]

    def rank(c):
        return sum(int(x) * p ** t for t, x in enumerate(c))

    add = [[rank([(x + y) % p for x, y in zip(coeffs(a), coeffs(b))]) for b in range(q)] for a in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(q):
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(coeffs(a)):
                for j, y in enumerate(coeffs(b)):
                    prod[i + j] = (prod[i + j] + x * y) % p
            if e > 1:
                for d in range(len(prod) - 1, e - 1, -1):
                    c = prod[d]
                    if c:
                        for t in range(e + 1):
                            prod[d - e + t] = (prod[d - e + t] - c * modulus[t]) % p
            mul[a][b] = rank(prod[:e])
    return add, mul
