"""Linear symmetries of an ordered Hamming block space.

An automorphism is an isometry that is also F_q-linear.  For a single
antichain level (n = 1) the group order has a closed form: a product of
general linear group orders, one per block, times the number of
admissible chain permutations.  For n > 1 no closed form is evaluated
here; the count from basis images with weight pruning is the
authority.  It runs the oracle's one group search,
oracle.stabilizer_orbits, with the basis slots as base, so its cost
follows the basis slots, the orbit points and the candidate images that
pass the weight tests, each of which walks its subtree; it does not
follow the group order, and only listing visits every automorphism.
"""

from __future__ import annotations

import math

import numpy as np

from .chains import log10_factorial
from .errors import CAPS, DomainError, check_cap, int_arg
from .oracle import stabilizer_orbits
from .space import SpaceConfig, add_ranks, rank_array, scale_ranks, weight_array
from .symmetry import s_pi_order, width_classes


def gl_order(q: int, k: int) -> int:
    """Number of invertible k x k matrices over F_q."""
    q = int_arg(q, "field size", 2)
    k = int_arg(k, "block width", 1)
    total = 1
    for t in range(k):
        total *= q ** k - q ** t
    return total


def _single_level(config: SpaceConfig):
    if config.n != 1:
        raise DomainError(
            f"closed form requires a single level, this space has n = {config.n}; "
            "use enumeration instead"
        )


def aut_order_antichain(config: SpaceConfig) -> int:
    """Closed-form automorphism count for n = 1: each block carries an
    independent GL factor and equal-width chains may be permuted."""
    _single_level(config)
    total = s_pi_order(config)
    for row in config.pi:
        total *= gl_order(config.q, row[0])
    return total


def aut_order_antichain_log10(config: SpaceConfig) -> float:
    """log10 of aut_order_antichain(config) without building it, so that a
    caller can refuse an order too large to print first.  A block of width
    k gives |GL(k, q)| = q^(k^2) * prod_{j=1..k} (1 - q^-j), whose factors
    past j = 64 round to 1 in a float."""
    _single_level(config)
    total = sum(log10_factorial(len(c)) for c in width_classes(config))
    for (k,) in config.pi:
        tail = sum(math.log10(1 - config.q ** -j) for j in range(1, min(k, 64) + 1))
        total += k * k * math.log10(config.q) + tail
    return total


def is_linear(config: SpaceConfig, table) -> bool:
    """True iff the bijection table is additive and scalar-linear.

    The table is compared against the F_q-linear extension of its own
    basis images, built with scale_ranks and add_ranks.  A table equal to
    it is additive and keeps f(c*u) = c*f(u) for every c; one that is not
    breaks one of the two laws, so this one comparison decides both.
    """
    S = config.size
    table = rank_array(table, S)
    if table[0] != 0:
        return False
    q = config.q
    expected = np.zeros(S, dtype=np.int64)
    for t in range(config.N):
        e_t = q ** t
        # ranks in [c*e_t, (c+1)*e_t) are c*e_t plus a lower-digit part,
        # so each scalar block extends the prefix computed so far
        for c in range(1, q):
            fce = scale_ranks(config, c, table[e_t])[0]
            expected[c * e_t: (c + 1) * e_t] = add_ranks(config, expected[:e_t], fce)
    return np.array_equal(expected, table)


def enumerate_automorphisms(config: SpaceConfig, cap: int | None = None, want_list: bool = False):
    """Count (and optionally list) every linear isometry.

    A linear map is fixed by the images of the standard basis slots
    e_t = q^t, assigned in order; a search state is the span of the
    images so far.  A candidate image w of e_t has e_t's weight and its
    count of weight-1 points u per weight(w + u), and is kept only if every
    vector x + c*e_t of that span keeps its weight under
    x + c*e_t -> f(x) + c*w, read from the weight table at
    add_ranks(f(x), c*w).  The e_t are the base of
    oracle.stabilizer_orbits, which gives the count and, for the
    listing, every completed span as a table.  Returns (count, tables
    or None).  A space over cap points is refused; cap defaults to the
    aut_points entry of CAPS.
    """
    S = config.size
    check_cap("space", S, "points", CAPS["aut_points"] if cap is None else int_arg(cap, "cap", 0), symbol="q^N")
    q = config.q
    weights = weight_array(config)
    ranks = np.arange(S, dtype=np.int64)
    scaled = [scale_ranks(config, c, ranks) for c in range(q)]
    # a linear isometry fixes 0 and permutes the weight-1 points u, so the
    # image of e_t has its counts of weight(v + u) per weight (2^16 pairs a block)
    ones = np.flatnonzero(weights == 1)
    top = int(weights.max()) + 1
    counts = np.zeros((S, top), dtype=np.int64)
    rows = max(1, (1 << 16) // len(ones))
    for lo in range(0, S, rows):
        v = ranks[lo:lo + rows, None]
        cells = weights[add_ranks(config, v, ones)] + top * (v - lo)
        counts[lo:lo + len(v)] = np.bincount(cells.ravel(), minlength=len(v) * top).reshape(-1, top)
    images = {q ** t: np.flatnonzero((weights == weights[q ** t]) & (counts == counts[q ** t]).all(1))
              for t in range(config.N)}

    def candidates(span):
        """Ascending images of e_t that keep the weights over span + c*e_t,
        where span holds the images of ranks 0..q^t - 1."""
        e_t = len(span)
        ws = images[e_t]
        # each block of candidates against the span reads about 2^16 weights
        rows = max(1, (1 << 16) // e_t)
        keep = []
        for lo in range(0, len(ws), rows):
            w = ws[lo:lo + rows]
            for c in range(1, q):
                target = weights[c * e_t:(c + 1) * e_t]
                got = weights[add_ranks(config, span, scaled[c][w][:, None])]
                w = w[(got == target).all(1)]
            keep.append(w)
        return np.concatenate(keep)

    def grow(span, w):
        return np.concatenate([add_ranks(config, span, scaled[c][w]) for c in range(q)])

    sizes, tables = stabilizer_orbits([q ** t for t in range(config.N)], lambda t: ranks[:q ** t],
                                      candidates, grow, lambda span: span, want_list)
    return math.prod(sizes), tables


class AutReport:
    """Automorphism-count report: closed form (when stated), enumerated
    count, per-block GL factors read off the config, and a discrepancy flag."""

    def __init__(self, config, formula_order, enumerated_order):
        self.config = config
        self.formula_order = formula_order
        self.enumerated_order = enumerated_order
        self.per_block_gl_orders = [[gl_order(config.q, k) for k in row] for row in config.pi]
        # None when nothing was enumerated to compare the closed form with
        self.discrepant = (None if enumerated_order is None
                           else formula_order is not None and formula_order != enumerated_order)

    def to_json(self) -> dict:
        return {
            "space": self.config.to_json(),
            "formula_order": self.formula_order,
            "enumerated_order": self.enumerated_order,
            "per_block_gl_orders": self.per_block_gl_orders,
            "discrepant": self.discrepant,
        }


def aut_report(config: SpaceConfig, cap: int | None = None) -> AutReport:
    enumerated, _ = enumerate_automorphisms(config, cap=cap)  # refuses before any order is built
    return AutReport(config, aut_order_antichain(config) if config.n == 1 else None, enumerated)
