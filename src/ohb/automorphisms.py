"""Linear symmetries of an ordered Hamming block space.

An automorphism is an isometry that is also F_q-linear.  For a single
antichain level (n = 1) the group order has a closed form: a product of
general linear group orders, one per block, times the number of
admissible chain permutations.  For n > 1 no closed form is evaluated
here; the count from basis images with weight pruning is the
authority.  It multiplies orbit sizes along a stabilizer chain, so its
cost follows the number of basis slots and orbit points, not the group
order; only listing every automorphism visits each one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CAPS, DomainError, UsageError, check_cap
from .oracle import stabilizer_orbits
from .space import SpaceConfig, add_ranks, rank_distance, scale_ranks, weight_array
from .symmetry import s_pi_order


def gl_order(q: int, k: int) -> int:
    """Number of invertible k x k matrices over F_q."""
    if k < 1:
        raise UsageError(f"block width must be >= 1, got {k}")
    total = 1
    for t in range(k):
        total *= q ** k - q ** t
    return total


def aut_order_antichain(config: SpaceConfig) -> int:
    """Closed-form automorphism count for n = 1: each block carries an
    independent GL factor and equal-width chains may be permuted."""
    if config.n != 1:
        raise DomainError(
            f"closed form requires a single level, this space has n = {config.n}; "
            "use enumeration instead"
        )
    total = s_pi_order(config)
    for row in config.pi:
        total *= gl_order(config.q, row[0])
    return total


def is_linear(config: SpaceConfig, table) -> bool:
    """True iff the bijection table is additive and scalar-linear.

    The table is compared against the linear extension of its own basis
    images (which settles additivity for every pair at once), and the
    scalar law f(c*u) = c*f(u) is then checked directly for every c.
    """
    S = config.size
    table = np.asarray([int(x) for x in table], dtype=np.int64)
    if len(table) != S:
        raise UsageError(f"table has {len(table)} entries, space has {S}")
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
    if not np.array_equal(expected, table):
        return False
    ranks = np.arange(S, dtype=np.int64)
    for c in range(2, q):
        if not np.array_equal(table[scale_ranks(config, c, ranks)], scale_ranks(config, c, table)):
            return False
    return True


def enumerate_automorphisms(config: SpaceConfig, cap: int | None = None, want_list: bool = False):
    """Count (and optionally list) every linear isometry.

    A linear map is fixed by the images of the standard basis slots
    e_t = q^t, assigned in order; a partial assignment keeps a candidate
    image w of e_t only if every vector x + c*e_t of the span it
    extends keeps its weight under x + c*e_t -> f(x) + c*w.  The count
    is the product of orbit sizes along the stabilizer chain with the
    e_t as base (see oracle.stabilizer_orbits), each orbit point proven
    by one completed backtrack, so the cost follows the number of basis
    slots and orbit points, not the group order.  Listing is the
    exhaustive backtrack.  Returns (count, tables or None).  A space over
    cap points is refused; cap defaults to the aut_points entry of CAPS.
    """
    S = config.size
    check_cap("space", S, "points", CAPS["aut_points"] if cap is None else cap, symbol="q^N")
    q, f = config.q, config.field
    weights = weight_array(config)
    ranks = np.arange(S, dtype=np.int64)
    scaled = [scale_ranks(config, c, ranks) for c in range(q)]
    negated = [scaled[f.neg(c)] for c in range(q)]

    def candidates(span):
        """Ascending images of e_t that keep the weights over span + c*e_t,
        where span holds the images of ranks 0..q^t - 1."""
        e_t = len(span)
        ws = np.flatnonzero(weights == weights[e_t])
        # weight(y + c*w) is the distance from y to -c*w; each block of
        # candidates against the span holds about 2^16 distances
        rows = max(1, (1 << 16) // e_t)
        keep = []
        for lo in range(0, len(ws), rows):
            w = ws[lo:lo + rows]
            for c in range(1, q):
                target = weights[c * e_t:(c + 1) * e_t]
                got = rank_distance(q, config.pi, span, negated[c][w][:, None], np.int8)
                w = w[(got == target).all(1)]
            keep.append(w)
        return np.concatenate(keep)

    def grow(span, w):
        return np.concatenate([add_ranks(config, span, scaled[c][w]) for c in range(q)])

    def extend(span):
        """Every completion of the assignment ranks[:len(span)] -> span."""
        if len(span) == S:
            yield span
            return
        for w in candidates(span):
            yield from extend(grow(span, w))

    def complete(t, y):
        return next(extend(grow(ranks[:q ** t], y)), None)

    base = [q ** t for t in range(config.N)]
    sizes = stabilizer_orbits(base, lambda t: candidates(ranks[:q ** t]), complete)
    tables = [table.tolist() for table in extend(ranks[:1])] if want_list else None
    return math.prod(sizes), tables


class AutReport:
    """Automorphism-count report: closed form (when stated), enumerated
    count, per-block GL factors, and a discrepancy flag."""

    def __init__(self, config, formula_order, enumerated_order, per_block_gl_orders):
        self.config = config
        self.formula_order = formula_order
        self.enumerated_order = enumerated_order
        self.per_block_gl_orders = per_block_gl_orders
        self.discrepant = formula_order is not None and formula_order != enumerated_order

    def to_json(self) -> dict:
        return {
            "space": self.config.to_json(),
            "formula_order": self.formula_order,
            "enumerated_order": self.enumerated_order,
            "per_block_gl_orders": self.per_block_gl_orders,
            "discrepant": self.discrepant,
        }


def aut_report(config: SpaceConfig, cap: int | None = None) -> AutReport:
    formula = aut_order_antichain(config) if config.n == 1 else None
    enumerated, _ = enumerate_automorphisms(config, cap=cap)
    per_block = [[gl_order(config.q, k) for k in row] for row in config.pi]
    return AutReport(config, formula, enumerated, per_block)
