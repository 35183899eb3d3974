"""Ground truth from the distance matrix alone.

Counts the distance-preserving bijections of a small space with a
stabilizer chain: the group order is the product of orbit sizes, and
each orbit point is proven by one backtrack on the distance matrix
that completes it to an isometry.  The cost grows with the number of
points and orbits, not with the group order.  The count is compared
against the closed-form group order (and, for all-unit-width
configurations, against the alternative closed forms that disagree
with it).  Listing every isometry is still an exhaustive backtrack.
Counts are exact integers; the caps keep the search at desk scale.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .chains import alt_chain_order_unit, log10_factorial
from .errors import CAPS, check_cap, int_text
from .space import SpaceConfig, distance_matrix_array
from .symmetry import alt_full_order_unit, full_order


class OracleReport:
    """Outcome of an oracle run.

    isometry_count is the enumerated truth; formula_count the group
    order product; alt_counts maps labels of alternative closed forms
    (stated only for all-unit-width configs) to their values.  matches
    records agreement with the enumerated count per formula, and
    discrepant is set when any stated formula disagrees.  elapsed is
    wall time in seconds and orbit_sizes the orbit size at each base
    point of the stabilizer chain (their product is isometry_count);
    neither is serialized, so that identical runs emit identical
    documents.
    """

    def __init__(self, config, isometry_count, formula_count, alt_counts, cap, listed=False,
                 elapsed=None, orbit_sizes=None):
        self.config = config
        self.isometry_count = isometry_count
        self.formula_count = formula_count
        self.alt_counts = dict(alt_counts)
        self.cap = cap
        self.listed = listed
        self.elapsed = elapsed
        self.orbit_sizes = orbit_sizes
        self.matches = {"formula": isometry_count == formula_count}
        for label, value in self.alt_counts.items():
            self.matches[label] = isometry_count == value
        self.discrepant = not all(self.matches.values())

    def to_json(self) -> dict:
        return {
            "space": self.config.to_json(),
            "isometry_count": self.isometry_count,
            "formula_count": self.formula_count,
            "alt_counts": self.alt_counts,
            "matches": self.matches,
            "discrepant": self.discrepant,
            "cap": self.cap,
            "listed": self.listed,
        }


def pair_classes(D: np.ndarray) -> np.ndarray:
    """The distance matrix refined by distance profile: the class of a
    pair (u, v) records d(u, v) and, for every two distances a and b, the
    number of points z with d(u, z) = a and d(z, v) = b.  Every isometry
    preserves these classes, and unlike distances they tell apart, say,
    two points differing on a short chain from two differing on a long
    one, so a backtrack on them leaves far fewer dead ends.  The counts
    are folded into one int64 per pair by a fixed wrapping hash: two
    profiles that collide only merge classes, which weakens the pruning
    but never rules out an isometry.
    """
    classes = D.astype(np.int64)
    values = range(int(D.max()) + 1)
    for a in values:
        at_a = (D == a).astype(np.int32)
        for b in values:
            classes = classes * 1_000_003 + at_a @ (D == b).astype(np.int32)
    return classes


def stabilizer_orbits(base, candidates, complete) -> list:
    """Orbit sizes along a pointwise stabilizer chain (Sims 1970); the
    group order is their product.

    base[t] is the t-th base point.  candidates(t) gives, ascending, the
    points base[t] may be sent to by a group element fixing base[:t]; it
    must contain base[t].  complete(t, y) returns such an element sending
    base[t] to y, as a permutation array of all points, or None.  The
    base point is in its own orbit (the identity).  Levels are worked
    from the last one up, and before each further candidate the orbit is
    closed under every element found so far (those of deeper levels fix
    base[:t] too), so candidates it already reaches cost no search.
    """
    sizes = [1] * len(base)
    gens = []
    for t in reversed(range(len(base))):
        b = int(base[t])
        orbit = {b}
        for y in candidates(t):
            if int(y) in orbit:
                continue
            g = complete(t, y)
            if g is None:
                continue
            gens.append(g)
            new = orbit
            while new:
                new = set(np.stack(gens)[:, list(new)].ravel().tolist()) - orbit
                orbit |= new
        sizes[t] = len(orbit)
    return sizes


def enumerate_isometries(config: SpaceConfig, cap: int | None = None, want_list: bool = False):
    """Count every distance-preserving bijection; optionally list them.

    Points are taken in ascending (weight, rank) order; an image is a
    candidate for a point only if its pair classes (see pair_classes)
    with the images assigned so far match those of the point with the
    points assigned so far.  The count is the product of the
    orbit sizes along the stabilizer chain with these points as base
    (see stabilizer_orbits), each orbit point proven by one completed
    backtrack, so the cost follows the number of points and orbits, not
    the group order.  Only the distance matrix is read.  Returns an
    OracleReport, plus, when want_list is set, every isometry as a dense
    rank table from the exhaustive backtrack, whose cost does follow the
    group order.  A space over cap points is refused; cap defaults to
    the oracle_list or oracle_count entry of CAPS.
    """
    if cap is None:
        cap = CAPS["oracle_list" if want_list else "oracle_count"]
    S = config.size
    check_cap("space", S, "points", cap, f"a full search would face {int_text(S)}! (about 10^"
              f"{int_text(round(log10_factorial(S)))}) candidate bijections before pruning", symbol="q^N")
    start = time.perf_counter()
    D = distance_matrix_array(config)
    weights = D[0]
    D = pair_classes(D)
    order = np.asarray(sorted(range(S), key=lambda r: (int(weights[r]), r)), dtype=np.int64)
    imgs = np.empty(S, dtype=np.int64)
    used = np.zeros(S, dtype=bool)

    def candidates(t):
        return np.flatnonzero(~used & (D[:, imgs[:t]] == D[order[t], order[:t]]).all(1))

    def extend(t):
        """Every completion of the assignment order[:t] -> imgs[:t]."""
        if t == S:
            table = np.empty(S, dtype=np.int64)
            table[order] = imgs
            yield table
            return
        for y in candidates(t):
            imgs[t] = y
            used[y] = True
            yield from extend(t + 1)
            used[y] = False

    def fix_prefix(t):
        imgs[:t] = order[:t]
        used[:] = False
        used[order[:t]] = True

    def complete(t, y):
        fix_prefix(t)
        imgs[t] = y
        used[y] = True
        return next(extend(t + 1), None)

    def base_candidates(t):
        fix_prefix(t)
        return candidates(t)

    sizes = stabilizer_orbits(order, base_candidates, complete)
    count = math.prod(sizes)
    fix_prefix(0)
    maps = [table.tolist() for table in extend(0)] if want_list else None
    elapsed = time.perf_counter() - start

    alt = {}
    if all(k == 1 for row in config.pi for k in row):
        if config.m == 1:
            alt["unit_chain"] = alt_chain_order_unit(config.q, config.n)
        alt["unit_product"] = alt_full_order_unit(config.q, config.m, config.n)
    report = OracleReport(
        config,
        isometry_count=count,
        formula_count=full_order(config),
        alt_counts=alt,
        cap=cap,
        listed=want_list,
        elapsed=elapsed,
        orbit_sizes=sizes,
    )
    if want_list:
        return report, maps
    return report

