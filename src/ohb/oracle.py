"""Ground truth from the distance matrix alone, and the one search.

depth_first is the walk every search runs, on an explicit stack, so no
level recurses: stabilizer_orbits runs it for both group counts (the
oracle here, on partial maps checked against the distance matrix, and
the automorphism count, on basis images), and codes.equivalent to match
codewords.  stabilizer_orbits multiplies orbit sizes along a stabilizer
chain, proving each orbit point by the first completion of the walk,
so the cost grows with the number of points and orbits, not with the
group order; only listing every element runs the walk to the end.  The
oracle count is compared against the closed-form group order (and, for
all-unit-width configurations, against the alternative closed forms
that disagree with it).  Counts are exact integers; the caps keep the
search at desk scale.
"""

from __future__ import annotations

import math

import numpy as np

from .chains import alt_chain_order_unit, log10_factorial
from .errors import CAPS, check_cap, int_arg, int_text
from .space import SpaceConfig, distance_matrix_array
from .symmetry import alt_full_order_unit, full_order


class OracleReport:
    """Outcome of an oracle run.

    isometry_count is the enumerated truth; formula_count the group
    order product; alt_counts maps labels of alternative closed forms
    (stated only for all-unit-width configs) to their values.  matches
    records agreement with the enumerated count per formula, and
    discrepant is set when any stated formula disagrees.  orbit_sizes is
    the orbit size at each base point of the stabilizer chain (their
    product is isometry_count).  The report has no JSON view of its own:
    the CLI's order --both and report documents take the counts,
    alt_counts, matches and discrepant, and never orbit_sizes.
    """

    def __init__(self, config, isometry_count, formula_count, alt_counts, orbit_sizes=None):
        self.config = config
        self.isometry_count = isometry_count
        self.formula_count = formula_count
        self.alt_counts = dict(alt_counts)
        self.orbit_sizes = orbit_sizes
        self.matches = {"formula": isometry_count == formula_count}
        for label, value in self.alt_counts.items():
            self.matches[label] = isometry_count == value
        self.discrepant = not all(self.matches.values())


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


def depth_first(state, ys, depth, candidates, child):
    """Every state depth >= 1 levels below state, in depth-first order:
    child(s, y) is the state one step y below s, whose steps are taken
    from ys at the first level and from candidates(s) below it.  The walk
    keeps a stack of candidate iterators, so no level recurses."""
    stack = [(state, iter(ys))]
    while stack:
        state, ys = stack[-1]
        for y in ys:
            s = child(state, y)
            if len(stack) == depth:
                yield s
            else:
                stack.append((s, iter(candidates(s))))
                break
        else:
            stack.pop()


def stabilizer_orbits(base, root, candidates, child, perm, want_list=False):
    """Orbit sizes along a pointwise stabilizer chain (Sims 1970), whose
    product is the group order, and every group element if want_list.

    A state stands for a map sending base[:t] somewhere: root(t) fixes
    base[:t], candidates(state) are the ascending images tried for the
    next base point, which for root(t) include base[t], child(state, y)
    sends it to y, and perm(state) is the permutation array of all
    points for a state covering the base.  A candidate joins the orbit
    when its child has a completion, the first one found.  Levels run
    from the last one up, and the orbit is closed under every element
    found so far (deeper ones fix base[:t] too) before each candidate,
    so candidates it reaches cost no search.  Returns (sizes, listing):
    every completion of root(0) in depth-first order as lists, or None.
    A listing of a group over the group entry of CAPS is refused.
    """
    sizes = [1] * len(base)
    gens = []
    for t in reversed(range(len(base))):
        state = root(t)
        orbit = {int(base[t])}
        for y in candidates(state):
            if int(y) in orbit:
                continue
            g = next(depth_first(state, [y], len(base) - t, candidates, child), None)
            if g is None:
                continue
            gens = np.vstack([*gens, perm(g)])  # one row per generator, stacked once
            new = orbit
            while new:
                new = set(gens[:, list(new)].ravel().tolist()) - orbit
                orbit |= new
        sizes[t] = len(orbit)
    if not want_list:
        return sizes, None
    check_cap("group", math.prod(sizes), "elements", CAPS["group"])
    state = root(0)
    return sizes, [perm(g).tolist() for g in depth_first(state, candidates(state), len(base), candidates, child)]


def enumerate_isometries(config: SpaceConfig, cap: int | None = None, want_list: bool = False):
    """Count every distance-preserving bijection; optionally list them.

    A search state is the images of the points taken so far in ascending
    (weight, rank) order; an image is a candidate for the next point
    only if its pair classes (see pair_classes) with those images match
    the point's with the points taken so far.  These points are the base
    of stabilizer_orbits, which gives the count and, when want_list is
    set, every isometry as a dense rank table, listed by the exhaustive
    backtrack, whose cost does follow the group order.  Only the
    distance matrix is read.  Returns an OracleReport, plus the listing
    when want_list is set.  A space over cap points is refused; cap
    defaults to the oracle_list or oracle_count entry of CAPS.
    """
    cap = CAPS["oracle_list" if want_list else "oracle_count"] if cap is None else int_arg(cap, "cap", 0)
    S = config.size
    check_cap("space", S, "points", cap, f"a full search would face {int_text(S)}! (about 10^"
              f"{int_text(round(log10_factorial(S)))}) candidate bijections before pruning", symbol="q^N")
    D = distance_matrix_array(config)
    weights = D[0]
    D = pair_classes(D)
    order = np.asarray(sorted(range(S), key=lambda r: (int(weights[r]), r)), dtype=np.int64)
    base = D[np.ix_(order, order)]  # the pair classes among the base points

    def candidates(imgs):
        ok = (D[:, imgs] == base[len(imgs), :len(imgs)]).all(1)
        ok[imgs] = False
        return np.flatnonzero(ok)

    back = np.argsort(order)  # the rank table of a full state is imgs[back]
    sizes, maps = stabilizer_orbits(order, lambda t: order[:t], candidates,
                                    lambda imgs, y: np.concatenate((imgs, [y])),
                                    lambda imgs: imgs[back], want_list)
    alt = {}
    if all(k == 1 for row in config.pi for k in row):
        if config.m == 1:
            alt["unit_chain"] = alt_chain_order_unit(config.q, config.n)
        alt["unit_product"] = alt_full_order_unit(config.q, config.m, config.n)
    report = OracleReport(config, math.prod(sizes), full_order(config), alt, orbit_sizes=sizes)
    if want_list:
        return report, maps
    return report

