"""Ground truth by brute force.

Enumerates every distance-preserving bijection of a small space by
backtracking on the distance matrix, then compares the count against
the closed-form group order (and, for all-unit-width configurations,
against the alternative closed forms that disagree with it).  Counts
are exact integers; the caps keep the search at desk scale.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .chains import alt_chain_order_unit
from .errors import CapExceeded
from .space import SpaceConfig, distance_matrix_array
from .symmetry import alt_full_order_unit, full_order

LIST_CAP = 16
COUNT_CAP = 64
MATRIX_CAP = 1 << 12


def distance_matrix(config: SpaceConfig, cap: int = MATRIX_CAP) -> np.ndarray:
    """Exact q^N x q^N distance matrix under the canonical ranking."""
    if config.size > cap:
        raise CapExceeded(f"space has q^N = {config.size} points, over the matrix cap {cap}")
    return distance_matrix_array(config)


class OracleReport:
    """Outcome of an oracle run.

    isometry_count is the enumerated truth; formula_count the group
    order product; alt_counts maps labels of alternative closed forms
    (stated only for all-unit-width configs) to their values.  matches
    records agreement with the enumerated count per formula, and
    discrepant is set when any stated formula disagrees.  elapsed is
    wall time in seconds and is deliberately not serialized, so that
    identical runs emit identical documents.
    """

    def __init__(self, config, isometry_count, formula_count, alt_counts, cap, listed=False, elapsed=None):
        self.config = config
        self.isometry_count = isometry_count
        self.formula_count = formula_count
        self.alt_counts = dict(alt_counts)
        self.cap = cap
        self.listed = listed
        self.elapsed = elapsed
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


def _search_size_estimate(S: int) -> str:
    digits = math.lgamma(S + 1) / math.log(10)
    return f"{S}! (about 10^{digits:.0f}) candidate bijections before pruning"


def enumerate_isometries(config: SpaceConfig, cap: int | None = None, want_list: bool = False):
    """Count every distance-preserving bijection; optionally list them.

    Points are assigned in ascending (weight, rank) order; a candidate
    image is kept only if its distances to all already-assigned images
    match the source distances.  Returns an OracleReport, plus the list
    of dense rank tables when want_list is set.

    The cap bounds the point count, but runtime is proportional to the
    number of isometries found: configs whose group order (full_order)
    runs to millions take correspondingly long even under the cap.
    """
    if cap is None:
        cap = LIST_CAP if want_list else COUNT_CAP
    S = config.size
    if S > cap:
        raise CapExceeded(
            f"space has q^N = {S} points, over the cap {cap}; "
            f"a full search would face {_search_size_estimate(S)}"
        )
    start = time.perf_counter()
    D = distance_matrix_array(config)
    weights = D[0]
    order = sorted(range(S), key=lambda r: (int(weights[r]), r))
    order = np.asarray(order, dtype=np.int64)

    count = 0
    maps = [] if want_list else None
    assigned_pts = np.empty(S, dtype=np.int64)
    assigned_imgs = np.empty(S, dtype=np.int64)
    used = np.zeros(S, dtype=bool)

    def rec(t):
        nonlocal count
        if t == S:
            count += 1
            if maps is not None:
                table = np.empty(S, dtype=np.int64)
                table[assigned_pts] = assigned_imgs
                maps.append(table.tolist())
            return
        u = order[t]
        du = D[u, assigned_pts[:t]]
        for y in range(S):
            if used[y]:
                continue
            if np.array_equal(D[y, assigned_imgs[:t]], du):
                assigned_pts[t] = u
                assigned_imgs[t] = y
                used[y] = True
                rec(t + 1)
                used[y] = False

    rec(0)
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
    )
    if want_list:
        return report, maps
    return report

