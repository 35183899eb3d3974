"""The caps table: one module defines every cap, one helper refuses.

Each entry of ohb.errors.CAPS is read when its check runs, so patching
one entry small moves every check that reads it: a value equal to the
cap is accepted and the cap plus one is refused, in the one format
"<subject> has <value> <unit>, over the cap <cap>[; <detail>]".
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import ohb
from conftest import make_config
from ohb import (
    CapExceeded,
    Code,
    all_chain_symmetries,
    all_symmetries,
    as_rank_table,
    enumerate_automorphisms,
    enumerate_isometries,
    equivalent,
    identity_symmetry,
    random_chain,
    weight_array,
)
from ohb.errors import CAPS
from ohb.space import distance_witness

SRC = Path(ohb.__file__).parent

# 4 points, and a symmetry group of order 8
CHAIN2 = make_config(2, 1, 2, [[1, 1]])
SPACE_OVER = "space has q^N = 4 points, over the cap 3"

# entry, the value its check sees, the check, and its refusal at value - 1
CASES = {
    "weight_array": ("points", 4, lambda: weight_array(CHAIN2), SPACE_OVER),
    "as_rank_table": ("points", 4, lambda: as_rank_table(identity_symmetry(CHAIN2)), SPACE_OVER),
    "random_chain": (
        "points", 4, lambda: random_chain(2, (1, 1), 0),
        "chain 1 has 4 points, over the cap 3; a random map of it would hold 6 table entries",
    ),
    "all_chain_symmetries": (
        "group", 8, lambda: list(all_chain_symmetries(2, (1, 1))),
        "chain group has 8 elements, over the cap 7",
    ),
    "all_symmetries": (
        "group", 8, lambda: list(all_symmetries(CHAIN2)),
        "symmetry group has 8 elements, over the cap 7",
    ),
    "enumerate_automorphisms": (
        "aut_points", 4, lambda: enumerate_automorphisms(CHAIN2), SPACE_OVER,
    ),
    "oracle count": (
        "oracle_count", 4, lambda: enumerate_isometries(CHAIN2),
        SPACE_OVER + "; a full search would face 4! (about 10^1) candidate bijections before pruning",
    ),
    "oracle list": (
        "oracle_list", 4, lambda: enumerate_isometries(CHAIN2, want_list=True),
        SPACE_OVER + "; a full search would face 4! (about 10^1) candidate bijections before pruning",
    ),
}


def module_caps(tree):
    """Module-level names bound in a module that end in _CAP."""
    names = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_CAP")]
    return names


def cap_raisers(tree):
    """Names of the functions that contain `raise CapExceeded(...)`."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "CapExceeded":
                    found.add(fn.name)
    return found


def test_errors_is_the_only_module_that_defines_or_raises_a_cap():
    raisers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "errors.py":
            assert module_caps(tree) == [], path.name
        for name in cap_raisers(tree):
            raisers.setdefault(path.name, set()).add(name)
    assert raisers == {"errors.py": {"check_cap"}}


def test_the_guard_sees_a_cap_and_a_raise():
    tree = ast.parse("X_CAP = 3\ndef f():\n    raise CapExceeded('x')\n")
    assert module_caps(tree) == ["X_CAP"]
    assert cap_raisers(tree) == {"f"}


def test_the_table_has_one_entry_per_meaning():
    assert CAPS == {
        "points": 1 << 20,
        "group": 1 << 20,
        "witness_matrix": 1 << 12,
        "aut_points": 1 << 12,
        "oracle_count": 64,
        "oracle_list": 16,
    }


@pytest.mark.parametrize("case", CASES)
def test_a_value_at_the_cap_passes_and_one_over_is_refused(case, monkeypatch):
    entry, value, check, refusal = CASES[case]
    monkeypatch.setitem(CAPS, entry, value)
    check()
    monkeypatch.setitem(CAPS, entry, value - 1)
    with pytest.raises(CapExceeded) as exc:
        check()
    assert str(exc.value) == refusal


def test_the_witness_matrix_entry_switches_to_the_anchor_scan(monkeypatch):
    # 17 and 30 swapped on one chain of 5 unit levels: rows 0..15, the
    # anchors, see no change, so only the full matrix finds the pair (16, 17)
    f = np.arange(32)
    f[[17, 30]] = f[[30, 17]]
    monkeypatch.setitem(CAPS, "witness_matrix", 32)
    assert distance_witness(2, ((1,) * 5,), f) == (16, 17)
    monkeypatch.setitem(CAPS, "witness_matrix", 31)
    assert distance_witness(2, ((1,) * 5,), f) is None


@pytest.mark.parametrize("entry, value", [("oracle_list", 4), ("group", 8)])
def test_the_equivalence_fallback_reads_the_table(entry, value, monkeypatch):
    c1 = Code(CHAIN2, [0, 1])
    c2 = Code(CHAIN2, [2, 3])
    monkeypatch.setitem(CAPS, entry, value)
    assert equivalent(c1, c2, budget=1).verdict == "equivalent"
    monkeypatch.setitem(CAPS, entry, value - 1)
    assert equivalent(c1, c2, budget=1).verdict == "inconclusive"
