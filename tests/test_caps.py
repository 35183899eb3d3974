"""The caps table: one module defines every cap, one helper refuses.

Each entry of ohb.errors.CAPS is read when its check runs, so patching
one entry small moves every check that reads it: a value equal to the
cap is accepted and the cap plus one is refused, in the one format
"<subject> has <value> <unit>, over the cap <cap>[; <detail>]".
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ohb
from conftest import make_config
from ohb import (
    CapExceeded,
    Code,
    Field,
    UsageError,
    all_chain_symmetries,
    all_symmetries,
    as_rank_table,
    chain_from_pairs,
    enumerate_automorphisms,
    enumerate_isometries,
    equivalent,
    gl_order,
    identity_chain,
    identity_symmetry,
    make_translation,
    random_chain,
    weight_array,
)
from ohb.errors import CAPS
from ohb.space import distance_witness

SRC = Path(ohb.__file__).parent

# 4 points, and a symmetry group of order 8
CHAIN2 = make_config(2, 1, 2, [[1, 1]])
SPACE_OVER = "space has q^N = 4 points, over the cap 3"
CHAIN_OVER = "has 4 points, over the cap 3; its rank table would hold one entry per point"
# built under the default caps, so that only as_rank_table's check is patched
IDENTITY2 = identity_symmetry(CHAIN2)

# entry, the value its check sees, the check, and its refusal at value - 1
CASES = {
    "weight_array": ("points", 4, lambda: weight_array(CHAIN2), SPACE_OVER),
    "as_rank_table": ("points", 4, lambda: as_rank_table(IDENTITY2), SPACE_OVER),
    "identity_chain": ("points", 4, lambda: identity_chain(2, (1, 1)), "chain " + CHAIN_OVER),
    "identity_symmetry": ("points", 4, lambda: identity_symmetry(CHAIN2), "chain " + CHAIN_OVER),
    "make_translation": ("points", 4, lambda: make_translation(CHAIN2.unrank(3)), "chain 1 " + CHAIN_OVER),
    "random_chain": (
        "points", 4, lambda: random_chain(2, (1, 1), 0),
        "chain 1 has 4 points, over the cap 3; a random map of it would hold 6 table entries",
    ),
    "Field": (
        "points", 16, lambda: Field(2, 2),
        "GF(2^2) has q^2 = 16 multiplication table entries, over the cap 15",
    ),
    "all_chain_symmetries": (
        "group", 8, lambda: list(all_chain_symmetries(2, (1, 1))),
        "chain group has 8 elements, over the cap 7",
    ),
    "all_symmetries": (
        "group", 8, lambda: list(all_symmetries(CHAIN2)),
        "symmetry group has 8 elements, over the cap 7",
    ),
    "chain_from_pairs": (
        "points", 4, lambda: chain_from_pairs(2, (1, 1), [1], [2]),
        "chain has 4 points, over the cap 3; a map of it built from word pairs would hold 6 table entries",
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
    "oracle listing by group order": (
        "group", 8, lambda: enumerate_isometries(CHAIN2, want_list=True),
        "group has 8 elements, over the cap 7",
    ),
    "automorphism listing by group order": (
        "group", 2, lambda: enumerate_automorphisms(CHAIN2, want_list=True),
        "group has 2 elements, over the cap 1",
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


def test_identity_and_translation_maps_refuse_a_chain_over_the_cap():
    # each builds a chain-sized arange, here of 2^40 entries, so the points
    # cap is checked first
    cfg = make_config(2, 1, 1, [[40]])
    for build in (lambda: identity_chain(2, (40,)), lambda: identity_symmetry(cfg),
                  lambda: make_translation(cfg.unrank(1))):
        with pytest.raises(CapExceeded, match=r"^chain (1 )?has 1099511627776 points, over the cap 1048576;"):
            build()


def test_a_group_too_long_to_print_is_refused_before_its_order_is_built(monkeypatch):
    # (2^40)! has about 1.3 * 10^13 digits, and building it would run for
    # hours: its listing is refused from the log10 of the order alone
    def unbuilt(*args):
        raise AssertionError("the order was built before the group cap was checked")

    monkeypatch.setattr(ohb.chains, "chain_order", unbuilt)
    monkeypatch.setattr(ohb.symmetry, "full_order", unbuilt)
    cfg = make_config(2, 1, 1, [[40]])
    for listing in (lambda: next(all_symmetries(cfg)), lambda: next(all_chain_symmetries(2, (40,)))):
        with pytest.raises(CapExceeded, match=r"group has <12761927388952-digit number> elements, over the cap 1048576$"):
            listing()


@pytest.mark.parametrize("pi", [[[6, 1, 3]] * 3, [[3, 1, 7]] * 3, [[10], [10]], [[11]]])
def test_an_order_refused_from_its_log10_reads_as_the_built_order_would(pi):
    # orders of 4299 digits, shown whole, and of 4301, 5280 and 5895 digits,
    # past the 4300 that Python prints, shown by their digit count
    cfg = make_config(2, len(pi), len(pi[0]), pi)
    with pytest.raises(CapExceeded) as exc:
        next(all_symmetries(cfg))
    with pytest.raises(CapExceeded) as built:
        ohb.errors.check_cap("symmetry group", ohb.full_order(cfg), "elements", CAPS["group"])
    assert str(exc.value) == str(built.value)


def test_a_field_over_the_points_cap_is_refused_before_its_table():
    # x^11 + x^2 + 1: a table of 2^22 entries would take 32 MB as int64
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as exc:
            Field(2, 11, [1, 0, 1] + [0] * 8 + [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert str(exc.value) == "GF(2^11) has q^2 = 4194304 multiplication table entries, over the cap 1048576"


def test_the_witness_matrix_entry_switches_to_the_anchor_scan(monkeypatch):
    # 17 and 30 swapped on one chain of 5 unit levels: rows 0..15, the
    # anchors, see no change, so only the full matrix finds the pair (16, 17)
    f = np.arange(32)
    f[[17, 30]] = f[[30, 17]]
    monkeypatch.setitem(CAPS, "witness_matrix", 32)
    assert distance_witness(2, ((1,) * 5,), f) == (16, 17)
    monkeypatch.setitem(CAPS, "witness_matrix", 31)
    assert distance_witness(2, ((1,) * 5,), f) is None


def test_counts_do_not_read_the_group_entry(monkeypatch):
    # only a listing is refused, once its orbit sizes are known and
    # before the backtrack visits any element
    monkeypatch.setitem(CAPS, "group", 1)
    assert enumerate_isometries(CHAIN2).isometry_count == 8
    assert enumerate_automorphisms(CHAIN2)[0] == 2


@pytest.mark.parametrize("entry, value", [("oracle_list", 4), ("group", 8)])
def test_the_equivalence_fallback_reads_the_table(entry, value, monkeypatch):
    # two chains of one level (4 points, a group of 8): with one chain the
    # search decides by canonical forms and never falls back
    cfg = make_config(2, 2, 1, [[1], [1]])
    c1 = Code(cfg, [0, 1])
    c2 = Code(cfg, [2, 3])
    monkeypatch.setitem(CAPS, entry, value)
    assert equivalent(c1, c2, budget=1).verdict == "equivalent"
    monkeypatch.setitem(CAPS, entry, value - 1)
    assert equivalent(c1, c2, budget=1).verdict == "inconclusive"


CODES = (Code(make_config(2, 2, 1, [[1], [1]]), [0, 1]), Code(make_config(2, 2, 1, [[1], [1]]), [2, 3]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gl_order(2, 2.0),
        lambda: gl_order(2, 0),
        lambda: chain_from_pairs(2, (1,), [0.2], [1.9]),
        lambda: chain_from_pairs(2, (1.0,), [0], [1]),
        lambda: chain_from_pairs(2, (1, 1), [-1, 1], [1, 0]),
        lambda: chain_from_pairs(2, (1,), [0], [2]),
        lambda: equivalent(*CODES, budget=-1),
        lambda: equivalent(*CODES, budget=2.5),
        lambda: equivalent(CODES[0], CODES[0], budget=True),
        lambda: enumerate_isometries(CHAIN2, cap=4.5),
        lambda: enumerate_isometries(CHAIN2, cap=-1),
        lambda: enumerate_automorphisms(CHAIN2, cap=4.5),
        lambda: enumerate_automorphisms(CHAIN2, cap=-1),
    ],
    ids=["gl-float-width", "gl-zero-width", "pairs-float-rows", "pairs-float-width", "pairs-negative-row",
         "pairs-row-past-the-chain", "budget-negative",
         "budget-float", "budget-bool", "oracle-cap-float", "oracle-cap-negative", "aut-cap-float",
         "aut-cap-negative"],
)
def test_a_cap_budget_or_count_that_is_no_integer_or_negative_is_refused(call):
    # the CLI reads caps and budgets as integers >= 0; the library entries
    # refuse what the CLI would, and a float, bool or string besides
    with pytest.raises(UsageError):
        call()


def test_caps_and_budgets_at_zero_and_numpy_integers_pass():
    # budget 0 cuts the search at once, and the fallback lists the group
    assert equivalent(*CODES, budget=np.int64(0)).verdict == "equivalent"
    assert enumerate_isometries(CHAIN2, cap=np.int64(4)).isometry_count == 8
    with pytest.raises(CapExceeded):
        enumerate_automorphisms(CHAIN2, cap=0)
    assert gl_order(np.int64(2), np.int64(2)) == 6
