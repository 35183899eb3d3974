"""Every integer argument of the public API is read as an integer.

The walk calls each callable of `ohb.__all__` that takes an integer once
with valid arguments, then again with one integer argument replaced by a
bool, a float, a string, None, a numpy float or a negative number.  Such a
value that is no integer is refused with UsageError, never coerced and
never let through to a raw Python error; a negative number gives a result
or an OhbError.  A seed is read by random.Random, which takes any of these
values, so a seed may also give a result.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import ohb
from ohb import Code, Field, OhbError, SpaceConfig, UsageError, identity_symmetry


class Int:
    """An integer argument of a walked call: the value the valid call passes,
    and whether it is a seed or a cap, whose None means the CAPS entry."""

    def __init__(self, value, seed=False, cap=False):
        self.value = value
        self.seed = seed
        self.cap = cap


F2 = Field(2)
CFG = SpaceConfig(F2, 2, 1, [[1], [1]])  # two chains of one unit level: 4 points
CODE = Code(CFG, [0, 1])
IMAGE = Code(CFG, [0, 2])
IDENTITY = identity_symmetry(CFG)

# name -> the arguments of one valid call, nested, with Int at each integer
CALLS = {
    "BlockVector": (CFG, [[(Int(1),)], [(Int(0),)]]),
    "ChainSymmetry": (Int(2), (Int(1),), [[[Int(1), Int(0)]]]),
    "Code": (CFG, [Int(0), Int(3)]),
    "Field": (Int(3), Int(2), (Int(1), Int(0), Int(1))),
    "SpaceConfig": (F2, Int(2), Int(1), [[Int(1)], [Int(1)]]),
    "Symmetry": (CFG, (Int(1), Int(0)), IDENTITY.chains),
    "all_chain_symmetries": (Int(2), (Int(1),)),
    "alt_chain_order_unit": (Int(2), Int(3)),
    "alt_full_order_unit": (Int(2), Int(1), Int(2)),
    "aut_report": (CFG, Int(16, cap=True)),
    "chain_from_pairs": (Int(2), (Int(1), Int(1)), [Int(0), Int(1)], [Int(1), Int(0)]),
    "chain_order": (Int(2), (Int(1), Int(1))),
    "decompose_chain": (Int(2), (Int(1), Int(1)), [Int(1), Int(0), Int(2), Int(3)]),
    "decompose_full": (CFG, [Int(1), Int(0), Int(3), Int(2)]),
    "enumerate_automorphisms": (CFG, Int(16, cap=True)),
    "enumerate_isometries": (CFG, Int(16, cap=True)),
    "equivalent": (CODE, IMAGE, Int(10)),
    "gl_order": (Int(2), Int(2)),
    "identity_chain": (Int(2), (Int(1), Int(1))),
    "is_linear": (CFG, [Int(0), Int(1), Int(2), Int(3)]),
    "parse_code_json": ({"config": {"field": {"p": Int(2)}, "m": Int(2), "n": Int(1), "pi": [[Int(1)], [Int(1)]]},
                         "vectors": [Int(0), "1;1"]},),
    "random_chain": (Int(2), (Int(1), Int(1)), Int(5, seed=True)),
    "random_symmetry": (CFG, Int(5, seed=True)),
}
# callables of ohb.__all__ whose arguments hold no integer: spaces, vectors,
# codes, symmetries, text, and the records ohb returns
NO_INTEGERS = {
    "AutReport", "EquivalenceResult", "OracleReport", "admissible_permutations", "all_symmetries",
    "apply_to_code", "as_rank_table", "aut_order_antichain", "code_invariants", "compose_chain",
    "compose_symmetry", "distance", "format_vector", "full_order", "identity_symmetry", "invert_chain",
    "invert_symmetry", "make_translation", "parse_code_text", "parse_vector", "s_pi_order", "weight",
    "weight_array",
}


def fill(obj, slot, bad, count):
    """obj with each Int replaced by its value, but the slot-th (counted in
    count[0], depth first) by bad."""
    if isinstance(obj, Int):
        count[0] += 1
        return bad if count[0] - 1 == slot else obj.value
    if isinstance(obj, dict):
        return {k: fill(v, slot, bad, count) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(fill(x, slot, bad, count) for x in obj)
    return obj


def ints(obj):
    """The Int markers of obj, depth first, in the order fill counts them."""
    if isinstance(obj, Int):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [i for x in obj for i in ints(x)]
    return []


def call(name, slot=None, bad=None):
    """The result of the named call, a generator's items listed."""
    out = getattr(ohb, name)(*fill(CALLS[name], slot, bad, [0]))
    return list(out) if inspect.isgenerator(out) else out


SLOTS = [(name, i) for name in sorted(CALLS) for i in range(len(ints(CALLS[name])))]
NO_INTEGER = st.one_of(
    st.booleans(), st.none(), st.floats(), st.floats().map(np.float64),
    st.sampled_from(["1", "", "x", "2.0"]),
)
NEGATIVE = st.integers(max_value=-1)


def check(slot, bad):
    name, i = slot
    arg = ints(CALLS[name])[i]
    if isinstance(bad, int) and not isinstance(bad, bool) or arg.seed or arg.cap and bad is None:
        try:
            call(name, i, bad)
        except OhbError:
            pass
    else:
        with pytest.raises(UsageError):
            call(name, i, bad)


def test_every_public_callable_is_walked():
    callables = {name for name in ohb.__all__ if callable(getattr(ohb, name))
                 and not (isinstance(getattr(ohb, name), type) and issubclass(getattr(ohb, name), Exception))}
    assert set(CALLS) | NO_INTEGERS == callables
    assert not set(CALLS) & NO_INTEGERS


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_valid_calls_return(name):
    call(name)


@settings(max_examples=400)
@seed(1)
@given(st.sampled_from(SLOTS), st.one_of(NO_INTEGER, NEGATIVE))
@example(("alt_chain_order_unit", 0), 2.0)
@example(("alt_full_order_unit", 1), 1.0)
def test_an_integer_argument_that_is_no_integer_is_refused(slot, bad):
    check(slot, bad)


# calls that pass a number or None where a sequence belongs
NOT_SEQUENCES = {
    "ChainSymmetry tables": lambda: ohb.ChainSymmetry(2, (1,), 5),
    "ChainSymmetry level": lambda: ohb.ChainSymmetry(2, (1,), [5]),
    "ChainSymmetry level None": lambda: ohb.ChainSymmetry(2, (1,), [None]),
    "ChainSymmetry row": lambda: ohb.ChainSymmetry(2, (1, 1), [[5, 6], [[0, 1]]]),
    "ChainSymmetry widths": lambda: ohb.ChainSymmetry(2, 5, [[[0, 1]]]),
    "ChainSymmetry.apply row": lambda: ohb.identity_chain(2, (1,)).apply(5),
    "random_chain widths": lambda: ohb.random_chain(2, 5, 1),
    "chain_order widths": lambda: ohb.chain_order(2, 5),
    "Symmetry sigma": lambda: ohb.Symmetry(CFG, 5, IDENTITY.chains),
    "Symmetry chains": lambda: ohb.Symmetry(CFG, (0, 1), 5),
    "Symmetry chains None": lambda: ohb.Symmetry(CFG, (0, 1), None),
    "SpaceConfig pi": lambda: SpaceConfig(F2, 1, 1, 5),
    "SpaceConfig row": lambda: SpaceConfig(F2, 1, 1, [5]),
    "Code ranks": lambda: Code(CFG, 5),
    "Field modulus": lambda: Field(2, 2, 5),
    "BlockVector blocks": lambda: ohb.BlockVector(CFG, 5),
    "BlockVector row": lambda: ohb.BlockVector(CFG, [5, 5]),
    "BlockVector block": lambda: ohb.BlockVector(CFG, [[5], [5]]),
}


@pytest.mark.parametrize("name", NOT_SEQUENCES)
def test_a_sequence_argument_that_is_no_sequence_is_refused(name):
    with pytest.raises(UsageError, match="need a sequence"):
        NOT_SEQUENCES[name]()


@pytest.mark.parametrize("bad", [True, False, 1.0, np.float64(1.0), "1", None, -1],
                         ids=["true", "false", "float", "np-float", "string", "none", "negative"])
def test_every_slot_refuses_each_kind(bad):
    # the hypothesis walk samples slots; this visits each of them once per kind
    for slot in SLOTS:
        check(slot, bad)


GF4 = Field(2, 2)
# label -> (the object whose method the label names, the arguments of one
# valid call), nested, with Int at each integer; a prime field and an
# extension field each, where the two compute apart
METHOD_CALLS = {
    "ChainSymmetry.apply": (IDENTITY.chains[0], ((Int(1),),)),
    "ChainSymmetry.from_json": (ohb.ChainSymmetry, ({"pi": [Int(1)], "tables": [[[Int(1), Int(0)]]]}, Int(2))),
    "Field.add": (F2, (Int(1), Int(1))),
    "Field.add on GF(4)": (GF4, (Int(2), Int(3))),
    "Field.from_json": (Field, ({"p": Int(2), "e": Int(2), "modulus": [Int(1), Int(1), Int(1)]},)),
    "Field.inv": (F2, (Int(1),)),
    "Field.inv on GF(4)": (GF4, (Int(2),)),
    "Field.mul": (F2, (Int(1), Int(1))),
    "Field.mul on GF(4)": (GF4, (Int(2), Int(3))),
    "Field.sub": (F2, (Int(0), Int(1))),
    "Field.sub on GF(4)": (GF4, (Int(2), Int(3))),
    "SpaceConfig.chain_subrank": (CFG, (Int(3), Int(1))),
    "SpaceConfig.from_json": (SpaceConfig, ({"field": {"p": Int(2)}, "m": Int(2), "n": Int(1),
                                             "pi": [[Int(1)], [Int(1)]]},)),
    "SpaceConfig.unrank": (CFG, (Int(3),)),
    "Symmetry.from_json": (ohb.Symmetry, ({"sigma": [Int(2), Int(1)],
                                          "chains": [{"pi": [Int(1)], "tables": [[[Int(1), Int(0)]]]}] * 2}, CFG)),
}
# public methods whose arguments hold no integer
METHODS_WITHOUT_INTEGERS = {
    "AutReport.to_json", "BlockVector.rank", "ChainSymmetry.rank_table", "ChainSymmetry.to_json",
    "Code.to_json", "Code.vectors", "EquivalenceResult.to_json", "Field.to_json",
    "SpaceConfig.check_materialize", "SpaceConfig.rank", "SpaceConfig.to_json", "Symmetry.apply",
    "Symmetry.to_json",
}
METHOD_SLOTS = [(label, i) for label in sorted(METHOD_CALLS) for i in range(len(ints(METHOD_CALLS[label][1])))]


def method_call(label, slot=None, bad=None):
    obj, args = METHOD_CALLS[label]
    return getattr(obj, label.split()[0].split(".")[1])(*fill(args, slot, bad, [0]))


def test_every_public_method_is_walked_and_its_valid_call_returns():
    methods = set()
    for name in ohb.__all__:
        cls = getattr(ohb, name)
        if isinstance(cls, type) and not issubclass(cls, Exception):
            for attr in dir(cls):
                static = inspect.getattr_static(cls, attr)
                if not attr.startswith("_") and (inspect.isfunction(static) or isinstance(static, classmethod)):
                    methods.add(f"{name}.{attr}")
    walked = {label.split()[0] for label in METHOD_CALLS}
    assert walked | METHODS_WITHOUT_INTEGERS == methods
    assert not walked & METHODS_WITHOUT_INTEGERS
    for label in METHOD_CALLS:
        method_call(label)


@pytest.mark.parametrize("bad", [True, False, 1.0, np.float64(1.0), "1", None, -1],
                         ids=["true", "false", "float", "np-float", "string", "none", "negative"])
def test_every_method_slot_refuses_each_kind(bad):
    # as the walk over callables: no integer is refused with UsageError, a
    # negative number gives a result or an OhbError
    for label, i in METHOD_SLOTS:
        if isinstance(bad, int) and not isinstance(bad, bool):
            try:
                method_call(label, i, bad)
            except OhbError:
                pass
        else:
            with pytest.raises(UsageError):
                method_call(label, i, bad)
