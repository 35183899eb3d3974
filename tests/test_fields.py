"""Field arithmetic: exhaustive axiom checks at the sizes we ship."""

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from model import reference
from ohb import (
    DomainError,
    Field,
    SpaceConfig,
    UsageError,
    ValidationError,
)
from ohb.space import scale_ranks


def check_axioms(f: Field):
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.sub(0, a)) == 0
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_axioms(p, e):
    check_axioms(Field(p, e))


def test_prime_field_is_mod_p():
    f = Field(5)
    for a in range(5):
        for b in range(5):
            assert f.add(a, b) == (a + b) % 5
            assert f.mul(a, b) == (a * b) % 5


def test_gf4_multiplication():
    # ranks: 0, 1, x = 2, x+1 = 3; x*x = x+1 under x^2 + x + 1
    f = Field(2, 2)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2


def test_inverse_of_zero_rejected():
    f = Field(3)
    with pytest.raises(DomainError):
        f.inv(0)


def test_characteristic_addition_in_extension():
    f = Field(2, 3)
    for a in range(8):
        assert f.add(a, a) == 0


def test_bad_field_parameters():
    with pytest.raises(UsageError):
        Field(4)  # not prime
    with pytest.raises(UsageError):
        Field(2, 0)
    with pytest.raises(UsageError):
        Field(5, 4)  # no built-in modulus, none supplied


def test_explicit_modulus():
    # x^2 + 1 is irreducible over F_3
    f = Field(3, 2, modulus=(1, 0, 1))
    check_axioms(f)
    with pytest.raises(ValidationError):
        Field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def test_parameters_that_are_no_integer_are_refused():
    # each probe was once coerced (2.0, True, 1.5) or failed with a raw error
    probes = {
        "p": [(2.0,), ("2",), (None,), (True,)],
        "extension degree": [(2, 2.0), (2, True), (2, None), (2, "2")],
        "modulus entry": [(3, 2, [1.5, 0, 1]), (3, 2, [1, None, 1]), (3, 2, [True, 0, 1]), (3, 2, ["1", 0, 1])],
    }
    for name, cases in probes.items():
        for args in cases:
            with pytest.raises(UsageError, match=f"^{name} must be an integer"):
                Field(*args)
    # numpy integers pass as Python ints, and modulus entries reduce mod p
    f = Field(np.int64(3), np.int64(2), np.array([4, -3, 1]))
    assert f == Field(3, 2) and type(f.q) is int
    assert f.modulus == (1, 0, 1) and all(type(c) is int for c in f.modulus)


# every monic modulus of these (p, e) is tried against the reference
DIFFERENTIAL = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]


def test_every_monic_modulus_matches_the_reference_or_is_refused():
    # the reference multiplies polynomials one pair at a time and imports
    # nothing from ohb; a modulus is reducible exactly when its table has
    # a zero divisor
    built = refused = 0
    for p, e in DIFFERENTIAL:
        q = p ** e
        for low in product(range(p), repeat=e):
            modulus = (*low, 1)
            _, mul = reference.field_tables(p, e, modulus)
            if any(0 in row[1:] for row in mul[1:]):
                with pytest.raises(ValidationError, match=r"is reducible over F_\d+$"):
                    Field(p, e, modulus)
                refused += 1
                continue
            f = Field(p, e, modulus)
            assert [[f.mul(a, b) for b in range(q)] for a in range(q)] == mul
            assert [f.inv(a) for a in range(1, q)] == [mul[a].index(1) for a in range(1, q)]
            built += 1
    assert (built, refused) == (54, 116)


def test_gf_1024_is_a_field_on_random_triples():
    # x^10 + x^3 + 1, the largest q the points cap admits
    f = Field(2, 10, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
    assert f.mul(2, 1 << 9) == 0b1001  # x * x^9 = x^3 + 1
    rng = random.Random(10)
    for _ in range(3000):
        a, b, c = (rng.randrange(1024) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_extension_tables_are_narrow_and_read_only():
    # GF(2^10) keeps its 2^20 products in 2 MB of uint16 (nested lists of
    # ints took about 34 MB); mul reads one entry as a Python int
    tracemalloc.start()
    try:
        f = Field(2, 10, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 4 << 20
    assert type(f.mul(1023, 1023)) is int
    # x^7 + x + 1: every product, and scale_ranks' rows, against the reference
    g = Field(2, 7, [1, 1, 0, 0, 0, 0, 0, 1])
    _, mul = reference.field_tables(2, 7, g.modulus)
    assert [[g.mul(a, b) for b in range(128)] for a in range(128)] == mul
    cfg = SpaceConfig(g, 1, 1, [[1]])
    for c in (0, 1, 2, 77, 127):
        assert scale_ranks(cfg, c, np.arange(128)).tolist() == mul[c]


def test_json_round_trip():
    for f in [Field(2), Field(3, 2), Field(2, 3)]:
        g = Field.from_json(f.to_json())
        assert f == g
        assert hash(f) == hash(g)
    assert Field(2) != Field(3)


def test_prime_fields_need_no_table():
    # a q x q table would hold 4 million entries for p = 2003
    tracemalloc.start()
    try:
        f = Field(2003)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert f.mul(2002, 2002) == 1
    # the largest prime Field accepts; a table would hold 4.3 * 10^9 entries
    p = 65521
    f = Field(p)
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(p), rng.randrange(1, p)
        assert f.mul(a, b) == a * b % p
        assert f.inv(b) == pow(b, -1, p)
        assert f.mul(b, f.inv(b)) == 1


def test_block_rank_round_trip():
    # a block's elements are the digits of its rank, first element least
    # significant, as BlockVector.blocks reads them off a vector's rank
    assert SpaceConfig(Field(3), 1, 1, [[2]]).unrank(5).blocks == (((2, 1),),)
    for (p, e), k in product([(2, 1), (3, 1), (2, 2)], (1, 2, 3)):
        cfg = SpaceConfig(Field(p, e), 1, 2, [[k, 1]])
        q = cfg.q
        for r in range(q ** (k + 1)):
            (low, top), = cfg.unrank(r).blocks
            assert sum(x * q**i for i, x in enumerate(low + top)) == r
            assert len(low) == k and len(top) == 1
