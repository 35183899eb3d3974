"""Exact arithmetic in small finite fields F_q, q = p^e.

Elements are handled through their canonical integer rank: for an element
with polynomial coefficients (c_0, ..., c_{e-1}) over F_p (low-order
first), rank = sum c_t * p^t.  The rank is a bijection onto [0, q) with
rank(0) = 0 and rank(1) = 1, and it fixes the ordering used by every
permutation table downstream.

Prime fields are plain arithmetic mod p and need no table; add and sub
share one base-p digit loop.  An extension field multiplies through its
q x q table on ranks, built once per Field in one numpy pass (_mul_table)
and kept as a read-only array of the narrowest unsigned type, and reads
its inverses off that table.  The
modulus is irreducible exactly when the table has no zero divisors, so
the table is also the irreducibility test.  The table counts against
CAPS["points"], so q <= 1024: GF(2^10) is built, GF(2^11) refused.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CAPS, DomainError, UsageError, ValidationError, check_cap, int_arg, int_tuple

# Moduli for the desk-scale extension fields, coefficients low-order
# first including the leading 1.  Anything else needs a user-supplied
# modulus.
BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),      # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),   # x^3 + x + 1
    (3, 2): (1, 0, 1),      # x^2 + 1
}

_SMALL_PRIMES_LIMIT = 1 << 16


def _is_prime(p: int) -> bool:
    return 2 <= p < _SMALL_PRIMES_LIMIT and all(p % d for d in range(2, math.isqrt(p) + 1))


def _mul_table(p, e, modulus):
    """The q x q multiplication table of F_p[x]/(modulus) on ranks, for a
    monic modulus of degree e (coefficients low-order first).

    shifts[t][a] holds the coefficients of a * x^t: multiplying by x moves
    every coefficient up one place, and x^e = -(modulus without its
    leading 1) brings the top one back down.  Coefficient s of a * b is
    then sum_t b_t * shifts[t][a][s] mod p, one (q x e) by (e x q) product
    per s."""
    q = p ** e
    # digits in Python, not by numpy power and floor division: those loops
    # added about 0.4 MB of code pages to the peak RSS of a GF(4) sym run
    digits = np.array([[a // p ** t % p for t in range(e)] for a in range(q)])
    shifts = [digits]
    for _ in range(e - 1):
        c = shifts[-1]
        up = np.concatenate([np.zeros((q, 1), dtype=c.dtype), c[:, :-1]], axis=1)
        shifts.append((up - c[:, -1:] * np.array(modulus[:e])) % p)
    shifts = np.array(shifts)
    return sum(shifts[:, :, s].T @ digits.T % p * p ** s for s in range(e))


class Field:
    """The finite field F_q with q = p^e, with rank-indexed arithmetic.

    For e = 1 the modulus is omitted and arithmetic is plain mod p.
    For e > 1 a monic irreducible modulus of degree e is required;
    built-ins cover q in {4, 8, 9}.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        p = int_arg(p, "p")
        e = int_arg(e, "extension degree", 1)
        if not _is_prime(p):
            raise UsageError(f"p = {p} is not a (small) prime")
        if e == 1:
            if modulus is not None:
                raise UsageError("modulus must be absent for prime fields")
        else:
            if modulus is None:
                try:
                    modulus = BUILTIN_MODULI[(p, e)]
                except KeyError:
                    raise UsageError(f"no built-in modulus for GF({p}^{e}); supply one") from None
            modulus = tuple(c % p for c in int_tuple(modulus, "modulus entry"))
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValidationError(f"modulus must be monic of degree {e}, got {list(modulus)}")
            check_cap(f"GF({p}^{e})", p ** (2 * e), "multiplication table entries",
                      CAPS["points"], symbol="q^2")
            table = _mul_table(p, e, modulus)
            # F_p[x]/(modulus) is a field exactly when it has no zero divisors
            if not table[1:, 1:].all():
                raise ValidationError(f"modulus {list(modulus)} is reducible over F_{p}")
            # uint8 up to 256 elements, uint16 up to the cap's 1024: GF(2^10)
            # keeps 2 MB where nested lists of ints took about 34 MB
            self._mul = table.astype(np.min_scalar_type(p ** e - 1))
            self._mul.flags.writeable = False
            self._inv = [0] + np.nonzero(table[1:] == 1)[1].tolist()
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus

    # rank-level arithmetic

    def _element(self, a) -> int:
        """a read by int_arg as an element rank in [0, q)."""
        if int_arg(a, "field element", 0) >= self.q:
            raise UsageError(f"field element {a} out of [0, {self.q})")
        return int(a)

    def _combine(self, a, b, sign: int) -> int:
        """a + sign * b, digit by digit in base p."""
        a, b, p = self._element(a), self._element(b), self.p
        if self.e == 1:
            return (a + sign * b) % p
        r, place = 0, 1
        for _ in range(self.e):
            r += ((a + sign * b) % p) * place
            a //= p
            b //= p
            place *= p
        return r

    def add(self, a: int, b: int) -> int:
        return self._combine(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        return self._combine(a, b, -1)

    def mul(self, a: int, b: int) -> int:
        a, b = self._element(a), self._element(b)
        if self.e == 1:
            return a * b % self.p
        return self._mul.item(a, b)

    def inv(self, a: int) -> int:
        a = self._element(a)
        if a == 0:
            raise DomainError("zero has no multiplicative inverse")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self._inv[a]

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, e={self.e}, modulus={list(self.modulus)})"

    def to_json(self) -> dict:
        doc = {"p": self.p, "e": self.e}
        if self.modulus is not None:
            doc["modulus"] = list(self.modulus)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Field":
        try:
            return cls(doc["p"], doc.get("e", 1), doc.get("modulus"))
        except (KeyError, TypeError) as exc:
            raise UsageError(f"bad field spec: {doc!r}") from exc
