"""Exact arithmetic in small finite fields F_q, q = p^e.

Elements are handled through their canonical integer rank: for an element
with polynomial coefficients (c_0, ..., c_{e-1}) over F_p (low-order
first), rank = sum c_t * p^t.  The rank is a bijection onto [0, q) with
rank(0) = 0 and rank(1) = 1, and it fixes the ordering used by every
permutation table downstream.

Prime fields are plain arithmetic mod p.  Extension fields multiply and
invert through tables built once per Field from polynomial arithmetic
mod the field's modulus.
"""

from __future__ import annotations

from .errors import DomainError, UsageError, ValidationError, json_int

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
    if p < 2 or p >= _SMALL_PRIMES_LIMIT:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num, den, p):
    """Remainder of num / den over F_p, coefficient lists low-order first."""
    num = _poly_trim(num)
    den = _poly_trim(den)
    inv_lead = pow(den[-1], -1, p)
    while len(num) >= len(den):
        factor = (num[-1] * inv_lead) % p
        shift = len(num) - len(den)
        for i, d in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * d) % p
        num = _poly_trim(num)
        if not num:
            break
    return num


def _check_irreducible(modulus, p, e):
    """Trial division by every monic polynomial of degree <= e // 2."""
    for deg in range(1, e // 2 + 1):
        for r in range(p ** deg):
            cand = []
            x = r
            for _ in range(deg):
                cand.append(x % p)
                x //= p
            cand.append(1)
            if not _poly_mod(list(modulus), cand, p):
                return False
    return True


class Field:
    """The finite field F_q with q = p^e, with rank-indexed arithmetic.

    For e = 1 the modulus is omitted and arithmetic is plain mod p.
    For e > 1 a monic irreducible modulus of degree e is required;
    built-ins cover q in {4, 8, 9}.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
            raise UsageError(f"p = {p} is not a (small) prime")
        if e < 1:
            raise UsageError(f"extension degree must be >= 1, got {e}")
        if e == 1:
            if modulus is not None:
                raise UsageError("modulus must be absent for prime fields")
        else:
            if modulus is None:
                try:
                    modulus = BUILTIN_MODULI[(p, e)]
                except KeyError:
                    raise UsageError(
                        f"no built-in modulus for GF({p}^{e}); supply one"
                    ) from None
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValidationError(
                    f"modulus must be monic of degree {e}, got {list(modulus)}"
                )
            if not _check_irreducible(modulus, p, e):
                raise ValidationError(
                    f"modulus {list(modulus)} is reducible over F_{p}"
                )
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = tuple(modulus) if modulus is not None else None
        if e > 1:
            self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = self.coeffs(a)
            for b in range(a, q):
                cb = self.coeffs(b)
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(ca):
                    if x:
                        for j, y in enumerate(cb):
                            prod[i + j] = (prod[i + j] + x * y) % p
                rem = _poly_mod(prod, list(self.modulus), p)
                r = self._rank_of(rem)
                self._mul[a][b] = r
                self._mul[b][a] = r
        self._inv = [0] * q
        for a in range(1, q):
            row = self._mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    self._inv[a] = b
                    break
            else:
                raise ValidationError(
                    f"element rank {a} has no inverse; modulus not irreducible?"
                )

    def _rank_of(self, coeffs) -> int:
        r = 0
        for c in reversed(coeffs):
            r = r * self.p + c
        return r

    def coeffs(self, rank: int):
        """Polynomial coefficients of the element, low-order first, length e."""
        if not 0 <= rank < self.q:
            raise UsageError(f"element rank {rank} out of [0, {self.q})")
        out = []
        for _ in range(self.e):
            out.append(rank % self.p)
            rank //= self.p
        return tuple(out)

    def rank(self, coeffs) -> int:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.e:
            raise UsageError(f"expected {self.e} coefficients, got {len(coeffs)}")
        return self._rank_of(coeffs)

    # rank-level arithmetic

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a + b) % p
        r, place = 0, 1
        for _ in range(self.e):
            r += ((a + b) % p) * place
            a //= p
            b //= p
            place *= p
        return r

    def neg(self, a: int) -> int:
        p = self.p
        if self.e == 1:
            return (-a) % p
        r, place = 0, 1
        for _ in range(self.e):
            r += ((-a) % p) * place
            a //= p
            place *= p
        return r

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        return self._mul[a][b]

    def inv(self, a: int) -> int:
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
            p = json_int(doc["p"], "field p")
            e = json_int(doc.get("e", 1), "field e")
            modulus = doc.get("modulus")
            if modulus is not None:
                modulus = [json_int(c, "field modulus entry") for c in modulus]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"bad field spec: {doc!r}") from exc
        return cls(p, e, modulus)


def block_rank(q: int, elems) -> int:
    """Rank of a block value, mixed radix base q, first element least
    significant."""
    r = 0
    for x in reversed(elems):
        if not 0 <= x < q:
            raise UsageError(f"element rank {x} out of [0, {q})")
        r = r * q + x
    return r


def block_unrank(q: int, r: int, k: int):
    """Inverse of block_rank for a block of width k."""
    if not 0 <= r < q ** k:
        raise UsageError(f"block rank {r} out of [0, {q ** k})")
    out = []
    for _ in range(k):
        out.append(r % q)
        r //= q
    return tuple(out)
