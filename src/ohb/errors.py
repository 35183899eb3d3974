"""Exception hierarchy shared by all ohb modules.

Two top-level families matter for callers (and for CLI exit codes):
UsageError means the caller handed us something malformed (exit 2),
DomainError means the inputs were well formed but rejected on
mathematical grounds (exit 1).  The desk-scale caps live here too: the
table CAPS, and check_cap, the one place that refuses work over a cap.
"""

import math
import sys

import numpy as np

LOG10_2 = math.log10(2)


class OhbError(Exception):
    pass


class UsageError(OhbError):
    """Malformed input: bad shapes, mismatched configs, out-of-range ranks."""


class DomainError(OhbError):
    """Well-formed input rejected on mathematical grounds."""

    witness = None  # a rank pair that shows the rejection (NotIsometryError)
    chain_index = None  # the 1-based chain that failed (StructureError)


class ValidationError(DomainError):
    """A table that was supposed to define a symmetry fails its bijection
    or shape conditions."""


class NotIsometryError(DomainError):
    """A map handed in as distance-preserving is not.

    Carries a witness pair of vector ranks (u, v) with
    d(u, v) != d(f(u), f(v)).
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class StructureError(DomainError):
    """Internal consistency failure while factoring a verified isometry.

    Should be unreachable for genuine isometries; if raised, it carries
    the offending chain index (1-based) so the contradiction can be
    inspected.
    """

    def __init__(self, message, chain_index=None):
        super().__init__(message)
        self.chain_index = chain_index


class CapExceeded(DomainError):
    """A desk-scale cap in CAPS refused work over it: a dense table, a
    listing of group elements or a brute-force search."""


# Group orders are exact closed forms at any size; only work that visits
# points or group elements one by one is capped.  Entries are read when
# each check runs, so patching one entry moves every check that reads it.
CAPS = {
    "points": 1 << 20,  # dense tables over a space, over one chain or over a field (q^2 entries)
    "group": 1 << 20,  # group elements listed one by one, search listings included
    "witness_matrix": 1 << 12,  # distance_witness scans every row of the S x S matrix
    "aut_points": 1 << 12,  # automorphism counting and listing
    "oracle_count": 64,  # oracle isometry counting
    "oracle_list": 16,  # oracle isometry listing and the equivalence fallback
}


def check_cap(subject, value, unit, cap, detail=None, symbol=None, shown=None):
    """Refuse value over cap with CapExceeded, whose message reads
    "<subject> has <value> <unit>, over the cap <cap>[; <detail>]"; a
    symbol names the value, as in "space has q^N = 256 points".  Numbers
    are shown as int_text shows them, or value as shown when given."""
    if value > cap:
        shown = shown or int_text(value)
        shown = f"{symbol} = {shown}" if symbol else shown
        tail = f"; {detail}" if detail else ""
        raise CapExceeded(f"{subject} has {shown} {unit}, over the cap {int_text(cap)}{tail}")


def check_group_cap(subject, log10_order, order):
    """check_cap of a group of order() elements against the group cap, read
    from log10_order first: an order past both the cap's bit count and the
    digits Python prints (print_limit) is over the cap, and is refused by
    its digit count, as int_text shows it, before order() builds it.
    Returns order()."""
    if log10_order > max(print_limit(), CAPS["group"].bit_length()):
        check_cap(subject, math.inf, "elements", CAPS["group"], shown=f"<{math.floor(log10_order) + 1}-digit number>")
    value = order()
    check_cap(subject, value, "elements", CAPS["group"])
    return value


def print_limit():
    """The most decimal digits Python converts to text:
    sys.get_int_max_str_digits(), or with that limit off (0), its default."""
    return (getattr(sys, "get_int_max_str_digits", lambda: 0)()
            or getattr(sys.int_info, "default_max_str_digits", 4300))


def int_text(value):
    """str(value), or "<d-digit number>" for an int with more decimal
    digits than Python converts to text (sys.get_int_max_str_digits())."""
    try:
        return str(value)
    except ValueError:
        digits = max(int(value.bit_length() * LOG10_2) - 1, 1)
        while 10 ** digits <= value:
            digits += 1
        return f"<{digits}-digit number>"


def int_arg(value, name, low=None):
    """A parameter read as a Python int: a Python or numpy integer passes,
    and a bool, float, string or None is refused with UsageError naming
    the parameter, not coerced; so is a value below low, when low is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise UsageError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def seq(values, name):
    """values as a tuple; a value that is no sequence is refused with UsageError."""
    try:
        return tuple(values)
    except TypeError:
        raise UsageError(f"need a sequence of {name} values, got {values!r}") from None


def int_tuple(values, name, low=None):
    """A sequence of integers as a tuple of Python ints, each read by int_arg."""
    return tuple(int_arg(x, name, low) for x in seq(values, name))


def int_array(values, name):
    """values as an int64 array, converted once.  An integer array is taken
    whole, with no copy when it is int64; in any other table, nested or not,
    entries are read by int_arg only if a type scan finds one no Python int."""
    try:
        arr = values if isinstance(values, np.ndarray) else np.array(list(values), dtype=object)
        if arr.dtype.kind not in "iu" and set(map(type, arr.flat)) != {int}:
            for x in arr.flat:
                int_arg(x, name)
        return np.asarray(arr, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"{name} must be integer ranks: {exc}") from exc
