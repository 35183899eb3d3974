"""Exception hierarchy shared by all ohb modules.

Two top-level families matter for callers (and for CLI exit codes):
UsageError means the caller handed us something malformed (exit 2),
DomainError means the inputs were well formed but rejected on
mathematical grounds (exit 1).  The desk-scale caps live here too: the
table CAPS, and check_cap, the one place that refuses work over a cap.
"""

import json


class OhbError(Exception):
    pass


class UsageError(OhbError):
    """Malformed input: bad shapes, mismatched configs, out-of-range ranks."""


class DomainError(OhbError):
    """Well-formed input rejected on mathematical grounds."""


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
    "points": 1 << 20,  # dense tables over a space or over one chain
    "group": 1 << 20,  # group elements listed one by one
    "witness_matrix": 1 << 12,  # distance_witness builds the full S x S matrix
    "aut_points": 1 << 12,  # automorphism counting and listing
    "oracle_count": 64,  # oracle isometry counting
    "oracle_list": 16,  # oracle isometry listing and the equivalence fallback
}


def check_cap(subject, value, unit, cap, detail=None, symbol=None):
    """Refuse value over cap with CapExceeded, whose message reads
    "<subject> has <value> <unit>, over the cap <cap>[; <detail>]"; a
    symbol names the value, as in "space has q^N = 256 points"."""
    if value > cap:
        shown = f"{symbol} = {value}" if symbol else value
        tail = f"; {detail}" if detail else ""
        raise CapExceeded(f"{subject} has {shown} {unit}, over the cap {cap}{tail}")


def json_int(value, name):
    """A value decoded from JSON, checked to be an integer: bools, floats,
    strings, null, lists and objects are refused, not coerced."""
    if type(value) is not int:
        raise UsageError(f"{name} must be an integer, got {json.dumps(value, default=repr)}")
    return value
