"""Command-line interface.

Every capability is a subcommand operating on a space config file.
Output is a single document per invocation: JSON with sorted keys in
--format json (byte-identical across identical invocations), or a thin
human rendering of the same data.  Each handler builds its document once
and returns it with the function that renders it as text, so neither
format is decided twice.  An order too long to print is refused from its
log10, before it is built.  Exit codes: 0 success, 1 domain rejection
(non-isometry input, cap refusal, unsupported formula), 2 usage error
(bad flags or malformed files).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .automorphisms import AutReport, _aut_factors, aut_order_antichain, aut_report
from .chains import chain_order, order_log10
from .codes import DEFAULT_BUDGET, equivalent, parse_code_json, parse_code_text
from .errors import CAPS, DomainError, NotIsometryError, StructureError, UsageError, check_cap, int_arg, print_limit
from .oracle import enumerate_isometries
from .space import SpaceConfig, distance, format_vector, parse_vector, weight
from .symmetry import (
    Symmetry,
    _full_factors,
    compose_symmetry,
    decompose_full,
    full_order,
    invert_symmetry,
    random_symmetry,
    s_pi_order,
)

SEED_ENV = "OHB_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _ascii_int(text) -> int:
    """An integer written as an optional '-' and ASCII digits, the one form
    the CLI reads from its arguments, the environment and text maps; int()
    alone would also take '+', spaces, '_' and non-ASCII digits.  Raises
    ValueError on anything else."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _count(text) -> int:
    """A cap or a node budget: an integer >= 0."""
    try:
        value = _ascii_int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _seed(text) -> int:
    """A --seed value: any integer."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_space(path) -> SpaceConfig:
    return SpaceConfig.from_json(_read_json(path))


def _load_map(path, size) -> list:
    """A bijection table: `rank -> rank` lines, a JSON array, or a
    whitespace-separated dense list.  # starts a comment."""
    text = _read_text(path)
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines()).strip()
    if not stripped:
        raise UsageError(f"{path}: empty map file")
    if stripped.startswith("["):
        try:
            table = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: bad JSON array: {exc}") from exc
        if set(map(type, table)) != {int}:  # one type scan; int_arg words the refusal
            for x in table:
                int_arg(x, f"{path}: map entry")
    elif "->" in stripped:
        pairs = {}  # a table is built only once every rank has an image
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("->")
            if len(parts) != 2:
                raise UsageError(f"{path}:{lineno}: expected 'rank -> rank'")
            try:
                src, dst = _ascii_int(parts[0].strip()), _ascii_int(parts[1].strip())
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: not integers: {line!r}") from exc
            if not 0 <= src < size:
                raise UsageError(f"{path}:{lineno}: source rank {src} out of range")
            if src in pairs:
                raise UsageError(f"{path}:{lineno}: rank {src} mapped twice")
            pairs[src] = dst
        if len(pairs) < size:
            raise UsageError(f"{path}: no image for rank {next(r for r in range(size) if r not in pairs)}")
        table = [pairs[r] for r in range(size)]
    else:
        try:
            table = [_ascii_int(x) for x in stripped.split()]
        except ValueError as exc:
            raise UsageError(f"{path}: not a dense integer table") from exc
    if len(table) != size:
        raise UsageError(f"{path}: table has {len(table)} entries, space has {size}")
    return table


def _load_code(cfg, path):
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path} is not valid JSON: {exc}") from exc
        return parse_code_json(doc, cfg)
    return parse_code_text(cfg, text)


def _load_symmetry(cfg, path) -> Symmetry:
    return Symmetry.from_json(_read_json(path), cfg)


def _check_printable(subject, factors):
    """Refuse, in the one cap format, an order with more decimal digits
    than Python converts to text (print_limit), counted from the log10 of
    its factors so it need not be built.  With the limit off (0), Python's
    default limit still bounds the work of building it."""
    check_cap(subject, math.floor(order_log10(factors)) + 1, "decimal digits", print_limit(),
              "Python prints no integer that long")


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return _ascii_int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    raise UsageError(f"a seed is required: pass --seed or set {SEED_ENV}")


# subcommand handlers: each takes the loaded space and the parsed
# arguments and returns its JSON document and a function of no arguments
# that renders the same data as human text, so that the text is built
# only under --format human


def _cmd_weight(cfg, args):
    v = parse_vector(cfg, args.vec)
    doc = {"op": "weight", "vector": format_vector(v), "weight": weight(v)}
    return doc, lambda: str(doc["weight"])


def _cmd_dist(cfg, args):
    u = parse_vector(cfg, args.u)
    v = parse_vector(cfg, args.v)
    doc = {"op": "dist", "u": format_vector(u), "v": format_vector(v), "distance": distance(u, v)}
    return doc, lambda: str(doc["distance"])


def _symmetry(T):
    """A symmetry's document, and its rows as text."""
    doc = T.to_json()

    def text():
        lines = ["sigma: " + " ".join(map(str, doc["sigma"]))]
        for i, ch in enumerate(doc["chains"], start=1):
            for j, level in enumerate(ch["tables"], start=1):
                lines += [f"chain {i} level {j} tail {t}: " + " ".join(map(str, perm)) for t, perm in enumerate(level)]
        return "\n".join(lines)

    return doc, text


def _cmd_sym_gen(cfg, args):
    return _symmetry(random_symmetry(cfg, _resolve_seed(args)))


def _cmd_sym_apply(cfg, args):
    T = _load_symmetry(cfg, args.sym)
    v = parse_vector(cfg, args.vec)
    doc = {"op": "sym.apply", "vector": format_vector(T.apply(v))}
    return doc, lambda: doc["vector"]


def _cmd_sym_compose(cfg, args):
    A = _load_symmetry(cfg, args.a)
    B = _load_symmetry(cfg, args.b)
    return _symmetry(compose_symmetry(A, B))


def _cmd_sym_invert(cfg, args):
    return _symmetry(invert_symmetry(_load_symmetry(cfg, args.sym)))


def _tail(doc):
    """The witness pair, else the failing chain, of a refusal document as text."""
    w, k = doc["witness"], doc.get("chain_index")
    return f" (witness ranks {w[0]}, {w[1]})" if w else f" (chain {k})" if k else ""


def _cmd_sym_verify(cfg, args):
    try:
        if args.map:
            decompose_full(cfg, _load_map(args.map, cfg.size))
        else:
            _load_symmetry(cfg, args.sym)
    except (NotIsometryError, StructureError) as exc:
        doc = {"op": "sym.verify", "valid": False, "error": str(exc), "witness": exc.witness}
        return doc, lambda: f"invalid: {doc['error']}{_tail(doc)}"
    return {"op": "sym.verify", "valid": True, "error": None, "witness": None}, lambda: "valid"


def _cmd_sym_decompose(cfg, args):
    return _symmetry(decompose_full(cfg, _load_map(args.map, cfg.size)))


def _oracle_fields(rep):
    """The fields that order --both and report take from an oracle run."""
    return {"alt_counts": rep.alt_counts, "matches": rep.matches, "discrepant": rep.discrepant}


def _alternates(rep):
    """An oracle run's alternative closed forms, one line each."""
    return [f"alternate {label}: {value}, " + ("match" if rep.matches[label] else "MISMATCH (flagged)")
            for label, value in sorted(rep.alt_counts.items())]


def _cmd_order(cfg, args):
    if args.mode != "oracle":
        _check_printable("group order", _full_factors(cfg))
    doc = {"op": "order", "mode": args.mode}
    if args.mode == "formula":
        doc["formula_order"] = full_order(cfg)
        return doc, lambda: f"formula {doc['formula_order']}"
    rep = enumerate_isometries(cfg, cap=args.cap)
    doc["oracle_count"] = rep.isometry_count
    if args.mode == "oracle":
        return doc, lambda: f"oracle {rep.isometry_count}"
    doc.update(formula_order=rep.formula_count, match=rep.matches["formula"], **_oracle_fields(rep))

    def text():
        verdict = "match" if rep.matches["formula"] else "MISMATCH"
        return "\n".join([f"formula {rep.formula_count}, oracle {rep.isometry_count}, {verdict}", *_alternates(rep)])

    return doc, text


def _cmd_aut(cfg, args):
    if args.mode == "formula":
        _check_printable("automorphism group order", _aut_factors(cfg))
        rep = AutReport(cfg, aut_order_antichain(cfg), None)
    else:
        rep = aut_report(cfg, cap=args.cap)

    def text():
        lines = [] if rep.formula_order is None else [f"formula {rep.formula_order}"]
        if rep.enumerated_order is not None:
            lines.append(f"enumerated {rep.enumerated_order}")
        if rep.discrepant:
            lines.append("DISCREPANT")
        return "\n".join(lines)

    return {"op": "aut", **rep.to_json()}, text


def _cmd_equiv(cfg, args):
    res = equivalent(_load_code(cfg, args.c1), _load_code(cfg, args.c2), budget=args.budget)

    def text():
        if res.verdict == "equivalent":
            return f"equivalent (witness found, {res.nodes} nodes)"
        return f"{res.verdict.replace('_', ' ')}: {res.reason} ({res.nodes} nodes)"

    return {"op": "equiv", **res.to_json()}, text


def _cmd_report(cfg, args):
    cap = args.cap if args.cap is not None else CAPS["oracle_count"]
    _check_printable("group order", _full_factors(cfg))
    doc = {
        "op": "report",
        "space": cfg.to_json(),
        "s_pi_order": s_pi_order(cfg),
        "chain_orders": [chain_order(cfg.q, row) for row in cfg.pi],
        "full_order": full_order(cfg),
    }
    rep = enumerate_isometries(cfg, cap=cap) if cfg.size <= cap else None
    if rep is None:
        doc["oracle_skipped"] = f"q^N = {cfg.size} exceeds the oracle cap {cap}"
    else:
        doc.update(isometry_count=rep.isometry_count, **_oracle_fields(rep))

    def text():
        lines = [
            f"space: q={cfg.field.p}^{cfg.field.e} m={cfg.m} n={cfg.n} pi={doc['space']['pi']}",
            f"chain orders: {' '.join(map(str, doc['chain_orders']))}",
            f"admissible permutations: {doc['s_pi_order']}",
            f"full order: {doc['full_order']}",
        ]
        if rep is None:
            lines.append(f"oracle skipped: {doc['oracle_skipped']}")
        else:
            ok = "match" if rep.matches["formula"] else "MISMATCH"
            lines += [f"oracle count: {rep.isometry_count} ({ok})", *_alternates(rep)]
            if rep.discrepant:
                lines.append("DISCREPANT")
        return "\n".join(lines)

    return doc, text


def _emit(doc, render, fmt):
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")) if fmt == "json" else render())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ohb", description="ordered Hamming block spaces")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="command")

    common = _Parser(add_help=False)
    common.add_argument("--space", required=True, help="space config JSON file")
    common.add_argument(
        "--format", choices=("human", "json"), default="human", help="output format"
    )

    p = sub.add_parser("weight", parents=[common], help="weight of a vector")
    p.add_argument("--vec", required=True, help="vector in text format")
    p.set_defaults(handler=_cmd_weight)

    p = sub.add_parser("dist", parents=[common], help="distance between two vectors")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(handler=_cmd_dist)

    sym = sub.add_parser("sym", help="symmetry operations")
    symsub = sym.add_subparsers(dest="subcmd", required=True, metavar="action")

    p = symsub.add_parser("gen", parents=[common], help="random symmetry")
    p.add_argument("--seed", type=_seed, default=None, help=f"RNG seed (or {SEED_ENV})")
    p.set_defaults(handler=_cmd_sym_gen)

    p = symsub.add_parser("apply", parents=[common], help="apply symmetry to a vector")
    p.add_argument("--sym", required=True, help="symmetry JSON file")
    p.add_argument("--vec", required=True)
    p.set_defaults(handler=_cmd_sym_apply)

    p = symsub.add_parser("compose", parents=[common], help="compose two symmetries")
    p.add_argument("--a", required=True, help="outer symmetry (applied second)")
    p.add_argument("--b", required=True, help="inner symmetry (applied first)")
    p.set_defaults(handler=_cmd_sym_compose)

    p = symsub.add_parser("invert", parents=[common], help="invert a symmetry")
    p.add_argument("--sym", required=True)
    p.set_defaults(handler=_cmd_sym_invert)

    p = symsub.add_parser("verify", parents=[common], help="check a map is an isometry")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--map", help="bijection table file")
    g.add_argument("--sym", help="symmetry JSON file")
    p.set_defaults(handler=_cmd_sym_verify)

    p = symsub.add_parser("decompose", parents=[common], help="canonical form of a map")
    p.add_argument("--map", required=True, help="bijection table file")
    p.set_defaults(handler=_cmd_sym_decompose)

    p = sub.add_parser("order", parents=[common], help="symmetry group order")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--formula", dest="mode", action="store_const", const="formula")
    g.add_argument("--oracle", dest="mode", action="store_const", const="oracle")
    g.add_argument("--both", dest="mode", action="store_const", const="both")
    p.add_argument("--cap", type=_count, default=None, help="oracle point cap override")
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("aut", parents=[common], help="automorphism group order")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--formula", dest="mode", action="store_const", const="formula")
    g.add_argument("--enumerate", dest="mode", action="store_const", const="enumerate")
    p.add_argument("--cap", type=_count, default=None, help="enumeration point cap override")
    p.set_defaults(handler=_cmd_aut)

    p = sub.add_parser("equiv", parents=[common], help="code equivalence search")
    p.add_argument("--c1", required=True, help="first code file")
    p.add_argument("--c2", required=True, help="second code file")
    p.add_argument("--budget", type=_count, default=DEFAULT_BUDGET, help="search node budget (spaces of several chains; one chain is decided with no search)")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("report", parents=[common], help="orders, oracle, and formula comparison")
    p.add_argument("--cap", type=_count, default=None, help="oracle point cap override")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    op = args.cmd if not getattr(args, "subcmd", None) else f"{args.cmd}.{args.subcmd}"
    try:
        doc, render = args.handler(_load_space(args.space), args)
    except UsageError as exc:
        print(f"ohb: error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        # a witness is a tuple of two ints, which JSON prints as a list
        doc = {"op": op, "error": str(exc), "witness": exc.witness, "chain_index": exc.chain_index}
        _emit(doc, lambda: f"error: {doc['error']}{_tail(doc)}", args.format)
        return 1
    _emit(doc, render, args.format)
    return 0 if doc.get("valid", True) else 1

if __name__ == "__main__":
    sys.exit(main())
