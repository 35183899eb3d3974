"""Command-line interface.

Every capability is a subcommand operating on a space config file.
Output is a single document per invocation: JSON with sorted keys in
--format json (byte-identical across identical invocations), or a thin
human rendering of the same data.  Exit codes: 0 success, 1 domain
rejection (non-isometry input, cap refusal, unsupported formula), 2
usage error (bad flags or malformed files).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .automorphisms import aut_order_antichain, aut_report, gl_order
from .chains import chain_order
from .codes import DEFAULT_BUDGET, equivalent, parse_code_json, parse_code_text
from .errors import CAPS, DomainError, NotIsometryError, StructureError, UsageError, check_cap, json_int
from .oracle import enumerate_isometries
from .space import SpaceConfig, distance, format_vector, parse_vector, weight
from .symmetry import (
    Symmetry,
    compose_symmetry,
    decompose_full,
    full_order,
    full_order_log10,
    invert_symmetry,
    random_symmetry,
    s_pi_order,
)

SEED_ENV = "OHB_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


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
            entries = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: bad JSON array: {exc}") from exc
        table = [json_int(x, f"{path}: map entry") for x in entries]
    elif "->" in stripped:
        table = [None] * size
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("->")
            if len(parts) != 2:
                raise UsageError(f"{path}:{lineno}: expected 'rank -> rank'")
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: not integers: {line!r}") from exc
            if not 0 <= src < size:
                raise UsageError(f"{path}:{lineno}: source rank {src} out of range")
            if table[src] is not None:
                raise UsageError(f"{path}:{lineno}: rank {src} mapped twice")
            table[src] = dst
        missing = [r for r, x in enumerate(table) if x is None]
        if missing:
            raise UsageError(f"{path}: no image for rank {missing[0]}")
    else:
        try:
            table = [int(x) for x in stripped.split()]
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


def _check_printable(subject, log10_value):
    """Refuse, in the one cap format, a number with more decimal digits
    than Python converts to text (sys.get_int_max_str_digits(); 0 means
    no limit), given the log10 of the number so it need not be built."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        check_cap(subject, math.floor(log10_value) + 1, "decimal digits", limit,
                  "Python prints no integer that long")


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    raise UsageError(f"a seed is required: pass --seed or set {SEED_ENV}")


# subcommand handlers: each returns (doc, schema_key)


def _cmd_weight(args):
    cfg = _load_space(args.space)
    v = parse_vector(cfg, args.vec)
    return {"op": "weight", "vector": format_vector(v), "weight": weight(v)}, "weight"


def _cmd_dist(args):
    cfg = _load_space(args.space)
    u = parse_vector(cfg, args.u)
    v = parse_vector(cfg, args.v)
    return {
        "op": "dist",
        "u": format_vector(u),
        "v": format_vector(v),
        "distance": distance(u, v),
    }, "dist"


def _cmd_sym_gen(args):
    cfg = _load_space(args.space)
    T = random_symmetry(cfg, _resolve_seed(args))
    return T.to_json(), "symmetry"


def _cmd_sym_apply(args):
    cfg = _load_space(args.space)
    T = _load_symmetry(cfg, args.sym)
    v = parse_vector(cfg, args.vec)
    return {"op": "sym.apply", "vector": format_vector(T.apply(v))}, "sym.apply"


def _cmd_sym_compose(args):
    cfg = _load_space(args.space)
    A = _load_symmetry(cfg, args.a)
    B = _load_symmetry(cfg, args.b)
    return compose_symmetry(A, B).to_json(), "symmetry"


def _cmd_sym_invert(args):
    cfg = _load_space(args.space)
    T = _load_symmetry(cfg, args.sym)
    return invert_symmetry(T).to_json(), "symmetry"


def _cmd_sym_verify(args):
    cfg = _load_space(args.space)
    try:
        if args.map:
            decompose_full(cfg, _load_map(args.map, cfg.size))
        else:
            _load_symmetry(cfg, args.sym)
    except NotIsometryError as exc:
        return {
            "op": "sym.verify",
            "valid": False,
            "error": str(exc),
            "witness": list(exc.witness) if exc.witness else None,
        }, "sym.verify"
    except StructureError as exc:
        return {
            "op": "sym.verify",
            "valid": False,
            "error": str(exc),
            "witness": None,
        }, "sym.verify"
    return {"op": "sym.verify", "valid": True, "error": None, "witness": None}, "sym.verify"


def _cmd_sym_decompose(args):
    cfg = _load_space(args.space)
    T = decompose_full(cfg, _load_map(args.map, cfg.size))
    return T.to_json(), "symmetry"


def _cmd_order(args):
    cfg = _load_space(args.space)
    if args.mode != "oracle":
        _check_printable("group order", full_order_log10(cfg))
    doc = {"op": "order", "mode": args.mode}
    if args.mode == "formula":
        doc["formula_order"] = full_order(cfg)
    elif args.mode == "oracle":
        doc["oracle_count"] = enumerate_isometries(cfg, cap=args.cap).isometry_count
    else:
        rep = enumerate_isometries(cfg, cap=args.cap)
        doc["formula_order"] = rep.formula_count
        doc["oracle_count"] = rep.isometry_count
        doc["match"] = rep.matches["formula"]
        doc["alt_counts"] = rep.alt_counts
        doc["matches"] = rep.matches
        doc["discrepant"] = rep.discrepant
    return doc, "order"


def _cmd_aut(args):
    cfg = _load_space(args.space)
    if args.mode == "formula":
        order = aut_order_antichain(cfg)
        _check_printable("automorphism group order", math.log10(order))
        doc = {
            "op": "aut",
            "space": cfg.to_json(),
            "formula_order": order,
            "enumerated_order": None,
            "per_block_gl_orders": [[gl_order(cfg.q, k) for k in row] for row in cfg.pi],
            "discrepant": None,
        }
        return doc, "aut"
    rep = aut_report(cfg, cap=args.cap)
    doc = rep.to_json()
    doc["op"] = "aut"
    return doc, "aut"


def _cmd_equiv(args):
    cfg = _load_space(args.space)
    c1 = _load_code(cfg, args.c1)
    c2 = _load_code(cfg, args.c2)
    res = equivalent(c1, c2, budget=args.budget)
    doc = res.to_json()
    doc["op"] = "equiv"
    return doc, "equiv"


def _cmd_report(args):
    cfg = _load_space(args.space)
    cap = args.cap if args.cap is not None else CAPS["oracle_count"]
    _check_printable("group order", full_order_log10(cfg))
    doc = {
        "op": "report",
        "space": cfg.to_json(),
        "s_pi_order": s_pi_order(cfg),
        "chain_orders": [chain_order(cfg.q, row) for row in cfg.pi],
        "full_order": full_order(cfg),
    }
    if cfg.size <= cap:
        rep = enumerate_isometries(cfg, cap=cap)
        doc["isometry_count"] = rep.isometry_count
        doc["alt_counts"] = rep.alt_counts
        doc["matches"] = rep.matches
        doc["discrepant"] = rep.discrepant
    else:
        doc["oracle_skipped"] = f"q^N = {cfg.size} exceeds the oracle cap {cap}"
    return doc, "report"


def _human(doc, schema_key):
    if schema_key == "weight":
        return str(doc["weight"])
    if schema_key == "dist":
        return str(doc["distance"])
    if schema_key == "symmetry":
        lines = ["sigma: " + " ".join(str(x) for x in doc["sigma"])]
        for i, ch in enumerate(doc["chains"], start=1):
            for j, level in enumerate(ch["tables"], start=1):
                for t, perm in enumerate(level):
                    lines.append(
                        f"chain {i} level {j} tail {t}: "
                        + " ".join(str(x) for x in perm)
                    )
        return "\n".join(lines)
    if schema_key == "sym.apply":
        return doc["vector"]
    if schema_key == "sym.verify":
        if doc["valid"]:
            return "valid"
        w = doc.get("witness")
        tail = f" (witness ranks {w[0]}, {w[1]})" if w else ""
        return f"invalid: {doc['error']}{tail}"
    if schema_key == "order":
        parts = []
        if doc.get("formula_order") is not None:
            parts.append(f"formula {doc['formula_order']}")
        if doc.get("oracle_count") is not None:
            parts.append(f"oracle {doc['oracle_count']}")
        if doc.get("match") is not None:
            parts.append("match" if doc["match"] else "MISMATCH")
        out = [", ".join(parts)]
        for label, value in sorted(doc.get("alt_counts", {}).items()):
            verdict = "match" if doc["matches"][label] else "MISMATCH (flagged)"
            out.append(f"alternate {label}: {value}, {verdict}")
        return "\n".join(out)
    if schema_key == "aut":
        lines = []
        if doc["formula_order"] is not None:
            lines.append(f"formula {doc['formula_order']}")
        if doc["enumerated_order"] is not None:
            lines.append(f"enumerated {doc['enumerated_order']}")
        if doc["discrepant"]:
            lines.append("DISCREPANT")
        return "\n".join(lines)
    if schema_key == "equiv":
        if doc["verdict"] == "equivalent":
            return f"equivalent (witness found, {doc['nodes']} nodes)"
        return f"{doc['verdict'].replace('_', ' ')}: {doc['reason']} ({doc['nodes']} nodes)"
    if schema_key == "report":
        lines = [
            f"space: q={doc['space']['field']['p']}^{doc['space']['field'].get('e', 1)}"
            f" m={doc['space']['m']} n={doc['space']['n']} pi={doc['space']['pi']}",
            f"chain orders: {' '.join(str(x) for x in doc['chain_orders'])}",
            f"admissible permutations: {doc['s_pi_order']}",
            f"full order: {doc['full_order']}",
        ]
        if "isometry_count" in doc:
            ok = "match" if doc["matches"]["formula"] else "MISMATCH"
            lines.append(f"oracle count: {doc['isometry_count']} ({ok})")
            for label, value in sorted(doc.get("alt_counts", {}).items()):
                verdict = "match" if doc["matches"][label] else "MISMATCH (flagged)"
                lines.append(f"alternate {label}: {value}, {verdict}")
            if doc["discrepant"]:
                lines.append("DISCREPANT")
        else:
            lines.append(f"oracle skipped: {doc['oracle_skipped']}")
        return "\n".join(lines)
    if schema_key == "error":
        tail = ""
        if doc.get("witness"):
            tail = f" (witness ranks {doc['witness'][0]}, {doc['witness'][1]})"
        elif doc.get("chain_index"):
            tail = f" (chain {doc['chain_index']})"
        return f"error: {doc['error']}{tail}"
    return json.dumps(doc, sort_keys=True)


def _emit(doc, schema_key, fmt):
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(_human(doc, schema_key))


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
    p.add_argument("--seed", type=int, default=None, help=f"RNG seed (or {SEED_ENV})")
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
    p.add_argument("--cap", type=int, default=None, help="oracle point cap override")
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("aut", parents=[common], help="automorphism group order")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--formula", dest="mode", action="store_const", const="formula")
    g.add_argument("--enumerate", dest="mode", action="store_const", const="enumerate")
    p.add_argument("--cap", type=int, default=None, help="enumeration point cap override")
    p.set_defaults(handler=_cmd_aut)

    p = sub.add_parser("equiv", parents=[common], help="code equivalence search")
    p.add_argument("--c1", required=True, help="first code file")
    p.add_argument("--c2", required=True, help="second code file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node budget")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("report", parents=[common], help="orders, oracle, and formula comparison")
    p.add_argument("--cap", type=int, default=None, help="oracle point cap override")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    fmt = getattr(args, "format", "human")
    op = args.cmd if not getattr(args, "subcmd", None) else f"{args.cmd}.{args.subcmd}"
    try:
        doc, schema_key = args.handler(args)
    except UsageError as exc:
        print(f"ohb: error: {exc}", file=sys.stderr)
        return 2
    except NotIsometryError as exc:
        _emit(
            {
                "op": op,
                "error": str(exc),
                "witness": list(exc.witness) if exc.witness else None,
                "chain_index": None,
            },
            "error",
            fmt,
        )
        return 1
    except StructureError as exc:
        _emit(
            {"op": op, "error": str(exc), "witness": None, "chain_index": exc.chain_index},
            "error",
            fmt,
        )
        return 1
    except DomainError as exc:
        _emit({"op": op, "error": str(exc), "witness": None, "chain_index": None}, "error", fmt)
        return 1
    _emit(doc, schema_key, fmt)
    if schema_key == "sym.verify" and not doc["valid"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
