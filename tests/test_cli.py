"""Command-line surface: exit codes, JSON documents, schemas."""

import hashlib
import json
import sys

import jsonschema
import pytest

from ohb.cli import build_parser, main
from ohb.codes import DEFAULT_BUDGET

# the JSON documents the CLI prints, one schema per output kind
_SYMMETRY_SCHEMA = {
    "type": "object",
    "required": ["sigma", "chains"],
    "properties": {
        "sigma": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "chains": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["pi", "tables"],
                "properties": {
                    "pi": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                    "tables": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 0},
                            },
                        },
                    },
                },
            },
        },
    },
}

_SPACE_SCHEMA = {
    "type": "object",
    "required": ["field", "m", "n", "pi"],
    "properties": {
        "field": {
            "type": "object",
            "required": ["p"],
            "properties": {
                "p": {"type": "integer", "minimum": 2},
                "e": {"type": "integer", "minimum": 1},
                "modulus": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "m": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "pi": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        },
    },
}

_COUNTS = {"type": "object", "additionalProperties": {"type": "integer"}}
_FLAGS = {"type": "object", "additionalProperties": {"type": "boolean"}}

SCHEMAS = {
    "weight": {
        "type": "object",
        "required": ["op", "vector", "weight"],
        "properties": {
            "op": {"const": "weight"},
            "vector": {"type": "string"},
            "weight": {"type": "integer", "minimum": 0},
        },
    },
    "dist": {
        "type": "object",
        "required": ["op", "u", "v", "distance"],
        "properties": {
            "op": {"const": "dist"},
            "u": {"type": "string"},
            "v": {"type": "string"},
            "distance": {"type": "integer", "minimum": 0},
        },
    },
    "symmetry": _SYMMETRY_SCHEMA,
    "sym.apply": {
        "type": "object",
        "required": ["op", "vector"],
        "properties": {"op": {"const": "sym.apply"}, "vector": {"type": "string"}},
    },
    "sym.verify": {
        "type": "object",
        "required": ["op", "valid"],
        "properties": {
            "op": {"const": "sym.verify"},
            "valid": {"type": "boolean"},
            "error": {"type": ["string", "null"]},
            "witness": {
                "type": ["array", "null"],
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
    "order": {
        "type": "object",
        "required": ["op", "mode"],
        "properties": {
            "op": {"const": "order"},
            "mode": {"enum": ["formula", "oracle", "both"]},
            "formula_order": {"type": ["integer", "null"]},
            "oracle_count": {"type": ["integer", "null"]},
            "match": {"type": ["boolean", "null"]},
            "alt_counts": _COUNTS,
            "matches": _FLAGS,
            "discrepant": {"type": ["boolean", "null"]},
        },
    },
    "aut": {
        "type": "object",
        "required": ["op", "formula_order", "enumerated_order", "per_block_gl_orders"],
        "properties": {
            "op": {"const": "aut"},
            "space": _SPACE_SCHEMA,
            "formula_order": {"type": ["integer", "null"]},
            "enumerated_order": {"type": ["integer", "null"]},
            "per_block_gl_orders": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer"}},
            },
            "discrepant": {"type": ["boolean", "null"]},
        },
    },
    "equiv": {
        "type": "object",
        "required": ["op", "verdict", "witness", "reason", "nodes"],
        "properties": {
            "op": {"const": "equiv"},
            "verdict": {"enum": ["equivalent", "not_equivalent", "inconclusive"]},
            "witness": {"anyOf": [{"type": "null"}, _SYMMETRY_SCHEMA]},
            "reason": {"type": ["string", "null"]},
            "nodes": {"type": "integer", "minimum": 0},
        },
    },
    "report": {
        "type": "object",
        "required": ["op", "space", "full_order", "s_pi_order", "chain_orders"],
        "properties": {
            "op": {"const": "report"},
            "space": _SPACE_SCHEMA,
            "full_order": {"type": "integer"},
            "s_pi_order": {"type": "integer"},
            "chain_orders": {"type": "array", "items": {"type": "integer"}},
            "isometry_count": {"type": "integer"},
            "alt_counts": _COUNTS,
            "matches": _FLAGS,
            "discrepant": {"type": "boolean"},
            "oracle_skipped": {"type": "string"},
        },
    },
    "error": {
        "type": "object",
        "required": ["op", "error"],
        "properties": {
            "op": {"type": "string"},
            "error": {"type": "string"},
            "witness": {"type": ["array", "null"], "items": {"type": "integer"}},
            "chain_index": {"type": ["integer", "null"]},
        },
    },
}


SPACE = {"field": {"p": 2}, "m": 1, "n": 2, "pi": [[1, 1]]}
HAMMING = {"field": {"p": 2}, "m": 2, "n": 1, "pi": [[1], [1]]}


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(SPACE))
    return str(path)


@pytest.fixture
def hamming_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(HAMMING))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv, schema=None, expect=0):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == expect, (out, err)
    lines = out.strip().splitlines()
    assert len(lines) == 1  # exactly one document
    doc = json.loads(lines[0])
    if schema is not None:
        jsonschema.validate(doc, SCHEMAS[schema])
    return doc


def test_weight_human(capsys, space_file):
    code, out, _ = run(capsys, "weight", "--space", space_file, "--vec", "0,1")
    assert code == 0
    assert out.strip() == "2"


def test_weight_json(capsys, space_file):
    doc = run_json(capsys, "weight", "--space", space_file, "--vec", "0,1", schema="weight")
    assert doc == {"op": "weight", "vector": "0,1", "weight": 2}


def test_dist(capsys, space_file):
    code, out, _ = run(capsys, "dist", "--space", space_file, "--u", "0,1", "--v", "1,0")
    assert code == 0
    assert out.strip() == "2"
    doc = run_json(capsys, "dist", "--space", space_file, "--u", "0,1", "--v", "0,1", schema="dist")
    assert doc["distance"] == 0


def test_order_both_human(capsys, space_file):
    code, out, _ = run(capsys, "order", "--space", space_file, "--both")
    assert code == 0
    assert out.splitlines()[0] == "formula 8, oracle 8, match"


def test_order_json_byte_identical(capsys, space_file):
    one = run(capsys, "order", "--space", space_file, "--both", "--format", "json")
    two = run(capsys, "order", "--space", space_file, "--both", "--format", "json")
    assert one == two
    doc = json.loads(one[1])
    jsonschema.validate(doc, SCHEMAS["order"])
    assert doc["formula_order"] == 8
    assert doc["oracle_count"] == 8
    assert doc["alt_counts"] == {"unit_chain": 16, "unit_product": 16}
    assert doc["discrepant"] is True
    assert "elapsed" not in doc


def test_order_formula_only(capsys, space_file):
    doc = run_json(capsys, "order", "--space", space_file, "--formula", schema="order")
    assert doc["formula_order"] == 8
    assert "oracle_count" not in doc


def test_order_cap_refusal(capsys, space_file):
    doc = run_json(
        capsys, "order", "--space", space_file, "--oracle", "--cap", "2",
        schema="error", expect=1,
    )
    assert "cap" in doc["error"]


def test_sym_gen_requires_seed(capsys, space_file, monkeypatch):
    monkeypatch.delenv("OHB_SEED", raising=False)
    code, out, err = run(capsys, "sym", "gen", "--space", space_file)
    assert code == 2
    assert "seed" in err
    assert out == ""


def test_sym_gen_env_seed(capsys, space_file, monkeypatch):
    explicit = run_json(capsys, "sym", "gen", "--space", space_file, "--seed", "5", schema="symmetry")
    monkeypatch.setenv("OHB_SEED", "5")
    ambient = run_json(capsys, "sym", "gen", "--space", space_file, schema="symmetry")
    assert explicit == ambient
    assert ambient["sigma"] == [1]


def test_sym_round_trip_through_files(capsys, space_file, tmp_path):
    doc = run_json(capsys, "sym", "gen", "--space", space_file, "--seed", "9", schema="symmetry")
    sym_file = tmp_path / "t.json"
    sym_file.write_text(json.dumps(doc))

    applied = run_json(
        capsys, "sym", "apply", "--space", space_file, "--sym", str(sym_file),
        "--vec", "1,0", schema="sym.apply",
    )
    assert applied["op"] == "sym.apply"

    inv_doc = run_json(
        capsys, "sym", "invert", "--space", space_file, "--sym", str(sym_file),
        schema="symmetry",
    )
    inv_file = tmp_path / "tinv.json"
    inv_file.write_text(json.dumps(inv_doc))

    composed = run_json(
        capsys, "sym", "compose", "--space", space_file,
        "--a", str(sym_file), "--b", str(inv_file), schema="symmetry",
    )
    # T composed with its inverse is the identity
    assert composed["sigma"] == [1]
    for level_tables in composed["chains"][0]["tables"]:
        for perm in level_tables:
            assert perm == sorted(perm)


def test_sym_verify_valid_map(capsys, space_file, tmp_path):
    table = tmp_path / "f.tbl"
    table.write_text("0 -> 1\n1 -> 0\n2 -> 3\n3 -> 2\n")
    doc = run_json(
        capsys, "sym", "verify", "--space", space_file, "--map", str(table),
        schema="sym.verify",
    )
    assert doc["valid"] is True
    assert doc["witness"] is None


def test_sym_verify_non_isometry(capsys, space_file, tmp_path):
    table = tmp_path / "f.tbl"
    table.write_text("2\n1\n0\n3\n")  # dense form, one image per line
    doc = run_json(
        capsys, "sym", "verify", "--space", space_file, "--map", str(table),
        schema="sym.verify", expect=1,
    )
    assert doc["valid"] is False
    assert doc["witness"] == [0, 1]

    code, out, _ = run(capsys, "sym", "verify", "--space", space_file, "--map", str(table))
    assert code == 1
    assert "witness" in out


def test_sym_decompose(capsys, space_file, tmp_path):
    table = tmp_path / "f.tbl"
    table.write_text(json.dumps([1, 0, 3, 2]))  # dense JSON array form
    doc = run_json(
        capsys, "sym", "decompose", "--space", space_file, "--map", str(table),
        schema="symmetry",
    )
    assert doc["sigma"] == [1]

    bad = tmp_path / "bad.tbl"
    bad.write_text(json.dumps([2, 1, 0, 3]))
    err = run_json(
        capsys, "sym", "decompose", "--space", space_file, "--map", str(bad),
        schema="error", expect=1,
    )
    assert err["witness"] == [0, 1]


def test_map_file_validation(capsys, space_file, tmp_path):
    short = tmp_path / "short.tbl"
    short.write_text("0 -> 1\n")
    code, _, err = run(capsys, "sym", "verify", "--space", space_file, "--map", str(short))
    assert code == 2
    dup = tmp_path / "dup.tbl"
    dup.write_text("0 -> 1\n0 -> 2\n2 -> 3\n3 -> 0\n")
    code, _, err = run(capsys, "sym", "verify", "--space", space_file, "--map", str(dup))
    assert code == 2


def test_aut_enumerate(capsys, hamming_file):
    doc = run_json(capsys, "aut", "--space", hamming_file, "--enumerate", schema="aut")
    assert doc["enumerated_order"] == 2
    assert doc["formula_order"] == 2
    assert doc["discrepant"] is False


def test_aut_formula_needs_antichain(capsys, space_file):
    doc = run_json(capsys, "aut", "--space", space_file, "--formula", schema="error", expect=1)
    assert "single level" in doc["error"]


def test_equiv(capsys, hamming_file, tmp_path):
    c1 = tmp_path / "c1.txt"
    c1.write_text("# two words\n0;0\n0;1\n")
    c2 = tmp_path / "c2.txt"
    c2.write_text("0;0\n1;0\n")
    doc = run_json(
        capsys, "equiv", "--space", hamming_file, "--c1", str(c1), "--c2", str(c2),
        schema="equiv",
    )
    assert doc["verdict"] == "equivalent"
    assert doc["witness"]["sigma"] == [2, 1]

    c3 = tmp_path / "c3.txt"
    c3.write_text("0;0\n1;1\n")
    doc = run_json(
        capsys, "equiv", "--space", hamming_file, "--c1", str(c1), "--c2", str(c3),
        schema="equiv",
    )
    assert doc["verdict"] == "not_equivalent"
    assert doc["nodes"] == 0


def test_report(capsys, space_file):
    doc = run_json(capsys, "report", "--space", space_file, schema="report")
    assert doc["full_order"] == 8
    assert doc["isometry_count"] == 8
    assert doc["chain_orders"] == [8]
    assert doc["s_pi_order"] == 1


def test_usage_errors_are_one_line(capsys, space_file, tmp_path):
    code, out, err = run(capsys, "weight", "--space", space_file, "--vec", "9,9")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1

    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, "weight", "--space", missing, "--vec", "0,1")
    assert code == 2
    assert len(err.strip().splitlines()) == 1


def test_unknown_command_exits_2(capsys):
    code, out, err = run(capsys, "definitely-not-a-command")
    assert code == 2
    assert "invalid choice" in err


def test_equiv_budget_defaults_to_the_library_budget():
    args = build_parser().parse_args(["equiv", "--space", "s", "--c1", "a", "--c2", "b"])
    assert args.budget == DEFAULT_BUDGET


# a space of two points, one symmetry of it and a code in it, as JSON
TINY = {"field": {"p": 2}, "m": 1, "n": 1, "pi": [[1]]}


def tiny_symmetry(sigma=(1,), level=((1, 0),), pi=(1,)):
    return {"sigma": list(sigma), "chains": [{"pi": list(pi), "tables": [[list(r) for r in level]]}]}


def tiny_code(*vectors):
    return {"config": TINY, "vectors": list(vectors)}


# JSON integers must be integers: each case names the command, the space
# document and, for the command's one other file, its option and document
BAD_INTEGERS = {
    "space p, m and pi": ("weight", {"field": {"p": 2.9}, "m": 1.4, "n": 1, "pi": [[1.8]]},
                          "--vec", "1"),
    "space p string": ("weight", {**TINY, "field": {"p": "2"}}, "--vec", "1"),
    "space e float": ("weight", {**TINY, "field": {"p": 2, "e": 1.0}}, "--vec", "1"),
    "space modulus bool": ("weight", {**TINY, "field": {"p": 2, "e": 2, "modulus": [1, True, 1]}},
                           "--vec", "1"),
    "space m bool": ("weight", {**TINY, "m": True}, "--vec", "1"),
    "space n null": ("weight", {**TINY, "n": None}, "--vec", "1"),
    "map floats": ("sym decompose", TINY, "--map", [0.9, 1.2]),
    "map strings": ("sym decompose", TINY, "--map", ["0", "1"]),
    "map letter": ("sym decompose", TINY, "--map", [0, "a"]),
    "map null": ("sym decompose", TINY, "--map", [0, None]),
    "map lists": ("sym decompose", TINY, "--map", [[0], [1]]),
    "table floats": ("sym invert", TINY, "--sym", tiny_symmetry(level=[[0.7, 1.2]])),
    "table strings": ("sym invert", TINY, "--sym", tiny_symmetry(level=[["1", "0"]])),
    "table bools": ("sym invert", TINY, "--sym", tiny_symmetry(level=[[True, False]])),
    "chain pi float": ("sym invert", TINY, "--sym", tiny_symmetry(pi=[1.0])),
    "sigma float": ("sym invert", TINY, "--sym", tiny_symmetry(sigma=[1.9])),
    "sigma letter": ("sym invert", TINY, "--sym", tiny_symmetry(sigma=["a"])),
    "code entry float": ("equiv", TINY, "--c1", tiny_code(1.5)),
    "code entry null": ("equiv", TINY, "--c1", tiny_code(None)),
}


@pytest.mark.parametrize("case", BAD_INTEGERS)
def test_json_integers_are_checked_not_coerced(case, capsys, tmp_path):
    command, space, option, value = BAD_INTEGERS[case]
    space_path = tmp_path / "s.json"
    space_path.write_text(json.dumps(space))
    argv = [*command.split(), "--space", str(space_path), option]
    if option == "--vec":
        argv.append(value)
    else:
        other = tmp_path / "other.json"
        other.write_text(json.dumps(value))
        argv.append(str(other))
    if command == "equiv":
        good = tmp_path / "good.json"
        good.write_text(json.dumps(tiny_code(0)))
        argv += ["--c2", str(good)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "must be an integer" in err


@pytest.mark.parametrize("vectors", [5, "01", {"a": 1}], ids=["int", "string", "object"])
def test_code_vectors_must_be_a_list(vectors, capsys, tmp_path):
    space_path = tmp_path / "s.json"
    space_path.write_text(json.dumps(TINY))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"config": TINY, "vectors": vectors}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(tiny_code(0)))
    code, out, err = run(capsys, "equiv", "--space", str(space_path), "--c1", str(bad), "--c2", str(good))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "vectors must be a list" in err


def test_weight_and_dist_are_exact_past_int64(capsys, tmp_path):
    # q=2, one chain of 70 unit levels: ranks reach 2^70
    path = tmp_path / "s70.json"
    path.write_text(json.dumps({"field": {"p": 2}, "m": 1, "n": 70, "pi": [[1] * 70]}))
    top = ",".join("0" * 69 + "1")
    low = ",".join("1" * 30 + "0" * 40)
    assert run_json(capsys, "weight", "--space", str(path), "--vec", top, schema="weight")["weight"] == 70
    assert run_json(capsys, "weight", "--space", str(path), "--vec", low, schema="weight")["weight"] == 30
    doc = run_json(capsys, "dist", "--space", str(path), "--u", top, "--v", low, schema="dist")
    assert doc["distance"] == 70
    doc = run_json(capsys, "dist", "--space", str(path), "--u", low, "--v", ",".join("0" * 70), schema="dist")
    assert doc["distance"] == 30


def unit_chain(n):
    return {"field": {"p": 2}, "m": 1, "n": n, "pi": [[1] * n]}


# orders too long to print: q=2 with one chain of 14 unit levels has a
# group of order 2^16383 (4932 digits), GL(120, 2) has 4335 digits, and a
# block of width 1100 has q^N = 2^1100 points, whose factorial has more
# digits than a float can count
WIDE = {"field": {"p": 2}, "m": 1, "n": 1, "pi": [[1100]]}
UNPRINTABLE = {
    "order formula n14": ("order --formula", unit_chain(14), "group order has 4932 decimal digits"),
    "report n14": ("report", unit_chain(14), "group order has 4932 decimal digits"),
    "aut formula k120": ("aut --formula", {**WIDE, "pi": [[120]]},
                         "automorphism group order has 4335 decimal digits"),
    "report k1100": ("report", WIDE, "group order has "),
    "order formula k1100": ("order --formula", WIDE, "group order has "),
    "order oracle k1100": ("order --oracle", WIDE, f"space has q^N = {2 ** 1100} points, over the cap 64"),
}


@pytest.mark.parametrize("case", UNPRINTABLE)
def test_orders_too_long_to_print_are_refused(case, capsys, tmp_path):
    command, space, message = UNPRINTABLE[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(space))
    doc = run_json(capsys, *command.split(), "--space", str(path), schema="error", expect=1)
    assert doc["error"].startswith(message)
    if command != "order --oracle":
        assert "decimal digits, over the cap 4300" in doc["error"]
    code, out, err = run(capsys, *command.split(), "--space", str(path))
    assert (code, err) == (1, "") and out.startswith("error: ")


def test_the_print_limit_is_pythons(capsys, tmp_path):
    # 2^8191 has 2466 digits and 2^16383 has 4932; 0 means no limit
    n13, n14 = tmp_path / "n13.json", tmp_path / "n14.json"
    n13.write_text(json.dumps(unit_chain(13)))
    n14.write_text(json.dumps(unit_chain(14)))
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(2000)
        doc = run_json(capsys, "order", "--formula", "--space", str(n13), schema="error", expect=1)
        assert doc["error"].startswith("group order has 2466 decimal digits, over the cap 2000")
        sys.set_int_max_str_digits(0)
        doc = run_json(capsys, "order", "--formula", "--space", str(n14), schema="order")
    finally:
        sys.set_int_max_str_digits(old)
    assert doc["formula_order"] == 2 ** 16383


# sha256 of the stdout of q=2, one chain of 13 unit levels, whose group
# order 2^8191 has 2466 digits: the same bytes as before the refusal
PINNED_N13 = {
    ("order --formula", "json"): "7cf299d6e39bb05e203b0840278955e8d22b714600f048ceadc0603779b17817",
    ("order --formula", "human"): "0298b67ddbc79fe7872687a135b99516dcfe4d39aa796ed844aceba3310979a9",
    ("report", "json"): "bc4526ab9c9d97d4d0deefedae489ffa408ab1a152addb716404a25e836a222f",
    ("report", "human"): "1a9e6345673aeb0f1d3a7ec19742b3f5bf6c0d70c64cc624f85c6f1a5ba70e94",
}


@pytest.mark.parametrize("command, fmt", sorted(PINNED_N13))
def test_orders_under_the_print_limit_are_unchanged(command, fmt, capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(unit_chain(13)))
    code, out, _ = run(capsys, *command.split(), "--space", str(path), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_N13[command, fmt]
