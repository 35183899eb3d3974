"""Command-line surface: exit codes, JSON documents, schemas."""

import json

import jsonschema
import pytest

from ohb.cli import main

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
