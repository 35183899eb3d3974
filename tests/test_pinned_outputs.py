"""Seeded CLI outputs pinned byte for byte.

Each case runs one `ohb ... --format json` call (`sym apply` also in
the human format) and compares its exit code and stdout with bytes
recorded from ohb 0.1.0.  A mismatch means
the JSON format, the order of the seeded draws, the choice of a
rejection witness, or a group count or cap refusal changed.  The last
cases pin the human format of every subcommand the same way.  The order
in which the isometry and automorphism listings come out is pinned by
digest too: code equivalence takes its fallback witness from it.  So
are the results of seeded equivalence queries and the code invariants,
and the seeded draws of chain maps with many or long table rows.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from ohb import (
    Code,
    Field,
    SpaceConfig,
    Symmetry,
    UsageError,
    apply_to_code,
    as_rank_table,
    code_invariants,
    enumerate_automorphisms,
    equivalent,
    format_vector,
    random_symmetry,
    weight,
)
from ohb.cli import main
from ohb.oracle import enumerate_isometries

SPACES = {
    "chain": {"field": {"p": 2}, "m": 1, "n": 4, "pi": [[1, 1, 1, 1]]},
    "gf3": {"field": {"p": 3}, "m": 2, "n": 2, "pi": [[1, 2], [1, 2]]},
}

# pairs of ranks whose images are exchanged to make a non-isometry
SWAPS = {"chain": [(0, 2), (5, 12)], "gf3": [(0, 3), (27, 81)]}


def session(space, tmp_path, capsys):
    """Every call of one space, in order: (label, exit code, stdout)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(SPACES[space]))
    cfg = SpaceConfig.from_json(SPACES[space])
    out = []

    def call(label, *argv):
        code = main([*argv, "--space", str(space_file), "--format", "json"])
        text = capsys.readouterr().out
        out.append((label, code, text))
        return text

    def save(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    a = save("a.json", call("gen 7", "sym", "gen", "--seed", "7"))
    b = save("b.json", call("gen 8", "sym", "gen", "--seed", "8"))
    c_text = call("compose", "sym", "compose", "--a", a, "--b", b)
    c = save("c.json", c_text)
    call("invert", "sym", "invert", "--sym", c)
    table = as_rank_table(Symmetry.from_json(json.loads(c_text), cfg))
    call("decompose good", "sym", "decompose", "--map", save("good.tbl", json.dumps(table.tolist())))
    for u, v in SWAPS[space]:
        bad = table.copy()
        bad[[u, v]] = bad[[v, u]]
        call(f"decompose swapped {u} {v}", "sym", "decompose", "--map", save("bad.tbl", json.dumps(bad.tolist())))
    u, v = SWAPS[space][0]
    dup = table.copy()
    dup[v] = dup[u]
    call("decompose non-bijection", "sym", "decompose", "--map", save("dup.tbl", json.dumps(dup.tolist())))
    return out


PINNED = {
    'chain': [
        ('gen 7', 0, '{"chains":[{"pi":[1,1,1,1],"tables":[[[1,0],[0,1],[1,0],[1,0],[1,0],[0,1],[1,0],[1,0]],[[1,0],[1,0],[0,1],[0,1]],[[1,0],[1,0]],[[1,0]]]}],"sigma":[1]}\n'),
        ('gen 8', 0, '{"chains":[{"pi":[1,1,1,1],"tables":[[[0,1],[0,1],[1,0],[1,0],[1,0],[1,0],[1,0],[1,0]],[[1,0],[0,1],[1,0],[0,1]],[[0,1],[0,1]],[[0,1]]]}],"sigma":[1]}\n'),
        ('compose', 0, '{"chains":[{"pi":[1,1,1,1],"tables":[[[0,1],[1,0],[0,1],[0,1],[1,0],[0,1],[0,1],[0,1]],[[0,1],[1,0],[1,0],[0,1]],[[1,0],[1,0]],[[1,0]]]}],"sigma":[1]}\n'),
        ('invert', 0, '{"chains":[{"pi":[1,1,1,1],"tables":[[[0,1],[0,1],[0,1],[1,0],[0,1],[0,1],[0,1],[1,0]],[[0,1],[1,0],[1,0],[0,1]],[[1,0],[1,0]],[[1,0]]]}],"sigma":[1]}\n'),
        ('decompose good', 0, '{"chains":[{"pi":[1,1,1,1],"tables":[[[0,1],[1,0],[0,1],[0,1],[1,0],[0,1],[0,1],[0,1]],[[0,1],[1,0],[1,0],[0,1]],[[1,0],[1,0]],[[1,0]]]}],"sigma":[1]}\n'),
        ('decompose swapped 0 2', 1, '{"chain_index":null,"error":"distance not preserved for ranks 0 and 1","op":"sym.decompose","witness":[0,1]}\n'),
        ('decompose swapped 5 12', 1, '{"chain_index":null,"error":"distance not preserved for ranks 0 and 5","op":"sym.decompose","witness":[0,5]}\n'),
        ('decompose non-bijection', 1, '{"chain_index":null,"error":"not a bijection: ranks 0 and 2 share the image 12","op":"sym.decompose","witness":[0,2]}\n'),
    ],
    'gf3': [
        ('gen 7', 0, '{"chains":[{"pi":[1,2],"tables":[[[2,0,1],[1,2,0],[2,0,1],[1,0,2],[1,2,0],[0,2,1],[1,2,0],[2,1,0],[1,2,0]],[[1,2,5,7,8,6,4,0,3]]]},{"pi":[1,2],"tables":[[[1,0,2],[0,2,1],[1,2,0],[0,1,2],[1,0,2],[1,2,0],[2,0,1],[1,0,2],[1,0,2]],[[0,6,1,2,8,4,5,7,3]]]}],"sigma":[2,1]}\n'),
        ('gen 8', 0, '{"chains":[{"pi":[1,2],"tables":[[[2,0,1],[1,2,0],[1,2,0],[1,2,0],[2,0,1],[0,2,1],[0,2,1],[2,0,1],[2,0,1]],[[5,4,1,8,2,0,6,3,7]]]},{"pi":[1,2],"tables":[[[1,0,2],[0,1,2],[1,2,0],[0,2,1],[1,2,0],[2,0,1],[1,0,2],[2,0,1],[1,0,2]],[[7,6,2,4,8,5,3,0,1]]]}],"sigma":[1,2]}\n'),
        ('compose', 0, '{"chains":[{"pi":[1,2],"tables":[[[1,0,2],[2,0,1],[2,0,1],[2,0,1],[1,2,0],[2,1,0],[1,0,2],[2,1,0],[0,2,1]],[[6,8,2,3,5,1,4,7,0]]]},{"pi":[1,2],"tables":[[[0,1,2],[2,0,1],[2,0,1],[1,2,0],[0,2,1],[0,1,2],[1,0,2],[2,1,0],[2,0,1]],[[7,5,1,8,3,4,2,0,6]]]}],"sigma":[2,1]}\n'),
        ('invert', 0, '{"chains":[{"pi":[1,2],"tables":[[[2,1,0],[1,2,0],[1,0,2],[0,2,1],[0,1,2],[1,2,0],[1,2,0],[0,1,2],[2,0,1]],[[7,2,6,4,5,1,8,0,3]]]},{"pi":[1,2],"tables":[[[0,2,1],[2,1,0],[1,2,0],[1,2,0],[1,0,2],[2,0,1],[1,0,2],[2,1,0],[1,2,0]],[[8,5,2,3,6,4,0,7,1]]]}],"sigma":[2,1]}\n'),
        ('decompose good', 0, '{"chains":[{"pi":[1,2],"tables":[[[1,0,2],[2,0,1],[2,0,1],[2,0,1],[1,2,0],[2,1,0],[1,0,2],[2,1,0],[0,2,1]],[[6,8,2,3,5,1,4,7,0]]]},{"pi":[1,2],"tables":[[[0,1,2],[2,0,1],[2,0,1],[1,2,0],[0,2,1],[0,1,2],[1,0,2],[2,1,0],[2,0,1]],[[7,5,1,8,3,4,2,0,6]]]}],"sigma":[2,1]}\n'),
        ('decompose swapped 0 3', 1, '{"chain_index":null,"error":"distance not preserved for ranks 0 and 1","op":"sym.decompose","witness":[0,1]}\n'),
        ('decompose swapped 27 81', 1, '{"chain_index":null,"error":"distance not preserved for ranks 0 and 27","op":"sym.decompose","witness":[0,27]}\n'),
        ('decompose non-bijection', 1, '{"chain_index":null,"error":"not a bijection: ranks 0 and 3 share the image 534","op":"sym.decompose","witness":[0,3]}\n'),
    ],
}


@pytest.mark.parametrize("space", sorted(SPACES))
def test_cli_outputs_are_pinned(space, tmp_path, capsys):
    got = session(space, tmp_path, capsys)
    assert got == PINNED[space]
    # the good map decomposes back to the composite it was built from
    assert got[4][2] == got[2][2]
    assert all(code == 1 for _, code, _ in got[5:])


# `sym verify --map` and `sym decompose --map` on the rank table of
# `sym gen --seed 7` over one chain of 13 unit levels, two images swapped.
# The chain has more points than CAPS["witness_matrix"], so the witness is
# found from the anchors the refusal names: 100 <-> 4196 (ranks that differ
# in the top level only) breaks a level row, whose equal entries are the
# anchors; 6311 <-> 6890 keeps every level row a permutation, and the
# first rank where the rebuilt table disagrees is the anchor.
LONG_CHAIN = {"field": {"p": 2}, "m": 1, "n": 13, "pi": [[1] * 13]}
PINNED_LONG_CHAIN = [
    ('verify swapped 100 4196', 1, '{"error":"distance not preserved for ranks 96 and 100","op":"sym.verify","valid":false,"witness":[96,100]}\n'),
    ('decompose swapped 100 4196', 1, '{"chain_index":null,"error":"distance not preserved for ranks 96 and 100","op":"sym.decompose","witness":[96,100]}\n'),
    ('verify swapped 6311 6890', 1, '{"error":"distance not preserved for ranks 6311 and 6144","op":"sym.verify","valid":false,"witness":[6311,6144]}\n'),
    ('decompose swapped 6311 6890', 1, '{"chain_index":null,"error":"distance not preserved for ranks 6311 and 6144","op":"sym.decompose","witness":[6311,6144]}\n'),
]


def test_long_chain_refusals_are_pinned(tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(LONG_CHAIN))
    table = as_rank_table(random_symmetry(SpaceConfig.from_json(LONG_CHAIN), 7))
    got = []
    for u, v in [(100, 4196), (6311, 6890)]:
        bad = table.copy()
        bad[[u, v]] = bad[[v, u]]
        map_file = tmp_path / "bad.tbl"
        map_file.write_text(json.dumps(bad.tolist()))
        for cmd in ("verify", "decompose"):
            code = main(["sym", cmd, "--map", str(map_file), "--space", str(space_file), "--format", "json"])
            got.append((f"{cmd} swapped {u} {v}", code, capsys.readouterr().out))
    assert got == PINNED_LONG_CHAIN


# sha256 of `sym gen --seed 7` and `--seed 8` stdout on spaces whose
# tables hold many rows of 2 values, rows of 4 across four chains, rows of
# 512 values and rows of 3 and 9 values
GEN_SPACES = {
    "chain13": {"field": {"p": 2}, "m": 1, "n": 13, "pi": [[1] * 13]},
    "gf4": {"field": {"p": 2, "e": 2}, "m": 4, "n": 2, "pi": [[1, 1]] * 4},
    "rows512": {"field": {"p": 2}, "m": 1, "n": 3, "pi": [[1, 9, 1]]},
    "gf3": {"field": {"p": 3}, "m": 1, "n": 3, "pi": [[1, 2, 1]]},
}
PINNED_GEN = {
    ("chain13", 7): "4466d589cf8bfba0cc277308c8b3350ace000ac9193919fa0916159a32e802cb",
    ("chain13", 8): "072419af36cc6faed68ca3c2cc41d1103c304832848bc1cadbeadc3f845a5906",
    ("gf4", 7): "67296eaf40e0a765b187d00d51b48f09c70c557e85cf9bca6432f8020ab8ee94",
    ("gf4", 8): "8d2ea29e1d2d5cd8113fb54f8b78bf0669e68ae63a12e5c84bef00c928c3dbab",
    ("rows512", 7): "9f02fdfeb95016c4d54e847ca68584b08617ba6819fbe058e4ca680163d51e60",
    ("rows512", 8): "c890dfe133b559adb39453816248f17f23249263ae72a6393a0f3c9344d65bf8",
    ("gf3", 7): "d12bc1b4d955029d450bbef11131f98eae737c2e2e25f26770eeee0885bcffd5",
    ("gf3", 8): "47dabfec933a8445987a5a85b8870d5f24dcbb6e75d6ac9e23b32ccb6d1db585",
}


@pytest.mark.parametrize("space, seed", sorted(PINNED_GEN))
def test_seeded_draws_are_pinned(space, seed, tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(GEN_SPACES[space]))
    assert main(["sym", "gen", "--space", str(space_file), "--seed", str(seed), "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_GEN[space, seed]


# `sym apply` of seeded vectors under `sym gen --seed 7` and `--seed 8`,
# in both output formats; each label is "seed vector format"
APPLY_SPACES = {
    "mixed": {"field": {"p": 2}, "m": 2, "n": 2, "pi": [[2, 1], [1, 1]]},
    "gf3": {"field": {"p": 3}, "m": 1, "n": 3, "pi": [[1, 2, 1]]},
    "gf4": {"field": {"p": 2, "e": 2}, "m": 4, "n": 2, "pi": [[1, 1]] * 4},
}

PINNED_APPLY = {
    'mixed': [
        ('7 01,1;1,1 json', 0, '{"op":"sym.apply","vector":"01,1;0,0"}\n'),
        ('7 01,1;1,1 human', 0, '01,1;0,0\n'),
        ('7 10,0;0,1 json', 0, '{"op":"sym.apply","vector":"00,0;1,0"}\n'),
        ('7 10,0;0,1 human', 0, '00,0;1,0\n'),
        ('8 01,1;0,1 json', 0, '{"op":"sym.apply","vector":"11,0;0,0"}\n'),
        ('8 01,1;0,1 human', 0, '11,0;0,0\n'),
        ('8 10,0;1,0 json', 0, '{"op":"sym.apply","vector":"01,1;0,1"}\n'),
        ('8 10,0;1,0 human', 0, '01,1;0,1\n'),
    ],
    'gf3': [
        ('7 0,20,2 json', 0, '{"op":"sym.apply","vector":"1,22,2"}\n'),
        ('7 0,20,2 human', 0, '1,22,2\n'),
        ('7 1,20,1 json', 0, '{"op":"sym.apply","vector":"1,02,1"}\n'),
        ('7 1,20,1 human', 0, '1,02,1\n'),
        ('8 1,11,2 json', 0, '{"op":"sym.apply","vector":"0,00,0"}\n'),
        ('8 1,11,2 human', 0, '0,00,0\n'),
        ('8 2,21,1 json', 0, '{"op":"sym.apply","vector":"2,20,1"}\n'),
        ('8 2,21,1 human', 0, '2,20,1\n'),
    ],
    'gf4': [
        ('7 2,2;3,3;2,0;3,3 json', 0, '{"op":"sym.apply","vector":"2,0;0,0;0,2;0,3"}\n'),
        ('7 2,2;3,3;2,0;3,3 human', 0, '2,0;0,0;0,2;0,3\n'),
        ('7 1,2;3,2;1,2;0,2 json', 0, '{"op":"sym.apply","vector":"3,2;2,0;3,1;3,1"}\n'),
        ('7 1,2;3,2;1,2;0,2 human', 0, '3,2;2,0;3,1;3,1\n'),
        ('8 3,1;1,0;3,0;3,2 json', 0, '{"op":"sym.apply","vector":"1,2;3,3;3,2;0,0"}\n'),
        ('8 3,1;1,0;3,0;3,2 human', 0, '1,2;3,3;3,2;0,0\n'),
        ('8 2,0;0,0;1,2;0,1 json', 0, '{"op":"sym.apply","vector":"2,2;0,1;0,1;2,2"}\n'),
        ('8 2,0;0,0;1,2;0,1 human', 0, '2,2;0,1;0,1;2,2\n'),
    ],
}


@pytest.mark.parametrize("space", sorted(APPLY_SPACES))
def test_apply_outputs_are_pinned(space, tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(APPLY_SPACES[space]))
    cfg = SpaceConfig.from_json(APPLY_SPACES[space])
    common = ["--space", str(space_file)]
    rng = random.Random(12)
    got = []
    for seed in (7, 8):
        assert main(["sym", "gen", *common, "--seed", str(seed), "--format", "json"]) == 0
        sym = tmp_path / f"sym{seed}.json"
        sym.write_text(capsys.readouterr().out)
        for _ in range(2):
            vec = format_vector(cfg.unrank(rng.randrange(cfg.size)))
            for fmt in ("json", "human"):
                code = main(["sym", "apply", *common, "--sym", str(sym), "--vec", vec, "--format", fmt])
                got.append((f"{seed} {vec} {fmt}", code, capsys.readouterr().out))
    assert got == PINNED_APPLY[space]


# the counting commands; every label is also the command line
COUNT_SPACES = {
    "chain3": {"field": {"p": 2}, "m": 1, "n": 3, "pi": [[1, 1, 1]]},
    "blocks": {"field": {"p": 2}, "m": 2, "n": 2, "pi": [[1, 1], [1, 1]]},
    "gf3": {"field": {"p": 3}, "m": 2, "n": 1, "pi": [[1], [1]]},
    "gf4": {"field": {"p": 2, "e": 2}, "m": 2, "n": 1, "pi": [[1], [1]]},
    "gf3aut": {"field": {"p": 3}, "m": 2, "n": 1, "pi": [[1], [2]]},
    "big": {"field": {"p": 2}, "m": 2, "n": 2, "pi": [[2, 2], [2, 2]]},
}

PINNED_COUNTS = {
    'chain3': [
        ('order --oracle', 0, '{"mode":"oracle","op":"order","oracle_count":128}\n'),
        ('order --both', 0, '{"alt_counts":{"unit_chain":256,"unit_product":256},"discrepant":true,"formula_order":128,"match":true,"matches":{"formula":true,"unit_chain":false,"unit_product":false},"mode":"both","op":"order","oracle_count":128}\n'),
        ('report', 0, '{"alt_counts":{"unit_chain":256,"unit_product":256},"chain_orders":[128],"discrepant":true,"full_order":128,"isometry_count":128,"matches":{"formula":true,"unit_chain":false,"unit_product":false},"op":"report","s_pi_order":1,"space":{"field":{"e":1,"p":2},"m":1,"n":3,"pi":[[1,1,1]]}}\n'),
        ('aut --enumerate', 0, '{"discrepant":false,"enumerated_order":8,"formula_order":null,"op":"aut","per_block_gl_orders":[[1,1,1]],"space":{"field":{"e":1,"p":2},"m":1,"n":3,"pi":[[1,1,1]]}}\n'),
        ('aut --formula', 1, '{"chain_index":null,"error":"closed form requires a single level, this space has n = 3; use enumeration instead","op":"aut","witness":null}\n'),
    ],
    'blocks': [
        ('order --oracle', 0, '{"mode":"oracle","op":"order","oracle_count":128}\n'),
        ('order --both', 0, '{"alt_counts":{"unit_product":512},"discrepant":true,"formula_order":128,"match":true,"matches":{"formula":true,"unit_product":false},"mode":"both","op":"order","oracle_count":128}\n'),
        ('report', 0, '{"alt_counts":{"unit_product":512},"chain_orders":[8,8],"discrepant":true,"full_order":128,"isometry_count":128,"matches":{"formula":true,"unit_product":false},"op":"report","s_pi_order":2,"space":{"field":{"e":1,"p":2},"m":2,"n":2,"pi":[[1,1],[1,1]]}}\n'),
        ('aut --enumerate', 0, '{"discrepant":false,"enumerated_order":8,"formula_order":null,"op":"aut","per_block_gl_orders":[[1,1],[1,1]],"space":{"field":{"e":1,"p":2},"m":2,"n":2,"pi":[[1,1],[1,1]]}}\n'),
        ('aut --formula', 1, '{"chain_index":null,"error":"closed form requires a single level, this space has n = 2; use enumeration instead","op":"aut","witness":null}\n'),
    ],
    'gf3': [
        ('order --oracle', 0, '{"mode":"oracle","op":"order","oracle_count":72}\n'),
        ('order --both', 0, '{"alt_counts":{"unit_product":2592},"discrepant":true,"formula_order":72,"match":true,"matches":{"formula":true,"unit_product":false},"mode":"both","op":"order","oracle_count":72}\n'),
        ('report', 0, '{"alt_counts":{"unit_product":2592},"chain_orders":[6,6],"discrepant":true,"full_order":72,"isometry_count":72,"matches":{"formula":true,"unit_product":false},"op":"report","s_pi_order":2,"space":{"field":{"e":1,"p":3},"m":2,"n":1,"pi":[[1],[1]]}}\n'),
        ('aut --enumerate', 0, '{"discrepant":false,"enumerated_order":8,"formula_order":8,"op":"aut","per_block_gl_orders":[[2],[2]],"space":{"field":{"e":1,"p":3},"m":2,"n":1,"pi":[[1],[1]]}}\n'),
        ('aut --formula', 0, '{"discrepant":null,"enumerated_order":null,"formula_order":8,"op":"aut","per_block_gl_orders":[[2],[2]],"space":{"field":{"e":1,"p":3},"m":2,"n":1,"pi":[[1],[1]]}}\n'),
    ],
    'gf4': [
        ('order --oracle', 0, '{"mode":"oracle","op":"order","oracle_count":1152}\n'),
        ('order --both', 0, '{"alt_counts":{"unit_product":663552},"discrepant":true,"formula_order":1152,"match":true,"matches":{"formula":true,"unit_product":false},"mode":"both","op":"order","oracle_count":1152}\n'),
        ('report', 0, '{"alt_counts":{"unit_product":663552},"chain_orders":[24,24],"discrepant":true,"full_order":1152,"isometry_count":1152,"matches":{"formula":true,"unit_product":false},"op":"report","s_pi_order":2,"space":{"field":{"e":2,"modulus":[1,1,1],"p":2},"m":2,"n":1,"pi":[[1],[1]]}}\n'),
        ('aut --enumerate', 0, '{"discrepant":false,"enumerated_order":18,"formula_order":18,"op":"aut","per_block_gl_orders":[[3],[3]],"space":{"field":{"e":2,"modulus":[1,1,1],"p":2},"m":2,"n":1,"pi":[[1],[1]]}}\n'),
        ('aut --formula', 0, '{"discrepant":null,"enumerated_order":null,"formula_order":18,"op":"aut","per_block_gl_orders":[[3],[3]],"space":{"field":{"e":2,"modulus":[1,1,1],"p":2},"m":2,"n":1,"pi":[[1],[1]]}}\n'),
    ],
    'gf3aut': [
        ('aut --enumerate', 0, '{"discrepant":false,"enumerated_order":96,"formula_order":96,"op":"aut","per_block_gl_orders":[[2],[48]],"space":{"field":{"e":1,"p":3},"m":2,"n":1,"pi":[[1],[2]]}}\n'),
        ('aut --formula', 0, '{"discrepant":null,"enumerated_order":null,"formula_order":96,"op":"aut","per_block_gl_orders":[[2],[48]],"space":{"field":{"e":1,"p":3},"m":2,"n":1,"pi":[[1],[2]]}}\n'),
    ],
    'big': [
        ('order --oracle', 1, '{"chain_index":null,"error":"space has q^N = 256 points, over the cap 64; a full search would face 256! (about 10^507) candidate bijections before pruning","op":"order","witness":null}\n'),
        ('order --both', 1, '{"chain_index":null,"error":"space has q^N = 256 points, over the cap 64; a full search would face 256! (about 10^507) candidate bijections before pruning","op":"order","witness":null}\n'),
        ('report', 0, '{"chain_orders":[7962624,7962624],"full_order":126806761930752,"op":"report","oracle_skipped":"q^N = 256 exceeds the oracle cap 64","s_pi_order":2,"space":{"field":{"e":1,"p":2},"m":2,"n":2,"pi":[[2,2],[2,2]]}}\n'),
        ('aut --formula', 1, '{"chain_index":null,"error":"closed form requires a single level, this space has n = 2; use enumeration instead","op":"aut","witness":null}\n'),
    ],
}


@pytest.mark.parametrize("space", sorted(COUNT_SPACES))
def test_count_outputs_are_pinned(space, tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(COUNT_SPACES[space]))
    got = []
    for label, _, _ in PINNED_COUNTS[space]:
        code = main([*label.split(), "--space", str(space_file), "--format", "json"])
        got.append((label, code, capsys.readouterr().out))
    assert got == PINNED_COUNTS[space]


def _listing_digest(tables):
    return hashlib.sha256(json.dumps(tables).encode()).hexdigest()


# (p, e, pi): (length, sha256 of the JSON of the listing, in listing order)
PINNED_ISOMETRY_LISTINGS = {
    (2, 1, ((1,), (2,))): (48, '3b3b4342a903a37b47821adb93522f03ac054f728d2ab3c6ef424e8134e43f8b'),
    (2, 1, ((1, 1),)): (8, '71502cfcd55c71447cdc60e88e330260ae0807b5fab60cd313bfe05876f15bd2'),
    (3, 1, ((1,), (1,))): (72, '3ae940446b5710a9ff0229f251266c6e368e6612330ece1701ad54c7172161b8'),
}
PINNED_AUTOMORPHISM_LISTINGS = {
    (2, 1, ((2,), (1,))): (6, '2392389530e8957fedbe55b4b664b913da28aba65193ca127a21900dd48633f2'),
    (2, 1, ((1, 2), (1, 1))): (48, '361f6b2dc159b67b6194351e36c0bbd7ae427dd71dc39e3495a603ef4a907e71'),
    (2, 2, ((1,), (1,))): (18, 'f0270adf5699f65f3c02994dba82c2af40a7a6cc05e16027ca843502d9c94b59'),
}


@pytest.mark.parametrize("key", sorted(PINNED_ISOMETRY_LISTINGS))
def test_isometry_listing_order_is_pinned(key):
    p, e, pi = key
    _, tables = enumerate_isometries(SpaceConfig(Field(p, e), len(pi), len(pi[0]), pi), want_list=True)
    assert (len(tables), _listing_digest(tables)) == PINNED_ISOMETRY_LISTINGS[key]


@pytest.mark.parametrize("key", sorted(PINNED_AUTOMORPHISM_LISTINGS))
def test_automorphism_listing_order_is_pinned(key):
    p, e, pi = key
    _, tables = enumerate_automorphisms(SpaceConfig(Field(p, e), len(pi), len(pi[0]), pi), want_list=True)
    assert (len(tables), _listing_digest(tables)) == PINNED_AUTOMORPHISM_LISTINGS[key]


def _space(p, e, pi):
    return SpaceConfig(Field(p, e), len(pi), len(pi[0]), pi)


EQUIV_SPACES = {
    "hamming8": (2, 1, [[1]] * 8),
    "chain12": (2, 1, [[1] * 12]),
    "chain4": (2, 1, [[1] * 4]),
    "gf4": (2, 2, [[1, 1]] * 3),
    "wide": (2, 1, [[1] * 8] * 8),  # 2^64 points
    "chain3x2": (2, 1, [[1, 1]] * 3),
    "blocks": (2, 1, [[1, 1], [1, 1]]),
}

# name: (space, how C2 is drawn, seed, words, budget or None)
EQUIV_CASES = {
    "hamming8 scrambled": ("hamming8", "scrambled", 1, 4, None),
    "hamming8 over budget": ("hamming8", "scrambled", 1, 12, None),
    "chain12 scrambled": ("chain12", "scrambled", 2, 10, None),
    "chain12 scrambled 60": ("chain12", "scrambled", 4, 60, None),
    "chain4 forms differ": ("chain4", "drawn", 23, 5, None),
    "gf4 scrambled": ("gf4", "scrambled", 3, 8, None),
    "gf4 budget 3": ("gf4", "scrambled", 5, 8, 3),
    "wide scrambled": ("wide", "scrambled", 1, 6, None),
    "chain3x2 exhausted": ("chain3x2", "drawn", 198, 4, None),
    "blocks fallback equivalent": ("blocks", "scrambled", 6, 4, 1),
    "blocks fallback not equivalent": ("blocks", "drawn", 10, 4, 1),
}

# (verdict, reason, nodes, sha256 of the JSON of the result, the
# invariants and the weight distributions of both codes).  One-chain
# queries are decided by canonical trie forms, and their nodes count the
# trie nodes whose form was built: "chain12 scrambled 60" came back
# inconclusive at 200001 nodes from the codeword backtrack, and "chain4
# forms differ" has equal distance distributions on both sides
PINNED_EQUIV = {
    'hamming8 scrambled': ('equivalent', None, 107174, '20f3f4cf4b5dd25a2c11118c3ed44ce06248f33cc867138ea1c79bd107553e0f'),
    'hamming8 over budget': ('inconclusive', 'budget exhausted', 200001, '74df9689dd323b95ad6d0f41693b2297f10eb92fee6d716faf7a11dc80c8bc48'),
    'chain12 scrambled': ('equivalent', None, 174, 'ad09622f8d562daef75d7e9ea89158f76c6c8ba9c68383c58c4b0965b7b69149'),
    'chain12 scrambled 60': ('equivalent', None, 762, '90a7a7381da3a2799d8f7de970d04c61841bd41b4682f85f8a82f143e693bc57'),
    'chain4 forms differ': ('not_equivalent', 'chain forms differ', 20, '3995cf2c041e345e5b68d90d53e9e15a76fb108b1df0daa5a1b816909b36d8e8'),
    'gf4 scrambled': ('equivalent', None, 1198, 'd940f83b92b25ee4b74f1244e4fa2c4609b52b9eb379ce13d245814c19d71c63'),
    'gf4 budget 3': ('inconclusive', 'budget exhausted', 4, 'a86ccebbcce510ca5dc8786d50e6fa39f2e52b20acb3922b43fcadbb2f092c9e'),
    'wide scrambled': ('equivalent', None, 139193, 'a66ab79b1642db0a1137a90d2003775d15d16d5320f7072dd8dc4232d9c81e24'),
    'chain3x2 exhausted': ('not_equivalent', 'search exhausted', 113, '26357560655374a3f8788618efbc910a5014603e13cc35870dd495682c3f1189'),
    'blocks fallback equivalent': ('equivalent', None, 2, 'ee58e92e770c7f81e9d9931ca771a0a048918d2e928696ad581b8d4ed1b9aabf'),
    'blocks fallback not equivalent': ('not_equivalent', 'every isometry checked', 2, '582bd502c1c5bb20edb09fc6e679058ba40861212046ba83000ef4f44d0d2da5'),
}


def equiv_case(name):
    key, how, seed, words, budget = EQUIV_CASES[name]
    cfg = _space(*EQUIV_SPACES[key])
    rng = random.Random(seed)
    if how == "scrambled":
        c1 = Code(cfg, [rng.randrange(cfg.size) for _ in range(words)])
        c2 = apply_to_code(random_symmetry(cfg, rng.getrandbits(32)), c1)
    else:
        c1 = Code(cfg, rng.sample(range(cfg.size), words))
        c2 = Code(cfg, rng.sample(range(cfg.size), words))
    return c1, c2, budget


@pytest.mark.parametrize("name", sorted(EQUIV_CASES))
def test_equivalence_outputs_are_pinned(name):
    c1, c2, budget = equiv_case(name)
    res = equivalent(c1, c2) if budget is None else equivalent(c1, c2, budget=budget)
    doc = {
        "equiv": res.to_json(),
        "invariants": [code_invariants(c1), code_invariants(c2)],
        "weights": [sorted(Counter(map(weight, c.vectors())).items()) for c in (c1, c2)],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    got = (res.verdict, res.reason, res.nodes, hashlib.sha256(text.encode()).hexdigest())
    assert got == PINNED_EQUIV[name]


def test_codes_refuse_a_chain_of_2_to_the_63_points(tmp_path, capsys):
    # no ChainSymmetry fits such a chain: its first level table alone
    # would hold 2^70 entries
    spec = {"field": {"p": 2}, "m": 1, "n": 70, "pi": [[1] * 70]}
    with pytest.raises(UsageError, match=r"chain 1 has 2\^70 points.*2\^63"):
        Code(SpaceConfig.from_json(spec), [0, 1])
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(spec))
    words = ["0," * 69 + "0", "1," * 69 + "0"]
    for name in ("c1.txt", "c2.txt"):
        (tmp_path / name).write_text("\n".join(words) + "\n")
    argv = ["equiv", "--space", str(space_file), "--format", "json",
            "--c1", str(tmp_path / "c1.txt"), "--c2", str(tmp_path / "c2.txt")]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("ohb: error: chain 1 has 2^70 points")


# The human format of every subcommand, recorded from the same release as
# the JSON pins.  First the calls of test_cli_outputs_are_pinned, each made
# in the human format just before its JSON call, which writes the files
# that later calls read
PINNED_HUMAN = {
    'chain': [
        ('gen 7', 0, 'sigma: 1\nchain 1 level 1 tail 0: 1 0\nchain 1 level 1 tail 1: 0 1\nchain 1 level 1 tail 2: 1 0\nchain 1 level 1 tail 3: 1 0\nchain 1 level 1 tail 4: 1 0\nchain 1 level 1 tail 5: 0 1\nchain 1 level 1 tail 6: 1 0\nchain 1 level 1 tail 7: 1 0\nchain 1 level 2 tail 0: 1 0\nchain 1 level 2 tail 1: 1 0\nchain 1 level 2 tail 2: 0 1\nchain 1 level 2 tail 3: 0 1\nchain 1 level 3 tail 0: 1 0\nchain 1 level 3 tail 1: 1 0\nchain 1 level 4 tail 0: 1 0\n'),
        ('gen 8', 0, 'sigma: 1\nchain 1 level 1 tail 0: 0 1\nchain 1 level 1 tail 1: 0 1\nchain 1 level 1 tail 2: 1 0\nchain 1 level 1 tail 3: 1 0\nchain 1 level 1 tail 4: 1 0\nchain 1 level 1 tail 5: 1 0\nchain 1 level 1 tail 6: 1 0\nchain 1 level 1 tail 7: 1 0\nchain 1 level 2 tail 0: 1 0\nchain 1 level 2 tail 1: 0 1\nchain 1 level 2 tail 2: 1 0\nchain 1 level 2 tail 3: 0 1\nchain 1 level 3 tail 0: 0 1\nchain 1 level 3 tail 1: 0 1\nchain 1 level 4 tail 0: 0 1\n'),
        ('compose', 0, 'sigma: 1\nchain 1 level 1 tail 0: 0 1\nchain 1 level 1 tail 1: 1 0\nchain 1 level 1 tail 2: 0 1\nchain 1 level 1 tail 3: 0 1\nchain 1 level 1 tail 4: 1 0\nchain 1 level 1 tail 5: 0 1\nchain 1 level 1 tail 6: 0 1\nchain 1 level 1 tail 7: 0 1\nchain 1 level 2 tail 0: 0 1\nchain 1 level 2 tail 1: 1 0\nchain 1 level 2 tail 2: 1 0\nchain 1 level 2 tail 3: 0 1\nchain 1 level 3 tail 0: 1 0\nchain 1 level 3 tail 1: 1 0\nchain 1 level 4 tail 0: 1 0\n'),
        ('invert', 0, 'sigma: 1\nchain 1 level 1 tail 0: 0 1\nchain 1 level 1 tail 1: 0 1\nchain 1 level 1 tail 2: 0 1\nchain 1 level 1 tail 3: 1 0\nchain 1 level 1 tail 4: 0 1\nchain 1 level 1 tail 5: 0 1\nchain 1 level 1 tail 6: 0 1\nchain 1 level 1 tail 7: 1 0\nchain 1 level 2 tail 0: 0 1\nchain 1 level 2 tail 1: 1 0\nchain 1 level 2 tail 2: 1 0\nchain 1 level 2 tail 3: 0 1\nchain 1 level 3 tail 0: 1 0\nchain 1 level 3 tail 1: 1 0\nchain 1 level 4 tail 0: 1 0\n'),
        ('decompose good', 0, 'sigma: 1\nchain 1 level 1 tail 0: 0 1\nchain 1 level 1 tail 1: 1 0\nchain 1 level 1 tail 2: 0 1\nchain 1 level 1 tail 3: 0 1\nchain 1 level 1 tail 4: 1 0\nchain 1 level 1 tail 5: 0 1\nchain 1 level 1 tail 6: 0 1\nchain 1 level 1 tail 7: 0 1\nchain 1 level 2 tail 0: 0 1\nchain 1 level 2 tail 1: 1 0\nchain 1 level 2 tail 2: 1 0\nchain 1 level 2 tail 3: 0 1\nchain 1 level 3 tail 0: 1 0\nchain 1 level 3 tail 1: 1 0\nchain 1 level 4 tail 0: 1 0\n'),
        ('decompose swapped 0 2', 1, 'error: distance not preserved for ranks 0 and 1 (witness ranks 0, 1)\n'),
        ('decompose swapped 5 12', 1, 'error: distance not preserved for ranks 0 and 5 (witness ranks 0, 5)\n'),
        ('decompose non-bijection', 1, 'error: not a bijection: ranks 0 and 2 share the image 12 (witness ranks 0, 2)\n'),
    ],
    'gf3': [
        ('gen 7', 0, 'sigma: 2 1\nchain 1 level 1 tail 0: 2 0 1\nchain 1 level 1 tail 1: 1 2 0\nchain 1 level 1 tail 2: 2 0 1\nchain 1 level 1 tail 3: 1 0 2\nchain 1 level 1 tail 4: 1 2 0\nchain 1 level 1 tail 5: 0 2 1\nchain 1 level 1 tail 6: 1 2 0\nchain 1 level 1 tail 7: 2 1 0\nchain 1 level 1 tail 8: 1 2 0\nchain 1 level 2 tail 0: 1 2 5 7 8 6 4 0 3\nchain 2 level 1 tail 0: 1 0 2\nchain 2 level 1 tail 1: 0 2 1\nchain 2 level 1 tail 2: 1 2 0\nchain 2 level 1 tail 3: 0 1 2\nchain 2 level 1 tail 4: 1 0 2\nchain 2 level 1 tail 5: 1 2 0\nchain 2 level 1 tail 6: 2 0 1\nchain 2 level 1 tail 7: 1 0 2\nchain 2 level 1 tail 8: 1 0 2\nchain 2 level 2 tail 0: 0 6 1 2 8 4 5 7 3\n'),
        ('gen 8', 0, 'sigma: 1 2\nchain 1 level 1 tail 0: 2 0 1\nchain 1 level 1 tail 1: 1 2 0\nchain 1 level 1 tail 2: 1 2 0\nchain 1 level 1 tail 3: 1 2 0\nchain 1 level 1 tail 4: 2 0 1\nchain 1 level 1 tail 5: 0 2 1\nchain 1 level 1 tail 6: 0 2 1\nchain 1 level 1 tail 7: 2 0 1\nchain 1 level 1 tail 8: 2 0 1\nchain 1 level 2 tail 0: 5 4 1 8 2 0 6 3 7\nchain 2 level 1 tail 0: 1 0 2\nchain 2 level 1 tail 1: 0 1 2\nchain 2 level 1 tail 2: 1 2 0\nchain 2 level 1 tail 3: 0 2 1\nchain 2 level 1 tail 4: 1 2 0\nchain 2 level 1 tail 5: 2 0 1\nchain 2 level 1 tail 6: 1 0 2\nchain 2 level 1 tail 7: 2 0 1\nchain 2 level 1 tail 8: 1 0 2\nchain 2 level 2 tail 0: 7 6 2 4 8 5 3 0 1\n'),
        ('compose', 0, 'sigma: 2 1\nchain 1 level 1 tail 0: 1 0 2\nchain 1 level 1 tail 1: 2 0 1\nchain 1 level 1 tail 2: 2 0 1\nchain 1 level 1 tail 3: 2 0 1\nchain 1 level 1 tail 4: 1 2 0\nchain 1 level 1 tail 5: 2 1 0\nchain 1 level 1 tail 6: 1 0 2\nchain 1 level 1 tail 7: 2 1 0\nchain 1 level 1 tail 8: 0 2 1\nchain 1 level 2 tail 0: 6 8 2 3 5 1 4 7 0\nchain 2 level 1 tail 0: 0 1 2\nchain 2 level 1 tail 1: 2 0 1\nchain 2 level 1 tail 2: 2 0 1\nchain 2 level 1 tail 3: 1 2 0\nchain 2 level 1 tail 4: 0 2 1\nchain 2 level 1 tail 5: 0 1 2\nchain 2 level 1 tail 6: 1 0 2\nchain 2 level 1 tail 7: 2 1 0\nchain 2 level 1 tail 8: 2 0 1\nchain 2 level 2 tail 0: 7 5 1 8 3 4 2 0 6\n'),
        ('invert', 0, 'sigma: 2 1\nchain 1 level 1 tail 0: 2 1 0\nchain 1 level 1 tail 1: 1 2 0\nchain 1 level 1 tail 2: 1 0 2\nchain 1 level 1 tail 3: 0 2 1\nchain 1 level 1 tail 4: 0 1 2\nchain 1 level 1 tail 5: 1 2 0\nchain 1 level 1 tail 6: 1 2 0\nchain 1 level 1 tail 7: 0 1 2\nchain 1 level 1 tail 8: 2 0 1\nchain 1 level 2 tail 0: 7 2 6 4 5 1 8 0 3\nchain 2 level 1 tail 0: 0 2 1\nchain 2 level 1 tail 1: 2 1 0\nchain 2 level 1 tail 2: 1 2 0\nchain 2 level 1 tail 3: 1 2 0\nchain 2 level 1 tail 4: 1 0 2\nchain 2 level 1 tail 5: 2 0 1\nchain 2 level 1 tail 6: 1 0 2\nchain 2 level 1 tail 7: 2 1 0\nchain 2 level 1 tail 8: 1 2 0\nchain 2 level 2 tail 0: 8 5 2 3 6 4 0 7 1\n'),
        ('decompose good', 0, 'sigma: 2 1\nchain 1 level 1 tail 0: 1 0 2\nchain 1 level 1 tail 1: 2 0 1\nchain 1 level 1 tail 2: 2 0 1\nchain 1 level 1 tail 3: 2 0 1\nchain 1 level 1 tail 4: 1 2 0\nchain 1 level 1 tail 5: 2 1 0\nchain 1 level 1 tail 6: 1 0 2\nchain 1 level 1 tail 7: 2 1 0\nchain 1 level 1 tail 8: 0 2 1\nchain 1 level 2 tail 0: 6 8 2 3 5 1 4 7 0\nchain 2 level 1 tail 0: 0 1 2\nchain 2 level 1 tail 1: 2 0 1\nchain 2 level 1 tail 2: 2 0 1\nchain 2 level 1 tail 3: 1 2 0\nchain 2 level 1 tail 4: 0 2 1\nchain 2 level 1 tail 5: 0 1 2\nchain 2 level 1 tail 6: 1 0 2\nchain 2 level 1 tail 7: 2 1 0\nchain 2 level 1 tail 8: 2 0 1\nchain 2 level 2 tail 0: 7 5 1 8 3 4 2 0 6\n'),
        ('decompose swapped 0 3', 1, 'error: distance not preserved for ranks 0 and 1 (witness ranks 0, 1)\n'),
        ('decompose swapped 27 81', 1, 'error: distance not preserved for ranks 0 and 27 (witness ranks 0, 27)\n'),
        ('decompose non-bijection', 1, 'error: not a bijection: ranks 0 and 3 share the image 534 (witness ranks 0, 3)\n'),
    ],
}


@pytest.mark.parametrize("space", sorted(SPACES))
def test_cli_outputs_are_pinned_in_human_format(space, tmp_path, capsys, monkeypatch):
    run, human = main, []

    def both(argv):
        code = run([*argv[:-1], "human"])  # argv ends in "--format", "json"
        human.append((code, capsys.readouterr().out))
        return run(argv)

    monkeypatch.setitem(globals(), "main", both)
    labels = [label for label, _, _ in session(space, tmp_path, capsys)]
    assert [(label, *out) for label, out in zip(labels, human)] == PINNED_HUMAN[space]


# the command lines of test_count_outputs_are_pinned in the human format
PINNED_COUNTS_HUMAN = {
    'big': [
        ('order --oracle', 1, 'error: space has q^N = 256 points, over the cap 64; a full search would face 256! (about 10^507) candidate bijections before pruning\n'),
        ('order --both', 1, 'error: space has q^N = 256 points, over the cap 64; a full search would face 256! (about 10^507) candidate bijections before pruning\n'),
        ('report', 0, 'space: q=2^1 m=2 n=2 pi=[[2, 2], [2, 2]]\nchain orders: 7962624 7962624\nadmissible permutations: 2\nfull order: 126806761930752\noracle skipped: q^N = 256 exceeds the oracle cap 64\n'),
        ('aut --formula', 1, 'error: closed form requires a single level, this space has n = 2; use enumeration instead\n'),
    ],
    'blocks': [
        ('order --oracle', 0, 'oracle 128\n'),
        ('order --both', 0, 'formula 128, oracle 128, match\nalternate unit_product: 512, MISMATCH (flagged)\n'),
        ('report', 0, 'space: q=2^1 m=2 n=2 pi=[[1, 1], [1, 1]]\nchain orders: 8 8\nadmissible permutations: 2\nfull order: 128\noracle count: 128 (match)\nalternate unit_product: 512, MISMATCH (flagged)\nDISCREPANT\n'),
        ('aut --enumerate', 0, 'enumerated 8\n'),
        ('aut --formula', 1, 'error: closed form requires a single level, this space has n = 2; use enumeration instead\n'),
    ],
    'chain3': [
        ('order --oracle', 0, 'oracle 128\n'),
        ('order --both', 0, 'formula 128, oracle 128, match\nalternate unit_chain: 256, MISMATCH (flagged)\nalternate unit_product: 256, MISMATCH (flagged)\n'),
        ('report', 0, 'space: q=2^1 m=1 n=3 pi=[[1, 1, 1]]\nchain orders: 128\nadmissible permutations: 1\nfull order: 128\noracle count: 128 (match)\nalternate unit_chain: 256, MISMATCH (flagged)\nalternate unit_product: 256, MISMATCH (flagged)\nDISCREPANT\n'),
        ('aut --enumerate', 0, 'enumerated 8\n'),
        ('aut --formula', 1, 'error: closed form requires a single level, this space has n = 3; use enumeration instead\n'),
    ],
    'gf3': [
        ('order --oracle', 0, 'oracle 72\n'),
        ('order --both', 0, 'formula 72, oracle 72, match\nalternate unit_product: 2592, MISMATCH (flagged)\n'),
        ('report', 0, 'space: q=3^1 m=2 n=1 pi=[[1], [1]]\nchain orders: 6 6\nadmissible permutations: 2\nfull order: 72\noracle count: 72 (match)\nalternate unit_product: 2592, MISMATCH (flagged)\nDISCREPANT\n'),
        ('aut --enumerate', 0, 'formula 8\nenumerated 8\n'),
        ('aut --formula', 0, 'formula 8\n'),
    ],
    'gf3aut': [
        ('aut --enumerate', 0, 'formula 96\nenumerated 96\n'),
        ('aut --formula', 0, 'formula 96\n'),
    ],
    'gf4': [
        ('order --oracle', 0, 'oracle 1152\n'),
        ('order --both', 0, 'formula 1152, oracle 1152, match\nalternate unit_product: 663552, MISMATCH (flagged)\n'),
        ('report', 0, 'space: q=2^2 m=2 n=1 pi=[[1], [1]]\nchain orders: 24 24\nadmissible permutations: 2\nfull order: 1152\noracle count: 1152 (match)\nalternate unit_product: 663552, MISMATCH (flagged)\nDISCREPANT\n'),
        ('aut --enumerate', 0, 'formula 18\nenumerated 18\n'),
        ('aut --formula', 0, 'formula 18\n'),
    ],
}


@pytest.mark.parametrize("space", sorted(COUNT_SPACES))
def test_count_outputs_are_pinned_in_human_format(space, tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(COUNT_SPACES[space]))
    got = []
    for label, _, _ in PINNED_COUNTS[space]:
        code = main([*label.split(), "--space", str(space_file), "--format", "human"])
        got.append((label, code, capsys.readouterr().out))
    assert got == PINNED_COUNTS_HUMAN[space]


def human_calls(space, tmp_path, capsys):
    """weight, dist, sym verify and equiv in the human format on one space
    of SPACES: (label, exit code, stdout).  A label is the command line,
    with each file named by what it holds."""
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(SPACES[space]))
    cfg = SpaceConfig.from_json(SPACES[space])
    rng = random.Random(1)  # its drawn code is not equivalent to c1 on either space
    out = []

    def call(label, *argv):
        code = main([*argv, "--space", str(space_file), "--format", "human"])
        out.append((label, code, capsys.readouterr().out))

    def save(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    u, v = (format_vector(cfg.unrank(rng.randrange(cfg.size))) for _ in range(2))
    call(f"weight --vec {u}", "weight", "--vec", u)
    call(f"weight --vec {v}", "weight", "--vec", v)
    call(f"dist --u {u} --v {v}", "dist", "--u", u, "--v", v)
    T = random_symmetry(cfg, 7)
    call("sym verify --sym gen7", "sym", "verify", "--sym", save("t.json", json.dumps(T.to_json())))
    table = as_rank_table(T)
    call("sym verify --map gen7", "sym", "verify", "--map", save("good.tbl", json.dumps(table.tolist())))
    for a, b in SWAPS[space]:
        bad = table.copy()
        bad[[a, b]] = bad[[b, a]]
        call(f"sym verify --map gen7 swapped {a} {b}", "sym", "verify", "--map", save("bad.tbl", json.dumps(bad.tolist())))
    c1 = Code(cfg, rng.sample(range(cfg.size), 4))
    others = {"scrambled": apply_to_code(random_symmetry(cfg, 8), c1),
              "drawn": Code(cfg, rng.sample(range(cfg.size), 4))}
    files = {name: save(f"{name}.json", json.dumps(c.to_json())) for name, c in [("c1", c1), *others.items()]}
    for name in others:
        call(f"equiv --c1 c1 --c2 {name}", "equiv", "--c1", files["c1"], "--c2", files[name])
        call(f"equiv --c1 c1 --c2 {name} --budget 1", "equiv", "--c1", files["c1"], "--c2", files[name], "--budget", "1")
    return out


PINNED_HUMAN_CALLS = {
    'chain': [
        ('weight --vec 0,0,1,0', 0, '3\n'),
        ('weight --vec 0,1,0,0', 0, '2\n'),
        ('dist --u 0,0,1,0 --v 0,1,0,0', 0, '3\n'),
        ('sym verify --sym gen7', 0, 'valid\n'),
        ('sym verify --map gen7', 0, 'valid\n'),
        ('sym verify --map gen7 swapped 0 2', 1, 'invalid: distance not preserved for ranks 0 and 1 (witness ranks 0, 1)\n'),
        ('sym verify --map gen7 swapped 5 12', 1, 'invalid: distance not preserved for ranks 0 and 5 (witness ranks 0, 5)\n'),
        ('equiv --c1 c1 --c2 scrambled', 0, 'equivalent (witness found, 22 nodes)\n'),
        ('equiv --c1 c1 --c2 scrambled --budget 1', 0, 'equivalent (witness found, 22 nodes)\n'),
        ('equiv --c1 c1 --c2 drawn', 0, 'not equivalent: distance distribution mismatch (0 nodes)\n'),
        ('equiv --c1 c1 --c2 drawn --budget 1', 0, 'not equivalent: distance distribution mismatch (0 nodes)\n'),
    ],
    'gf3': [
        ('weight --vec 2,00;2,10', 0, '3\n'),
        ('weight --vec 0,21;0,12', 0, '4\n'),
        ('dist --u 2,00;2,10 --v 0,21;0,12', 0, '4\n'),
        ('sym verify --sym gen7', 0, 'valid\n'),
        ('sym verify --map gen7', 0, 'valid\n'),
        ('sym verify --map gen7 swapped 0 3', 1, 'invalid: distance not preserved for ranks 0 and 1 (witness ranks 0, 1)\n'),
        ('sym verify --map gen7 swapped 27 81', 1, 'invalid: distance not preserved for ranks 0 and 27 (witness ranks 0, 27)\n'),
        ('equiv --c1 c1 --c2 scrambled', 0, 'equivalent (witness found, 4 nodes)\n'),
        ('equiv --c1 c1 --c2 scrambled --budget 1', 0, 'inconclusive: budget exhausted (2 nodes)\n'),
        ('equiv --c1 c1 --c2 drawn', 0, 'not equivalent: distance distribution mismatch (0 nodes)\n'),
        ('equiv --c1 c1 --c2 drawn --budget 1', 0, 'not equivalent: distance distribution mismatch (0 nodes)\n'),
    ],
}


@pytest.mark.parametrize("space", sorted(SPACES))
def test_human_outputs_are_pinned(space, tmp_path, capsys):
    assert human_calls(space, tmp_path, capsys) == PINNED_HUMAN_CALLS[space]
