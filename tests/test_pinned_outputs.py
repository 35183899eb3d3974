"""Seeded CLI outputs pinned byte for byte.

Each case runs one `ohb ... --format json` call and compares its exit
code and stdout with bytes recorded from ohb 0.1.0.  A mismatch means
the JSON format, the order of the seeded draws, or the choice of a
rejection witness changed.
"""

import json

import pytest

from ohb import SpaceConfig, Symmetry, as_rank_table
from ohb.cli import main

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
