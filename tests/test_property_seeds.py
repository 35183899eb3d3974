"""Every property test pins its examples with an explicit @seed.

Under the derandomized profile (conftest.py) hypothesis seeds a test
without one from a hash of its source, so any edit to its body, even a
renamed helper, would silently swap the examples it draws for others.
"""

import ast
from pathlib import Path


def decorator_names(func):
    return {d.func.id for d in func.decorator_list if isinstance(d, ast.Call) and isinstance(d.func, ast.Name)}


def test_every_given_test_has_a_seed():
    given, unpinned = [], []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and "given" in decorator_names(node):
                given.append(node.name)
                if "seed" not in decorator_names(node):
                    unpinned.append(f"{path.name}::{node.name}")
    assert len(given) >= 15  # the property tests are found at all
    assert unpinned == []
