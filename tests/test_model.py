"""Neither the test model nor the benchmark reference it loads imports ohb."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def ohb_imports(tree):
    """The ohb modules a module imports, anywhere in it."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] == "ohb"]


@pytest.mark.parametrize("path", ["tests/model.py", "perfbench/reference.py"])
def test_the_model_imports_no_ohb_module(path):
    assert ohb_imports(ast.parse((ROOT / path).read_text(encoding="utf-8"))) == []


def test_the_guard_sees_an_ohb_import():
    tree = ast.parse("import numpy, ohb.space\nfrom ohb import x\nfrom . import y\ndef f():\n    import ohb\n")
    assert ohb_imports(tree) == ["ohb.space", "ohb", "ohb"]
