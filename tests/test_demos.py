"""The narrative demos and the README quick start run as shipped."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
# the demos that take a seed; code_shuffle.py requires one
SEEDED = {"chain_symmetries.py", "code_shuffle.py"}


def test_every_demo_is_listed():
    assert SEEDED <= set(DEMOS)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["--seed", "1"] if demo in SEEDED else []
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *args],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.split() == ["3", "128"]
