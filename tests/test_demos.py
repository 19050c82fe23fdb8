"""The demo scripts and the README's python blocks run from a checkout
with only ``src`` on the path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import readme_python_blocks

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["json_workflow.py", "radford_sweedler.py",
                                  "simplicial_tower.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    if demo == "simplicial_tower.py":
        assert "composite == closed form: True" in run.stdout


README_BLOCKS = readme_python_blocks()


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"readme-{k}" for k in range(len(README_BLOCKS))])
def test_readme_block_exits_zero(block):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", block], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
