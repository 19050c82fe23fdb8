"""The demo scripts run from a checkout with only ``src`` on the path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
