"""Every demo in demos/ runs to exit 0 in a child process, with every
warning turned into an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0_without_warnings(demo, tmp_path):
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
