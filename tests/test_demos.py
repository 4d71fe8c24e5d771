"""The narrative scripts in demos/ run to completion against this package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trimreg

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    src = str(Path(trimreg.__file__).resolve().parents[1])
    env = dict(os.environ, MPLBACKEND="Agg")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::FutureWarning", "-W", "error::RuntimeWarning",
         "-W", "error::DeprecationWarning", "-W", "error::PendingDeprecationWarning",
         str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
