"""Import cost: the package and the CLI load numpy, not SciPy.

SciPy is imported inside the few functions that use it, so a process that
only fits or enumerates never pays for it.  Each check runs in a fresh
interpreter, because this test process has SciPy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Writes a 14-row line with three outliers, runs cli.main on each argv list
# given as JSON in argv[1], and prints the exit codes and loaded scipy modules.
_RUN = """
import json, sys
import numpy as np
import trimreg, trimreg.cli
from trimreg.cli import main

rng = np.random.default_rng(0)
x = rng.standard_normal(14)
y = 1.0 + 2.0 * x + 0.1 * rng.standard_normal(14)
y[:3] += 10.0
np.savetxt("data.csv", np.column_stack([x, y]), delimiter=",", header="x,y",
           comments="")
codes = [main(argv + ["--output", "out.json"]) for argv in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _modules_after(tmp_path, argvs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fit_and_enumerate_load_no_scipy(tmp_path):
    data = ["--input", "data.csv", "--alpha", "0.5"]
    out = _modules_after(tmp_path, [["fit", *data], ["enumerate", *data]])
    assert out["codes"] == [0, 0]
    assert out["scipy"] == []


def test_simulate_normality_loads_special_only(tmp_path):
    argv = ["simulate-normality", "--n", "30", "--reps", "200", "--p", "2",
            "--starts", "5", "--seed", "1"]
    out = _modules_after(tmp_path, [argv])
    assert out["codes"] == [0]
    assert "scipy.special" in out["scipy"]
    assert not [m for m in out["scipy"] if m.startswith("scipy.stats")]
