"""The runtime needs numpy only: pyproject.toml declares no other dependency,
so no su11otto module may load scipy, not even through the oracle.  Nor may
one take a long double, whose width differs across platforms."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# a small oracle run: every layer of the gate, one grid point, no second basis
TINY_ORACLE = {
    "oracle": {
        "n_max": 60,
        "algebra_n_max": 4,
        "beta_omega": [2.0],
        "zeta_grid": [0.3],
        "phi_grid": [0.5],
    }
}

SCRIPT = """
import importlib, json, pkgutil, sys
import su11otto
from su11otto.cli import main
for module in pkgutil.iter_modules(su11otto.__path__):
    # reading the namespace executes a module the CLI registered for a deferred load
    vars(importlib.import_module("su11otto." + module.name))
code = main(["--config", sys.argv[1], "--out", sys.argv[2], "oracle"])
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"exit": code, "scipy": loaded}))
"""


def test_oracle_run_loads_no_scipy(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_ORACLE))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    outcome = json.loads(run.stdout.splitlines()[-1])
    assert outcome["exit"] == 2  # the printed discrepancies, nothing failed
    assert outcome["scipy"] == []
    assert (tmp_path / "oracle_report.csv").exists()


def test_no_module_takes_a_long_double():
    # np.longdouble is 80-bit on x86 Linux but plain double on MSVC and macOS
    # arm64: a check that leans on it passes on one platform and fails on another
    users = sorted(p.name for p in (SRC / "su11otto").glob("*.py") if "longdouble" in p.read_text())
    assert users == []
