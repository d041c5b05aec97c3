"""Each CLI command executes only the layers it runs.

`cli` registers `circuit`, `gammafn`, `gate` and `fock` to execute on their
first attribute read, so `convert`, `cycle`, `figure3` and `snl` never pay
for them.  This session has imported every module already, so each case
runs in a fresh interpreter.  `type()` reads no attribute of a module, so
`type(module) is types.ModuleType` tells an executed module from one that
is registered and still waiting, without executing it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("su11otto.circuit", "su11otto.fock", "su11otto.gammafn", "su11otto.gate")

# the deferred modules each command executes
EXECUTES = {
    "convert": [],
    "cycle": [],
    "figure3": [],
    "snl": [],
    "figure4": ["su11otto.circuit", "su11otto.gammafn"],
    "circuit": ["su11otto.circuit", "su11otto.gammafn"],
    "oracle": ["su11otto.fock", "su11otto.gate"],
}
ARGS = {"convert": ["convert", "--zeta", "1", "--phi", "0.5"]}
EXIT = {"oracle": 2}  # the printed discrepancies, nothing failed

TINY = {
    "sweep": {"zeta_panels": [2.0], "phi_points": 50},
    "circuit": {"t_f_points": 16},
    "oracle": {"n_max": 60, "algebra_n_max": 4, "beta_omega": [2.0], "zeta_grid": [0.3],
               "phi_grid": [0.5]},
}

COMMAND_SCRIPT = """
import json, sys, types
deferred = json.loads(sys.argv[1])

def executed():
    return [n for n in deferred if n in sys.modules and type(sys.modules[n]) is types.ModuleType]

import su11otto
import su11otto.cli as cli
from su11otto.config import load_config
load_config(sys.argv[2])
state = {
    "loaded": sorted(sys.modules),
    "bound": [n for n in deferred if getattr(su11otto, n.split(".")[1], None) is sys.modules.get(n)],
    "after_setup": executed(),
}
state["exit"] = cli.main(["--config", sys.argv[2], "--out", sys.argv[3], *sys.argv[4:]])
state["after_command"] = executed()
print(json.dumps(state))
"""

PREIMPORT_SCRIPT = """
import json, sys
import su11otto.gate as g
import su11otto.cli as cli
print(json.dumps({"kept": sys.modules["su11otto.gate"] is g, "read": cli.gate is g}))
"""


def _span_modules() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_spans_modules", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {module for _, module, _ in spans.TARGETS}


def _run(*argv) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", *argv], capture_output=True, text=True, env=env,
                         check=True)
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", EXECUTES)
def test_each_command_executes_only_its_layers(tmp_path, command):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    state = _run(COMMAND_SCRIPT, json.dumps(DEFERRED), str(config), str(tmp_path),
                 *ARGS.get(command, [command]))
    # the span tracer indexes sys.modules for every module it wraps
    assert _span_modules() <= set(state["loaded"])
    assert state["bound"] == list(DEFERRED)
    assert state["after_setup"] == []
    assert state["exit"] == EXIT.get(command, 0)
    assert state["after_command"] == EXECUTES[command]


def test_a_module_imported_first_is_kept():
    assert _run(PREIMPORT_SCRIPT) == {"kept": True, "read": True}
