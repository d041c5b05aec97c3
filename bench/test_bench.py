"""Checks of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

* every metric in BENCHMARK.json is emitted, with its unit;
* the traced counts repeat exactly between two traced runs;
* after a traced run every patched attribute is the original object again;
* the known gate defect that the `oracle` seeds stay clear of still exists
  (a strict xfail: it starts failing once the program is fixed).
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import su11otto.cli as cli  # noqa: E402
import checks  # noqa: E402
from spans import TARGETS, Instrumentation, Tracer, layer_metrics  # noqa: E402

# a small oracle: n_max=60 is the least the fixed variance arbitration at beta*omega=0.5
# accepts; zeta=2.5 trips the guard; every gate stage runs
TINY_ORACLE = {"oracle": {"n_max": 60, "algebra_n_max": 6, "beta_omega": [1.0, 2.0],
                          "zeta_grid": [0.2, 2.5], "phi_grid": [0.5, 2.0]}}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    result = _run_bench(trace)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == expected


def _traced(commands, config_path: Path, out: Path) -> dict:
    tracer = Tracer()
    with Instrumentation(tracer), contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["--config", str(config_path), "--out", str(out), c]) for c in commands]
    return codes, layer_metrics(tracer)


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_traced_counts_repeat_exactly(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_ORACLE))
    commands = ("oracle", "cycle", "figure3", "figure4", "snl", "circuit")
    codes_a, first = _traced(commands, config, tmp_path / "a")
    codes_b, second = _traced(commands, config, tmp_path / "b")
    assert codes_a == codes_b == [2, 0, 0, 0, 0, 0]
    assert _counts(first) == _counts(second)
    assert first["fock.guard_trips"] > 0 and first["fock.matmul_flop"] > 0
    assert first["gate.skipped"] > 0 and first["metrology.minimize_calls"] > 0


def _snapshot() -> dict:
    """Identity of every attribute of every su11otto module and of the traced classes."""
    owners = [m for n, m in sys.modules.items() if n == "su11otto" or n.startswith("su11otto.")]
    fock = sys.modules["su11otto.fock"]
    owners += [fock.BlockOperator, fock.FockWorkspace]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_instrumentation_restores_every_patched_attribute(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_ORACLE))
    before = _snapshot()
    tracer = Tracer()
    instr = Instrumentation(tracer)
    with instr, contextlib.redirect_stdout(io.StringIO()):
        assert len(instr.patched) > len(TARGETS)  # names re-bound by importing modules
        cli.main(["--config", str(config), "--out", str(tmp_path / "o"), "oracle"])
    assert instr.restored()
    after = _snapshot()  # a run may add attributes such as __warningregistry__
    assert all(after.get(k) is v for k, v in before.items())
    assert {s.name for s in tracer.spans} >= {"fock.matmul", "fock.eigh", "gate.run"}


@pytest.mark.xfail(strict=True, reason="known gate defect: the truncation guard admits phi=1.3 at "
                   "bw=0.25, zeta=0.8 (boundary occupancy 5.7e-9 < 1e-8) while <H> misses its "
                   "closed form by 2.2e-7 > 1e-7; remove this marker once the guard is sharpened")
def test_known_guard_band_defect(tmp_path):
    """Points just inside the guard must not fail: the band the `oracle` seeds stay out of."""
    config = tmp_path / "band.json"
    config.write_text(json.dumps({"oracle": {"beta_omega": [0.25], "zeta_grid": [0.8],
                                             "phi_grid": [1.3]}}))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--config", str(config), "--out", str(tmp_path / "o"), "oracle"])
    statuses = [s for _, s in checks.parse_statuses(stdout.getvalue())]
    assert "fail" not in statuses and code == 2
