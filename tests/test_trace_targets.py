"""The benchmark's span tracer names functions by (module, attribute).

bench/spans.py wraps each of its TARGETS at run time; a renamed or deleted
function would only surface when a traced benchmark run fails, so every
target is resolved here against the package, and a small traced oracle run
must emit every per-layer metric the benchmark declares.  Likewise every
seeded config of bench/workloads.py must pass the strict config loader, and
the seed-0 outputs must pass the benchmark's own correctness checks.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path

from su11otto import cli
from su11otto.config import load_config
from su11otto.gate import run_gate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = []
    for _, module_name, target in _bench_module("bench_spans", "spans.py").TARGETS:
        owner = vars(importlib.import_module(module_name))
        *cls_name, attr = target.split(".")
        if cls_name:  # "Class.attr": the tracer replaces the entry in the class dict
            owner = vars(owner.get(cls_name[0], object))
        if attr not in owner:
            missing.append(f"{module_name}.{target}")
    assert missing == []


def test_every_workload_config_loads(tmp_path):
    # each seeded override the benchmark hands the CLI must pass the strict loader
    # and reach the config it sets
    workloads = _bench_module("bench_workloads", "workloads.py")
    for name in workloads.WORKLOADS:
        for seed in range(4):
            path = tmp_path / f"{name}-{seed}.json"
            override = workloads.write_config(name, seed, path)
            config = load_config(path)
            assert list(config.zeta_panels) == override["sweep"]["zeta_panels"]
            for key, value in override["oracle"].items():
                assert getattr(config.oracle, key) == (
                    tuple(value) if isinstance(value, list) else value
                ), (name, seed, key)


def test_gate_keywords_read_by_the_tracer():
    params = inspect.signature(run_gate).parameters
    for name in ("beta_omegas", "zeta_grid", "phi_grid"):
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY


def test_traced_oracle_emits_every_layer_metric(tmp_path):
    # the tiny oracle of the benchmark's own checks, run under its span tracer
    bench = _bench_module("bench_test_bench", "test_bench.py")
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(bench.TINY_ORACLE))
    tracer = bench.Tracer()
    instr = bench.Instrumentation(tracer)
    with instr, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(config), "--out", str(tmp_path), "oracle"])
    assert code == 2 and instr.restored()
    metrics = bench.layer_metrics(tracer)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # trace.overhead_s compares a traced with an untraced pass: bench/run.py adds it
    assert set(metrics) == {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    assert metrics["fock.matmul_flop"] > 0 and metrics["gate.skipped"] > 0
    # the row counter reads write_csv's first column: one count per record, not per column
    lines = (tmp_path / "oracle_report.csv").read_text().splitlines()
    written = sum(1 for line in lines if not line.startswith("#")) - 1  # less the header
    assert metrics["reports.rows"] == written == metrics["gate.records"]


def test_seed0_outputs_pass_the_benchmark_checks(tmp_path):
    # bench/checks.py at seed 0: every sweep cell within 1e-12 of the reference and
    # every oracle status as recorded, so drift fails here before a benchmark run
    workloads = _bench_module("bench_workloads", "workloads.py")
    checks = _bench_module("bench_checks", "checks.py")
    for name in ("sweeps", "oracle-small-basis"):
        spec = workloads.WORKLOADS[name]
        path = tmp_path / f"{name}.json"
        override = workloads.write_config(name, 0, path)
        ref = checks.load_reference(name)
        out = tmp_path / name
        for command in spec.commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["--config", str(path), "--out", str(out), command])
            assert code == spec.expected_exit, (name, command)
            if command == "oracle":
                problems, _ = checks.check_oracle(stdout.getvalue(), out, 0, ref)
            else:
                problems = checks.check_sweep_command(command, out, override, 0, ref)
            assert problems == [], (name, command)
