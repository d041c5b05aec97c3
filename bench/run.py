"""su11otto benchmark: one workload run, metrics on the last stdout line.

    python3 bench/run.py --workload oracle --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout that has `src/su11otto`; everything is
read and written inside the checkout (temporary files go to `.bench_work/`,
which is removed at the end).  A run:

1. writes the seeded config override (bench/workloads.py);
2. times set-up, `import su11otto.cli` plus `load_config`, in SETUP_PROBES
   fresh processes and keeps the median;
3. runs the workload's passes in one fresh worker process (bench/worker.py);
4. checks every command invocation's exit code and outputs (bench/checks.py);
5. prints an environment and sample report line, then the result line
   {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones: `wall_s`/`cpu_s` sum,
over the workload's commands, the median time of each command over the
untraced passes, on a `host_scaled` workload each time first scaled by the
calibration loop timed right before it (bench/calibration.py); `setup_s` is
the median set-up probe, each scaled by the mean of the loops timed right
before and after it.  With `--trace 1` they are the per-layer ones from the
traced passes (bench/spans.py) plus the tracing overhead.  See
bench/README.md for every metric and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from calibration import REFERENCE_LOOP_S  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

SETUP_PROBES = 7
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


def _summary(values):
    quartiles = statistics.quantiles(values, n=4) if len(values) >= 2 else list(values) * 3
    return {"n": len(values), "median": statistics.median(values), "quartiles": quartiles,
            "values": values}


def probe_setup(env: dict, config: Path) -> list[dict]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "setup", str(config)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(json.loads(proc.stdout))
    return out


def command_time(passes: list[dict], key: str, host_scaled: bool) -> float:
    """Sum over the workload's commands of each command's median time over `passes`.

    With `host_scaled`, each command time is first scaled to the reference
    interpreter speed by the calibration loop timed right before it.
    """
    def times(p):
        if not host_scaled:
            return p[key]
        return [t * REFERENCE_LOOP_S / loop for t, loop in zip(p[key], p["op_loop_s"])]

    return sum(statistics.median(per_command) for per_command in zip(*map(times, passes)))


def check_passes(workload, seed: int, config: dict, passes: list[dict]) -> dict:
    """Check every operation of every pass; passes identical to the first reuse its verdict."""
    spec = WORKLOADS[workload]
    ref = checks.load_reference(workload)
    attempted = failed = 0
    problems: list[str] = []
    status_counts = None
    first_ok: list[bool] = []
    for k, p in enumerate(passes):
        if p.get("same_as_first"):
            attempted += len(first_ok)
            failed += first_ok.count(False)
            continue
        out_dir = Path(p["dir"])
        oks = []
        for op in p["ops"]:
            issues = []
            if op["exit"] != spec.expected_exit:
                issues.append(f"exit {op['exit']!r} != {spec.expected_exit}")
            if op["command"] == "oracle":
                more, counts = checks.check_oracle(op["stdout"], out_dir, seed, ref)
                status_counts = status_counts or counts
                issues += more
            else:
                issues += checks.check_sweep_command(op["command"], out_dir, config, seed, ref)
            problems += [f"pass {k} {op['command']}: {i}" for i in issues]
            oks.append(not issues)
        if k == 0:
            first_ok = oks
        attempted += len(oks)
        failed += oks.count(False)
    byte_diff = checks.files_differing_bytes(Path(passes[0]["dir"]), ref) if seed == 0 else []
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "oracle_status_counts": status_counts,
        "files_bytes_differ": len(byte_diff),
        "files_bytes_differ_names": byte_diff,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "su11otto" / "cli.py").is_file():
        print(f"error: no su11otto sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config = write_config(args.workload, args.seed, config_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no caches in the checkout

        setup_probes = probe_setup(env, config_path)
        spec_path, result_path = work / "spec.json", work / "result.json"
        spec_path.write_text(json.dumps({
            "work_dir": str(work),
            "config": str(config_path),
            "commands": list(WORKLOADS[args.workload].commands),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "deadline_s": RUN_DEADLINE_S - (time.monotonic() - started) - 10.0,
        }))
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "run", str(spec_path), str(result_path)],
            env=env, capture_output=True, text=True, timeout=remaining,
        )
        if proc.returncode != 0:
            print(proc.stderr[-4000:], file=sys.stderr)
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
        passes = result["passes"]
        verdict = check_passes(args.workload, args.seed, config, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall = [p["wall_s"] for p in plain]
    cpu = [p["cpu_s"] for p in plain]
    scaled = WORKLOADS[args.workload].host_scaled
    setup_raw = [probe["setup_s"] for probe in setup_probes]
    setup_scaled = [probe["setup_s"] * REFERENCE_LOOP_S / statistics.mean(probe["loop_s"])
                    for probe in setup_probes]
    correct = verdict["failed"] == 0 and all(p["restored"] for p in traced)
    if args.trace:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = statistics.median([p["layers"][key] for p in traced])
        traced_wall = statistics.median([p["wall_s"] for p in traced])
        layers["trace.overhead_s"] = traced_wall - statistics.median(wall)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": command_time(plain, "op_wall_s", scaled), "unit": "s"},
            "cpu_s": {"value": command_time(plain, "op_cpu_s", scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1.0 - verdict["failed"] / verdict["attempted"], "unit": "ratio"},
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config_override": config,
        "environment": result["environment"],
        "samples": {
            "wall_s": _summary(wall),
            "cpu_s": _summary(cpu),
            "setup_s": _summary(setup_raw),
            "setup_s_scaled": _summary(setup_scaled),
            "command_loop_s": [x for p in plain for x in p["op_loop_s"]],
            "traced_passes": len(traced),
        },
        "checks": verdict,
        "failed_ratio": verdict["failed"] / verdict["attempted"],
    }
    print(json.dumps({"bench_report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_flop"):
        return "flop"
    if metric.endswith("_bytes") or metric == "reports.bytes":
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
