"""One fresh process per workload run, started by bench/run.py.

    worker.py setup CONFIG
        time `import su11otto.cli` plus `load_config(CONFIG)`, between two
        calibration loops (bench/calibration.py); print the three times as JSON.

    worker.py run SPEC RESULT
        run the workload described by the JSON file SPEC and write the
        passes, their timings and the traced layer metrics to RESULT.

A pass runs every command of the workload once through `su11otto.cli.main`
into a fresh output directory.  Passes repeat while the next one should end
within `seconds`, at least three of them.  With `trace` set, the first half of the time runs
untraced passes (at least two) and the second half traced ones (at least
one).  Each command invocation is timed on its own, and every untraced one
is preceded by one calibration loop (bench/calibration.py), outside the
timed part.  A pass whose output bytes,
exit codes and stdout equal the first pass's is recorded as such and its
directory removed; any other pass keeps its directory for the checks.
"""

from __future__ import annotations

import json
import sys
import time

import calibration


def setup(config_path: str) -> None:
    before = calibration.loop_s()
    start = time.perf_counter()
    import su11otto.cli

    su11otto.cli.load_config(config_path)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "loop_s": [before, calibration.loop_s()]}))


def environment() -> dict:
    import os
    import platform

    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps.get(k, {}).get(k2) for k, k2 in (("blas", "name"), ("lapack", "name"))}
        blas["blas_version"] = deps.get("blas", {}).get("version")
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = {"blas": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def run(spec_path: str, result_path: str) -> None:
    import contextlib
    import hashlib
    import io
    import resource
    import shutil
    from pathlib import Path

    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec["work_dir"])
    deadline = time.monotonic() + spec["deadline_s"]

    import su11otto.cli as cli

    from spans import Instrumentation, Tracer, layer_metrics

    def one_pass(index: int, tracer: Tracer | None) -> dict:
        out = work / f"pass{index}"
        ops, stderr_text, op_wall, op_cpu, op_loop = [], [], [], [], []
        instr = Instrumentation(tracer) if tracer is not None else contextlib.nullcontext()
        with instr:
            for command in spec["commands"]:
                stdout, stderr = io.StringIO(), io.StringIO()
                if tracer is None:
                    op_loop.append(calibration.loop_s())
                w0, c0 = time.perf_counter(), time.process_time()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = cli.main(["--config", spec["config"], "--out", str(out), command])
                    except Exception as exc:  # recorded as a failed operation
                        code = f"{type(exc).__name__}: {exc}"
                op_wall.append(time.perf_counter() - w0)
                op_cpu.append(time.process_time() - c0)
                # the output path is normalised so passes can be compared by content
                ops.append({"command": command, "exit": code,
                            "stdout": stdout.getvalue().replace(str(out), "<out>")})
                stderr_text.append(stderr.getvalue())
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.glob("*")) if p.is_file()}
        rec = {"wall_s": sum(op_wall), "cpu_s": sum(op_cpu), "op_wall_s": op_wall,
               "op_cpu_s": op_cpu, "op_loop_s": op_loop, "traced": tracer is not None,
               "ops": ops, "files": files, "dir": str(out), "stderr": stderr_text}
        if tracer is not None:
            rec["layers"] = layer_metrics(tracer)
            rec["restored"] = instr.restored()
        return rec

    def same_output(a: dict, b: dict) -> bool:
        return a["files"] == b["files"] and a["ops"] == b["ops"]

    passes = []
    peak_rss_mb = None
    t0 = time.monotonic()
    # (time budget from t0, minimum passes, traced); the first pass of a process
    # is usually the slowest, so untraced medians need at least two more
    phases = [(spec["seconds"] / 2, 2, False), (spec["seconds"], 1, True)] if spec["trace"] else [
        (spec["seconds"], 3, False)]
    for budget, min_passes, traced in phases:
        done = 0
        while True:
            last = passes[-1]["wall_s"] if passes else 0.0
            # past the minimum, start a pass only if it should end within the budget
            if done >= min_passes and time.monotonic() - t0 + last > budget:
                break
            if done and time.monotonic() + 1.5 * last > deadline:
                break
            rec = one_pass(len(passes), Tracer() if traced else None)
            if passes and same_output(rec, passes[0]):
                shutil.rmtree(rec["dir"])
                rec = {k: v for k, v in rec.items() if k not in ("ops", "files", "dir", "stderr")}
                rec["same_as_first"] = True
            passes.append(rec)
            done += 1
            if peak_rss_mb is None:
                # peak of one invocation: later passes only add allocator growth
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif sys.argv[1:2] == ["run"] and len(sys.argv) == 4:
        run(sys.argv[2], sys.argv[3])
    else:
        sys.exit("usage: worker.py setup CONFIG | worker.py run SPEC RESULT")
