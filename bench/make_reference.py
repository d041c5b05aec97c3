"""Regenerate the seed-0 reference outputs in bench/reference/.

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]

Run it only when an output change is intended and explained in CHANGES.md:
the benchmark's correctness check compares seed-0 runs against these files.
For the oracle workloads the reference is the status of every record plus
the SHA-256 of `oracle_report.csv`; for `sweeps` it is the full text of
every CSV (xz-compressed JSON).
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402


def make(workload: str, tmp_dir: Path) -> None:
    import su11otto.cli as cli

    config = tmp_dir / f"{workload}.json"
    write_config(workload, 0, config)
    out = tmp_dir / workload
    ref: dict = {"files": {}}
    for command in WORKLOADS[workload].commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["--config", str(config), "--out", str(out), command])
        if code != WORKLOADS[workload].expected_exit:
            raise SystemExit(f"{workload}/{command} exited {code}")
        if command == "oracle":
            ref["statuses"] = dict(checks.parse_statuses(stdout.getvalue()))
    for path in sorted(out.glob("*.csv")):
        entry = {"sha256": checks.sha256(path)}
        if workload == "sweeps":
            entry["text"] = path.read_text()
        ref["files"][path.name] = entry
    target = checks.reference_path(workload)
    text = json.dumps(ref, indent=1, sort_keys=True) + "\n"
    if target.suffix == ".xz":
        target.write_bytes(lzma.compress(text.encode(), preset=9))
    else:
        target.write_text(text)
    print(f"wrote {target}")


def main() -> None:
    names = sys.argv[1:] or sorted(WORKLOADS)
    tmp_dir = HERE.parent / ".bench_work" / "reference"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            make(name, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_dir.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


if __name__ == "__main__":
    main()
