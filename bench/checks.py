"""Correctness checks behind `failed_ratio`.

An operation is one CLI command invocation.  It fails when its exit code is
not the expected one or when its output fails a check below.

Every seed:
* oracle: no `fail` record, exactly the six reference discrepancy
  quantities, and the records printed on stdout are the rows of
  `oracle_report.csv`, in order;
* sweeps: every expected file with the reference row count, the first law
  w_ab + q_bc + w_cd + q_da = 0 on each `cycle_sweep.csv` row, and
  `identity_residual` <= 1e-8 in `figure4_coupling.csv`.

Seed 0 (the shipped defaults), in addition:
* oracle: the status of every record equals the reference status map;
* sweeps: every CSV cell equals the reference to a relative 1e-12, with the
  same NaN/inf and text cells, and the same header lines.

Files whose bytes differ from the seed-0 reference are counted separately:
a byte difference that passes the value check is last-ulp drift, not a
failure.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import math
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12
FIRST_LAW_REL_TOL = 1e-12
IDENTITY_RESIDUAL_TOL = 1e-8

_STATUS = {"PASS": "pass", "FAIL": "fail", "DISCREPANCY": "discrepancy", "SKIP": "skipped"}
_RECORD_LINE = re.compile(r"^(PASS|FAIL|DISCREPANCY|SKIP)\s+(\S+)\s+analytic=", re.M)


def reference_path(workload: str) -> Path:
    suffix = ".json.xz" if workload == "sweeps" else ".json"
    return REFERENCE_DIR / f"{workload}{suffix}"


def load_reference(workload: str) -> dict:
    path = reference_path(workload)
    if path.suffix == ".xz":
        return json.loads(lzma.decompress(path.read_bytes()))
    return json.loads(path.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_statuses(stdout: str) -> list[tuple[str, str]]:
    """(quantity, status) for every record line `su11otto oracle` prints."""
    return [(q, _STATUS[m]) for m, q in _RECORD_LINE.findall(stdout)]


def expected_files(command: str, config: dict) -> list[str]:
    """Output files a command writes; figure3 writes one file per zeta panel."""
    if command == "figure3":
        return [f"figure3_zeta{z:g}.csv" for z in config["sweep"]["zeta_panels"]] + [
            "figure3_summary.csv"
        ]
    return [{
        "cycle": "cycle_sweep.csv",
        "figure4": "figure4_coupling.csv",
        "snl": "snl_solutions.csv",
        "circuit": "circuit_scenario.csv",
        "oracle": "oracle_report.csv",
    }[command]]


def _split_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("# ")]
    body = lines[len(header):]
    return header, body[0].split(","), [ln.split(",") for ln in body[1:]]


def _cell_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return False  # differing text of non-finite values is a pattern change
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_csv(text: str, ref_text: str) -> list[str]:
    """Problems found comparing a CSV against its reference, cell by cell."""
    header, cols, rows = _split_csv(text)
    ref_header, ref_cols, ref_rows = _split_csv(ref_text)
    if header != ref_header:
        return ["header lines differ"]
    if cols != ref_cols:
        return [f"columns {cols} != {ref_cols}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != reference {len(ref_rows)}"]
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref_row):
            return [f"row {i}: {len(row)} cells != {len(ref_row)}"]
        for col, got, want in zip(cols, row, ref_row):
            if not _cell_matches(got, want):
                return [f"row {i} {col}: {got} != reference {want}"]
    return []


def _columns(path: Path) -> tuple[list[str], list[list[str]]]:
    _, cols, rows = _split_csv(path.read_text())
    return cols, rows


def _first_law(path: Path) -> list[str]:
    cols, rows = _columns(path)
    idx = [cols.index(c) for c in ("w_ab", "q_bc", "w_cd", "q_da")]
    for i, row in enumerate(rows):
        terms = [float(row[j]) for j in idx]
        if abs(sum(terms)) > FIRST_LAW_REL_TOL * sum(abs(t) for t in terms):
            return [f"cycle_sweep.csv row {i}: first law residual {sum(terms):.3e}"]
    return []


def _identity_residual(path: Path) -> list[str]:
    cols, rows = _columns(path)
    j = cols.index("identity_residual")
    worst = max(float(r[j]) for r in rows)
    if not worst <= IDENTITY_RESIDUAL_TOL:
        return [f"figure4_coupling.csv: identity residual {worst:.3e} > {IDENTITY_RESIDUAL_TOL:.0e}"]
    return []


def _reference_rows(ref_files: dict, name: str) -> int:
    if name.startswith("figure3_zeta"):
        name = next(n for n in sorted(ref_files) if n.startswith("figure3_zeta"))
    return len(_split_csv(ref_files[name]["text"])[2])


def check_sweep_command(command: str, out_dir: Path, config: dict, seed: int, ref: dict) -> list[str]:
    problems = []
    for name in expected_files(command, config):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        if seed == 0:
            problems += [f"{name}: {p}" for p in compare_csv(path.read_text(), ref["files"][name]["text"])]
            continue
        rows = len(_columns(path)[1])
        want = _reference_rows(ref["files"], name)
        if rows != want:
            problems.append(f"{name}: {rows} rows != {want}")
    if command == "cycle" and not problems:
        problems += _first_law(out_dir / "cycle_sweep.csv")
    if command == "figure4" and not problems:
        problems += _identity_residual(out_dir / "figure4_coupling.csv")
    return problems


def check_oracle(stdout: str, out_dir: Path, seed: int, ref: dict) -> tuple[list[str], dict]:
    """Problems with one oracle run, and its status counts."""
    records = parse_statuses(stdout)
    counts = {s: 0 for s in ("pass", "fail", "discrepancy", "skipped")}
    for _, status in records:
        counts[status] += 1
    problems = []
    path = out_dir / "oracle_report.csv"
    if not path.is_file():
        return ["oracle_report.csv missing"], counts
    # quantities such as equivalence[bw=..,zeta=..,phi=..] hold unquoted commas,
    # so rows are matched by their leading "quantity," rather than split
    lines = path.read_text().splitlines()
    rows = lines[next(i for i, ln in enumerate(lines) if not ln.startswith("# ")) + 1:]
    if len(rows) != len(records) or not all(
        row.startswith(q + ",") for row, (q, _) in zip(rows, records)
    ):
        problems.append("stdout records and oracle_report.csv rows differ")
    if counts["fail"]:
        problems.append(f"{counts['fail']} fail records")
    discrepancies = sorted(q for q, s in records if s == "discrepancy")
    ref_statuses = ref["statuses"]
    if discrepancies != sorted(q for q, s in ref_statuses.items() if s == "discrepancy"):
        problems.append(f"discrepancy set changed: {discrepancies}")
    if seed == 0 and dict(records) != ref_statuses:
        changed = sorted(set(dict(records).items()) ^ set(ref_statuses.items()))
        problems.append(f"status map differs from reference: {changed[:6]}")
    return problems, counts


def files_differing_bytes(out_dir: Path, ref: dict) -> list[str]:
    """Seed-0 output files whose bytes differ from the reference."""
    return sorted(
        name for name, meta in ref["files"].items()
        if not (out_dir / name).is_file() or sha256(out_dir / name) != meta["sha256"]
    )
