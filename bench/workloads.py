"""Workload definitions and seeded config generation.

Seed 0 reproduces the shipped defaults (plus the small-basis override of
`oracle-small-basis`).  Every other seed redraws only grid values, never a
grid size, basis size, tolerance or `zeta_grid`, all inside the ranges
phi in (0.1, 3.0) and zeta_panels in [2, 4.5]:

* `oracle-small-basis`: `oracle.phi_grid` takes one value from each of ten
  equal strata of (0.1, 3.0);
* `oracle`: each shipped phi (0.3, 0.9, 2.0) moves by up to +-0.15.  Wider
  draws change how many of the 27 points trip the truncation guard (5 to 7,
  about 6% of the pass time), and phi in about [1.21, 1.36] (bw=0.25,
  zeta=0.8) or [1.46, 1.56] (bw=0.5, zeta=1.2) reaches a known gate defect:
  the guard admits the point yet <H> misses its closed form by ~2e-7 > 1e-7,
  so the program records `fail` and exits 1.  bench/README.md and
  bench/test_bench.py::test_known_guard_band_defect keep that defect in view;
* `sweeps`: `sweep.zeta_panels` takes one value from each of four equal
  strata of [2, 4.5].

The program under test receives only the generated JSON file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

PHI_RANGE = (0.1, 3.0)
PHI_JITTER = 0.15
ZETA_PANEL_RANGE = (2.0, 4.5)

DEFAULT_ZETA_PANELS = [2.0, 3.0, 3.4, 4.0]
DEFAULT_PHI_GRID = [0.3, 0.9, 2.0]

SMALL_BASIS = {
    "n_max": 60,
    "beta_omega": [1.0, 1.5, 2.0],
    "zeta_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
    "phi_grid": [round(0.15 + 0.3 * k, 2) for k in range(10)],  # 0.15 ... 2.85
}

SWEEP_COMMANDS = ("cycle", "figure3", "figure4", "snl", "circuit")


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    expected_exit: int  # exit code every command must return
    # scale command times by the interpreter-speed calibration (bench/calibration.py).
    # Only `sweeps` is pure interpreter work: in three sets of ten runs its raw median
    # spread 14-26%, scaled 3.0-3.5%.  The oracle workloads spend most of their time
    # in BLAS, and the loop does not steady them: `oracle` raw 3% and 11% in two sets,
    # scaled 13% and 9%; `oracle-small-basis` raw 11%, scaled 10%.
    host_scaled: bool = False


# the reason for each workload is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle", ("oracle",), 2),
        Workload("oracle-small-basis", ("oracle",), 2),
        Workload("sweeps", SWEEP_COMMANDS, 0, host_scaled=True),
    )
}


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    width = (hi - lo) / k
    # 0.05 .. 0.95 of each stratum keeps draws strictly inside the open interval
    return [round(lo + width * (i + 0.05 + 0.9 * rng.random()), 4) for i in range(k)]


def config_override(workload: str, seed: int) -> dict:
    """The JSON override handed to the CLI for this workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    small = workload == "oracle-small-basis"
    oracle = dict(SMALL_BASIS) if small else {"phi_grid": DEFAULT_PHI_GRID}
    zeta_panels = list(DEFAULT_ZETA_PANELS)
    if seed != 0:
        rng = random.Random(seed)
        if small:
            oracle["phi_grid"] = _stratified(rng, *PHI_RANGE, len(oracle["phi_grid"]))
        else:
            oracle["phi_grid"] = [round(p + PHI_JITTER * (2.0 * rng.random() - 1.0), 4)
                                  for p in DEFAULT_PHI_GRID]
        zeta_panels = _stratified(rng, *ZETA_PANEL_RANGE, len(zeta_panels))
    return {"sweep": {"zeta_panels": zeta_panels}, "oracle": oracle}


def write_config(workload: str, seed: int, path: Path) -> dict:
    override = config_override(workload, seed)
    path.write_text(json.dumps(override, indent=1) + "\n")
    return override
