"""The gate's equivalence grid against a point-by-point reference loop."""

import dataclasses
import math

import pytest

from su11otto.core import (
    EngineConfig,
    InterferometerAngles,
    ProtocolEndpoints,
    chi_of,
    theta_of,
)
from su11otto.errors import TruncationError
from su11otto.fock import (
    BlockOperator,
    FockWorkspace,
    evolution_endpoint,
    thermal_state,
    unitary_equiv,
    unitary_product,
)
from su11otto import gate
from su11otto.gate import GateRecord, _admitted_records, _equivalence_records, run_gate

N_MAX = 30
# the cold bath first: at n_max = 30, (zeta, phi) = (0.9, 1.5) and (0.6, 3.0) are
# admitted at beta omega = 3 and skipped at beta omega = 1, (0.9, 3.0) skipped at both.
# The point (1, 0.9, 0.5) is admitted yet records mean_n_un1_vs_un2 and
# mean_n_un1_vs_tiev as `fail` (1.4e-8 > 1e-8): the guard bounds a probability,
# not the error of a mean
BETA_OMEGAS = (3.0, 1.0)
ZETAS = (0.6, 0.9)
PHIS = (0.5, 1.5, 3.0)
LEAK_TOL = 1e-8
THERMAL_LEAK_TOL = 1e-10
# a hot bath cold enough (beta_h omega2 = 2) for the variance records at n_max = 30
CONFIG = EngineConfig(omega1=0.1, omega2=1.0, t_hot=0.5, t_cold=0.01)


def _reference_records():
    """Each (beta omega, zeta, phi) point's three forms built on a fresh workspace."""
    records = []
    for bw in BETA_OMEGAS:
        for zeta in ZETAS:
            for phi in PHIS:
                ws = FockWorkspace(N_MAX)
                state = thermal_state(ws, bw, 1.0, leak_tol=THERMAL_LEAK_TOL)
                chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
                tag = f"[bw={bw:g},zeta={zeta:g},phi={phi:g}]"
                chains = {
                    "un1": unitary_product(InterferometerAngles(zeta, phi), ws),
                    "un2": unitary_equiv(ProtocolEndpoints(chi, theta), ws),
                    "tiev": evolution_endpoint(-chi, -theta, ws),
                }
                try:
                    for chain in chains.values():
                        chain.guard(state, LEAK_TOL)
                except TruncationError:
                    nan = math.nan
                    records.append(
                        GateRecord(f"equivalence{tag}", nan, nan, 1e-8, N_MAX, nan, "skipped")
                    )
                    continue
                records.extend(_admitted_records(chains, state, bw, chi, tag))
    return records


def _fields(records):
    # repr keeps every bit of a float and lets nan equal nan
    return [repr(dataclasses.astuple(r)) for r in records]


def test_equivalence_grid_matches_point_by_point_reference():
    result = run_gate(
        CONFIG,
        n_max=N_MAX,
        algebra_n_max=4,
        beta_omegas=BETA_OMEGAS,
        zeta_grid=ZETAS,
        phi_grid=PHIS,
        leak_tol=LEAK_TOL,
        thermal_leak_tol=THERMAL_LEAK_TOL,
        convergence_n=60,
    )
    grid = [
        r for r in result.records
        if ",zeta=" in r.quantity and not r.quantity.startswith("truncation_convergence")
    ]
    reference = _reference_records()
    assert _fields(grid) == _fields(reference)
    skipped = [r.quantity for r in grid if r.status == "skipped"]
    assert skipped == [
        "equivalence[bw=3,zeta=0.9,phi=3]",
        "equivalence[bw=1,zeta=0.6,phi=3]",
        "equivalence[bw=1,zeta=0.9,phi=1.5]",
        "equivalence[bw=1,zeta=0.9,phi=3]",
    ]


@pytest.mark.parametrize("builder", ["unitary_product", "unitary_equiv", "evolution_endpoint"])
def test_point_skipped_when_any_one_form_trips(monkeypatch, builder):
    # one form gets the guard rows of a chain squeezed far past n_max = 30, the
    # other two keep their own: every point must be skipped at every bath
    ws = FockWorkspace(N_MAX)
    over_squeezed = unitary_product(InterferometerAngles(3.0, 1.0), ws).guard_weights
    build = getattr(gate, builder)
    monkeypatch.setattr(
        gate,
        builder,
        lambda *args: dataclasses.replace(build(*args), guard_weights=over_squeezed),
    )
    states = [(bw, thermal_state(ws, bw, 1.0, leak_tol=THERMAL_LEAK_TOL)) for bw in BETA_OMEGAS]
    records = _equivalence_records(ws, states, ZETAS, PHIS, LEAK_TOL)
    assert [r.status for r in records] == ["skipped"] * (len(BETA_OMEGAS) * len(ZETAS) * len(PHIS))


@pytest.mark.parametrize(
    "builder, name",
    [("unitary_product", "un1"), ("unitary_equiv", "un2"), ("evolution_endpoint", "tiev")],
)
def test_scaled_core_block_fails_its_defect_record(monkeypatch, builder, name):
    # one core block scaled by 1 + 1e-9 is no longer unitary: that form's
    # defect record, and only that one, must fail
    build = getattr(gate, builder)

    def scaled(*args):
        chain = build(*args)
        blocks = list(chain.core.blocks)
        blocks[5] = blocks[5] * (1.0 + 1e-9)
        return dataclasses.replace(chain, core=BlockOperator(chain.core.ws, blocks))

    monkeypatch.setattr(gate, builder, scaled)
    ws = FockWorkspace(N_MAX)
    states = [(3.0, thermal_state(ws, 3.0, 1.0, leak_tol=THERMAL_LEAK_TOL))]
    records = _equivalence_records(ws, states, (0.6,), (0.5,), LEAK_TOL)
    defects = {r.quantity: r.status for r in records if r.quantity.startswith("unitarity_defect")}
    assert defects == {
        f"unitarity_defect[{form}][bw=3,zeta=0.6,phi=0.5]": "fail" if form == name else "pass"
        for form in ("un1", "un2", "tiev")
    }


@pytest.mark.parametrize("relative", [False, True])
@pytest.mark.parametrize("analytic, oracle", [(math.nan, 1.0), (1.0, math.nan)])
def test_nan_value_fails(analytic, oracle, relative):
    rec = gate._cmp("q", analytic, oracle, 1e-8, N_MAX, relative=relative)
    assert rec.status == "fail" and math.isnan(rec.rel_err)


@pytest.mark.parametrize(
    "statuses, code",
    [
        (("pass", "skipped"), gate.EXIT_OK),
        (("pass", "discrepancy"), gate.EXIT_DISCREPANCY_ONLY),
        (("discrepancy", "fail", "pass"), gate.EXIT_HARD_FAILURE),
    ],
)
def test_exit_code_reports_the_worst_status(statuses, code):
    records = [GateRecord("q", 1.0, 1.0, 1e-8, N_MAX, 0.0, status) for status in statuses]
    assert gate.GateResult(records).exit_code == code
