"""Verification gate: closed forms vs the truncated-Fock oracle.

Runs the whole dual-route check suite and returns typed records:

* algebra: commutators, Jacobi identity, Casimir commutation, K_z = (N+1)/2
  on interior blocks of a small dense basis;
* thermal machinery: partition function, mean occupation, tail leakage;
* the endpoint equivalence of the product form un1 and the endpoint form
  un2, with the time-ordered form tiev read from the un2 chain it provably
  equals (`_equivalence_records`): diagonal-state averages of N and H agree
  pairwise and match omega_f cosh(chi) coth(beta omega_i / 2);
* variance arbitration: the number-variance formula against direct linear
  algebra, and both routes to the energy variance;
* derivative arbitration: the two printed forms of dN/dphi against central
  finite differences of the composed map.

Each record carries a status: "pass"/"fail" for checks the formulas must
satisfy, and "discrepancy" for printed expressions that the oracle is
expected to contradict (those do not fail the gate; they exit with the
dedicated discrepancy code so automation can tell the outcomes apart).
Grid points whose squeezed states cannot be represented at the configured
basis size raise the truncation guard and are recorded as "skipped".

The endpoint unitaries depend on (zeta, phi) only; the bath enters
through the thermal input state alone.  So the equivalence grid is
evaluated (zeta, phi)-major: each distinct chain is built and its core
checked for unitarity once, the chain is guarded against and read by
each beta*omega's state, and the records are reported beta*omega-major.
Within it the grid runs zeta-major: the squeeze exp(i zeta K_y) of the
product form un1 depends on zeta alone, so it is built once per zeta and
every phi's `unitary_product` composes that same operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import EngineConfig, ProtocolEndpoints, _bath_coth, chi_of, n_out, theta_of
from .cycle import stage_energies
from .errors import TruncationError
from .fock import (
    BlockOperator,
    FockWorkspace,
    _dense_annihilator,
    _exp_i_ky,
    _kx_block,
    expect,
    hamiltonian_final,
    number_operator,
    thermal_state,
    unitary_equiv,
    unitary_product,
    variance,
)
from .metrology import dn_dphi_chain, dn_dphi_paper, variance_h, variance_n

__all__ = ["GateRecord", "GateResult", "run_gate"]

EXIT_OK = 0
EXIT_HARD_FAILURE = 1
EXIT_DISCREPANCY_ONLY = 2

# the small basis of the truncation-convergence record, doubled once
_CONVERGENCE_N = 60


@dataclass(frozen=True)
class GateRecord:
    """One comparison: a closed-form value against its oracle counterpart."""

    quantity: str
    analytic: float
    oracle: float
    tolerance: float
    n_max: int
    leakage: float
    status: str  # "pass" | "fail" | "discrepancy" | "skipped"

    @property
    def abs_err(self) -> float:
        return abs(self.analytic - self.oracle)

    @property
    def rel_err(self) -> float:
        scale = max(abs(self.analytic), abs(self.oracle))
        return self.abs_err / scale if scale > 0.0 else self.abs_err


@dataclass
class GateResult:
    records: list[GateRecord]

    @property
    def failures(self) -> list[GateRecord]:
        return [r for r in self.records if r.status == "fail"]

    @property
    def discrepancies(self) -> list[GateRecord]:
        return [r for r in self.records if r.status == "discrepancy"]

    @property
    def skipped(self) -> list[GateRecord]:
        return [r for r in self.records if r.status == "skipped"]

    @property
    def exit_code(self) -> int:
        if self.failures:
            return EXIT_HARD_FAILURE
        if self.discrepancies:
            return EXIT_DISCREPANCY_ONLY
        return EXIT_OK


def _cmp(quantity, analytic, oracle, tol, n_max, leakage=0.0, *, relative=False) -> GateRecord:
    rec = GateRecord(
        quantity=quantity,
        analytic=float(analytic),
        oracle=float(oracle),
        tolerance=tol,
        n_max=n_max,
        leakage=leakage,
        status="fail",
    )
    err = rec.rel_err if relative else rec.abs_err
    return replace(rec, status="pass") if err <= tol else rec


def _expected_mismatch(quantity, analytic, oracle, tol, n_max, *, relative=False) -> GateRecord:
    """Record a printed formula the oracle arbitrates; 'discrepancy' when it loses."""
    rec = _cmp(quantity, analytic, oracle, tol, n_max, relative=relative)
    return replace(rec, status="discrepancy") if rec.status == "fail" else rec


def _algebra_records(n_max: int) -> list[GateRecord]:
    """Structure-constant checks, blockwise in 80-bit precision.

    The identities are exact on the interior of the truncated space, so the
    comparisons should test the algebra and not double-precision matmul
    accumulation (which alone reaches ~1e-12 at this basis size); extended
    precision per sector keeps the arithmetic noise orders below the
    tolerance and is far cheaper than dense products anyway.  K_x is the
    workspace's own `_kx_block` with the root taken in long double (the
    double-rounded roots of the cached blocks would dominate the residuals
    after squaring), K_y its exact quarter turn and K_z the exact halves of
    `kz_diags`, applied as the diagonal it is (a column or row scaling, the
    same bits as the product with diag(K_z)); each commutator is formed
    once and reused by the Jacobi sum.

    The blockwise checks run over the stored sectors d >= 0 only: the
    mirror block of sector -d is identical entry for entry, so it has the
    same residuals.  The dense records read `to_dense()` of the workspace's
    K_z, N and K_x, mirror blocks included, and `kx_ladder_representation`
    checks their placement at the swapped indices against
    (a1+ a2+ + a1 a2)/2 = (P^T + P)/2 with P = a (x) a.
    """
    ws = FockWorkspace(n_max)

    def comm(a, b):
        # clongdouble has no BLAS: numpy's own loop keeps the sums in 80 bits
        return a @ b - b @ a

    unit_i = np.clongdouble(1j)
    phase_cycle = np.array([1.0, -unit_i, -1.0, unit_i], dtype=np.clongdouble)
    dev_xy = dev_yz = dev_zx = dev_jac = dev_cas = 0.0
    for sec, kz_diag in zip(ws.sectors, ws.kz_diags):
        m = sec.size
        kx = _kx_block(sec, np.longdouble).astype(np.clongdouble)
        ph = phase_cycle[np.arange(m) % 4]  # (-i)^k exactly
        ky = (ph[:, None] * kx) * ph.conj()[None, :]
        kz = kz_diag.astype(np.clongdouble)
        kz_row, kz_col = kz[None, :], kz[:, None]  # a @ K_z = a * kz_row, K_z @ a = kz_col * a
        in1 = slice(0, max(m - 1, 0))  # products of one pair exact off the last basis state
        in2 = slice(0, max(m - 2, 0))  # two products deep: two boundary layers

        def dev(mat, sl):
            block = mat[sl, sl]
            return float(np.max(np.abs(block))) if block.size else 0.0

        c_xy = comm(kx, ky)
        c_yz = ky * kz_row - kz_col * ky
        c_zx = kz_col * kx - kx * kz_row
        dev_xy = max(dev_xy, dev(c_xy + np.diag(unit_i * kz), in1))
        dev_yz = max(dev_yz, dev(c_yz - unit_i * kx, in1))
        dev_zx = max(dev_zx, dev(c_zx - unit_i * ky, in1))
        jacobi = comm(kx, c_yz) + comm(ky, c_zx) + (kz_col * c_xy - c_xy * kz_row)
        dev_jac = max(dev_jac, dev(jacobi, in2))
        casimir = np.diag(kz * kz) - kx @ kx - ky @ ky
        dev_cas = max(
            dev_cas,
            dev(comm(casimir, kx), in2),
            dev(comm(casimir, ky), in2),
            dev(casimir * kz_row - kz_col * casimir, in2),
        )

    kz_dense = BlockOperator.from_diagonal(ws, ws.kz_diags).to_dense()
    n_dense = number_operator(ws).to_dense()
    kx_dense = BlockOperator(ws, ws.kx_blocks).to_dense()
    a = _dense_annihilator(n_max)
    ladder = np.kron(a, a)  # a1 a2; a1+ a2+ is its transpose
    dev_kz_half = float(np.max(np.abs(kz_dense - (n_dense + np.eye(ws.dim)) / 2)))
    dev_kz_n = float(np.max(np.abs(kz_dense @ n_dense - n_dense @ kz_dense)))
    dev_ladder = float(np.max(np.abs(kx_dense - (ladder.T + ladder) / 2.0)))
    return [
        _cmp("comm_xy_plus_i_kz", 0.0, dev_xy, 1e-12, n_max),
        _cmp("comm_yz_minus_i_kx", 0.0, dev_yz, 1e-12, n_max),
        _cmp("comm_zx_minus_i_ky", 0.0, dev_zx, 1e-12, n_max),
        _cmp("jacobi_identity", 0.0, dev_jac, 1e-12, n_max),
        _cmp("casimir_commutes_generators", 0.0, dev_cas, 1e-12, n_max),
        _cmp("kz_minus_half_n_plus_1", 0.0, dev_kz_half, 0.0, n_max),
        _cmp("comm_kz_n", 0.0, dev_kz_n, 0.0, n_max),
        _cmp("vacuum_kz", 0.5, float(kz_dense[0, 0]), 0.0, n_max),
        _cmp("kx_ladder_representation", 0.0, dev_ladder, 1e-13, n_max),
    ]


def _thermal_records(states) -> list[GateRecord]:
    """Mean occupation and partition function of each (beta*omega, state) pair."""
    recs = []
    for bw, state in states:
        n_max = state.ws.n_max
        mean = state.mean_number()
        closed = _bath_coth(bw, 1.0) - 1.0
        recs.append(_cmp(f"thermal_mean_n[bw={bw:g}]", closed, mean, 1e-7, n_max, state.leakage))
        z_closed = (2.0 * math.sinh(bw / 2.0)) ** -2
        recs.append(
            _cmp(
                f"thermal_partition_fn[bw={bw:g}]",
                z_closed,
                state.partition_function,
                1e-14,
                n_max,
                state.leakage,
                relative=True,
            )
        )
    return recs


def _admitted_records(chains, state, bw, chi, tag) -> list[GateRecord]:
    """Records of one admitted grid point from the chains of its three forms."""
    n_max = state.ws.n_max
    coth_in = _bath_coth(bw, 1.0)
    recs = [
        _cmp(f"unitarity_defect[{name}]{tag}", 0.0, chain.defect, 1e-10, n_max)
        for name, chain in chains.items()
    ]
    moments = {name: chain.moments(state) for name, chain in chains.items()}
    leak = max(m[2] for m in moments.values())
    for na, nb in (("un1", "un2"), ("un1", "tiev"), ("un2", "tiev")):
        recs.append(
            _cmp(f"mean_n_{na}_vs_{nb}{tag}", moments[na][0], moments[nb][0], 1e-8, n_max, leak)
        )
    mean_n, var_n, _ = moments["un2"]
    # <H> after the stroke: the evolved observable 2 w_f K_z = w_f (N + 1),
    # evaluated at unit final frequency
    omega_f = 1.0
    analytic_h = omega_f * math.cosh(chi) * coth_in
    oracle_h = omega_f * (mean_n + 1.0)
    recs.append(_cmp(f"mean_h_vs_closed_form{tag}", analytic_h, oracle_h, 1e-7, n_max, leak))
    # number variance against the printed closed form (this one is expected to hold)
    var_closed = 0.5 * (math.cosh(2.0 * chi) * coth_in**2 - 1.0)
    recs.append(
        _cmp(f"delta2_n_formula{tag}", var_closed, var_n, 1e-6, n_max, leak, relative=True)
    )
    return recs


def _equivalence_records(ws, states, zeta_grid, phi_grid) -> list[GateRecord]:
    """Records of every (beta*omega, zeta, phi) grid point, beta*omega-major.

    The forms depend on (zeta, phi) only, so the grid runs (zeta, phi)-major:
    each distinct chain is built once, guarded against and read by each
    thermal state in turn; its unitarity defect is computed at the first
    beta*omega that admits it.  A point whose guard trips at one beta*omega
    is 'skipped' there alone.

    Two chains per (zeta, phi) suffice: the time-ordered form tiev,
    `evolution_endpoint(-chi, -theta)`, reads the un2 chain
    `unitary_equiv(chi, theta)`, with the same records to the bit:

    1. U_tiev = exp(i theta K_z) exp(i chi K_y)
              = [exp(i theta K_z) exp(i chi K_y) exp(-i theta K_z)] exp(i theta K_z)
              = U_un2 exp(i theta K_z).
    2. `fock._compose` keeps the leading and trailing diagonal factors
       outside the core, so both chains have the core `_exp_i_ky(ws, chi)`;
       the trailing exp(i theta K_z) of step 1 and un2's leading
       exp(-i theta K_z) are outer phases.
    3. Outer phases move no population: the guard weights, the moment
       weights and the core's unitarity defect are functions of the core
       alone, so they are the same arrays and the same float in both chains.
    """
    per_bath = [[] for _ in states]
    for zeta in zeta_grid:
        squeeze = _exp_i_ky(ws, zeta)
        for phi in phi_grid:
            chi = float(chi_of(zeta, phi))
            theta = float(theta_of(zeta, phi))
            un1 = unitary_product(squeeze, phi)
            un2 = unitary_equiv(ProtocolEndpoints(chi, theta), ws)
            chains = {"un1": un1, "un2": un2, "tiev": un2}
            for recs, (bw, state) in zip(per_bath, states):
                tag = f"[bw={bw:g},zeta={zeta:g},phi={phi:g}]"
                try:
                    un1.guard(state)
                    un2.guard(state)
                except TruncationError:
                    nan = math.nan
                    skipped = _cmp(f"equivalence{tag}", nan, nan, 1e-8, ws.n_max, nan)
                    recs.append(replace(skipped, status="skipped"))
                    continue
                recs.extend(_admitted_records(chains, state, bw, chi, tag))
    return [rec for recs in per_bath for rec in recs]


def _variance_arbitration(config: EngineConfig, ws: FockWorkspace) -> list[GateRecord]:
    """Both routes to the energy variance at a representative operating point."""
    state = thermal_state(ws, config.beta_h, config.omega2)
    recs = []
    for chi in (0.36057837857760945, 0.8):
        h_final = hamiltonian_final(config.omega1, -chi, ws)
        var_oracle = variance(h_final, state)
        mean_oracle = expect(h_final, state)
        tag = f"[chi={chi:g}]"
        recs.append(
            _cmp(
                f"mean_h_static{tag}",
                stage_energies(config, chi).h_d,
                mean_oracle,
                1e-7,
                ws.n_max,
            )
        )
        recs.append(
            _expected_mismatch(
                f"delta2_h_printed_formula{tag}",
                float(variance_h(config, chi)),
                var_oracle,
                1e-6,
                ws.n_max,
                relative=True,
            )
        )
        recs.append(
            _cmp(
                f"delta2_h_affine_route{tag}",
                config.omega1**2 * float(variance_n(config, chi)),
                var_oracle,
                1e-6,
                ws.n_max,
                relative=True,
            )
        )
    return recs


def _derivative_arbitration(config: EngineConfig) -> list[GateRecord]:
    """Central finite differences of the composed N(phi) map vs both printed forms."""
    n_in = config.coth_hot - 1.0
    step = 1e-5
    recs = []
    for zeta, phi in ((2.0, 0.1), (1.2, 0.6), (3.0, 0.05), (0.7, 1.9)):
        fd = (
            n_out(n_in, float(chi_of(zeta, phi + step)))
            - n_out(n_in, float(chi_of(zeta, phi - step)))
        ) / (2.0 * step)
        tag = f"[zeta={zeta:g},phi={phi:g}]"
        recs.append(
            _cmp(
                f"dn_dphi_chain_vs_fd{tag}",
                float(dn_dphi_chain(config, zeta, phi)),
                fd,
                1e-6,
                0,
                relative=True,
            )
        )
        recs.append(
            _expected_mismatch(
                f"dn_dphi_paper_vs_fd{tag}",
                float(dn_dphi_paper(config, zeta, phi)),
                fd,
                1e-6,
                0,
                relative=True,
            )
        )
    return recs


def _convergence_record(bw, zeta, phi, grid_ws: FockWorkspace) -> GateRecord:
    """Doubling the basis from _CONVERGENCE_N must leave a guarded average
    unchanged to 1e-8.  A basis the size of the grid's workspace reuses it."""
    n = _CONVERGENCE_N
    means = []
    for n_max in (n, 2 * n):
        ws = grid_ws if grid_ws.n_max == n_max else FockWorkspace(n_max)
        state = thermal_state(ws, bw, 1.0)
        chain = unitary_product(_exp_i_ky(ws, zeta), phi)
        chain.guard(state)
        means.append(chain.moments(state)[0])
    tag = f"[bw={bw:g},zeta={zeta:g},phi={phi:g},n={n}->{2 * n}]"
    return _cmp(f"truncation_convergence{tag}", means[0], means[1], 1e-8, 2 * n)


def run_gate(
    config: EngineConfig,
    *,
    n_max: int,
    algebra_n_max: int,
    beta_omegas,
    zeta_grid,
    phi_grid,
) -> GateResult:
    """Run every oracle check and return the classified records.

    The settings are those of the `oracle` config block (`OracleConfig`);
    the truncation budgets are the constants of `fock`.

    The equivalence grid is reported per (beta*omega, zeta, phi) point,
    beta*omega-major; points the truncation guard rejects are recorded as
    skipped, never silently dropped.
    """
    records: list[GateRecord] = []
    records.extend(_algebra_records(algebra_n_max))

    ws = FockWorkspace(n_max)
    states = [(bw, thermal_state(ws, bw, 1.0)) for bw in beta_omegas]
    records.extend(_thermal_records(states))
    records.extend(_equivalence_records(ws, states, zeta_grid, phi_grid))

    records.extend(_variance_arbitration(config, ws))
    records.extend(_derivative_arbitration(config))
    records.append(_convergence_record(0.5, 0.4, 0.9, ws))
    return GateResult(records=records)
