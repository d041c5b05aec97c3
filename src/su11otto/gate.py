"""Verification gate: closed forms vs the truncated-Fock oracle.

Runs the whole dual-route check suite and returns typed records:

* algebra: commutators, Jacobi identity, the scalar Casimir and
  K_z = (N+1)/2 as O(states) identities, one vectorised pass over the K_x
  band and the K_z and N diagonals of the grid's own workspace, in double
  precision; the band's placement against the ladder operators, checked
  blockwise with no dense matrix;
* thermal machinery: partition function, mean occupation, tail leakage;
* the endpoint equivalence of the product form un1 and the endpoint form
  un2, with the time-ordered form tiev read from the un2 read it provably
  equals (`_equivalence_records`): diagonal-state averages of N and H agree
  pairwise and match omega_f cosh(chi) coth(beta omega_i / 2);
* variance arbitration: the number-variance formula against direct linear
  algebra, and both routes to the energy variance;
* derivative arbitration: the two printed forms of dN/dphi against central
  finite differences of the composed map.

Each record's status is decided once, where `_cmp` builds it: "pass"
within tolerance, else the record's miss status.  That is "fail" for
checks the formulas must satisfy, "discrepancy" for printed expressions
the oracle is expected to contradict (they do not fail the gate; they exit
with the dedicated discrepancy code so automation can tell the outcomes
apart), and "skipped" for grid points the truncation guard refuses at the
configured basis size, with the worst guarded occupancy as their leakage.

The endpoint unitaries depend on (zeta, phi) only; the bath enters
through the thermal input state alone.  So the equivalence grid is read
whole by `fock`'s two grid reads, one per form, each thermal state against
every point at once, and the records are reported beta*omega-major.  The
endpoint form un2 depends on chi alone; the squeeze exp(i zeta K_y) of the
product form un1 depends on zeta alone, so its read builds it once per zeta
and reads it at every phi.  The unitarity records are the reads' proven
bounds from their factors, taken when a record first reads them, for every
point, from the Grams of `kx_eig`'s factors, once per workspace, and the
moduli of each rotation: un2's (and tiev's) at chi, un1's at the squeeze
angle zeta, composed with the phases' moduli.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .core import EngineConfig, _bath_coth, chi_of, n_out
from .cycle import stage_energies
from .errors import TruncationError
from .fock import (
    FockWorkspace,
    expect,
    hamiltonian_final,
    thermal_state,
    unitary_equiv,
    unitary_product,
    variance,
)
from .metrology import _variance_n, dn_dphi_chain, dn_dphi_paper, variance_h, variance_n

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
    def counts(self) -> Counter:
        return Counter(r.status for r in self.records)

    @property
    def exit_code(self) -> int:
        counts = self.counts
        if counts["fail"]:
            return EXIT_HARD_FAILURE
        if counts["discrepancy"]:
            return EXIT_DISCREPANCY_ONLY
        return EXIT_OK


def _cmp(
    quantity, analytic, oracle, tol, n_max, leakage=0.0, *, relative=False, miss="fail"
) -> GateRecord:
    """The record: "pass" within tol, else `miss`; a NaN error is never within tol."""
    rec = GateRecord(quantity, float(analytic), float(oracle), tol, n_max, leakage, "pass")
    err = rec.rel_err if relative else rec.abs_err
    return rec if err <= tol else replace(rec, status=miss)


def _algebra_records(ws: FockWorkspace, algebra_n_max: int) -> list[GateRecord]:
    """Structure-constant checks: O(states) identities on the band of the grid's K_x.

    Each stored sector d carries the discrete series D+(k) of su(1,1), with
    Bargmann index k = (d + 1)/2 (Bargmann, Ann. Math. 48, 568 (1947)): at
    position j, K_z,j = k + j, and K_x is symmetric tridiagonal with a zero
    diagonal and the band b_j = K_x[j, j+1], b_j^2 = (j + 1)(j + 2k)/4.
    K_y = i(upper - lower band) is its quarter turn about K_z.  On the
    interior rows j <= m - 2 (b_-1 = 0) each identity is one line:

    * [K_x, K_y] = -i K_z  <=>  2(b_j^2 - b_j-1^2) = K_z,j: the diagonal of
      [K_x, K_y] is -2i(b_j^2 - b_j-1^2), and at (j, j +- 2) both of its
      products are the same i b_j b_j+1, which cancel exactly, in floating
      point too;
    * [K_y, K_z] = i K_x and [K_z, K_x] = i K_y  <=>  K_z,j+1 - K_z,j = 1;
    * the Casimir K_z^2 - K_x^2 - K_y^2 is diagonal (the (j, j +- 2)
      entries of K_x^2 and K_y^2 cancel the same way) with the entries
      K_z,j^2 - 2(b_j^2 + b_j-1^2) = k(k - 1): a scalar, which is stronger
      than commuting with the generators;
    * Jacobi: once the commutators close, each term [K_a, [K_b, K_c]] is
      a multiple of [K_a, K_a] = 0 by itself, so `jacobi_identity` is the
      largest commutator residual and cannot fail on its own.

    Every check is one vectorised pass over the concatenated stored states,
    reading the band `kx_band` and the workspace's own K_z and N diagonals.
    The [K_x, K_y] and Casimir residuals are relative to K_z,j and K_z,j^2,
    since b_j^2 rounds at the ulp of ~K_z^2.  Only the stored sectors
    d >= 0 are read: the mirror block of sector -d is identical entry for
    entry.  `kx_ladder_representation` checks the band's placement
    blockwise, with no dense matrix, on `FockWorkspace(algebra_n_max)` (the
    grid's own when the sizes agree): each sector's `idx` is
    n1 (n_max + 1) + n2 with n1 - n2 = d, so sector -d is its mode swap (a
    miss counts its index error), and each b_j is <n1+1, n2+1| (a1+ a2+ +
    a1 a2)/2 |n1, n2> = a[n1_j, n1_j+1] a[n2_j, n2_j+1]/2 of the single-mode
    annihilator a, read against the next stored state, so 0 at each
    sector's last state.
    """
    kz, n, band = ws.kz, ws.n, ws.kx_band
    inner = np.ones(len(n), bool)  # the interior rows: all but each sector's last
    inner[ws.last] = False
    b2 = band * band
    # b_j-1^2: 0 on each sector's first row, as the band is 0 at the last row of
    # the sector before (`kx_ladder_representation` checks it)
    prev = np.concatenate(([0.0], b2[:-1]))
    kz_in, b2, prev = kz[inner], b2[inner], prev[inner]
    k = ((ws._n1 - ws._n2)[inner] + 1) / 2.0
    xy = np.abs(2.0 * (b2 - prev) - kz_in) / kz_in
    cas = np.abs(kz_in * kz_in - 2.0 * (b2 + prev) - k * (k - 1.0)) / (kz_in * kz_in)
    dev_xy = np.max(xy, initial=0.0)
    dev_step = np.max(np.abs(np.diff(kz)[inner[:-1]] - 1.0), initial=0.0)

    small = ws if ws.n_max == algebra_n_max else FockWorkspace(algebra_n_max)
    sectors = small.sectors
    n1, n2, idx = (np.concatenate([getattr(s, f) for s in sectors]) for f in ("n1", "n2", "idx"))
    d = np.repeat([s.d for s in sectors], [s.size for s in sectors])
    # the single-mode a[n, m] = sqrt(m) [m = n + 1] at each state n and the next
    # stored state m, m = 0 past the last, which has no next
    next1, next2 = np.append(n1[1:], 0), np.append(n2[1:], 0)
    a1 = np.where(next1 == n1 + 1, np.sqrt(next1), 0.0)
    a2 = np.where(next2 == n2 + 1, np.sqrt(next2), 0.0)
    ladder = 0.5 * (a1 * a2)
    misplaced = np.abs(idx - (n1 * (algebra_n_max + 1) + n2)) + np.abs(n1 - n2 - d)
    dev_ladder = max(np.max(np.abs(small.kx_band - ladder)), np.max(misplaced))
    n_max = ws.n_max
    return [
        _cmp("comm_xy_plus_i_kz", 0.0, dev_xy, 1e-12, n_max),
        _cmp("comm_yz_minus_i_kx", 0.0, dev_step, 1e-12, n_max),
        _cmp("comm_zx_minus_i_ky", 0.0, dev_step, 1e-12, n_max),
        _cmp("jacobi_identity", 0.0, max(dev_xy, dev_step), 1e-12, n_max),
        _cmp("casimir_commutes_generators", 0.0, np.max(cas, initial=0.0), 1e-12, n_max),
        _cmp("kz_minus_half_n_plus_1", 0.0, np.max(np.abs(kz - (n + 1.0) / 2.0)), 0.0, n_max),
        _cmp("comm_kz_n", 0.0, np.max(np.abs(kz * n - n * kz)), 0.0, n_max),
        _cmp("vacuum_kz", 0.5, kz[0], 0.0, n_max),
        _cmp("kx_ladder_representation", 0.0, dev_ladder, 1e-13, algebra_n_max),
    ]


def _thermal_records(states) -> list[GateRecord]:
    """Mean occupation of each (beta*omega, state) pair, and the partition
    function of its beta*omega in two closed forms."""
    recs = []
    for bw, state in states:
        n_max = state.ws.n_max
        mean = state.mean_number()
        closed = _bath_coth(bw, 1.0) - 1.0
        recs.append(_cmp(f"thermal_mean_n[bw={bw:g}]", closed, mean, 1e-7, n_max, state.leakage))
        # Z = sum_n (n + 1) q^(n + 1) with q = exp(-bw); neither form is a Fock sum
        q = math.exp(-bw)
        recs.append(
            _cmp(
                f"thermal_partition_fn[bw={bw:g}]",
                (2.0 * math.sinh(bw / 2.0)) ** -2,
                q / (1.0 - q) ** 2,
                1e-14,
                n_max,
                state.leakage,
                relative=True,
            )
        )
    return recs


def _admitted_records(defects, reads, n_max, bw, chi, tag) -> list[GateRecord]:
    """Records of one admitted grid point from its three forms' defect bounds and reads."""
    coth_in = _bath_coth(bw, 1.0)
    recs = [
        _cmp(f"unitarity_defect[{name}]{tag}", 0.0, defect, 1e-10, n_max)
        for name, defect in defects.items()
    ]
    leak = max(m[-1] for m in reads.values())
    for na, nb in (("un1", "un2"), ("un1", "tiev"), ("un2", "tiev")):
        recs.append(
            _cmp(f"mean_n_{na}_vs_{nb}{tag}", reads[na][0], reads[nb][0], 1e-8, n_max, leak)
        )
    mean_n, var_n, _ = reads["un2"]
    # <H> after the stroke: the evolved observable 2 w_f K_z = w_f (N + 1),
    # evaluated at unit final frequency, with N_in + 1 = coth_in
    analytic_h = n_out(coth_in - 1.0, chi) + 1.0
    recs.append(_cmp(f"mean_h_vs_closed_form{tag}", analytic_h, mean_n + 1.0, 1e-7, n_max, leak))
    # number variance against the printed closed form (this one is expected to hold)
    var_closed = _variance_n(coth_in, np.cosh(2.0 * chi))
    recs.append(
        _cmp(f"delta2_n_formula{tag}", var_closed, var_n, 1e-6, n_max, leak, relative=True)
    )
    return recs


def _equivalence_records(ws, states, zeta_grid, phi_grid) -> list[GateRecord]:
    """Records of every (beta*omega, zeta, phi) grid point, beta*omega-major,
    from one read of the grid per form (module docstring), all read at one
    zeta-major point index.  A point where a read trips the guard at one
    beta*omega is 'skipped' there alone.

    The time-ordered form tiev, `evolution_endpoint(-chi, -theta)`, reads the
    un2 read, with the same records to the bit: U_tiev = exp(i theta K_z)
    exp(i chi K_y) = U_un2 exp(i theta K_z), and outer K_z phases move no
    population, so both have the populations of exp(i chi K_y), all that the
    un2 read reads, and the defect bound of its factors at chi.
    """
    thermal = [state for _, state in states]
    points = [(zeta, phi) for zeta in zeta_grid for phi in phi_grid]
    chis = [float(chi_of(*p)) for p in points]
    un2 = unitary_equiv(ws, chis, thermal, with_variance=True)
    forms = {"un1": unitary_product(ws, zeta_grid, phi_grid, thermal), "un2": un2, "tiev": un2}
    records = []
    for i, (bw, _) in enumerate(states):
        for j, ((zeta, phi), chi) in enumerate(zip(points, chis)):
            tag = f"[bw={bw:g},zeta={zeta:g},phi={phi:g}]"
            try:
                reads = {name: form.read(i, j) for name, form in forms.items()}
            except TruncationError:
                leak = float(max(form.occupancy[i, j] for form in forms.values()))
                nan = math.nan
                records.append(
                    _cmp(f"equivalence{tag}", nan, nan, 1e-8, ws.n_max, leak, miss="skipped")
                )
                continue
            defects = {name: form.defect[j] for name, form in forms.items()}
            records.extend(_admitted_records(defects, reads, ws.n_max, bw, chi, tag))
    return records


def _variance_arbitration(config: EngineConfig, ws: FockWorkspace) -> list[GateRecord]:
    """Both routes to the energy variance at a representative operating point."""
    try:
        state = thermal_state(ws, config.beta_h, config.omega2)
    except TruncationError as err:
        raise TruncationError(
            "the variance arbitration's hot state (beta = 1/engine.t_hot, omega = "
            f"engine.omega2) needs a larger oracle.n_max: {err}"
        ) from err
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
            _cmp(
                f"delta2_h_printed_formula{tag}",
                float(variance_h(config, chi)),
                var_oracle,
                1e-6,
                ws.n_max,
                relative=True,
                miss="discrepancy",
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
            _cmp(
                f"dn_dphi_paper_vs_fd{tag}",
                float(dn_dphi_paper(config, zeta, phi)),
                fd,
                1e-6,
                0,
                relative=True,
                miss="discrepancy",
            )
        )
    return recs


def _convergence_record(bw, zeta, phi, grid_ws: FockWorkspace) -> GateRecord:
    """Doubling the basis from _CONVERGENCE_N must leave a guarded average
    unchanged to 1e-8.  A basis the size of the grid's workspace reuses it.

    The average is the endpoint form's at (zeta, phi), read without a squeeze.
    Either form is a valid witness: both are the same unitary on the
    untruncated space, so either one's average moves under the doubling by
    its truncation error, and the equivalence records check that the two
    forms' truncated reads agree.  The record reads <N> and the guard alone:
    each basis's read forms no <N^2>, and no record reads its defect bound,
    so a fresh basis forms no Gram."""
    n = _CONVERGENCE_N
    chi = float(chi_of(zeta, phi))
    means = []
    for n_max in (n, 2 * n):
        ws = grid_ws if grid_ws.n_max == n_max else FockWorkspace(n_max)
        state = thermal_state(ws, bw, 1.0)
        means.append(unitary_equiv(ws, [chi], [state], with_variance=False).read(0, 0)[0])
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
    ws = FockWorkspace(n_max)
    records = _algebra_records(ws, algebra_n_max)
    states = [(bw, thermal_state(ws, bw, 1.0)) for bw in beta_omegas]
    records.extend(_thermal_records(states))
    records.extend(_equivalence_records(ws, states, zeta_grid, phi_grid))

    records.extend(_variance_arbitration(config, ws))
    records.extend(_derivative_arbitration(config))
    records.append(_convergence_record(0.5, 0.4, 0.9, ws))
    return GateResult(records=records)
