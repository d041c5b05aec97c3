"""Sensitivity formulas, optimizers and the shot-noise solver.

The derivative dual-route is arbitrated here by central finite differences
of the composed map phi -> n_out(N_in, chi(zeta, phi)); the Fock-basis
arbitration of the variances lives in the gate suite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from su11otto import (
    EngineConfig,
    minimize_sensitivity,
    sensitivity,
    snl,
    solve_zeta_snl,
    supersensitivity_range,
    variance_h,
    variance_n,
)
from su11otto.config import load_config
from su11otto.core import chi_of, n_out
from su11otto.errors import NoSolutionError, PhotonNumberError
from su11otto.fock import FockWorkspace, thermal_state, unitary_equiv
from su11otto.metrology import (
    dn_dphi_chain,
    dn_dphi_paper,
    photon_number_at_phase,
)

VAR_N_CHI0 = 7.8353961780655275297  # (coth^2(0.25) - 1) / 2
NBAR_HOT = 1.5414940825367982841
DN_PAPER_2_01 = 21.89242435583839271
DN_CHAIN_2_01 = 5.3618632900063226053
N_PHI_34 = 60.239664268440508526
SNL_34 = 0.12884237704231612421
ZETA_BRACKET = load_config().zeta_bracket


def _quadratic_coefficients(config, zeta, observable, derivative_mode):
    """(A, B, C, K) of delta_phi^2 = (A + B x + C x^2) / (K x (1 - x)), x = sin^2(phi/2).

    An independent reference for the solvers: A is written as
    1 / sinh^2(bh w2/2), which does not cancel at low temperature.
    """
    c = config.coth_hot
    s = math.sinh(zeta) ** 2
    a = math.sinh(config.omega2 / (2.0 * config.t_hot)) ** -2
    k = 8.0 * c * c * s * s
    if observable == "energy":
        a += 0.5 * (c * c + 1.0)
        k /= 2.0
    if derivative_mode == "paper":
        k *= c * c
    return a, 8.0 * c * c * s, 8.0 * c * c * s * s, k


def _phase_of(x):
    return 2.0 * math.asin(math.sqrt(x))


# valid engines with bh w2 in [0.01, 10], each with a squeezing, an observable and a mode
OPERATING_POINTS = dict(
    config=st.builds(
        lambda bw, ratio, omega2, cold: EngineConfig(
            omega1=ratio * omega2, omega2=omega2, t_hot=omega2 / bw, t_cold=cold * omega2 / bw
        ),
        bw=st.floats(0.01, 10.0),
        ratio=st.floats(1e-3, 1.0, exclude_min=True, exclude_max=True),
        omega2=st.floats(0.1, 10.0),
        # t_cold must stay below t_hot after rounding: a cold within an ulp or
        # so of 1 rounds cold * omega2 / bw up to omega2 / bw, an invalid engine
        cold=st.floats(1e-3, 1.0 - 1e-9),
    ),
    zeta=st.floats(0.05, 8.0),
    observable=st.sampled_from(["number", "energy"]),
    derivative_mode=st.sampled_from(["paper", "chain"]),
)


class TestVariances:
    def test_number_variance_reference(self, fig3_config):
        assert float(variance_n(fig3_config, 0.0)) == pytest.approx(VAR_N_CHI0, abs=1e-12)

    def test_thermal_relation_at_zero_chi(self, fig3_config):
        assert float(variance_n(fig3_config, 0.0)) == pytest.approx(
            2 * NBAR_HOT * (NBAR_HOT + 1), abs=1e-12
        )

    def test_number_variance_vanishes_at_zero_temperature(self):
        cold = EngineConfig(omega1=0.1, omega2=1.0, t_hot=1e-3, t_cold=1e-4)
        assert float(variance_n(cold, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_energy_variance_scales_with_omega1_squared(self):
        lo = EngineConfig(omega1=0.1, omega2=1.0, t_hot=2.0, t_cold=0.01)
        hi = EngineConfig(omega1=0.2, omega2=1.0, t_hot=2.0, t_cold=0.01)
        assert float(variance_h(hi, 0.7)) == pytest.approx(
            4.0 * float(variance_h(lo, 0.7)), rel=1e-14
        )

    def test_energy_variance_vacuum_term_is_literal(self):
        # the printed formula keeps a vacuum term: it does NOT vanish at
        # T -> 0, chi = 0 even though the energy is then sharp; the Fock
        # oracle records the disagreement (see the gate suite)
        cold = EngineConfig(omega1=0.1, omega2=1.0, t_hot=1e-3, t_cold=1e-4)
        assert float(variance_h(cold, 0.0)) == pytest.approx(0.1**2, rel=1e-9)

    def test_number_variance_matches_fock_oracle_at_large_basis(self, fig3_config):
        # spec point: beta_h*omega2 = 0.5, chi = 0.8, basis 160
        ws = FockWorkspace(160)
        state = thermal_state(ws, fig3_config.beta_h, fig3_config.omega2)
        read = unitary_equiv(ws, [0.8], [state])
        oracle = read.read(0, 0)[1]
        assert float(variance_n(fig3_config, 0.8)) == pytest.approx(oracle, rel=1e-6)


class TestDerivatives:
    def test_reference_values(self, fig3_config):
        assert float(dn_dphi_paper(fig3_config, 2.0, 0.1)) == pytest.approx(
            DN_PAPER_2_01, abs=1e-10
        )
        assert float(dn_dphi_chain(fig3_config, 2.0, 0.1)) == pytest.approx(
            DN_CHAIN_2_01, abs=1e-10
        )

    def test_zeros(self, fig3_config):
        assert float(dn_dphi_paper(fig3_config, 2.0, 0.0)) == 0.0
        assert float(dn_dphi_paper(fig3_config, 0.0, 1.0)) == 0.0
        assert float(dn_dphi_chain(fig3_config, 2.0, math.pi)) == pytest.approx(0.0, abs=1e-14)

    def test_chain_matches_finite_differences(self, fig3_config, rng):
        n_in = 1.0 / math.tanh(fig3_config.beta_h * fig3_config.omega2 / 2.0) - 1.0
        step = 1e-5
        for _ in range(20):
            zeta = rng.uniform(0.3, 3.5)
            phi = rng.uniform(0.05, math.pi - 0.05)
            fd = (
                n_out(n_in, float(chi_of(zeta, phi + step)))
                - n_out(n_in, float(chi_of(zeta, phi - step)))
            ) / (2 * step)
            assert float(dn_dphi_chain(fig3_config, zeta, phi)) == pytest.approx(
                fd, rel=1e-6
            )


class TestSensitivityPoint:
    def test_energy_sensitivity_strictly_above_number(self, fig3_config, rng):
        for _ in range(50):
            pt = sensitivity(
                fig3_config, rng.uniform(0.5, 4.0), rng.uniform(0.05, 3.0), "chain"
            )
            assert pt.delta_phi_h > pt.delta_phi_n

    def test_omega1_cancels_in_energy_sensitivity(self):
        # dH/dphi = omega1 dN/dphi, so delta_phi_h is omega1-free
        lo = EngineConfig(omega1=0.1, omega2=1.0, t_hot=2.0, t_cold=0.01)
        hi = EngineConfig(omega1=0.3, omega2=1.0, t_hot=2.0, t_cold=0.01)
        a = sensitivity(lo, 2.0, 0.4, "paper").delta_phi_h
        b = sensitivity(hi, 2.0, 0.4, "paper").delta_phi_h
        assert a == pytest.approx(b, rel=1e-13)

    def test_divergence_sentinel_at_phase_endpoints(self, fig3_config):
        pt = sensitivity(fig3_config, 2.0, 0.0, "chain")
        assert math.isinf(pt.delta_phi_n) and pt.diverged

    def test_definitional_consistency(self, fig3_config):
        zeta, phi = 2.5, 0.6
        pt = sensitivity(fig3_config, zeta, phi, "paper")
        chi = float(chi_of(zeta, phi))
        dn = abs(float(dn_dphi_paper(fig3_config, zeta, phi)))
        assert pt.delta_phi_n == pytest.approx(
            math.sqrt(float(variance_n(fig3_config, chi))) / dn, rel=1e-14
        )
        assert pt.delta_phi_h == pytest.approx(
            math.sqrt(float(variance_h(fig3_config, chi)))
            / (fig3_config.omega1 * dn),
            rel=1e-14,
        )


class TestShotNoise:
    def test_reference_values(self, fig3_config):
        n_in = 1.0 / math.tanh(0.25) - 1.0
        assert photon_number_at_phase(n_in, 3.4) == pytest.approx(N_PHI_34, abs=1e-10)
        assert snl(fig3_config, 3.4) == pytest.approx(SNL_34, abs=1e-12)

    def test_zero_squeezing_keeps_input_number(self, fig3_config):
        n_in = 1.0 / math.tanh(0.25) - 1.0
        assert photon_number_at_phase(n_in, 0.0) == pytest.approx(n_in, abs=1e-14)

    def test_vacuum_without_squeezing_errors(self):
        with pytest.raises(PhotonNumberError):
            photon_number_at_phase(0.0, 0.0)

    def test_monotone_decreasing(self, fig3_config):
        values = [snl(fig3_config, z) for z in np.linspace(1.0, 5.0, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSupersensitivity:
    def test_panels_match_published_structure(self, fig3_config):
        # zeta=2: neither observable dips below the benchmark
        assert supersensitivity_range(fig3_config, 2.0, "energy", "chain").empty
        assert supersensitivity_range(fig3_config, 2.0, "number", "chain").empty
        # zeta=4: both do, and the number window contains the energy window
        rng_h = supersensitivity_range(fig3_config, 4.0, "energy", "chain")
        rng_n = supersensitivity_range(fig3_config, 4.0, "number", "chain")
        assert not rng_h.empty and not rng_n.empty
        assert rng_n.lo < rng_h.lo < rng_h.hi < rng_n.hi
        assert 0.0 < rng_n.lo and rng_n.hi < math.pi

    def test_degenerate_squeezing_is_empty(self, fig3_config):
        assert supersensitivity_range(fig3_config, 0.0, "energy", "chain").empty

    def test_edges_sit_on_the_benchmark(self, fig3_config):
        rng_h = supersensitivity_range(fig3_config, 4.0, "energy", "chain")
        benchmark = snl(fig3_config, 4.0)
        for edge in (rng_h.lo, rng_h.hi):
            pt = sensitivity(fig3_config, 4.0, edge, "chain")
            assert pt.delta_phi_h == pytest.approx(benchmark, rel=1e-4)

    @pytest.mark.parametrize("derivative_mode", ["chain", "paper"])
    @pytest.mark.parametrize("observable", ["number", "energy"])
    def test_interval_past_the_scan_floor_raises(self, fig3_config, observable, derivative_mode):
        # at zeta = 12 the closed-form lower edge lies below _RANGE_RESOLUTION = 1e-6
        # (5.97e-8 for the number, chain mode): the first scan point is already
        # inside the interval, and the floor is no edge
        with pytest.raises(NoSolutionError, match=r"^zeta = 12: .* scan floor 1e-06$"):
            supersensitivity_range(fig3_config, 12.0, observable, derivative_mode)

    @settings(max_examples=150)
    @given(**OPERATING_POINTS)
    def test_matches_the_closed_form_interval(self, config, zeta, observable, derivative_mode):
        # delta_phi^2 < 1/N_phi is (C + T) x^2 + (B - T) x + A < 0, T = K/N_phi:
        # the interval between its two roots, empty unless both are real and positive
        a, b, c, k = _quadratic_coefficients(config, zeta, observable, derivative_mode)
        t = k / (config.coth_hot * math.cosh(zeta) - 1.0)
        disc = (b - t) ** 2 - 4.0 * (c + t) * a
        if disc <= 0.0 or b >= t:
            assert supersensitivity_range(config, zeta, observable, derivative_mode).empty
            return
        x_lo = 2.0 * a / (t - b + math.sqrt(disc))
        x_hi = (t - b + math.sqrt(disc)) / (2.0 * (c + t))
        lo, hi = _phase_of(x_lo), _phase_of(x_hi)
        if lo < 1e-6 < hi or lo < math.pi - 1e-6 < hi:
            # the interval holds a scan edge, which is no edge of the interval
            with pytest.raises(NoSolutionError, match="scan (floor|ceiling)"):
                supersensitivity_range(config, zeta, observable, derivative_mode)
            return
        rng = supersensitivity_range(config, zeta, observable, derivative_mode)
        if rng.empty:
            # only an interval narrower than two scan steps may slip between them
            assert hi - lo < 2.0 * math.pi / 4095
            return
        assert rng.lo == pytest.approx(lo, abs=2e-6)
        assert rng.hi == pytest.approx(hi, abs=2e-6)


class TestMinimizer:
    def test_local_minimality(self, fig3_config):
        phi_star, d_min = minimize_sensitivity(fig3_config, 3.4, "energy", "chain")
        for offset in (-1e-4, 1e-4):
            pt = sensitivity(fig3_config, 3.4, phi_star + offset, "chain")
            assert pt.delta_phi_h >= d_min

    def test_agrees_with_independent_minimizer(self, fig3_config):
        phi_star, d_min = minimize_sensitivity(fig3_config, 3.0, "energy", "chain")
        ref = minimize_scalar(
            lambda p: sensitivity(fig3_config, 3.0, p, "chain").delta_phi_h,
            bounds=(1e-6, math.pi - 1e-6),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert d_min == pytest.approx(ref.fun, rel=1e-8)
        assert phi_star == pytest.approx(ref.x, abs=1e-6)

    def test_touches_benchmark_at_published_squeezing(self, fig3_config):
        _, d_min = minimize_sensitivity(fig3_config, 3.4, "energy", "chain")
        assert d_min / snl(fig3_config, 3.4) == pytest.approx(1.0, abs=0.02)

    @settings(max_examples=150)
    @given(**OPERATING_POINTS)
    def test_matches_the_closed_form_minimum(self, config, zeta, observable, derivative_mode):
        # the one stationary point: (B + C) x^2 + 2 A x - A = 0, in its cancellation-free form
        a, b, c, k = _quadratic_coefficients(config, zeta, observable, derivative_mode)
        x = a / (math.sqrt(a * a + a * (b + c)) + a)
        d_min = math.sqrt((a + b * x + c * x * x) / (k * x * (1.0 - x)))
        phi_star, value = minimize_sensitivity(config, zeta, observable, derivative_mode)
        assert value == pytest.approx(d_min, rel=1e-12)
        assert phi_star == pytest.approx(_phase_of(x), abs=1e-6)

    @pytest.mark.parametrize("derivative_mode", ["chain", "paper"])
    @pytest.mark.parametrize("observable", ["number", "energy"])
    def test_optimum_below_the_scan_floor_raises(self, fig3_config, observable, derivative_mode):
        # past zeta ~ 14.7 the optimum phase falls below _PHI_LO = 1e-6 (at zeta = 20
        # the number optimum is 4.8e-9); the floor's delta_phi is no minimum
        a, b, c, _ = _quadratic_coefficients(fig3_config, 20.0, observable, derivative_mode)
        assert _phase_of(a / (math.sqrt(a * a + a * (b + c)) + a)) < 1e-6
        with pytest.raises(NoSolutionError, match=r"^zeta = 20: .* scan floor 1e-06$"):
            minimize_sensitivity(fig3_config, 20.0, observable, derivative_mode)


class TestSnlSolver:
    def test_chain_energy_solution(self, fig3_config):
        sol = solve_zeta_snl(fig3_config, "energy", "chain", zeta_bracket=ZETA_BRACKET)
        assert sol.zeta_snl == pytest.approx(3.4, abs=0.1)
        assert sol.eta_snl == pytest.approx(0.705, abs=0.01)
        assert sol.delta_phi_min == pytest.approx(sol.snl_value, rel=1e-4)

    def test_chi_is_definitional(self, fig3_config):
        sol = solve_zeta_snl(fig3_config, "number", "chain", zeta_bracket=ZETA_BRACKET)
        assert sol.chi_snl == pytest.approx(
            float(chi_of(sol.zeta_snl, sol.phi_snl)), abs=1e-10
        )

    def test_paper_mode_converges_to_its_own_root(self, fig3_config):
        # the literal coth^2 derivative gives a much smaller threshold; both
        # roots are reported side by side by the snl command
        sol = solve_zeta_snl(fig3_config, "energy", "paper", zeta_bracket=ZETA_BRACKET)
        assert sol.zeta_snl == pytest.approx(1.049, abs=0.05)

    def test_bracket_past_the_scan_floor_fails(self, fig3_config):
        # at zeta = 30 the floor's delta_phi would put g(30) above 0, where the
        # true g(30) < 0, and the bracket [0.5, 30] would lose the root at 3.4
        with pytest.raises(NoSolutionError, match="zeta = 30: .* scan floor"):
            solve_zeta_snl(fig3_config, "energy", "chain", zeta_bracket=(0.5, 30.0))

    def test_no_crossing_raises(self, fig3_config):
        with pytest.raises(NoSolutionError):
            solve_zeta_snl(fig3_config, "energy", "chain", zeta_bracket=(0.5, 0.7))
