"""Sensitivity formulas, optimizers and the shot-noise solver.

The derivative dual-route is arbitrated here by central finite differences
of the composed map phi -> n_out(N_in, chi(zeta, phi)); the Fock-basis
arbitration of the variances lives in the gate suite.
"""

import collections
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from su11otto import core, metrology
from su11otto.config import load_config
from su11otto.core import chi_of, n_out
from su11otto.errors import NoSolutionError, PhotonNumberError
from su11otto.fock import FockWorkspace, thermal_state, unitary_equiv
from su11otto.metrology import (
    DERIVATIVE_MODES,
    OBSERVABLES,
    delta_phi,
    delta_phi_objective,
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


def _engines(bw_max):
    """Valid engines with bh w2 in [0.01, bw_max]."""
    return st.builds(
        lambda bw, ratio, omega2, cold: EngineConfig(
            omega1=ratio * omega2, omega2=omega2, t_hot=omega2 / bw, t_cold=cold * omega2 / bw
        ),
        bw=st.floats(0.01, bw_max),
        ratio=st.floats(1e-3, 1.0, exclude_min=True, exclude_max=True),
        omega2=st.floats(0.1, 10.0),
        # t_cold must stay below t_hot after rounding: a cold within an ulp or
        # so of 1 rounds cold * omega2 / bw up to omega2 / bw, an invalid engine
        cold=st.floats(1e-3, 1.0 - 1e-9),
    )


# valid engines with bh w2 in [0.01, 10], each with a squeezing, an observable and a mode
OPERATING_POINTS = dict(
    config=_engines(10.0),
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


def _delta_phi_reference(config, zeta, phi, derivative_mode):
    """delta_phi with every formula written out, in the operation order the
    package must keep: chi_of, dn_dphi_*, variance_n and variance_h inline."""
    phi = np.asarray(phi, dtype=float)
    c = config.coth_hot
    chi = np.arccosh(1.0 + 2.0 * np.sin(phi / 2.0) ** 2 * np.sinh(zeta) ** 2)
    dn = np.sin(phi) * np.sinh(zeta) ** 2 * c
    dn = np.abs(dn * c if derivative_mode == "paper" else dn)
    var_n = 0.5 * (np.cosh(2.0 * chi) * c * c - 1.0)
    sig_n = np.sqrt(var_n)
    sig_h = np.sqrt(2.0 * config.omega1**2 * (var_n + 0.25 * (c * c + 1.0)))
    with np.errstate(divide="ignore", over="ignore"):
        return {
            "number": np.where(dn <= 1e-300, np.inf, sig_n / dn),
            "energy": np.where(dn <= 1e-300, np.inf, sig_h / (config.omega1 * dn)),
        }


def _with_warnings(fn):
    """fn() and the messages of the warnings it raised; numpy's "scalar " prefix dropped."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn()
    return value, {(w.category, str(w.message).replace("scalar ", "")) for w in caught}


# (edge, points) of the two scan tables: minimize_sensitivity's and supersensitivity_range's
SCAN_GRIDS = [
    (metrology._PHI_LO, metrology._COARSE_POINTS),
    (metrology._RANGE_RESOLUTION, metrology._RANGE_SCAN_POINTS),
]


# zeta on [0, 20] and phi on [0, pi], each endpoint and NaN drawn on purpose
ZETAS = st.one_of(st.sampled_from([0.0, 20.0, math.nan]), st.floats(0.0, 20.0))
PHIS = st.one_of(st.sampled_from([0.0, math.pi, math.nan]), st.floats(0.0, math.pi))


class TestObjective:
    @settings(max_examples=300)
    @given(
        # bh w2 up to 100 reaches the cold limit, where coth(bh w2/2) rounds to 1
        config=_engines(100.0),
        zeta=ZETAS,
        phi=PHIS,
        phis=st.lists(PHIS, min_size=1, max_size=8),
        observable=st.sampled_from(OBSERVABLES),
        derivative_mode=st.sampled_from(DERIVATIVE_MODES),
    )
    # w1 dN/dphi underflows to 0 above the derivative floor: sig / 0 = +inf
    @example(
        config=EngineConfig(omega1=1e-30, omega2=1.0, t_hot=2.0, t_cold=0.01),
        zeta=1.0, phi=1e-296, phis=[1e-296], observable="energy", derivative_mode="chain",
    )
    def test_matches_delta_phi_bit_for_bit(
        self, config, zeta, phi, phis, observable, derivative_mode
    ):
        # the solvers' scalar steps and the scans must read exactly what delta_phi
        # writes (== or both NaN), and warn about nothing delta_phi does not
        f = delta_phi_objective(config, zeta, observable, derivative_mode)
        column = OBSERVABLES.index(observable)
        for p in (phi, np.float64(phi), np.array(phis)):
            ref, ref_warned = _with_warnings(
                lambda: _delta_phi_reference(config, zeta, p, derivative_mode)[observable]
            )
            value, warned = _with_warnings(lambda: f(p))
            np.testing.assert_array_equal(value, ref, strict=True)  # NaN equals NaN here
            assert warned <= ref_warned
            value, _ = _with_warnings(lambda: delta_phi(config, zeta, p, derivative_mode)[column])
            np.testing.assert_array_equal(value, ref, strict=True)

    @settings(max_examples=100)
    @given(
        config=_engines(100.0),
        zeta=ZETAS,
        observable=st.sampled_from(OBSERVABLES),
        derivative_mode=st.sampled_from(DERIVATIVE_MODES),
    )
    def test_scan_tables_read_as_their_grids(self, config, zeta, observable, derivative_mode):
        # a scan on a table reuses its sines, and must read what the same phases
        # give as a plain array, to the objective and to delta_phi alike
        f = delta_phi_objective(config, zeta, observable, derivative_mode)
        column = OBSERVABLES.index(observable)
        for phi, *sines in (metrology._scan_table(*grid) for grid in SCAN_GRIDS):
            value, warned = _with_warnings(lambda: f(phi, sines))
            ref, ref_warned = _with_warnings(lambda: f(phi))
            np.testing.assert_array_equal(value, ref, strict=True)
            assert warned == ref_warned
            ref, _ = _with_warnings(lambda: delta_phi(config, zeta, phi, derivative_mode)[column])
            np.testing.assert_array_equal(value, ref, strict=True)

    @pytest.mark.parametrize("edge, points", SCAN_GRIDS)
    def test_scan_tables_are_the_grids_and_read_only(self, edge, points):
        table = metrology._scan_table(edge, points)
        phi = np.linspace(edge, math.pi - edge, points)
        for column, ref in zip(table, (phi, np.sin(phi), np.sin(phi / 2.0) ** 2), strict=True):
            np.testing.assert_array_equal(column, ref, strict=True)
        for column in table:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0


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

    @pytest.mark.parametrize("derivative_mode", DERIVATIVE_MODES)
    @pytest.mark.parametrize("observable", OBSERVABLES)
    def test_zero_squeezing_is_infinite_at_every_phase(
        self, fig3_config, observable, derivative_mode
    ):
        # at zeta = 0 dN/dphi vanishes at every phi, so delta_phi is +inf throughout
        # and phi* is arbitrary: the golden section settles at the first scan step's top
        phi_star, value = minimize_sensitivity(fig3_config, 0.0, observable, derivative_mode)
        assert value == math.inf
        assert 1e-6 < phi_star <= 1e-6 + (math.pi - 2e-6) / 1999

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

    @pytest.mark.parametrize("derivative_mode", DERIVATIVE_MODES)
    @pytest.mark.parametrize("observable", OBSERVABLES)
    def test_bracket_from_zero_squeezing_solves(self, fig3_config, observable, derivative_mode):
        # g(0) = +inf - snl(0) > 0, so a bracket may start at zeta = 0
        sol = solve_zeta_snl(fig3_config, observable, derivative_mode, zeta_bracket=(0.0, 8.0))
        ref = solve_zeta_snl(fig3_config, observable, derivative_mode, zeta_bracket=ZETA_BRACKET)
        assert sol.zeta_snl == pytest.approx(ref.zeta_snl, abs=2e-6)

    def test_cost_shape_on_defaults(self, monkeypatch):
        # the snl command's solves build one objective per minimization and call
        # neither delta_phi nor chi_of in a golden-section or bisection step:
        # chi_of runs once per solution, for chi_snl after the loops.  The scans
        # read two tables, each built once, however many minimizations run
        calls = collections.Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("delta_phi", "delta_phi_objective", "minimize_sensitivity", "chi_of"):
            count(metrology, name, name)
        count(core, "chi_of", "core.chi_of")
        count(metrology.np, "linspace", "linspace")
        metrology._scan_table.cache_clear()
        config = load_config()
        for observable in OBSERVABLES:
            for mode in DERIVATIVE_MODES:
                metrology.solve_zeta_snl(
                    config.engine, observable, mode, zeta_bracket=config.zeta_bracket
                )
        assert calls["minimize_sensitivity"] > 0
        assert calls["delta_phi_objective"] == calls["minimize_sensitivity"]
        assert calls["delta_phi"] == calls["core.chi_of"] == 0
        assert calls["chi_of"] == 4
        builds = calls["delta_phi_objective"]
        metrology.supersensitivity_range(config.engine, 4.0, "energy", "chain")
        assert calls["delta_phi_objective"] == builds + 1
        assert calls["delta_phi"] == calls["core.chi_of"] == 0 and calls["chi_of"] == 4
        assert calls["linspace"] <= 2 < calls["minimize_sensitivity"]


class _NoWork:
    """Stands in for numpy and the solvers' callees: any use is work before the check."""

    def __getattr__(self, name):
        raise AssertionError(f"work before the argument check: {name}")

    def __call__(self, *args, **kwargs):
        raise AssertionError("work before the argument check")


# each solver at a good zeta (or bracket) by default
SOLVERS = {
    "minimize_sensitivity": lambda config, o, d, z=3.4: minimize_sensitivity(config, z, o, d),
    "supersensitivity_range": lambda config, o, d, z=4.0: supersensitivity_range(config, z, o, d),
    "solve_zeta_snl": lambda config, o, d, z=ZETA_BRACKET: solve_zeta_snl(
        config, o, d, zeta_bracket=z
    ),
}
BAD_ZETAS = [math.nan, math.inf, -math.inf, -0.5, -1e-300]
BAD_BRACKETS = [
    (0.5, math.nan), (math.nan, 8.0), (0.5, math.inf), (-0.5, 8.0), (8.0, 0.5), (3.0, 3.0),
]
BAD_CALLS = [
    *(
        pytest.param(solver, observable, derivative_mode, {}, message,
                     id=f"{observable}-{derivative_mode}-{message}-{solver}")
        for observable, derivative_mode, message in [
            ("bogus", "chain", "observable must be one of ('number', 'energy'), got 'bogus'"),
            ("number", "bogus", "derivative_mode must be one of ('paper', 'chain'), got 'bogus'"),
        ]
        for solver in SOLVERS
    ),
    *(
        pytest.param(solver, "energy", "chain", {"z": z}, f"zeta must be finite and >= 0, got {z}",
                     id=f"{solver}-zeta={z}")
        for solver in ("minimize_sensitivity", "supersensitivity_range")
        for z in BAD_ZETAS
    ),
    *(
        pytest.param("solve_zeta_snl", "energy", "chain", {"z": b},
                     f"zeta_bracket must be finite with 0 <= lo < hi, got {b}",
                     id=f"solve_zeta_snl-zeta_bracket={b}")
        for b in BAD_BRACKETS
    ),
]


@pytest.mark.parametrize("solver, observable, derivative_mode, kwargs, message", BAD_CALLS)
def test_bad_choice_raises_before_any_work(
    monkeypatch, fig3_config, solver, observable, derivative_mode, kwargs, message
):
    # a bad observable, mode, zeta or bracket is refused before any numpy work
    for name in ("np", "snl", "minimize_sensitivity"):
        monkeypatch.setattr(metrology, name, _NoWork())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SOLVERS[solver](fig3_config, observable, derivative_mode, **kwargs)
