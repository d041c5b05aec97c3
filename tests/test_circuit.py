"""Transmission-line realization: dispersion, ramp coefficients, protocol map.

The Gamma-quotient coefficients have an independent closed-form oracle,

    |alpha|^2 = sinh^2(pi w+ / nu) / (sinh(pi wi/nu) sinh(pi wf/nu))
    |beta|^2  = sinh^2(pi w- / nu) / (sinh(pi wi/nu) sinh(pi wf/nu))

with w+- = (wf +- wi)/2 ... (w+ = (wi+wf)/2, w- = (wf-wi)/2), which the
tests pin the log-Gamma route against.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from su11otto import circuit
from su11otto.circuit import (
    KELVIN_TO_RAD_PER_S,
    BogoliubovPair,
    CircuitParams,
    asymptotic_frequencies,
    bogoliubov,
    circuit_scenario,
    coupling_coefficients,
    dispersion,
    engine_config_from_circuit,
    map_to_protocol,
)
from su11otto.cli import FIG4_NU_GRID, FIG4_OMEGA_F, FIG4_OMEGA_I
from su11otto.config import load_config
from su11otto.core import ProtocolEndpoints, angles_from, chi_from, chi_max
from su11otto.errors import IdentityViolationError, ImaginaryCouplingError, NoSolutionError
from su11otto.gammafn import complex_log_gamma
from su11otto.metrology import sensitivity

# reference numbers for the default (published) parameter set
OMEGA_I_EXP = 128835690635.9954  # rad/s at E/C = (E0/C)(A+B)
OMEGA_F_EXP = 46857571931.89935  # rad/s at E/C = (E0/C)(A-B)
CHI_CIRCUIT = 1.0096439805860626
CHI_MAX_CIRCUIT = 1.1917420619816395
ETA_NORM_CIRCUIT = 0.23706366191933403
LATTICE_TERM = 1.644392976440365e20  # 4 sin^2(pi/100) / (L C), s^-2
PLASMA_TERM = 9.232694316859482e21  # (2 pi / Phi_0)^2 (E0/C) A, s^-2


@pytest.fixture(scope="module")
def params() -> CircuitParams:
    return load_config().circuit


def _closed_form_moduli(wi, wf, nu):
    wp, wm = (wi + wf) / 2.0, (wf - wi) / 2.0
    denom = math.sinh(math.pi * wi / nu) * math.sinh(math.pi * wf / nu)
    return math.sinh(math.pi * wp / nu) ** 2 / denom, math.sinh(math.pi * wm / nu) ** 2 / denom


def _seven_call_coefficients(omega_i, omega_f, nu):
    """(alpha, beta) as bogoliubov first wrote them: seven log-Gamma calls, no sum shared."""
    w_plus, w_minus = 0.5 * (omega_i + omega_f), 0.5 * (omega_f - omega_i)
    head = 0.5 * math.log(omega_f / omega_i) + complex_log_gamma(1.0 - 1j * omega_i / nu)
    log_alpha = (
        head
        + complex_log_gamma(-1j * omega_f / nu)
        - complex_log_gamma(-1j * w_plus / nu)
        - complex_log_gamma(1.0 - 1j * w_plus / nu)
    )
    log_beta = (
        head
        + complex_log_gamma(1j * omega_f / nu)
        - complex_log_gamma(1j * w_minus / nu)
        - complex_log_gamma(1.0 + 1j * w_minus / nu)
    )
    return cmath.exp(log_alpha), cmath.exp(log_beta)


def _assert_seven_call_bits(omega_i, omega_f, nu):
    pair = bogoliubov(omega_i, omega_f, nu)
    alpha, beta = _seven_call_coefficients(omega_i, omega_f, nu)
    assert (pair.alpha.real, pair.alpha.imag) == (alpha.real, alpha.imag), (omega_i, omega_f, nu)
    assert (pair.beta.real, pair.beta.imag) == (beta.real, beta.imag), (omega_i, omega_f, nu)


def test_public_surface_is_pinned():
    # adding or removing a circuit name is a deliberate edit of this list
    assert sorted(circuit.__all__) == [
        "BogoliubovPair", "CircuitParams", "FLUX_QUANTUM", "HBAR", "KELVIN_TO_RAD_PER_S",
        "K_BOLTZMANN", "ScenarioReport", "asymptotic_frequencies",
        "bogoliubov", "circuit_scenario", "coupling_coefficients", "dispersion",
        "map_to_protocol",
    ]
    assert all(hasattr(circuit, name) for name in circuit.__all__)


class TestRampAndDispersion:
    def test_dispersion_terms(self, params):
        e_a = params.josephson_scale_j_per_f * params.amp_a
        assert dispersion(1, e_a, params) ** 2 == pytest.approx(
            LATTICE_TERM + PLASMA_TERM, rel=1e-12
        )
        # j = 0: the lattice term vanishes
        assert dispersion(0, e_a, params) == pytest.approx(math.sqrt(PLASMA_TERM), rel=1e-12)
        # band edge: sin^2 = 1
        half = replace(params, n_cell=100, mode_index=50)
        assert dispersion(50, e_a, half) ** 2 == pytest.approx(
            4.0 / (params.inductance_h * params.capacitance_f) + PLASMA_TERM, rel=1e-12
        )

    def test_cell_length_cancels(self, params):
        scaled = replace(params, n_cell=200, mode_index=2)
        e = params.josephson_scale_j_per_f * 1.3
        assert dispersion(1, e, params) == pytest.approx(
            dispersion(2, e, scaled), rel=1e-15
        )

    def test_asymptotic_frequencies(self, params):
        wi, wf = asymptotic_frequencies(params)
        assert wi == pytest.approx(OMEGA_I_EXP, rel=1e-12)
        assert wf == pytest.approx(OMEGA_F_EXP, rel=1e-12)
        assert wf < wi

    def test_static_line_keeps_frequency(self, params):
        static = replace(params, amp_b=0.0)
        wi, wf = asymptotic_frequencies(static)
        assert wi == wf


class TestBogoliubov:
    @pytest.mark.parametrize("nu", [0.2, 0.5, 2.0, 10.0, 100.0])
    @pytest.mark.parametrize("ratio", [0.1, 0.35, 0.9])
    def test_identity_and_closed_form(self, nu, ratio):
        pair = bogoliubov(1.0, ratio, nu)
        assert abs(pair.alpha) ** 2 - abs(pair.beta) ** 2 == pytest.approx(1.0, abs=1e-10)
        a2, b2 = _closed_form_moduli(1.0, ratio, nu)
        assert abs(pair.alpha) ** 2 == pytest.approx(a2, rel=1e-10)
        assert abs(pair.beta) ** 2 == pytest.approx(b2, rel=1e-10)

    @given(
        omega_i=st.floats(1e-3, 1e3),
        omega_f=st.floats(1e-3, 1e3),
        omega_over_nu=st.floats(1e-6, 1e3),
    )
    def test_identity_holds_across_frequencies_and_rates(self, omega_i, omega_f, omega_over_nu):
        # |Im z| of the Gamma arguments reaches omega/nu = 1e3, the range the
        # log-Gamma route is built for; the identity is a difference of two
        # moduli that grow with the frequency ratio, so it holds to rounding
        # relative to their sum
        pair = bogoliubov(omega_i, omega_f, max(omega_i, omega_f) / omega_over_nu)
        a2, b2 = abs(pair.alpha) ** 2, abs(pair.beta) ** 2
        assert abs(a2 - b2 - 1.0) <= 1e-11 * (a2 + b2)

    def test_shared_lanczos_sums_keep_the_seven_call_bits(self, params, monkeypatch):
        # the figure4 grid, and the ramp circuit_scenario runs on the default line
        for nu in FIG4_NU_GRID.tolist():
            _assert_seven_call_bits(FIG4_OMEGA_I, FIG4_OMEGA_F, nu)
        ramps = []
        monkeypatch.setattr(circuit, "bogoliubov", lambda *args: ramps.append(args) or bogoliubov(*args))
        circuit_scenario(replace(params, t_f_points=8), derivative_mode="chain")
        assert len(ramps) == 1
        _assert_seven_call_bits(*ramps[0])

    @given(
        omega_i=st.floats(1e-3, 1e3),
        ratio=st.floats(1.0 + 1e-9, 1e3),
        below=st.booleans(),
        omega_over_nu=st.floats(1e-6, 1e3),
    )
    def test_shared_lanczos_sums_keep_the_seven_call_bits_when_drawn(
        self, omega_i, ratio, below, omega_over_nu
    ):
        # omega_f on either side of omega_i: Re(i w-/nu) is -0.0 below, +0.0 above
        omega_f = omega_i / ratio if below else omega_i * ratio
        assume(abs(omega_f - omega_i) > 1e-12 * (omega_i + omega_f))
        nu = max(omega_i, omega_f) / omega_over_nu
        assert math.copysign(1.0, (1j * (0.5 * (omega_f - omega_i)) / nu).real) == (
            -1.0 if below else 1.0
        )
        _assert_seven_call_bits(omega_i, omega_f, nu)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((math.inf, 0.35, 5.0), "omega_i"),
            ((math.nan, 0.35, 5.0), "omega_i"),
            ((1.0, math.nan, 5.0), "omega_f"),
            ((1.0, 0.35, math.inf), "nu"),
            ((1.0, 0.35, 0.0), "nu"),
        ],
    )
    def test_non_finite_or_nonpositive_input_rejected_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            bogoliubov(*args)

    def test_degenerate_frequencies(self):
        pair = bogoliubov(1.0, 1.0, 3.0)
        assert pair.beta == 0.0
        assert abs(pair.alpha) == 1.0

    def test_identity_violation_is_refused(self, monkeypatch):
        # the identity is checked, never imposed: with every log-Gamma scaled by
        # 1 + 1e-6, |alpha|^2 - |beta|^2 misses 1 and the pair is refused
        assert bogoliubov(1.0, 0.35, 2.0).identity_residual < 1e-12
        log_gamma = circuit.complex_log_gamma
        monkeypatch.setattr(circuit, "complex_log_gamma", lambda z: (1.0 + 1e-6) * log_gamma(z))
        with pytest.raises(IdentityViolationError, match="deviates from 1 by"):
            bogoliubov(1.0, 0.35, 2.0)

    def test_sudden_limit(self):
        wi, wf = 1.0, 0.35
        pair = bogoliubov(wi, wf, 1e6)
        assert abs(pair.beta) ** 2 == pytest.approx(
            (wf - wi) ** 2 / (4 * wi * wf), rel=1e-8
        )
        re_ab, im_ab = coupling_coefficients(pair)
        assert re_ab == pytest.approx((wf**2 - wi**2) / (4 * wi * wf), rel=1e-8)
        assert abs(im_ab) < 1e-6

    def test_slow_ramp_stays_in_log_range(self):
        # |Im z| up to 40 in the Gamma arguments; direct products would overflow
        for nu in (0.05, 0.025):
            pair = bogoliubov(1.0, 0.35, nu)
            assert abs(pair.alpha) ** 2 - abs(pair.beta) ** 2 == pytest.approx(
                1.0, abs=1e-10
            )
            assert abs(pair.beta) ** 2 < 1e-10  # adiabatic: essentially no pairs

    def test_imaginary_part_trend(self):
        ims = {nu: abs(coupling_coefficients(bogoliubov(1.0, 0.35, nu))[1])
               for nu in (5.0, 10.0, 20.0, 35.0, 50.0)}
        vals = [ims[nu] for nu in sorted(ims)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert ims[50.0] < 0.1 * ims[5.0]

    def test_coupling_identity(self, rng):
        for _ in range(30):
            pair = bogoliubov(1.0, rng.uniform(0.1, 0.9), rng.uniform(0.2, 50.0))
            re_ab, im_ab = coupling_coefficients(pair)
            b2 = abs(pair.beta) ** 2
            assert (1 + 2 * b2) ** 2 - 4 * re_ab**2 - 4 * im_ab**2 == pytest.approx(
                1.0, abs=1e-10
            )


class TestProtocolMap:
    def test_no_pairs_means_identity_endpoint(self):
        pair = BogoliubovPair(alpha=1.0 + 0j, beta=0j, omega_i=1.0, omega_f=1.0, nu=5.0)
        endpoints = map_to_protocol(pair, 0.25)
        assert endpoints.chi == 0.0
        assert endpoints.theta == pytest.approx(-0.25, abs=1e-15)

    def test_cosh_sinh_consistency_in_fast_ramp(self):
        pair = bogoliubov(1.0, 0.35, 20.0)
        endpoints = map_to_protocol(pair, 1.0)
        re_ab, im_ab = coupling_coefficients(pair)
        cosh_fy = 1 + 2 * abs(pair.beta) ** 2
        sinh_fy = -2 * re_ab
        # deviation from cosh^2 - sinh^2 = 1 is exactly 4 Im{ab}^2
        assert cosh_fy**2 - sinh_fy**2 - 1.0 == pytest.approx(4 * im_ab**2, abs=1e-12)
        assert cosh_fy**2 - sinh_fy**2 == pytest.approx(1.0, abs=1e-6)
        assert endpoints.chi == pytest.approx(math.acosh(cosh_fy), rel=1e-12)

    def test_theta_wrapping(self):
        pair = bogoliubov(1.0, 0.35, 20.0)
        endpoints = map_to_protocol(pair, 2.0 * math.pi / pair.omega_f)
        assert -math.pi < endpoints.theta <= math.pi
        assert endpoints.theta == pytest.approx(0.0, abs=1e-9)

    def test_slow_ramp_rejected(self):
        pair = bogoliubov(1.0, 0.35, 0.5)  # Im{ab} ~ 0.1
        with pytest.raises(ImaginaryCouplingError):
            map_to_protocol(pair, 1.0)

    def test_round_trip_through_angle_inversion(self):
        # endpoints from the ramp invert to (zeta, phi) that re-evaluate to
        # the same effective squeezing
        pair = bogoliubov(1.0, 0.35, 20.0)
        endpoints = map_to_protocol(pair, 0.7 / pair.omega_f)
        angles = angles_from(endpoints)
        assert chi_from(angles) == pytest.approx(endpoints.chi, abs=1e-8)


class TestScenario:
    def test_kelvin_conversion(self, params):
        engine = engine_config_from_circuit(params)
        assert engine.t_hot == pytest.approx(2.0 * KELVIN_TO_RAD_PER_S, rel=1e-15)
        assert engine.beta_h * engine.omega2 / 2.0 == pytest.approx(
            0.24601924234264383, rel=1e-12
        )

    def test_published_parameter_run(self, params):
        report = circuit_scenario(
            replace(params, t_f_points=256), derivative_mode=load_config().derivative_mode
        )
        assert report.chi == pytest.approx(CHI_CIRCUIT, rel=1e-10)
        assert report.chi_max == pytest.approx(CHI_MAX_CIRCUIT, rel=1e-10)
        assert report.chi < report.chi_max  # engine regime
        assert report.eta_norm == pytest.approx(ETA_NORM_CIRCUIT, rel=1e-8)
        assert 0.0 < report.eta_norm < 1.0
        assert report.best is not None and report.dphi_norm[report.best] > 0.0
        assert 0 < report.flagged.sum() < report.t_f.size
        assert math.isfinite(report.eta_norm_deviation)
        assert math.isfinite(report.dphi_norm_deviation)

    def test_frictionless_line_hits_ideal_otto(self, params):
        # amp_b = 0: no ramp, no squeezing; eta equals 1 - omega1/omega2 at
        # the dispersion-ratio frequencies.  A tiny asymmetry keeps the
        # frequencies distinct so the engine config stays valid.
        params = replace(params, amp_b=1e-9)
        engine = engine_config_from_circuit(params)
        from su11otto.cycle import efficiency, otto_ideal

        pair = bogoliubov(*asymptotic_frequencies(params),
                          20.0 * asymptotic_frequencies(params)[0])
        chi = map_to_protocol(pair, 0.0).chi
        assert chi < 1e-8
        assert efficiency(engine, chi) == pytest.approx(otto_ideal(engine), abs=1e-8)

    def test_absolute_rapidity_in_rad_per_s_is_the_same_ramp(self, params):
        # the default rapidity is in units of the ramp's omega_i;
        # rapidity_absolute takes it in rad/s as given
        params = replace(params, t_f_points=64)
        omega_i = asymptotic_frequencies(params)[0]
        absolute = replace(params, rapidity=params.rapidity * omega_i, rapidity_absolute=True)
        mode = load_config().derivative_mode
        relative_report = circuit_scenario(params, derivative_mode=mode)
        absolute_report = circuit_scenario(absolute, derivative_mode=mode)
        # equal_nan: flagged points hold nan, which never compares equal
        for name in ("t_f", "theta", "zeta", "phi", "dphi_h", "dphi_norm"):
            assert np.array_equal(
                getattr(absolute_report, name), getattr(relative_report, name), equal_nan=True
            )
        assert absolute_report.best == relative_report.best
        assert relative_report.flagged.any() and not relative_report.flagged.all()

    @pytest.mark.parametrize("mode", ["chain", "paper"])
    def test_sweep_matches_a_per_point_reference(self, params, mode):
        # the one array pass against the sweep taken one stop time at a time:
        # math.remainder for theta, then angles_from and sensitivity per point
        report = circuit_scenario(params, derivative_mode=mode)
        omega_f, n = report.pair.omega_f, params.t_f_points
        period = 2.0 * math.pi / omega_f
        rows = []
        for k in range(1, n + 1):
            t_f = k * period / n
            theta = math.remainder(-omega_f * t_f, 2.0 * math.pi)
            theta = math.pi if theta <= -math.pi else theta
            try:
                angles = angles_from(ProtocolEndpoints(chi=report.chi, theta=theta))
            except NoSolutionError:
                rows.append((t_f, theta) + (math.nan,) * 4)
                continue
            point = sensitivity(report.engine, angles.zeta, angles.phi, mode)
            rows.append((t_f, theta, angles.zeta, angles.phi, point.delta_phi_h, point.norm_h))
        t_f, theta, *columns = map(np.array, zip(*rows))
        assert np.array_equal(report.t_f, t_f) and np.array_equal(report.theta, theta)
        got = (report.zeta, report.phi, report.dphi_h, report.dphi_norm)
        for name, a, b in zip(("zeta", "phi", "dphi_h", "dphi_norm"), got, columns):
            assert np.array_equal(np.isnan(a), np.isnan(b)), name
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=0.0, err_msg=name)
        assert np.isnan(columns[0]).any() and not np.isnan(columns[0]).all()
        assert report.best == int(np.nanargmin(columns[-1]))

    def test_validation(self, params):
        with pytest.raises(ValueError):
            replace(params, amp_a=0.5, amp_b=0.8)
        with pytest.raises(ValueError):
            replace(params, mode_index=0)
        with pytest.raises(ValueError):
            replace(params, mode_index=100, n_cell=100)
