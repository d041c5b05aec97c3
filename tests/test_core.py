"""Parameter-map tests.

Expected constants were recomputed at 40 significant digits with mpmath
from the defining expressions before freezing; tolerances are then set by
double-precision evaluation error, not by trust in any printed rounding.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from su11otto import (
    EngineConfig,
    InterferometerAngles,
    ProtocolEndpoints,
    angles_from,
    chi_from,
    chi_max,
    n_out,
    phi_max,
    theta_from,
    works_and_heats,
)
from su11otto.core import TWO_PI, angles_of, chi_max_from_params, chi_of, theta_of
from su11otto.errors import (
    DegenerateLimitWarning,
    DegeneratePhaseError,
    NoEngineRegimeError,
    NoSolutionError,
    NonConvergenceError,
)

CHI_2_01 = 0.36057837857760945363  # arccosh((1-cos 0.1) cosh^2 2 + cos 0.1)
THETA_2_01 = 0.18608850778588118234
CHI_MAX_FIG3 = 1.7521007629791203365
PHI_MAX_FIG3_Z2 = 0.55436918844656984609


class TestChiFrom:
    def test_phase_zero_gives_identity(self):
        assert chi_from(InterferometerAngles(zeta=2.0, phi=0.0)) == 0.0

    def test_zero_squeezing_gives_identity(self):
        assert chi_from(InterferometerAngles(zeta=0.0, phi=1.3)) == 0.0

    def test_reference_point(self):
        assert chi_from(InterferometerAngles(zeta=2.0, phi=0.1)) == pytest.approx(
            CHI_2_01, abs=1e-12
        )

    def test_nonnegative_and_zero_only_at_degeneracy(self, rng):
        zetas = rng.uniform(0.01, 5.0, 200)
        phis = rng.uniform(0.01, 2 * math.pi - 0.01, 200)
        chis = chi_of(zetas, phis)
        assert np.all(np.cosh(chis) - 1.0 >= 0.0)
        assert np.all(chis[np.abs(phis - 2 * math.pi) > 0.01] > 0.0)

    def test_even_and_periodic_in_phi(self, rng):
        zetas = rng.uniform(0.0, 4.0, 100)
        phis = rng.uniform(-6.0, 6.0, 100)
        assert chi_of(zetas, phis) == pytest.approx(chi_of(zetas, -phis), abs=1e-12)
        assert chi_of(zetas, phis) == pytest.approx(
            chi_of(zetas, phis + 2 * math.pi), abs=1e-12
        )


class TestThetaFrom:
    def test_reference_point(self):
        assert theta_from(InterferometerAngles(zeta=2.0, phi=0.1)) == pytest.approx(
            THETA_2_01, abs=1e-12
        )

    def test_zero_squeezing_halves_the_phase(self):
        for phi in (0.3, 1.0, 2.2, 3.0):
            assert theta_from(InterferometerAngles(zeta=0.0, phi=phi)) == pytest.approx(
                phi / 2.0, abs=1e-12
            )

    def test_phase_pi_gives_half_pi(self):
        assert theta_from(InterferometerAngles(zeta=2.0, phi=math.pi)) == pytest.approx(
            math.pi / 2.0, abs=1e-12
        )

    def test_degenerate_phase_raises(self):
        with pytest.raises(DegeneratePhaseError):
            theta_from(InterferometerAngles(zeta=2.0, phi=0.0))

    def test_principal_branch(self, rng):
        zetas = rng.uniform(0.0, 4.0, 100)
        phis = rng.uniform(1e-3, 2 * math.pi - 1e-3, 100)
        thetas = theta_of(zetas, phis)
        assert np.all((thetas > 0.0) & (thetas < math.pi))

    @given(
        zeta=st.floats(0.0, 4.0),
        phi=st.floats(1e-12, math.pi, exclude_max=True),
        upper=st.booleans(),
    )
    def test_matches_the_tangent_identity_to_a_few_ulp(self, zeta, phi, upper):
        # tan(theta) = tan(phi/2) cosh(zeta) exactly; on (pi, 2 pi) tan(phi/2) < 0
        # and theta = pi + atan(...) lies in (pi/2, pi)
        if upper:
            phi = 2.0 * math.pi - phi
            assume(math.pi < phi < 2.0 * math.pi)
        reference = math.atan(math.tan(phi / 2.0) * math.cosh(zeta)) + (math.pi if upper else 0.0)
        assert float(theta_of(zeta, phi)) == pytest.approx(reference, rel=1e-15, abs=0.0)

    def test_small_phase_keeps_every_digit(self):
        # the arccos of a ratio near 1 lost every digit here: it gave 1.8812e-06
        assert float(theta_of(2.0, 1e-6)) == pytest.approx(1.8810978455397533e-06, rel=1e-15)

    def test_zero_phase_gives_zero(self):
        assert float(theta_of(1.3, 0.0)) == 0.0


class TestAnglesFrom:
    def test_round_trip_reference(self):
        angles = angles_from(ProtocolEndpoints(chi=CHI_2_01, theta=THETA_2_01))
        assert angles.zeta == pytest.approx(2.0, abs=1e-10)
        assert angles.phi == pytest.approx(0.1, abs=1e-10)

    def test_theta_half_pi_forces_phi_pi(self):
        # cos(theta) = 0 forces phi = pi and sinh(zeta) = sinh(chi/2)
        angles = angles_from(ProtocolEndpoints(chi=1.0, theta=math.pi / 2.0))
        assert angles.phi == pytest.approx(math.pi, abs=1e-12)
        assert angles.zeta == pytest.approx(0.5, abs=1e-12)

    def test_round_trip_grid(self, rng):
        zetas = rng.uniform(1e-3, 5.0, 300)
        phis = rng.uniform(1e-6, math.pi - 1e-6, 300)
        for zeta, phi in zip(zetas, phis):
            fwd = InterferometerAngles(zeta=zeta, phi=phi)
            back = angles_from(
                ProtocolEndpoints(chi=chi_from(fwd), theta=theta_from(fwd))
            )
            assert back.zeta == pytest.approx(zeta, abs=1e-8)
            assert back.phi == pytest.approx(phi, abs=1e-8)

    def test_mirror_branch_round_trip(self):
        # phi > pi maps to theta > pi/2 and must invert onto the same branch
        fwd = InterferometerAngles(zeta=1.5, phi=2 * math.pi - 0.8)
        back = angles_from(ProtocolEndpoints(chi=chi_from(fwd), theta=theta_from(fwd)))
        assert back.phi == pytest.approx(fwd.phi, abs=1e-10)
        assert back.zeta == pytest.approx(1.5, abs=1e-10)

    def test_incompatible_endpoints_raise(self):
        # tan^2(theta) <= sinh^2(chi/2) has no solution
        with pytest.raises(NoSolutionError):
            angles_from(ProtocolEndpoints(chi=1.0, theta=0.1))
        with pytest.raises(NoSolutionError):
            angles_from(ProtocolEndpoints(chi=1.0, theta=0.0))

    def test_identity_endpoint_rejected(self):
        with pytest.raises(ValueError):
            angles_from(ProtocolEndpoints(chi=0.0, theta=0.4))

    @given(
        chi=st.floats(1e-12, 20.0),
        edge_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        negate=st.booleans(),
    )
    def test_round_trip_over_the_whole_domain(self, chi, edge_fraction, negate):
        # theta runs across (edge, pi - edge), where tan^2(theta) = sinh^2(chi/2) at
        # the edges; the last assumption keeps one part in 1e12 clear of the edge,
        # beyond the rounding of either side of the inequality
        edge = math.atan(math.sinh(chi / 2.0))
        theta = edge + edge_fraction * (math.pi - 2.0 * edge)
        assume(math.tan(theta) ** 2 > math.sinh(chi / 2.0) ** 2 * (1.0 + 1e-12))
        endpoints = ProtocolEndpoints(chi=chi, theta=-theta if negate else theta)
        try:
            angles = angles_from(endpoints)
        except NonConvergenceError:
            # the documented refusal: the forward map of the solution misses the
            # inputs by more than 1e-10; never NoSolutionError inside the domain
            return
        assert angles.zeta > 0.0
        assert (angles.phi <= math.pi) == (theta <= math.pi / 2.0)
        assert abs(chi_from(angles) - chi) <= 1e-10
        assert abs(math.cos(theta_from(angles)) - math.cos(theta)) <= 1e-10

    def test_degenerate_limit_returns_minimal_zeta(self):
        with pytest.warns(DegenerateLimitWarning):
            angles = angles_from(ProtocolEndpoints(chi=1e-13, theta=0.7))
        assert angles.zeta < 1e-6
        assert angles.phi == pytest.approx(1.4, abs=1e-6)


def _folded(theta: float) -> float:
    """theta as the inverse reads it: modulo the float 2 pi, folded onto [0, pi]."""
    t = abs(theta) % TWO_PI
    return TWO_PI - t if t > math.pi else t


class TestAnglesOf:
    @example(chi=1.0, theta=0.0)
    @example(chi=1e-13, theta=math.pi)
    @example(chi=1e-20, theta=math.pi)  # u > 0 here: only the axis clause refuses it
    @example(chi=1.0, theta=-math.pi)
    @example(chi=1.0, theta=math.pi / 2.0)
    @example(chi=1.0, theta=3.0 * math.pi / 4.0)
    @example(chi=1e-13, theta=0.7)
    @example(chi=40.0, theta=-1.5707963)
    @given(chi=st.floats(1e-100, 40.0), theta=st.floats(-50.0, 50.0))
    def test_nan_exactly_off_the_solution_set(self, chi, theta):
        # a solution exists iff tan^2(theta) > sinh^2(chi/2) off the multiples of
        # pi (the floats folding onto 0 or pi).  Each side is good to a few ulps
        # here, so one part in 1e9 either side of the edge is left to rounding
        folded = _folded(theta)
        t2, s2 = math.tan(folded) ** 2, math.sinh(chi / 2.0) ** 2
        on_axis = folded in (0.0, math.pi)
        assume(on_axis or abs(t2 - s2) > 1e-9 * s2)
        solvable = not on_axis and t2 > s2
        endpoints = ProtocolEndpoints(chi=chi, theta=theta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateLimitWarning)
            try:
                zeta, phi = angles_of(chi, theta)
            except NonConvergenceError:
                # the documented refusal: the forward map of a solution misses
                # the inputs by more than 1e-10 (small chi, ROADMAP item 2)
                assert solvable
                with pytest.raises(NonConvergenceError):
                    angles_from(endpoints)
                return
            assert np.isnan(zeta) == np.isnan(phi) == (not solvable)
            if not solvable:
                with pytest.raises(NoSolutionError):
                    angles_from(endpoints)
                return
            # the branch: phi in (0, pi] for theta <= pi/2, else in [pi, 2 pi]
            # (pi itself where phi/2 rounds onto pi/2, 2 pi where it rounds off 0)
            assert 0.0 < phi <= math.pi if folded <= math.pi / 2.0 else math.pi <= phi <= TWO_PI
            assert zeta > 0.0
            # the scalar wrapper is the array function, bit for bit
            assert angles_from(endpoints) == InterferometerAngles(float(zeta), float(phi))

    def test_arrays_read_as_their_scalars(self):
        chis = np.array([0.3, 1.0, 1.0, 2.5, 1e-13])
        thetas = np.array([1.2, 0.1, -2.0, math.pi / 2.0, 0.7])
        with pytest.warns(DegenerateLimitWarning):
            zetas, phis = angles_of(chis, thetas)
        for chi, theta, zeta, phi in zip(chis, thetas, zetas, phis):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateLimitWarning)
                one = angles_of(chi, theta)
            np.testing.assert_array_equal((zeta, phi), one)
        assert np.isnan(zetas[1]) and not np.isnan(zetas[[0, 2, 3, 4]]).any()

    def test_nonpositive_chi_rejected(self):
        with pytest.raises(ValueError):
            angles_of(np.array([0.5, 0.0]), 0.4)


class TestNOut:
    def test_identity_cases(self):
        assert n_out(0.0, 0.0) == 0.0
        assert n_out(5.0, 0.0) == pytest.approx(5.0, abs=1e-15)

    def test_reference_point(self):
        # vacuum input through the reference transformation
        assert n_out(0.0, CHI_2_01) == pytest.approx(0.065715791537976917813, abs=1e-13)

    def test_monotone_in_both_arguments(self, rng):
        ns = np.sort(rng.uniform(0.0, 20.0, 50))
        chis = np.sort(rng.uniform(0.01, 3.0, 50))
        outs_n = [n_out(n, 1.0) for n in ns]
        outs_c = [n_out(2.0, c) for c in chis]
        assert np.all(np.diff(outs_n) > 0.0)
        assert np.all(np.diff(outs_c) > 0.0)
        assert all(n_out(n, 0.7) >= n for n in ns)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            n_out(-0.5, 1.0)


class TestChiMax:
    def test_reference_value(self, fig3_config):
        assert chi_max(fig3_config) == pytest.approx(CHI_MAX_FIG3, abs=1e-12)

    def test_degenerate_config_gives_zero(self):
        # equal frequencies and temperatures: ratio is exactly 1
        assert chi_max_from_params(1.0, 1.0, 2.0, 2.0) == 0.0

    def test_no_engine_regime_raises(self):
        # t_hot/t_cold < omega2/omega1 in the high-temperature regime
        with pytest.raises(NoEngineRegimeError):
            chi_max(EngineConfig(omega1=0.5, omega2=1.0, t_hot=50.0, t_cold=30.0))

    def test_matches_net_work_zero_crossing(self, fig3_config):
        # independent root-find on w_net(chi)
        crossing = brentq(
            lambda c: works_and_heats(fig3_config, c).w_net, 0.5, 3.0, xtol=1e-13
        )
        assert chi_max(fig3_config) == pytest.approx(crossing, abs=1e-9)


class TestPhiMax:
    def test_reference_value(self):
        assert phi_max(2.0, CHI_MAX_FIG3) == pytest.approx(PHI_MAX_FIG3_Z2, abs=1e-12)

    def test_zero_bound_gives_zero(self):
        assert phi_max(3.0, 0.0) == 0.0

    def test_full_range_when_bound_unreachable(self):
        # sinh^2(chi_max/2) > sinh^2(zeta): chi never reaches the bound
        assert phi_max(0.3, CHI_MAX_FIG3) == math.pi
        assert phi_max(0.0, CHI_MAX_FIG3) == math.pi

    def test_monotone_decreasing_in_zeta(self):
        values = [phi_max(z, CHI_MAX_FIG3) for z in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_interior_consistency(self, fig3_config):
        bound = chi_max(fig3_config)
        for zeta in (1.5, 2.0, 3.0, 4.0):
            pm = phi_max(zeta, bound)
            assert float(chi_of(zeta, pm)) == pytest.approx(bound, abs=1e-9)

    @given(zeta=st.floats(0.05, 8.0), chi_max_value=st.floats(1e-6, 5.0))
    def test_solves_its_defining_relation(self, zeta, chi_max_value):
        # sin^2(phi_max/2) sinh^2(zeta) = sinh^2(chi_max/2) to rounding, also where
        # the ratio r is tiny and arccos(1 - 2 r) would have lost every digit
        pm = phi_max(zeta, chi_max_value)
        assert 0.0 <= pm <= math.pi
        target = math.sinh(chi_max_value / 2.0) ** 2
        if target < math.sinh(zeta) ** 2:
            reached = math.sin(pm / 2.0) ** 2 * math.sinh(zeta) ** 2
            assert reached == pytest.approx(target, rel=1e-13)

    def test_nan_squeezing_gives_nan(self):
        assert math.isnan(phi_max(math.nan, CHI_MAX_FIG3))


class TestTypes:
    def test_phi_wrapping(self):
        assert InterferometerAngles(zeta=1.0, phi=2 * math.pi + 0.3).phi == pytest.approx(
            0.3, abs=1e-12
        )
        assert InterferometerAngles(zeta=1.0, phi=-0.3).phi == pytest.approx(
            2 * math.pi - 0.3, abs=1e-12
        )

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            InterferometerAngles(zeta=-0.1, phi=0.0)
        with pytest.raises(ValueError):
            ProtocolEndpoints(chi=-1.0, theta=0.0)
        with pytest.raises(ValueError):
            EngineConfig(omega1=1.0, omega2=0.5, t_hot=2.0, t_cold=0.01)
        with pytest.raises(ValueError):
            EngineConfig(omega1=0.1, omega2=1.0, t_hot=0.01, t_cold=2.0)

    @pytest.mark.parametrize(
        "cls, kwargs, name",
        [
            (InterferometerAngles, {"zeta": math.inf, "phi": 0.5}, "zeta"),
            (InterferometerAngles, {"zeta": 1.0, "phi": math.nan}, "phi"),
            (InterferometerAngles, {"zeta": 1.0, "phi": -math.inf}, "phi"),
            (ProtocolEndpoints, {"chi": math.inf, "theta": 0.5}, "chi"),
            (ProtocolEndpoints, {"chi": 1.0, "theta": math.nan}, "theta"),
        ],
        ids=["zeta-inf", "phi-nan", "phi-minus-inf", "chi-inf", "theta-nan"],
    )
    def test_non_finite_input_rejected_by_name(self, cls, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**kwargs)
