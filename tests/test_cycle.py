"""Cycle energetics: frozen constants, algebraic identities, regime logic.

Frozen values recomputed with mpmath at 40 digits from coth(5) and
coth(0.25) before being pinned here.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su11otto import (
    EngineConfig,
    carnot,
    chi_max,
    efficiency,
    otto_ideal,
    stage_energies,
    temperature_ratio_bound,
    works_and_heats,
)
from su11otto.cycle import works_and_heats_from_params
from su11otto.errors import NoEngineRegimeError, NotAnEngineError, RegimeWarning

H_A = 0.10000908039820193755  # 0.1 * coth(5)
H_C = 4.0829881650735965683  # coth(0.25)
W_AB_0 = 0.90008172358381743798
Q_BC_0 = 3.0828973610915771927
W_CD_0 = -3.6746893485662369114
W_NET_0 = 2.7746076249824194735
W_FRIC_1 = 0.22173918046312961801  # 2 * 0.1 * sinh^2(0.5) * coth(0.25)


def _random_engine_configs(rng, count):
    omega1 = rng.uniform(0.05, 1.0, count)
    omega2 = omega1 * rng.uniform(1.5, 10.0, count)
    t_cold = rng.uniform(0.05, 1.0, count)
    t_hot = t_cold * (omega2 / omega1) * rng.uniform(1.5, 8.0, count)
    return [EngineConfig(*args) for args in zip(omega1, omega2, t_hot, t_cold)]


class TestStageEnergies:
    def test_reference_endpoints(self, fig3_config):
        energies = stage_energies(fig3_config, 0.0)
        assert energies.h_a == pytest.approx(H_A, abs=1e-12)
        assert energies.h_c == pytest.approx(H_C, abs=1e-12)

    def test_adiabatic_scaling_at_zero_chi(self, fig3_config):
        energies = stage_energies(fig3_config, 0.0)
        assert energies.h_b == pytest.approx(
            fig3_config.omega2 / fig3_config.omega1 * energies.h_a, rel=1e-15
        )

    def test_all_positive(self, rng):
        for config in _random_engine_configs(rng, 20):
            energies = stage_energies(config, rng.uniform(0.0, 2.0))
            assert min(energies.h_a, energies.h_b, energies.h_c, energies.h_d) > 0.0


class TestWorksAndHeats:
    def test_reference_values(self, fig3_config):
        rep = works_and_heats(fig3_config, 0.0)
        assert rep.w_ab == pytest.approx(W_AB_0, abs=1e-12)
        assert rep.q_bc == pytest.approx(Q_BC_0, abs=1e-12)
        assert rep.w_cd == pytest.approx(W_CD_0, abs=1e-12)
        assert rep.w_net == pytest.approx(W_NET_0, abs=1e-12)
        assert rep.is_engine

    def test_net_work_vanishes_at_chi_max(self, fig3_config):
        assert works_and_heats(fig3_config, chi_max(fig3_config)).w_net == pytest.approx(
            0.0, abs=1e-9
        )

    def test_first_law_closure(self, rng):
        for config in _random_engine_configs(rng, 200):
            rep = works_and_heats(config, rng.uniform(0.0, 2.5))
            assert abs(rep.w_ab + rep.q_bc + rep.w_cd + rep.q_da) < 1e-10

    @given(
        omega1=st.floats(1e-3, 1e3),
        omega_ratio=st.floats(1.0, 100.0, exclude_min=True),
        t_cold=st.floats(1e-3, 1e3),
        t_ratio=st.floats(1.0, 1e3, exclude_min=True),
        chi=st.floats(0.0, 10.0),
    )
    def test_first_law_and_friction_split_over_the_domain(
        self, omega1, omega_ratio, t_cold, t_ratio, chi
    ):
        # every valid EngineConfig and chi >= 0; each identity holds to rounding of
        # the largest stage energy
        config = EngineConfig(omega1, omega1 * omega_ratio, t_cold * t_ratio, t_cold)
        rep = works_and_heats(config, chi)
        e = stage_energies(config, chi)
        scale = max(e.h_a, e.h_b, e.h_c, e.h_d)
        assert abs(rep.w_ab + rep.q_bc + rep.w_cd + rep.q_da) <= 1e-14 * scale
        assert rep.w_fric >= 0.0
        assert abs(rep.w_cd - (rep.w_ad + rep.w_fric)) <= 1e-14 * scale

    def test_exchange_symmetry(self, rng):
        # swapping the frequencies and the two baths maps W_AB onto W_CD
        for config in _random_engine_configs(rng, 100):
            chi = rng.uniform(0.0, 2.0)
            rep = works_and_heats(config, chi)
            swapped = works_and_heats_from_params(
                config.omega2, config.omega1, config.beta_h, config.beta_c, chi
            )
            assert rep.w_ab == pytest.approx(swapped.w_cd, rel=1e-12, abs=1e-12)
            assert rep.w_cd == pytest.approx(swapped.w_ab, rel=1e-12, abs=1e-12)


class TestEfficiency:
    def test_ideal_otto_at_zero_chi(self, fig3_config):
        assert efficiency(fig3_config, 0.0) == pytest.approx(0.9, abs=1e-12)

    def test_carnot_and_otto_limits(self, fig3_config):
        assert carnot(fig3_config) == pytest.approx(0.995, abs=1e-12)
        assert otto_ideal(fig3_config) == pytest.approx(0.9, abs=1e-12)

    def test_degenerate_limits(self):
        # t_cold -> t_hot and omega1 -> omega2 both collapse the budget to zero
        cfg = EngineConfig(omega1=0.5, omega2=1.0, t_hot=1.0, t_cold=1.0 - 1e-12)
        assert carnot(cfg) == pytest.approx(0.0, abs=1e-11)
        cfg = EngineConfig(omega1=1.0 - 1e-12, omega2=1.0, t_hot=2.0, t_cold=0.01)
        assert otto_ideal(cfg) == pytest.approx(0.0, abs=1e-11)

    def test_matches_work_heat_ratio(self, rng):
        # second route: the printed closed form
        # 1 - (w1/w2) (cosh(chi) coth_h - coth_c) / (coth_h - cosh(chi) coth_c)
        checked = 0
        for config in _random_engine_configs(rng, 100):
            try:
                bound = chi_max(config)
            except NoEngineRegimeError:
                continue
            chi = rng.uniform(0.0, 0.95) * bound
            coth_h = 1.0 / math.tanh(config.omega2 / (2.0 * config.t_hot))
            coth_c = 1.0 / math.tanh(config.omega1 / (2.0 * config.t_cold))
            closed = 1.0 - (config.omega1 / config.omega2) * (
                math.cosh(chi) * coth_h - coth_c
            ) / (coth_h - math.cosh(chi) * coth_c)
            assert efficiency(config, chi) == pytest.approx(closed, rel=1e-12, abs=1e-12)
            checked += 1
        assert checked > 50

    def test_not_an_engine_past_chi_max(self, fig3_config):
        with pytest.raises(NotAnEngineError):
            efficiency(fig3_config, chi_max(fig3_config) + 0.05)

    def test_strictly_decreasing_in_chi(self, fig3_config):
        bound = chi_max(fig3_config)
        chis = np.linspace(0.0, bound * 0.999, 50)
        etas = [efficiency(fig3_config, c) for c in chis]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_below_carnot_in_engine_regime(self, rng):
        for config in _random_engine_configs(rng, 50):
            try:
                bound = chi_max(config)
            except Exception:
                continue
            eta = efficiency(config, rng.uniform(0.0, 0.95) * bound)
            assert eta < carnot(config)


class TestFriction:
    def test_zero_at_adiabatic_limit(self, fig3_config):
        assert works_and_heats(fig3_config, 0.0).w_fric == 0.0

    def test_reference_value(self, fig3_config):
        assert works_and_heats(fig3_config, 1.0).w_fric == pytest.approx(W_FRIC_1, abs=1e-12)

    def test_decomposition_identity(self, rng):
        for config in _random_engine_configs(rng, 100):
            chi = rng.uniform(0.0, 2.5)
            rep = works_and_heats(config, chi)
            assert rep.w_cd - rep.w_ad == pytest.approx(rep.w_fric, rel=1e-12, abs=1e-12)
            assert rep.w_fric >= 0.0


class TestTemperatureRatioBound:
    def test_reduces_to_frequency_ratio_at_zero_chi(self):
        # high-temperature configs straddling t_hot/t_cold = omega2/omega1
        above = EngineConfig(omega1=0.5, omega2=1.0, t_hot=205.0, t_cold=100.0)
        below = EngineConfig(omega1=0.5, omega2=1.0, t_hot=195.0, t_cold=100.0)
        assert temperature_ratio_bound(above, 0.0)
        assert not temperature_ratio_bound(below, 0.0)

    def test_pole_returns_false(self):
        cfg = EngineConfig(omega1=0.5, omega2=1.0, t_hot=1000.0, t_cold=1.0)
        # omega2 <= omega1 cosh(chi): bound diverges
        assert not temperature_ratio_bound(cfg, 2.0)

    def test_regime_warning_outside_high_temperature(self, fig3_config):
        with pytest.warns(RegimeWarning):
            temperature_ratio_bound(fig3_config, 0.0)

    def test_agrees_with_net_work_sign_in_regime(self, rng):
        # beta*omega <= 0.05 on both strokes; skip points within 2% of the
        # boundary where the approximation itself decides the sign
        checked = 0
        for _ in range(300):
            omega1 = rng.uniform(0.2, 1.0)
            omega2 = omega1 * rng.uniform(1.2, 3.0)
            t_cold = rng.uniform(40.0, 80.0) * omega1
            ratio = rng.uniform(1.0, 6.0)
            t_hot = ratio * t_cold
            if t_hot <= t_cold or omega2 / (2 * t_hot) > 0.05 or omega1 / (2 * t_cold) > 0.05:
                continue
            config = EngineConfig(omega1, omega2, t_hot, t_cold)
            chi = rng.uniform(0.0, 0.8)
            if omega2 - omega1 * math.cosh(chi) <= 0.0:
                continue
            rhs = (omega2 / omega1) * (omega2 * math.cosh(chi) - omega1) / (
                omega2 - omega1 * math.cosh(chi)
            )
            if abs(t_hot / t_cold - rhs) < 0.02 * rhs:
                continue
            assert temperature_ratio_bound(config, chi) == (
                works_and_heats(config, chi).w_net > 0.0
            )
            checked += 1
        assert checked > 50
