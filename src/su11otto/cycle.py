"""Closed-form energetics of the four-stroke cycle.

Stage labels: A (cold thermal at omega1) -> B (compressed to omega2) ->
C (hot thermal at omega2) -> D (expanded back to omega1) -> A.  The single
parameter chi >= 0 measures how non-adiabatic the two driven strokes are
(chi = 0 is the quantum-adiabatic limit).  Sign convention throughout:
positive work/heat means energy flowing INTO the working substance, so
W = <H>_after - <H>_before and the first law reads
w_ab + q_bc + w_cd + q_da = 0 identically.  chi may be an array: the
records then hold arrays, elementwise; a scalar chi gives scalars.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import EngineConfig, _bath_coth
from .errors import NotAnEngineError, RegimeWarning

__all__ = [
    "CycleEnergies",
    "CycleReport",
    "stage_energies",
    "works_and_heats",
    "works_and_heats_from_params",
    "efficiency",
    "temperature_ratio_bound",
    "carnot",
    "otto_ideal",
]


@dataclass(frozen=True)
class CycleEnergies:
    """Mean energy of the working substance at the four stage points."""

    h_a: float
    h_b: float
    h_c: float
    h_d: float


@dataclass(frozen=True)
class CycleReport:
    """Works, heats and derived figures for one operating point.

    eta is nan (and is_engine False) when the point absorbs no heat or
    produces no net work; every other field is always defined.
    """

    w_ab: float
    q_bc: float
    w_cd: float
    q_da: float
    w_net: float
    eta: float
    w_fric: float
    w_ad: float
    is_engine: bool


def _check_chi(chi) -> None:
    if np.any(np.asarray(chi) < 0.0):
        raise ValueError(f"chi must be >= 0, got {chi}")


def _energies(omega1, omega2, coth_cold, coth_hot, chi) -> CycleEnergies:
    cosh_chi = np.cosh(chi)
    return CycleEnergies(
        h_a=omega1 * coth_cold,
        h_b=omega2 * cosh_chi * coth_cold,
        h_c=omega2 * coth_hot,
        h_d=omega1 * cosh_chi * coth_hot,
    )


def stage_energies(config: EngineConfig, chi) -> CycleEnergies:
    """Mean energies at A..D for squeezing chi accumulated on each driven stroke.

    h_a = w1 coth(bc w1/2)            h_b = w2 cosh(chi) coth(bc w1/2)
    h_c = w2 coth(bh w2/2)            h_d = w1 cosh(chi) coth(bh w2/2)
    """
    _check_chi(chi)
    return _energies(config.omega1, config.omega2, config.coth_cold, config.coth_hot, chi)


def works_and_heats_from_params(
    omega1: float, omega2: float, beta_c: float, beta_h: float, chi
) -> CycleReport:
    """works_and_heats on raw parameters (no ordering constraints).

    Useful for symmetry checks such as swapping the roles of the two
    frequencies and the two baths, which maps compression quantities onto
    expansion quantities.  The friction split of the expansion stroke is
    w_cd = w_ad + w_fric, with w_ad = (w1 - w2) coth(bh w2/2) the work of a
    quantum-adiabatic expansion and w_fric = 2 w1 sinh^2(chi/2)
    coth(bh w2/2) >= 0 the excess pumped in by squeezing.
    """
    ch = _bath_coth(beta_h, omega2)
    e = _energies(omega1, omega2, _bath_coth(beta_c, omega1), ch, chi)
    w_ab = e.h_b - e.h_a
    q_bc = e.h_c - e.h_b
    w_cd = e.h_d - e.h_c
    w_net = -(w_ab + w_cd)
    is_engine = (w_net > 0.0) & (q_bc > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(is_engine, w_net / q_bc, np.nan)
    if eta.ndim == 0:  # scalar chi: scalars, never 0-d arrays
        eta, is_engine = float(eta), bool(is_engine)
    return CycleReport(
        w_ab=w_ab,
        q_bc=q_bc,
        w_cd=w_cd,
        q_da=e.h_a - e.h_d,
        w_net=w_net,
        eta=eta,
        w_fric=2.0 * omega1 * np.sinh(chi / 2.0) ** 2 * ch,
        w_ad=(omega1 - omega2) * ch,
        is_engine=is_engine,
    )


def works_and_heats(config: EngineConfig, chi) -> CycleReport:
    """Works and heats over one cycle at squeezing chi (positive = into the substance)."""
    _check_chi(chi)
    return works_and_heats_from_params(
        config.omega1, config.omega2, config.beta_c, config.beta_h, chi
    )


def efficiency(config: EngineConfig, chi: float) -> float:
    """Engine efficiency eta = w_net / q_bc, equal to 1 - w1/w2 at chi = 0.

    Raises NotAnEngineError outside the engine regime (no heat absorbed or
    no net work).
    """
    report = works_and_heats(config, chi)
    if not report.is_engine:
        raise NotAnEngineError(
            f"chi = {chi}: q_bc = {report.q_bc:.6g}, w_net = {report.w_net:.6g}; "
            "not operating as an engine"
        )
    return report.eta


def temperature_ratio_bound(config: EngineConfig, chi: float) -> bool:
    """High-temperature positive-work condition expressed as a temperature ratio.

    True iff t_hot/t_cold > (w2/w1) (w2 cosh(chi) - w1) / (w2 - w1 cosh(chi)).
    At chi = 0 this reduces to t_hot/t_cold > w2/w1.  When
    w2 <= w1 cosh(chi) the bound diverges and no finite ratio satisfies it.

    The underlying approximation coth(x) ~ 1/x holds for x = beta*omega/2
    small, i.e. temperatures LARGE compared to the oscillator quanta; a
    RegimeWarning is emitted when either stroke sits more than 5% away
    from that limit.
    """
    for name, x, coth_x in (
        ("cold stroke", config.beta_c * config.omega1 / 2.0, config.coth_cold),
        ("hot stroke", config.beta_h * config.omega2 / 2.0, config.coth_hot),
    ):
        if x * coth_x - 1.0 > 0.05:
            warnings.warn(
                f"{name}: beta*omega/2 = {x:.4g} is outside the high-temperature regime "
                "(coth(x) deviates from 1/x by more than 5%); the ratio bound is approximate",
                RegimeWarning,
                stacklevel=2,
            )
    cosh_chi = math.cosh(chi)
    denom = config.omega2 - config.omega1 * cosh_chi
    if denom <= 0.0:
        return False
    rhs = (config.omega2 / config.omega1) * (config.omega2 * cosh_chi - config.omega1) / denom
    return config.t_hot / config.t_cold > rhs


def carnot(config: EngineConfig) -> float:
    """Carnot limit 1 - t_cold/t_hot."""
    return 1.0 - config.t_cold / config.t_hot


def otto_ideal(config: EngineConfig) -> float:
    """Ideal (quantum-adiabatic) cycle efficiency 1 - omega1/omega2."""
    return 1.0 - config.omega1 / config.omega2
