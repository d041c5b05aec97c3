"""Superconducting transmission-line realization of the engine strokes.

A chain of N_cell LC cells, each shunted by a flux-tunable Josephson
element, carries flux-field modes with dispersion

    omega_j = sqrt( 4 sin^2(pi j / N_cell) / (L C) + (2 pi / Phi_0)^2 E(t)/C )

where E(t)/C = (E_0/C) [A - B tanh(nu t)] lowers the Josephson energy
between two plateaus: the expansion stroke, which compression reverses
(only the ratio E_0/C ever enters).  A mode pair driven through the ramp
undergoes a two-mode Bogoliubov transformation whose coefficients are
Gamma-function quotients; in the fast-ramp regime the coupling is real and
maps onto the engine's protocol endpoints via cosh(f_y) = 1 + 2|beta|^2,
sinh(f_y) = -2 Re{alpha beta}, theta ~ -omega_f t_f.

Kelvin temperatures are converted to natural units (hbar = k_B = 1) at
this module's boundary only; everything downstream is dimensionless.
`CircuitParams`, the `circuit` config block, is `config`'s and re-exported
here; only `figure4` and `circuit` execute this module (and its `gammafn`).
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass, field

import numpy as np

from .config import CircuitParams
from .core import TWO_PI, EngineConfig, ProtocolEndpoints, angles_of, chi_max
from .cycle import carnot, efficiency
from .errors import IdentityViolationError, ImaginaryCouplingError, NoSolutionError
from .gammafn import complex_log_gamma, log_gamma_shifted_down
from .metrology import delta_phi, snl

__all__ = [
    "HBAR",
    "K_BOLTZMANN",
    "FLUX_QUANTUM",
    "KELVIN_TO_RAD_PER_S",
    "CircuitParams",
    "BogoliubovPair",
    "ScenarioReport",
    "dispersion",
    "asymptotic_frequencies",
    "bogoliubov",
    "coupling_coefficients",
    "map_to_protocol",
    "circuit_scenario",
]

HBAR = 1.054571817e-34  # J s
K_BOLTZMANN = 1.380649e-23  # J / K
FLUX_QUANTUM = 2.067833848e-15  # Wb
KELVIN_TO_RAD_PER_S = K_BOLTZMANN / HBAR  # temperature in natural frequency units

# largest |Im{alpha beta}| the real-coupling protocol map accepts
_IM_TOL = 1e-3
# published normalized (eta, delta_phi) pair the scenario reports its deviation from
REFERENCE_ETA_NORM = 0.23
REFERENCE_DPHI_NORM = 0.56


@dataclass(frozen=True)
class BogoliubovPair:
    """Mode-mixing coefficients of one ramp, with |alpha|^2 - |beta|^2 = 1."""

    alpha: complex
    beta: complex
    omega_i: float
    omega_f: float
    nu: float

    @property
    def n_created(self) -> float:
        return abs(self.beta) ** 2

    @property
    def identity_residual(self) -> float:
        """| |alpha|^2 - |beta|^2 - 1 |: rounding noise on an exact pair."""
        return abs(abs(self.alpha) ** 2 - abs(self.beta) ** 2 - 1.0)


def dispersion(j: int, e_over_c: float, params: CircuitParams) -> float:
    """Mode frequency (rad/s) at Josephson energy-per-capacitance e_over_c.

    Depends on the cell index only through j/N_cell: the cell length
    cancels between the wave vector and the lattice sine.
    """
    if not (0 <= j < params.n_cell):
        raise ValueError(f"mode index out of range: j={j}, n_cell={params.n_cell}")
    if e_over_c < 0.0:
        raise ValueError("Josephson energy must be >= 0")
    lattice = 4.0 * math.sin(math.pi * j / params.n_cell) ** 2 / (
        params.inductance_h * params.capacitance_f
    )
    plasma = (2.0 * math.pi / FLUX_QUANTUM) ** 2 * e_over_c
    return math.sqrt(lattice + plasma)


def asymptotic_frequencies(params: CircuitParams) -> tuple[float, float]:
    """(omega_i, omega_f): the expansion ramp's plateau frequencies, at E/C =
    (E_0/C)(A + B) and (E_0/C)(A - B).  Compression is the same pair reversed."""
    scale, a, b = params.josephson_scale_j_per_f, params.amp_a, params.amp_b
    j = params.mode_index
    return dispersion(j, scale * (a + b), params), dispersion(j, scale * (a - b), params)


def bogoliubov(omega_i: float, omega_f: float, nu: float) -> BogoliubovPair:
    """Bogoliubov coefficients of the tanh ramp between omega_i and omega_f.

        alpha = sqrt(wf/wi) G(1 - i wi/nu) G(-i wf/nu) / [G(-i w+/nu) G(1 - i w+/nu)]
        beta  = sqrt(wf/wi) G(1 - i wi/nu) G( i wf/nu) / [G( i w-/nu) G(1 + i w-/nu)]

    with the half-combinations w+ = (wi + wf)/2 and w- = (wf - wi)/2.  (The
    plain sum/difference fails the Bogoliubov identity by an exact factor
    4 cosh(pi wi/nu) cosh(pi wf/nu); the half-combinations satisfy
    |alpha|^2 - |beta|^2 = 1 identically, which is enforced here as a
    verification, never as a normalization.)  Everything is evaluated in
    log space, so slow ramps with large |omega/nu| do not overflow.

    Degenerate frequencies (w- = 0 would sit on Gamma poles) take the
    no-particle-creation limit beta = 0, alpha = 1.

    The Lanczos sums at 1 - i w+/nu and 1 + i w-/nu are taken once, and shifted
    down for G(-i w+/nu), G(i w-/nu); G(-+i wf/nu) are not proven exact conjugates.
    """
    for name, value in (("omega_i", omega_i), ("omega_f", omega_f), ("nu", nu)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if abs(omega_f - omega_i) <= 1e-12 * (omega_i + omega_f):
        return BogoliubovPair(alpha=1.0 + 0j, beta=0j, omega_i=omega_i, omega_f=omega_f, nu=nu)
    w_plus, w_minus = 0.5 * (omega_i + omega_f), 0.5 * (omega_f - omega_i)
    # the log of the factor sqrt(wf/wi) G(1 - i wi/nu) that alpha and beta share
    head = 0.5 * math.log(omega_f / omega_i) + complex_log_gamma(1.0 - 1j * omega_i / nu)
    z_plus, z_minus = -1j * w_plus / nu, 1j * w_minus / nu
    up_plus, up_minus = complex_log_gamma(z_plus + 1), complex_log_gamma(z_minus + 1)
    log_alpha = (
        head
        + complex_log_gamma(-1j * omega_f / nu)
        - log_gamma_shifted_down(z_plus, 1, up_plus)
        - up_plus
    )
    log_beta = (
        head
        + complex_log_gamma(1j * omega_f / nu)
        - log_gamma_shifted_down(z_minus, 1, up_minus)
        - up_minus
    )
    pair = BogoliubovPair(cmath.exp(log_alpha), cmath.exp(log_beta), omega_i, omega_f, nu)
    if pair.identity_residual > 1e-8:
        raise IdentityViolationError(
            f"|alpha|^2 - |beta|^2 deviates from 1 by {pair.identity_residual:.3e} "
            f"(omega_i={omega_i}, omega_f={omega_f}, nu={nu})"
        )
    return pair


def coupling_coefficients(pair: BogoliubovPair) -> tuple[float, float]:
    """(Re{alpha beta}, Im{alpha beta}): the pair-coupling strengths of the
    final Hamiltonian written in the initial mode operators."""
    ab = pair.alpha * pair.beta
    return ab.real, ab.imag


def map_to_protocol(pair: BogoliubovPair, t_f: float) -> ProtocolEndpoints:
    """Protocol endpoints (chi, theta) realized by the ramp, valid when the
    coupling is (nearly) real.

    chi = arccosh(1 + 2 |beta|^2) >= 0 (any sign lives in theta, matching
    the endpoint convention) and theta = -omega_f t_f wrapped to (-pi, pi]
    (`_stop_phase`).  Raises ImaginaryCouplingError when |Im{alpha beta}|
    exceeds _IM_TOL: outside the fast-ramp regime the final Hamiltonian has
    a quadrature component this two-parameter protocol cannot represent.
    """
    re_ab, im_ab = coupling_coefficients(pair)
    if abs(im_ab) > _IM_TOL:
        raise ImaginaryCouplingError(
            f"|Im(alpha beta)| = {abs(im_ab):.3e} > {_IM_TOL}: ramp too slow for the "
            "real-coupling protocol mapping"
        )
    chi = math.acosh(1.0 + 2.0 * pair.n_created)
    return ProtocolEndpoints(chi=chi, theta=float(_stop_phase(pair.omega_f, t_f)))


def _stop_phase(omega_f: float, t_f):
    """theta = -omega_f t_f wrapped to (-pi, pi], at one or many stop times.

    fmod is exact, and so is the one shift by 2 pi that can follow (Sterbenz),
    so this is the exact representative math.remainder gives, -pi sent to pi.
    """
    theta = np.fmod(-omega_f * np.asarray(t_f), TWO_PI)
    theta = np.where(theta > math.pi, theta - TWO_PI, theta)
    return np.where(theta <= -math.pi, theta + TWO_PI, theta)


@dataclass(frozen=True)
class ScenarioReport:
    """End-to-end circuit run: ramp data, engine mapping and the t_f sweep as
    columns, one entry per stop time.  zeta, phi and the dphi columns are NaN
    at the flagged stop times, whose theta no (zeta, phi) realizes at the
    ramp's chi.  best indexes the sensitivity-optimal stop time, None when
    none has a finite dphi_norm."""

    engine: EngineConfig
    pair: BogoliubovPair  # the expansion ramp's
    chi: float
    chi_max: float
    eta: float
    eta_norm: float
    t_f: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    dphi_h: np.ndarray = field(repr=False)
    dphi_norm: np.ndarray = field(repr=False)
    best: int | None

    @property
    def flagged(self) -> np.ndarray:
        return np.isnan(self.zeta)

    @property
    def eta_norm_deviation(self) -> float:
        return self.eta_norm - REFERENCE_ETA_NORM

    @property
    def dphi_norm_deviation(self) -> float:
        norm = math.nan if self.best is None else float(self.dphi_norm[self.best])
        return norm - REFERENCE_DPHI_NORM


def engine_config_from_circuit(params: CircuitParams) -> EngineConfig:
    """Engine frequencies/temperatures implied by the expansion ramp, in rad/s."""
    omega_i, omega_f = asymptotic_frequencies(params)
    if omega_f >= omega_i:
        raise NoSolutionError(
            "static line (amp_b = 0): the ramp leaves the mode frequency unchanged, "
            "so there is no compression/expansion pair to cycle between"
        )
    return EngineConfig(
        omega1=omega_f,
        omega2=omega_i,
        t_hot=params.t_hot_kelvin * KELVIN_TO_RAD_PER_S,
        t_cold=params.t_cold_kelvin * KELVIN_TO_RAD_PER_S,
    )


def circuit_scenario(params: CircuitParams, *, derivative_mode: str) -> ScenarioReport:
    """Run the full pipeline: ramp -> Bogoliubov pair -> engine + sensitivity sweep.

    The ramp fixes chi, so the cycle efficiency is one number; sweeping the
    stop time t_f at params.t_f_points samples over one 2*pi period of
    theta = -omega_f t_f moves the operating point along the fixed-chi
    family of (zeta, phi), in one array pass over the stop times.  Stop
    times whose theta is incompatible with chi are flagged: they correspond
    to no real (zeta, phi) and hold NaN.  The sensitivity-optimal valid point
    is reported together with the deviation from the reference normalized pair
    (REFERENCE_ETA_NORM, REFERENCE_DPHI_NORM), which is NOT asserted: the
    stop time, the rapidity units and the kelvin mapping are modeling
    choices recorded in the report header.
    """
    engine = engine_config_from_circuit(params)
    omega_i, omega_f = engine.omega2, engine.omega1
    nu = params.rapidity if params.rapidity_absolute else params.rapidity * omega_i
    pair = bogoliubov(omega_i, omega_f, nu)
    chi = map_to_protocol(pair, 0.0).chi
    eta = efficiency(engine, chi)
    period = 2.0 * math.pi / pair.omega_f
    t_f = np.arange(1, params.t_f_points + 1) * period / params.t_f_points
    theta = _stop_phase(pair.omega_f, t_f)
    zeta, phi = angles_of(chi, theta)
    _, dphi_h = delta_phi(engine, zeta, phi, derivative_mode)
    dphi_norm = dphi_h / snl(engine, zeta)
    finite = np.isfinite(dphi_norm)
    return ScenarioReport(
        engine=engine,
        pair=pair,
        chi=chi,
        chi_max=chi_max(engine),
        eta=eta,
        eta_norm=eta / carnot(engine),
        t_f=t_f,
        theta=theta,
        zeta=zeta,
        phi=phi,
        dphi_h=dphi_h,
        dphi_norm=dphi_norm,
        best=int(np.argmin(np.where(finite, dphi_norm, np.inf))) if finite.any() else None,
    )
