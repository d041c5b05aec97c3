"""Parameter maps between interferometer coordinates and protocol endpoints.

Two equivalent coordinate systems describe the same transformation of the
two-mode working substance:

* interferometer coordinates (zeta, phi): squeezing strength of the two
  squeezers and the internal phase between them;
* protocol endpoints (chi, theta): effective squeezing and accumulated
  phase of the composed transformation, i.e. the end-of-stroke values of
  the two drive protocols (chi = -f_y(t_f), theta = -f_z(t_f)).

The forward map is

    cosh(chi) = 1 + 2 sin^2(phi/2) sinh^2(zeta)
    cos(theta) = sin(phi) / sqrt(sin^2(phi) + (1 - cos(phi))^2 cosh^2(zeta))

and this module also provides the exact inverse, the particle-number
output law and the engine operating-range bounds chi_max / phi_max.
All functions are pure; hbar = k_B = 1 throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLimitWarning,
    DegeneratePhaseError,
    NoEngineRegimeError,
    NonConvergenceError,
    NoSolutionError,
)

TWO_PI = 2.0 * math.pi

# How far rounding may push the arccosh argument of chi_max_from_params below
# 1 before the ratio counts as having no engine regime.
DOMAIN_EPS = 1e-12


@dataclass(frozen=True)
class InterferometerAngles:
    """Squeezing strength and internal phase of the equivalent interferometer.

    phi is wrapped into [0, 2*pi) on construction; zeta must be >= 0.
    """

    zeta: float
    phi: float

    def __post_init__(self):
        if not (self.zeta >= 0.0):
            raise ValueError(f"zeta must be >= 0, got {self.zeta}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "zeta", float(self.zeta))


@dataclass(frozen=True)
class ProtocolEndpoints:
    """End-of-stroke protocol values (chi, theta) of the composed transformation.

    chi is stored non-negative: cosh is even, so the sign of chi is never
    observable and any sign freedom is absorbed into theta.
    """

    chi: float
    theta: float

    def __post_init__(self):
        if not (self.chi >= 0.0):
            raise ValueError(f"chi must be >= 0, got {self.chi}")
        object.__setattr__(self, "chi", float(self.chi))
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class EngineConfig:
    """Oscillator frequencies and bath temperatures of the four-stroke cycle.

    omega1 is the (lower) frequency at stages A/D, omega2 the (higher) one
    at stages B/C; t_hot / t_cold are the bath temperatures in energy units
    (hbar = k_B = 1).
    """

    omega1: float
    omega2: float
    t_hot: float
    t_cold: float

    def __post_init__(self):
        if not (self.omega2 > self.omega1 > 0.0):
            raise ValueError(
                f"need omega2 > omega1 > 0, got omega1={self.omega1}, omega2={self.omega2}"
            )
        if not (self.t_hot > self.t_cold > 0.0):
            raise ValueError(
                f"need t_hot > t_cold > 0, got t_hot={self.t_hot}, t_cold={self.t_cold}"
            )

    @property
    def beta_h(self) -> float:
        return 1.0 / self.t_hot

    @property
    def beta_c(self) -> float:
        return 1.0 / self.t_cold

    @property
    def coth_hot(self) -> float:
        """coth(bh w2/2) = N_in + 1 of the hot thermal state entering the expansion."""
        return _bath_coth(self.beta_h, self.omega2)

    @property
    def coth_cold(self) -> float:
        """coth(bc w1/2) = N_in + 1 of the cold thermal state entering the compression."""
        return _bath_coth(self.beta_c, self.omega1)


def _bath_coth(beta: float, omega: float) -> float:
    """coth(beta omega / 2), the bath factor of a thermal oscillator pair."""
    return 1.0 / math.tanh(beta * omega / 2.0)


def chi_of(zeta, phi):
    """Effective squeezing chi(zeta, phi); accepts scalars or numpy arrays.

    Evaluated as arccosh(1 + 2 sin^2(phi/2) sinh^2(zeta)), which is the
    same right-hand side as (1 - cos(phi)) cosh^2(zeta) + cos(phi) but is
    >= 1 by construction in floating point, so no clamping is needed.
    """
    return np.arccosh(1.0 + 2.0 * np.sin(np.asarray(phi) / 2.0) ** 2 * np.sinh(zeta) ** 2)


def theta_of(zeta, phi):
    """Accumulated phase theta(zeta, phi) on the principal branch (0, pi].

    Only cos(theta) is fixed by the constituent relations; we take
    theta in (0, pi), which makes sin(theta) carry the sign of
    (1 - cos(phi)) cosh(zeta) >= 0.  Array-friendly; phi = 0 gives nan
    (use theta_from for the guarded scalar version).
    """
    zeta = np.asarray(zeta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s, c1 = np.sin(phi), 1.0 - np.cos(phi)
    denom = np.sqrt(s**2 + c1**2 * np.cosh(zeta) ** 2)
    with np.errstate(invalid="ignore"):
        out = np.arccos(s / denom)
    return out


def chi_from(angles: InterferometerAngles) -> float:
    """Effective squeezing of the composed transformation; >= 0, zero iff
    zeta = 0 or phi = 0 (mod 2*pi)."""
    return float(chi_of(angles.zeta, angles.phi))


def theta_from(angles: InterferometerAngles) -> float:
    """Accumulated phase of the composed transformation, principal branch.

    Raises DegeneratePhaseError at phi = 0, where the composed
    transformation is the identity and the phase direction is undefined.
    """
    if angles.phi == 0.0:
        raise DegeneratePhaseError(
            "phi = 0: composed transformation is the identity, theta undefined"
        )
    return float(theta_of(angles.zeta, angles.phi))


def angles_from(endpoints: ProtocolEndpoints) -> InterferometerAngles:
    """Invert the (zeta, phi) -> (chi, theta) map.

    The two constituent relations reduce algebraically to

        sin^2(phi/2) = sin^2(theta) - sinh^2(chi/2) cos^2(theta)
        sinh^2(zeta) = sinh^2(chi/2) / sin^2(phi/2)

    so the inversion is closed-form; the theta <= pi/2 branch maps to
    phi in (0, pi], the theta > pi/2 branch to phi in (pi, 2*pi).  A
    solution exists iff tan^2(theta) > sinh^2(chi/2); otherwise the
    requested (chi, theta) are incompatible and NoSolutionError reports
    the residual.  The result is verified to reproduce the inputs to
    1e-10 before returning.  The arcsine needs no clamp: sin^2(phi/2) is
    sin^2(theta) <= 1 minus a non-negative term, in floating point too.
    """
    chi = endpoints.chi
    if chi <= 0.0:
        raise ValueError("angles_from requires chi > 0 (identity endpoint has no unique angles)")
    theta = abs(endpoints.theta) % TWO_PI
    if theta > math.pi:
        theta = TWO_PI - theta  # sign of sin(theta) is unobservable; fold to (0, pi] keeping cos
    if theta in (0.0, math.pi):
        raise NoSolutionError(
            f"theta = {endpoints.theta}: no (zeta, phi) reproduces chi = {chi} at a phase "
            "multiple of pi"
        )
    sh2 = math.sinh(chi / 2.0) ** 2
    st, ct = math.sin(theta), math.cos(theta)
    u = st * st - sh2 * ct * ct  # = sin^2(phi/2)
    if u <= 0.0:
        raise NoSolutionError(
            f"incompatible endpoints chi={chi}, theta={endpoints.theta}: "
            f"sin^2(phi/2) would be {u:.3e} (needs tan^2(theta) > sinh^2(chi/2))"
        )
    half_phi = math.asin(math.sqrt(u))
    phi = 2.0 * half_phi if theta <= math.pi / 2.0 else TWO_PI - 2.0 * half_phi
    zeta = math.asinh(math.sqrt(sh2 / u))
    if chi < 1e-12:
        warnings.warn(
            "chi is at the identity limit; returning the minimal-zeta representative "
            "of the degenerate family",
            DegenerateLimitWarning,
            stacklevel=2,
        )
    angles = InterferometerAngles(zeta=zeta, phi=phi)
    res_chi = abs(chi_from(angles) - chi)
    res_theta = abs(math.cos(theta_from(angles)) - ct)
    if res_chi > 1e-10 or res_theta > 1e-10:
        raise NonConvergenceError(
            f"inversion residuals too large: |d chi| = {res_chi:.3e}, "
            f"|d cos(theta)| = {res_theta:.3e}"
        )
    return angles


def n_out(n_in: float, chi: float) -> float:
    """Mean particle number leaving the transformation: (n_in + 1) cosh(chi) - 1."""
    if n_in < 0.0:
        raise ValueError(f"n_in must be >= 0, got {n_in}")
    return (n_in + 1.0) * math.cosh(chi) - 1.0


def chi_max_from_params(omega1: float, omega2: float, beta_c: float, beta_h: float) -> float:
    """Largest squeezing with positive net work, from the ratio

        cosh(chi_max) = (w1 coth(bc w1/2) + w2 coth(bh w2/2))
                      / (w2 coth(bc w1/2) + w1 coth(bh w2/2)).

    Raises NoEngineRegimeError when the ratio is < 1 (no chi produces work).
    """
    cc = _bath_coth(beta_c, omega1)
    ch = _bath_coth(beta_h, omega2)
    rhs = (omega1 * cc + omega2 * ch) / (omega2 * cc + omega1 * ch)
    if rhs < 1.0 - DOMAIN_EPS:
        raise NoEngineRegimeError(
            f"cosh(chi_max) ratio = {rhs:.12g} < 1: no squeezing value gives positive work "
            "(requires t_hot/t_cold > omega2/omega1)"
        )
    return math.acosh(max(rhs, 1.0))


def chi_max(config: EngineConfig) -> float:
    """chi_max for a validated engine configuration; positive work needs chi < chi_max."""
    return chi_max_from_params(config.omega1, config.omega2, config.beta_c, config.beta_h)


def phi_max(zeta: float, chi_max_value: float) -> float:
    """Largest phase keeping the cycle inside the engine regime at fixed zeta.

    Solves chi(zeta, phi_max) = chi_max via
    sin^2(phi_max/2) = r = sinh^2(chi_max/2) / sinh^2(zeta).  Returns pi when
    r >= 1 (chi never reaches chi_max, the whole half-range (0, pi) operates
    as an engine) and also at zeta = 0, where chi vanishes identically and
    the engine is phase-insensitive.  Past those returns r lies in [0, 1),
    so 2 asin(sqrt(r)) needs no clamp and lies in [0, pi); unlike
    arccos(1 - 2 r) it keeps every digit as r -> 0.  A NaN input gives NaN.
    """
    if chi_max_value < 0.0:
        raise ValueError(f"chi_max must be >= 0, got {chi_max_value}")
    if chi_max_value == 0.0:
        return 0.0
    sh2_zeta = math.sinh(zeta) ** 2
    if sh2_zeta == 0.0:
        return math.pi
    r = math.sinh(chi_max_value / 2.0) ** 2 / sh2_zeta
    if r >= 1.0:
        return math.pi
    return 2.0 * math.asin(math.sqrt(r))
