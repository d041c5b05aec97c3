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
    tan(theta) = tan(phi/2) cosh(zeta)

(chi_of, theta_of), and this module also provides its exact inverse
angles_of (NaN where no (zeta, phi) exists), the particle-number output
law and the engine operating-range bounds chi_max / phi_max.
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

    phi is wrapped into [0, 2*pi) on construction; zeta must be >= 0.  Both
    must be finite.
    """

    zeta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.zeta < math.inf:
            raise ValueError(f"zeta must be finite and >= 0, got {self.zeta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "zeta", float(self.zeta))


@dataclass(frozen=True)
class ProtocolEndpoints:
    """End-of-stroke protocol values (chi, theta) of the composed transformation.

    chi is stored non-negative: cosh is even, so the sign of chi is never
    observable and any sign freedom is absorbed into theta.  Both must be
    finite.
    """

    chi: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.chi < math.inf:
            raise ValueError(f"chi must be finite and >= 0, got {self.chi}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
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
    return _chi_of_sinh2(np.sinh(zeta) ** 2, np.sin(np.asarray(phi) / 2.0) ** 2)


def _chi_of_sinh2(sinh2, sin2_half):
    """chi_of from sinh^2(zeta) and sin^2(phi/2) already formed, for callers that hold either fixed."""
    return np.arccosh(1.0 + 2.0 * sin2_half * sinh2)


def theta_of(zeta, phi):
    """Accumulated phase theta(zeta, phi) on the principal branch (0, pi).

    The constituent relations fix tan(theta) = tan(phi/2) cosh(zeta), and
    on this branch sin(theta) carries the sign of (1 - cos(phi)) cosh(zeta)
    >= 0.  Evaluated as atan2(2 sin^2(phi/2) cosh(zeta), sin(phi)), with no
    1 - cos(phi) and no arccos near +-1 to lose digits at small phi.
    Array-friendly; phi = 0 gives 0 (theta_from raises there).
    """
    phi = np.asarray(phi, dtype=float)
    return np.arctan2(2.0 * np.sin(phi / 2.0) ** 2 * np.cosh(zeta), np.sin(phi))


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


def angles_of(chi, theta):
    """Invert the (zeta, phi) -> (chi, theta) map: (zeta, phi) for scalars or
    arrays that broadcast together, NaN where no (zeta, phi) exists.

    The two constituent relations reduce algebraically to

        sin^2(phi/2) = sin^2(theta) - sinh^2(chi/2) cos^2(theta)
        sinh^2(zeta) = sinh^2(chi/2) / sin^2(phi/2)

    so the inversion is closed-form; the theta <= pi/2 branch maps to
    phi in (0, pi], the theta > pi/2 branch to phi in (pi, 2*pi) (theta is
    folded to [0, pi] first: the sign of sin(theta) is unobservable).  A
    solution exists iff tan^2(theta) > sinh^2(chi/2) and theta is not a
    multiple of pi; elsewhere both results are NaN.  Every solution is
    verified to reproduce its inputs to 1e-10 (NonConvergenceError
    otherwise).  The arcsine needs no clamp: sin^2(phi/2) is sin^2(theta)
    <= 1 minus a non-negative term, in floating point too.
    """
    if not np.all(chi > 0.0):
        raise ValueError("angles_of requires chi > 0 (identity endpoint has no unique angles)")
    theta = np.abs(theta) % TWO_PI
    theta = np.where(theta > math.pi, TWO_PI - theta, theta)
    sh2 = np.sinh(chi / 2.0) ** 2
    st, ct = np.sin(theta), np.cos(theta)
    u = st * st - sh2 * ct * ct  # = sin^2(phi/2)
    solvable = (u > 0.0) & (theta != 0.0) & (theta != math.pi)
    u = np.where(solvable, u, np.nan)  # NaN carries through without a warning
    half_phi = np.arcsin(np.sqrt(u))
    phi = np.where(theta <= math.pi / 2.0, 2.0 * half_phi, TWO_PI - 2.0 * half_phi)
    zeta = np.arcsinh(np.sqrt(sh2 / u))
    if np.any(solvable & (chi < 1e-12)):
        warnings.warn(
            "chi is at the identity limit; returning the minimal-zeta representative "
            "of the degenerate family",
            DegenerateLimitWarning,
            stacklevel=2,
        )
    res_chi = np.abs(chi_of(zeta, phi) - chi)
    res_theta = np.abs(np.cos(theta_of(zeta, phi)) - ct)
    if np.any(solvable & ~((res_chi <= 1e-10) & (res_theta <= 1e-10))):
        raise NonConvergenceError(
            f"inversion residuals too large: |d chi| = {np.nanmax(res_chi):.3e}, "
            f"|d cos(theta)| = {np.nanmax(res_theta):.3e}"
        )
    return zeta, phi


def angles_from(endpoints: ProtocolEndpoints) -> InterferometerAngles:
    """`angles_of` at one (chi, theta); NoSolutionError where it returns NaN,
    that is where tan^2(theta) <= sinh^2(chi/2) or theta is a multiple of pi."""
    zeta, phi = angles_of(endpoints.chi, endpoints.theta)
    if np.isnan(zeta):
        raise NoSolutionError(f"incompatible endpoints chi={endpoints.chi}, theta="
                              f"{endpoints.theta}: needs tan^2(theta) > sinh^2(chi/2)")
    return InterferometerAngles(zeta=float(zeta), phi=float(phi))


def n_out(n_in: float, chi):
    """Mean particle number leaving the transformation: (n_in + 1) cosh(chi) - 1,
    at one or many chi."""
    if n_in < 0.0:
        raise ValueError(f"n_in must be >= 0, got {n_in}")
    return (n_in + 1.0) * np.cosh(chi) - 1.0


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
