"""Phase sensitivity of the expansion stroke viewed as an interferometer.

The expansion stroke starts from the hot thermal state (beta_h, omega2) and
accumulates squeezing chi(zeta, phi).  A drift delta-phi of the internal
phase is detectable through an observable O once it shifts the mean of O
by more than one standard deviation:

    delta_phi = Delta O / |d<O>/d phi|

benchmarked against the shot-noise value 1/sqrt(N_phi), where
N_phi = (N_in + 1) cosh(zeta) - 1 photons pass the phase stage.

Two derivative conventions are implemented side by side because they
disagree and both are needed:

* "paper":  dN/dphi = sin(phi) sinh^2(zeta) coth^2(bh w2/2)
* "chain":  dN/dphi = sin(phi) sinh^2(zeta) coth(bh w2/2)

The chain form is what differentiating N(phi) = (N_in+1) cosh(chi(phi)) - 1
actually gives (finite differences and the Fock-basis oracle agree with it,
and it is the form that reproduces the published headline numbers
zeta_SNL = 3.4, eta_SNL = 0.705); the "paper" form evaluates the printed
coth^2 expression literally so the discrepancy stays measurable.  The same
dual-route policy applies to the energy variance: variance_h evaluates the
printed formula, while the oracle records its disagreement with direct
linear algebra (see the gate module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EngineConfig, chi_of, n_out
from .cycle import efficiency
from .errors import NoSolutionError, PhotonNumberError

__all__ = [
    "DERIVATIVE_MODES",
    "OBSERVABLES",
    "SensitivityPoint",
    "SupersensitivityRange",
    "SnlSolution",
    "variance_n",
    "variance_h",
    "dn_dphi_paper",
    "dn_dphi_chain",
    "delta_phi",
    "sensitivity",
    "photon_number_at_phase",
    "snl",
    "supersensitivity_range",
    "minimize_sensitivity",
    "solve_zeta_snl",
]

DERIVATIVE_MODES = ("paper", "chain")
OBSERVABLES = ("number", "energy")

# |dO/dphi| below this scale counts as an exact zero and the sensitivity
# diverges (sentinel +inf), so sweeps across phi = 0 complete instead of
# raising.
_DERIVATIVE_FLOOR = 1e-300

# solver settings: the phi scans stay this far inside (0, pi), the minimum
# is refined to _PHI_XTOL, range edges to _RANGE_RESOLUTION, zeta_snl to _ZETA_TOL
_PHI_LO = 1e-6
_COARSE_POINTS = 2000
_PHI_XTOL = 1e-10
_RANGE_RESOLUTION = 1e-6
_RANGE_SCAN_POINTS = 4096
_ZETA_TOL = 1e-6


@dataclass(frozen=True)
class SensitivityPoint:
    """Sensitivities of both observables at one (zeta, phi) operating point."""

    phi: float
    delta_phi_n: float
    delta_phi_h: float
    snl: float
    norm_n: float
    norm_h: float
    diverged: bool


@dataclass(frozen=True)
class SupersensitivityRange:
    """phi interval where delta_phi < the shot-noise benchmark; may be empty."""

    lo: float
    hi: float
    empty: bool


@dataclass(frozen=True)
class SnlSolution:
    """Minimum squeezing whose best sensitivity just reaches the shot-noise line."""

    zeta_snl: float
    phi_snl: float
    chi_snl: float
    eta_snl: float
    delta_phi_min: float
    snl_value: float
    observable: str
    derivative_mode: str


def variance_n(config: EngineConfig, chi) -> float:
    """Number variance after the expansion stroke,

        Delta^2 N = [cosh(2 chi) coth^2(bh w2/2) - 1] / 2.

    At chi = 0 this is the two-mode thermal value 2 nbar (nbar + 1).
    """
    c = config.coth_hot
    return 0.5 * (np.cosh(2.0 * np.asarray(chi)) * c * c - 1.0)


def variance_h(config: EngineConfig, chi) -> float:
    """Energy variance after the expansion stroke, printed closed form

        Delta^2 H = 2 w1^2 [Delta^2 N + (coth^2(bh w2/2) + 1) / 4].

    Evaluated literally.  Note the formula does not vanish in the vacuum
    limit (chi = 0, T -> 0) even though H then has a definite value, and
    direct linear algebra gives w1^2 Delta^2 N instead; the oracle gate
    records the discrepancy rather than silently correcting it.
    """
    c = config.coth_hot
    return 2.0 * config.omega1**2 * (variance_n(config, chi) + 0.25 * (c * c + 1.0))


def dn_dphi_paper(config: EngineConfig, zeta, phi) -> float:
    """Printed phase derivative of the mean number: sin(phi) sinh^2(zeta) coth^2(bh w2/2)."""
    return dn_dphi_chain(config, zeta, phi) * config.coth_hot


def dn_dphi_chain(config: EngineConfig, zeta, phi) -> float:
    """Chain-rule phase derivative of N(phi) = (N_in+1) cosh(chi(zeta, phi)) - 1,

        dN/dphi = coth(bh w2/2) sin(phi) sinh^2(zeta),

    one power of coth lower than the printed form; matches central finite
    differences of the composed map.
    """
    return np.sin(np.asarray(phi)) * np.sinh(zeta) ** 2 * config.coth_hot


def _dn_dphi(config: EngineConfig, zeta, phi, derivative_mode: str):
    if derivative_mode == "paper":
        return dn_dphi_paper(config, zeta, phi)
    if derivative_mode == "chain":
        return dn_dphi_chain(config, zeta, phi)
    raise ValueError(f"derivative_mode must be one of {DERIVATIVE_MODES}, got {derivative_mode!r}")


def photon_number_at_phase(n_in: float, zeta: float) -> float:
    """Photons present at the phase stage: (n_in + 1) cosh(zeta) - 1.

    Raises PhotonNumberError when nonpositive (vacuum input with no
    squeezing leaves nothing to modulate).
    """
    n_phi = n_out(n_in, zeta)
    if n_phi <= 0.0:
        raise PhotonNumberError(
            f"N_phi = {n_phi:.6g} <= 0 for n_in = {n_in}, zeta = {zeta}: "
            "no photons undergo the phase shift"
        )
    return n_phi


def snl(config: EngineConfig, zeta: float) -> float:
    """Shot-noise benchmark 1/sqrt(N_phi) with the hot-thermal input of the expansion.

    N_in + 1 = coth(bh w2/2); strictly decreasing in zeta.
    """
    n_in = config.coth_hot - 1.0
    return 1.0 / math.sqrt(photon_number_at_phase(n_in, zeta))


def delta_phi(config: EngineConfig, zeta: float, phi, derivative_mode: str):
    """(delta_phi_n, delta_phi_h) at one or many phases; +inf where dN/dphi vanishes.

    The array entry point behind every sensitivity: phi may be a scalar or
    an array, and both results have its shape.  The energy derivative is
    dH/dphi = w1 dN/dphi, so the w1 factors cancel in delta_phi_h and the
    strict ordering delta_phi_h > delta_phi_n comes entirely from the extra
    vacuum term in the printed energy variance.
    """
    phi = np.asarray(phi, dtype=float)
    chi = chi_of(zeta, phi)
    dn = np.abs(_dn_dphi(config, zeta, phi, derivative_mode))
    sig_n = np.sqrt(variance_n(config, chi))
    sig_h = np.sqrt(variance_h(config, chi))
    with np.errstate(divide="ignore", over="ignore"):
        d_n = np.where(dn > _DERIVATIVE_FLOOR, sig_n / dn, np.inf)
        d_h = np.where(dn > _DERIVATIVE_FLOOR, sig_h / (config.omega1 * dn), np.inf)
    return d_n, d_h


def sensitivity(
    config: EngineConfig, zeta: float, phi: float, derivative_mode: str
) -> SensitivityPoint:
    """delta_phi at one phase, with the shot-noise benchmark and normalized values.

    Returns +inf sensitivities with diverged=True where dN/dphi vanishes
    (phi -> 0 or pi).
    """
    d_n, d_h = delta_phi(config, zeta, phi, derivative_mode)
    d_n, d_h = float(d_n), float(d_h)
    benchmark = snl(config, zeta)
    return SensitivityPoint(
        phi=float(phi),
        delta_phi_n=d_n,
        delta_phi_h=d_h,
        snl=benchmark,
        norm_n=d_n / benchmark,
        norm_h=d_h / benchmark,
        diverged=not math.isfinite(d_n),
    )


def _delta_phi_grid(config, zeta, phis, observable, derivative_mode):
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}, got {observable!r}")
    return delta_phi(config, zeta, phis, derivative_mode)[OBSERVABLES.index(observable)]


def _golden_section(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section minimum of f on [lo, hi] to absolute xtol in x."""
    inv_gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_gr * (b - a)
    d = a + inv_gr * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _bisect(f, a: float, b: float, fa: float, tol: float) -> float:
    """Midpoint of the sign-change bracket [a, b] of f halved down to width tol.

    fa = f(a) is passed in, already known to the caller; with a == b the
    loop does not run and a is returned.
    """
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def minimize_sensitivity(
    config: EngineConfig, zeta: float, observable: str, derivative_mode: str
) -> tuple[float, float]:
    """Global minimum of delta_phi(phi) on (_PHI_LO, pi - _PHI_LO): (phi_star, delta_phi_min).

    With x = sin^2(phi/2), S = sinh^2(zeta) and c = coth(bh w2/2), every mode
    and observable gives delta_phi^2 = (A + B x + C x^2) / (K x (1 - x)):
    A = c^2 - 1 (+ (c^2 + 1)/2 for energy), B = 8 c^2 S, C = 8 c^2 S^2 and
    K = 8 c^2 S^2 (number) or 4 c^2 S^2 (energy), times c^2 in "paper" mode.
    Its x-derivative has the sign of q(x) = (B + C) x^2 + 2 A x - A, convex
    with q(0) = -A < 0 < q(1) = A + B + C for A > 0 (c > 1 at any finite
    temperature): one root in (0, 1), so for zeta > 0 delta_phi is unimodal
    in phi on (0, pi).  A coarse scan brackets the minimum; golden-section
    refines it to _PHI_XTOL.
    """
    phis = np.linspace(_PHI_LO, math.pi - _PHI_LO, _COARSE_POINTS)
    vals = _delta_phi_grid(config, zeta, phis, observable, derivative_mode)
    i_best = int(np.argmin(vals))

    def f(p: float) -> float:
        return float(_delta_phi_grid(config, zeta, p, observable, derivative_mode))

    lo = phis[max(i_best - 1, 0)]
    hi = phis[min(i_best + 1, len(phis) - 1)]
    phi_star = _golden_section(f, lo, hi, _PHI_XTOL)
    return phi_star, f(phi_star)


def supersensitivity_range(
    config: EngineConfig, zeta: float, observable: str, derivative_mode: str
) -> SupersensitivityRange:
    """The phi interval where delta_phi(phi) < 1/sqrt(N_phi), if any.

    In minimize_sensitivity's notation the condition reads
    (C + T) x^2 + (B - T) x + A < 0 with T = K/N_phi: convex, A > 0 at x = 0
    and A + B + C > 0 at x = 1, so it holds on one interval inside (0, 1) or
    nowhere.  A scan finds the interval; bisection locates its edges to
    _RANGE_RESOLUTION.
    """
    benchmark = snl(config, zeta)
    phis = np.linspace(_RANGE_RESOLUTION, math.pi - _RANGE_RESOLUTION, _RANGE_SCAN_POINTS)
    below = _delta_phi_grid(config, zeta, phis, observable, derivative_mode) < benchmark
    if not below.any():
        return SupersensitivityRange(lo=math.nan, hi=math.nan, empty=True)

    def h(p: float) -> float:
        return float(_delta_phi_grid(config, zeta, p, observable, derivative_mode)) - benchmark

    def bisect(a: float, b: float) -> float:
        return _bisect(h, a, b, h(a), _RANGE_RESOLUTION)

    idx = np.flatnonzero(below)
    first, last = int(idx[0]), int(idx[-1])
    lo = phis[0] if first == 0 else bisect(phis[first - 1], phis[first])
    hi = phis[-1] if last == len(phis) - 1 else bisect(phis[last], phis[last + 1])
    return SupersensitivityRange(lo=lo, hi=hi, empty=False)


def solve_zeta_snl(
    config: EngineConfig,
    observable: str,
    derivative_mode: str,
    *,
    zeta_bracket: tuple[float, float],
) -> SnlSolution:
    """Minimum squeezing zeta_snl with min_phi delta_phi(zeta) = 1/sqrt(N_phi).

    Bisection on g(zeta) = delta_phi_min(zeta) - snl(zeta) over the bracket
    to _ZETA_TOL; raises NoSolutionError when g has one sign across it.  The
    solution carries the minimizing phase, the implied chi and the cycle
    efficiency at that chi.
    """

    def g(z: float) -> float:
        _, val = minimize_sensitivity(config, z, observable, derivative_mode)
        return val - snl(config, z)

    lo, hi = zeta_bracket
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        hi = lo
    elif g_hi == 0.0:
        lo = hi
    elif g_lo * g_hi > 0.0:
        raise NoSolutionError(
            f"no sign change of delta_phi_min - snl over zeta in {zeta_bracket}: "
            f"g({lo}) = {g_lo:.4g}, g({hi}) = {g_hi:.4g}"
        )
    zeta_snl = _bisect(g, lo, hi, g_lo, _ZETA_TOL)
    phi_snl, d_min = minimize_sensitivity(config, zeta_snl, observable, derivative_mode)
    chi_snl = float(chi_of(zeta_snl, phi_snl))
    return SnlSolution(
        zeta_snl=zeta_snl,
        phi_snl=phi_snl,
        chi_snl=chi_snl,
        eta_snl=efficiency(config, chi_snl),
        delta_phi_min=d_min,
        snl_value=snl(config, zeta_snl),
        observable=observable,
        derivative_mode=derivative_mode,
    )
