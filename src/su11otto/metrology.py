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

delta_phi_objective (one zeta, observable and mode) is the one home of the
delta_phi formula; delta_phi and every solver step evaluate through it.  It
must equal delta_phi bit for bit: phi_snl sits in a minimum flat to rounding,
where one ulp in delta_phi moves it by about 1e-8 relative.  Solver steps run
on Python floats, with numpy only for sin, arccosh and cosh (math's differ by an
ulp); scans read two phi tables built once.  Solvers refuse a bad zeta first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import EngineConfig, _chi_of_sinh2, chi_of, n_out
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
    "delta_phi_objective",
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
    return _variance_n(config.coth_hot, np.cosh(2.0 * np.asarray(chi)))


def _variance_n(coth, cosh_2chi):
    """[cosh(2 chi) coth^2 - 1] / 2 for a thermal pair of bath factor coth = N_in + 1."""
    return 0.5 * (cosh_2chi * coth * coth - 1.0)


def variance_h(config: EngineConfig, chi) -> float:
    """Energy variance after the expansion stroke, printed closed form

        Delta^2 H = 2 w1^2 [Delta^2 N + (coth^2(bh w2/2) + 1) / 4].

    Evaluated literally.  Note the formula does not vanish in the vacuum
    limit (chi = 0, T -> 0) even though H then has a definite value, and
    direct linear algebra gives w1^2 Delta^2 N instead; the oracle gate
    records the discrepancy rather than silently correcting it.
    """
    scale, offset, _ = _observable_terms(config, "energy")
    return scale * (variance_n(config, chi) + offset)


def _observable_terms(config: EngineConfig, observable: str) -> tuple[float, float, float]:
    """(scale, offset, w): Delta^2 O = scale (Delta^2 N + offset), dO/dphi = w dN/dphi."""
    if observable == "number":
        return 1.0, 0.0, 1.0
    c = config.coth_hot
    return 2.0 * config.omega1**2, 0.25 * (c * c + 1.0), config.omega1


def dn_dphi_paper(config: EngineConfig, zeta, phi) -> float:
    """Printed phase derivative of the mean number: sin(phi) sinh^2(zeta) coth^2(bh w2/2)."""
    return dn_dphi_chain(config, zeta, phi) * config.coth_hot


def dn_dphi_chain(config: EngineConfig, zeta, phi) -> float:
    """Chain-rule phase derivative of N(phi) = (N_in+1) cosh(chi(zeta, phi)) - 1,

        dN/dphi = coth(bh w2/2) sin(phi) sinh^2(zeta),

    one power of coth lower than the printed form; matches central finite
    differences of the composed map.
    """
    return _dn_dphi_chain(config.coth_hot, np.sinh(zeta) ** 2, np.sin(np.asarray(phi)))


def _dn_dphi_chain(coth, sinh2, sin_phi):
    """dn_dphi_chain from sinh^2(zeta) and sin(phi) already formed: (sin(phi) sinh2) coth."""
    return sin_phi * sinh2 * coth


def _check_choices(observable: str, derivative_mode: str, zeta: float = 0.0) -> None:
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}, got {observable!r}")
    if derivative_mode not in DERIVATIVE_MODES:
        raise ValueError(f"derivative_mode must be one of {DERIVATIVE_MODES}, got {derivative_mode!r}")
    if not 0.0 <= zeta < math.inf:  # NaN fails too
        raise ValueError(f"zeta must be finite and >= 0, got {zeta}")


def photon_number_at_phase(n_in: float, zeta):
    """Photons present at the phase stage: (n_in + 1) cosh(zeta) - 1, at one or many zeta.

    Raises PhotonNumberError when nonpositive (vacuum input with no
    squeezing leaves nothing to modulate).
    """
    n_phi = n_out(n_in, zeta)
    if np.any(n_phi <= 0.0):
        raise PhotonNumberError(
            f"N_phi = {np.nanmin(n_phi):.6g} <= 0 for n_in = {n_in}, zeta = {zeta}: "
            "no photons undergo the phase shift"
        )
    return n_phi


def snl(config: EngineConfig, zeta):
    """Shot-noise benchmark 1/sqrt(N_phi) at one or many zeta, hot-thermal input.

    N_in + 1 = coth(bh w2/2); strictly decreasing in zeta.
    """
    n_in = config.coth_hot - 1.0
    return 1.0 / np.sqrt(photon_number_at_phase(n_in, zeta))


def delta_phi(config: EngineConfig, zeta, phi, derivative_mode: str):
    """(delta_phi_n, delta_phi_h) at one or many points; +inf where dN/dphi
    vanishes, NaN at a NaN zeta or phi.

    zeta and phi may be scalars or arrays that broadcast together.  Since
    dH/dphi = w1 dN/dphi, w1 cancels in delta_phi_h, and delta_phi_h >
    delta_phi_n comes entirely from the printed energy variance's vacuum term.
    """
    return tuple(delta_phi_objective(config, zeta, o, derivative_mode)(phi) for o in OBSERVABLES)


def _sines(phi):
    """(sin(phi), sin^2(phi/2)): all of delta_phi's phi dependence but arccosh and cosh."""
    return np.sin(phi), np.sin(phi / 2.0) ** 2


@functools.cache
def _scan_table(edge: float, points: int) -> np.ndarray:
    """Rows phi, *_sines(phi) at points phases on [edge, pi - edge]; read-only, built on first use."""
    phi = np.linspace(edge, math.pi - edge, points)
    (table := np.array([phi, *_sines(phi)])).flags.writeable = False
    return table


def delta_phi_objective(config: EngineConfig, zeta, observable: str, derivative_mode: str):
    """delta_phi of one observable as a function of phi, at fixed zeta.

    Checks its arguments and forms the zeta-only factors once.  A scan may
    pass _sines(phi) as sines.  A float phi (a solver step) gives a float.
    """
    _check_choices(observable, derivative_mode)
    coth = config.coth_hot
    sinh2 = np.sinh(zeta) ** 2
    if scalar := isinstance(sinh2, float):
        sinh2 = float(sinh2)
    mode_factor = coth if derivative_mode == "paper" else 1.0  # x * 1.0 == x exactly
    scale, offset, w = _observable_terms(config, observable)

    def ratio(sin_phi, sin2_half, real, sqrt):  # math.sqrt is IEEE-exact, as np.sqrt
        dn = abs(_dn_dphi_chain(coth, sinh2, sin_phi) * mode_factor)
        chi = real(_chi_of_sinh2(sinh2, sin2_half))
        sig = sqrt(scale * (_variance_n(coth, real(np.cosh(2.0 * chi))) + offset))
        den = w * dn
        if real is float and den:  # den = 0 (dn = 0, or w1 dn underflowed) takes numpy's sig / 0
            return math.inf if dn <= _DERIVATIVE_FLOOR else sig / den
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(dn <= _DERIVATIVE_FLOOR, np.inf, np.divide(sig, den))

    def objective(phi, sines=None):
        if scalar and isinstance(phi, float):
            return ratio(float(np.sin(phi)), float(np.sin(phi / 2.0)) ** 2, float, math.sqrt)
        return ratio(*(sines or _sines(np.asarray(phi, dtype=float))), np.asarray, np.sqrt)

    return objective


def sensitivity(
    config: EngineConfig, zeta: float, phi: float, derivative_mode: str
) -> SensitivityPoint:
    """delta_phi at one phase, with the shot-noise benchmark and normalized values.

    Returns +inf sensitivities with diverged=True where dN/dphi vanishes
    (phi -> 0 or pi).
    """
    d_n, d_h = map(float, delta_phi(config, zeta, phi, derivative_mode))
    benchmark = float(snl(config, zeta))
    return SensitivityPoint(
        phi=float(phi),
        delta_phi_n=d_n,
        delta_phi_h=d_h,
        snl=benchmark,
        norm_n=d_n / benchmark,
        norm_h=d_h / benchmark,
        diverged=not math.isfinite(d_n),
    )


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
    refines it to _PHI_XTOL.  A minimum refined onto the scan floor _PHI_LO
    (past zeta ~ 14.7 on the default engine) is not the minimum: NoSolutionError.
    At zeta = 0, delta_phi is +inf at every phi and phi* is arbitrary: the
    result is (~1.57e-3, the top of the first scan step; +inf).
    """
    _check_choices(observable, derivative_mode, zeta)
    f = delta_phi_objective(config, zeta, observable, derivative_mode)
    phis, *sines = _scan_table(_PHI_LO, _COARSE_POINTS)
    i_best = int(np.argmin(f(phis, sines)))
    lo, hi = phis[[max(i_best - 1, 0), min(i_best + 1, len(phis) - 1)]].tolist()
    phi_star = _golden_section(f, lo, hi, _PHI_XTOL)
    if phi_star - phis[0] < _PHI_XTOL:
        raise NoSolutionError(f"zeta = {zeta:g}: the optimal phi is below the scan floor {_PHI_LO:g}")
    return phi_star, float(f(phi_star))


def supersensitivity_range(
    config: EngineConfig, zeta: float, observable: str, derivative_mode: str
) -> SupersensitivityRange:
    """The phi interval where delta_phi(phi) < 1/sqrt(N_phi), if any.

    In minimize_sensitivity's notation the condition reads
    (C + T) x^2 + (B - T) x + A < 0 with T = K/N_phi: convex, A > 0 at x = 0
    and A + B + C > 0 at x = 1, so it holds on one interval inside (0, 1) or
    nowhere.  A scan finds the interval; bisection locates its edges to
    _RANGE_RESOLUTION.  An interval that already holds the first or last scan
    point (from zeta ~ 10 on the default engine) has its edge past the scan:
    NoSolutionError.
    """
    _check_choices(observable, derivative_mode, zeta)
    f = delta_phi_objective(config, zeta, observable, derivative_mode)
    benchmark = float(snl(config, zeta))
    phis, *sines = _scan_table(_RANGE_RESOLUTION, _RANGE_SCAN_POINTS)
    below = f(phis, sines) < benchmark
    if not below.any():
        return SupersensitivityRange(lo=math.nan, hi=math.nan, empty=True)
    if below[0] or below[-1]:
        edge = f"floor {phis[0]:g}" if below[0] else f"ceiling {phis[-1]:g}"
        raise NoSolutionError(f"zeta = {zeta:g}: delta_phi is below the benchmark at the scan {edge}")

    def h(p: float) -> float:
        return f(p) - benchmark

    def bisect(a: float, b: float) -> float:
        return _bisect(h, a, b, h(a), _RANGE_RESOLUTION)

    idx = np.flatnonzero(below)
    lo = bisect(float(phis[idx[0] - 1]), float(phis[idx[0]]))
    hi = bisect(float(phis[idx[-1]]), float(phis[idx[-1] + 1]))
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
    efficiency at that chi.  g(0) = +inf, so the bracket may start at zeta = 0.
    All three solvers check observable, derivative_mode and zeta first.
    """
    _check_choices(observable, derivative_mode)
    lo, hi = zeta_bracket
    if not 0.0 <= lo < hi < math.inf:  # NaN fails too
        raise ValueError(f"zeta_bracket must be finite with 0 <= lo < hi, got {zeta_bracket}")

    def g(z: float) -> float:
        _, val = minimize_sensitivity(config, z, observable, derivative_mode)
        return val - snl(config, z)

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
        snl_value=float(snl(config, zeta_snl)),
        observable=observable,
        derivative_mode=derivative_mode,
    )
