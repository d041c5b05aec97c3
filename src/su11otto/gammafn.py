"""Principal-branch complex log-Gamma via the Lanczos approximation.

Needed for quotients of Gamma functions with pure-imaginary offsets, which
overflow catastrophically if evaluated as Gamma products; summing
log-Gammas and exponentiating once keeps everything in range down to very
slow ramps (|Im z| of order 10^3).
"""

from __future__ import annotations

import cmath
import math

from .errors import GammaPoleError

__all__ = ["complex_log_gamma", "log_gamma_shifted_down"]

# Godfrey's coefficients for g = 607/128, 15 terms; relative error below
# 1e-14 on Re(z) >= 0.5.
_G = 607.0 / 128.0
_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_TERMS = tuple(enumerate(_COEFFS[1:], start=1))
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_log_gamma(z: complex) -> complex:
    """Lanczos sum, valid for Re(z) >= 0.5."""
    series, zm1 = _COEFFS[0], z - 1.0
    for k, c in _TERMS:
        series += c / (zm1 + k)
    t = z + (_G - 0.5)
    return _LOG_SQRT_TWO_PI + (z - 0.5) * cmath.log(t) - t + cmath.log(series)


def complex_log_gamma(z: complex) -> complex:
    """log Gamma(z) on the principal branch (continuous off the negative real axis).

    For Re(z) < 0.5 the argument is shifted up with
    log Gamma(z) = log Gamma(z + 1) - log(z), which preserves the principal
    branch away from the cut; nonpositive integers are poles and raise
    GammaPoleError, a non-finite z ValueError.  log Gamma(1) = log Gamma(2) = 0 exactly.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"log-Gamma needs a finite z, got z = {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise GammaPoleError(f"log-Gamma pole at z = {z.real:.0f}")
    if z == 1.0 or z == 2.0:
        return 0j
    if z.real >= 0.5:
        return _lanczos_log_gamma(z)
    shift = int(math.ceil(0.5 - z.real))
    return log_gamma_shifted_down(z, shift, _lanczos_log_gamma(z + shift))


def log_gamma_shifted_down(z: complex, shift: int, log_gamma_up: complex) -> complex:
    """log Gamma(z) from log_gamma_up = log Gamma(z + shift) by the recurrence; z is no pole."""
    acc = 0j
    for j in range(shift):
        acc += cmath.log(z + j)
    return log_gamma_up - acc
