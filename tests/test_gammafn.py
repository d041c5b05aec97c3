"""log-Gamma accuracy on the strip the Bogoliubov quotients live on."""

import cmath
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import loggamma as scipy_loggamma

from su11otto import gammafn
from su11otto.cli import FIG4_NU_GRID, FIG4_OMEGA_F, FIG4_OMEGA_I
from su11otto.errors import GammaPoleError
from su11otto.gammafn import complex_log_gamma

LOG_GAMMA_HALF = 0.57236494292470008707  # log(sqrt(pi))
# |Gamma(i y)|^2 = pi / (y sinh(pi y)), mpmath at 40 digits
GAMMA_IY_SQ = {
    0.5: 2.7302778013234310862,
    2.0: 0.005866764826350945748,
    10.0: 1.4269748863613808561e-14,
}


def test_integer_anchors():
    assert complex_log_gamma(1.0) == 0.0
    assert complex_log_gamma(2.0) == 0.0
    assert abs(complex_log_gamma(5.0) - math.log(24.0)) < 1e-14


def test_half_integer():
    assert complex_log_gamma(0.5).real == pytest.approx(LOG_GAMMA_HALF, abs=1e-14)
    assert complex_log_gamma(0.5).imag == 0.0


@pytest.mark.parametrize("y", sorted(GAMMA_IY_SQ))
def test_imaginary_axis_modulus(y):
    val = abs(cmath.exp(complex_log_gamma(1j * y))) ** 2
    assert val == pytest.approx(GAMMA_IY_SQ[y], rel=1e-12)


def test_poles_raise():
    for z in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(GammaPoleError):
            complex_log_gamma(z)


def test_recurrence_consistency():
    for z in (0.7 + 3j, 1.2 - 40j, 2.0 + 400j):
        lhs = complex_log_gamma(z + 1)
        rhs = complex_log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


def test_against_scipy_on_working_strip():
    # arguments of the ramp quotients: Re in {0, 1} with |Im| up to ~1e3,
    # plus reflection territory for completeness
    ys = np.concatenate([np.geomspace(1e-3, 1e3, 25), -np.geomspace(1e-3, 1e3, 25)])
    for re in (0.0, 0.3, 0.5, 1.0, 2.0, -0.7, -1.3):
        for y in ys:
            z = complex(re, y)
            mine = complex_log_gamma(z)
            ref = complex(scipy_loggamma(z))
            assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref)), f"z={z}"


def test_real_axis_matches_scipy():
    for x in (0.1, 0.9, 3.7, 25.0, 250.5):
        assert complex_log_gamma(x).real == pytest.approx(
            float(scipy_loggamma(x)), rel=1e-14
        )
        assert complex_log_gamma(x).imag == 0.0


@given(
    re=st.floats(-30.0, 30.0),
    im=st.floats(1e-6, 1e3),
    below=st.booleans(),
)
def test_matches_scipy_off_the_real_axis(re, im, below):
    z = complex(re, -im if below else im)
    mine = complex_log_gamma(z)
    ref = complex(scipy_loggamma(z))
    assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref)), f"z={z}"


@pytest.mark.parametrize("z", [complex(-math.inf), math.nan, complex(0.3, math.nan),
                               complex(math.inf, 1.0), complex(1.0, -math.inf), math.inf])
def test_non_finite_argument_is_refused_by_name(z):
    with pytest.raises(ValueError, match=re.escape(f"z = {complex(z)}")):
        complex_log_gamma(z)


def _lanczos_as_first_written(z):
    """`_lanczos_log_gamma` with z - 1.0 formed inside the loop, term by term."""
    series = gammafn._COEFFS[0]
    for k, c in enumerate(gammafn._COEFFS[1:], start=1):
        series += c / (z - 1.0 + k)
    t = z + (gammafn._G - 0.5)
    return gammafn._LOG_SQRT_TWO_PI + (z - 0.5) * cmath.log(t) - t + cmath.log(series)


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


@given(x=st.floats(0.5, 50.0), y=st.floats(-1e3, 1e3))
def test_lanczos_sum_is_bit_identical_to_the_loop_as_first_written(x, y):
    z = complex(x, y)
    assert _bits(gammafn._lanczos_log_gamma(z)) == _bits(_lanczos_as_first_written(z))


def test_lanczos_sum_is_bit_identical_on_the_figure4_arguments():
    # the ramp quotients reach the Lanczos sum at 1 +- i w/nu, directly or as
    # a pure-imaginary argument shifted up by one
    w_plus, w_minus = 0.5 * (FIG4_OMEGA_I + FIG4_OMEGA_F), 0.5 * (FIG4_OMEGA_F - FIG4_OMEGA_I)
    for nu in FIG4_NU_GRID.tolist():
        for w in (FIG4_OMEGA_I, FIG4_OMEGA_F, w_plus, w_minus):
            for z in (1.0 + 1j * w / nu, 1.0 - 1j * w / nu, 1j * w / nu + 1, -1j * w / nu + 1):
                assert _bits(gammafn._lanczos_log_gamma(z)) == _bits(_lanczos_as_first_written(z)), z
