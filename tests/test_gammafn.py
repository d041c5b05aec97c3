"""log-Gamma accuracy on the strip the Bogoliubov quotients live on."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import loggamma as scipy_loggamma

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
