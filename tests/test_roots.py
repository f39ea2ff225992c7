"""Tests for the Brent root finder.

Oracle: scipy.optimize.brentq, whose C loop `roots.brentq` ports.  The
port must return the same float, evaluate f at the same points in the
same order, and raise the same exception types.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from hardball import eos, roots, uniform

EPS = 2.220446049250313e-16

SMOOTH = [
    lambda x, c, s: s * (x - c) ** 3,
    lambda x, c, s: math.tanh(s * (x - c)),
    lambda x, c, s: math.expm1(s * (x - c)),
    lambda x, c, s: math.atan(x - c) + 0.3 * math.sin(s * x) * (x - c),
    lambda x, c, s: (x - c) * (x * x + s) + 1e-3 * math.cos(x),
    lambda x, c, s: math.copysign(abs(x - c) ** (1.0 / 3.0), x - c),
]


def recorded(f):
    """f, and the list of points it is evaluated at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def outcome(solver, f):
    """(root's hex or exception type, evaluation points) of one solve."""
    g, points = recorded(f)
    try:
        result = solver(g).hex()
    except (ValueError, RuntimeError) as exc:
        result = type(exc)
    return result, points


def both(f, a, b, xtol, rtol, **scipy_kw):
    ours = outcome(lambda g: roots.brentq(g, a, b, xtol, rtol), f)
    theirs = outcome(lambda g: optimize.brentq(g, a, b, xtol=xtol, rtol=rtol, **scipy_kw), f)
    return ours, theirs


@settings(deadline=None, max_examples=300)
@given(
    family=st.integers(0, len(SMOOTH) - 1),
    c=st.floats(-3.0, 3.0),
    s=st.floats(0.1, 5.0),
    left=st.floats(1e-6, 10.0),
    right=st.floats(1e-6, 10.0),
    flip=st.booleans(),
    log_scale=st.floats(-320.0, 300.0),
    log_xtol=st.floats(-16.0, -2.0),
    rtol=st.sampled_from([4 * EPS, 8.9e-16]),
)
def test_same_root_and_evaluations_as_scipy(family, c, s, left, right, flip, log_scale,
                                            log_xtol, rtol):
    # tiny scales make the extrapolation's denominator underflow to 0,
    # where C divides to inf or nan and Python raises
    def f(x):
        return 10.0**log_scale * SMOOTH[family](x, c, s)

    a, b = (c + right, c - left) if flip else (c - left, c + right)
    (root, points), (want, want_points) = both(f, a, b, 10.0**log_xtol, rtol)
    assert [x.hex() for x in points] == [x.hex() for x in want_points]
    assert root == want  # the same float, or both raise the same type


class TestErrors:
    def test_same_signed_ends(self):
        ours, theirs = both(math.exp, 0.0, 1.0, 1e-12, 4 * EPS)
        assert ours == theirs == (ValueError, [0.0, 1.0])
        with pytest.raises(ValueError, match="different signs"):
            roots.brentq(math.exp, 0.0, 1.0, 1e-12)

    def test_nan_value(self):
        ours, theirs = both(lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0, 1e-12, 4 * EPS)
        assert ours == theirs == (ValueError, [0.0, 1.0])

    @pytest.mark.parametrize("xtol, rtol", [(0.0, 4 * EPS), (1e-12, 1e-16)])
    def test_tolerances_too_small(self, xtol, rtol):
        ours, theirs = both(lambda x: x - 0.5, 0.0, 1.0, xtol, rtol)
        assert ours == theirs == (ValueError, [])

    def test_non_convergence(self, monkeypatch):
        monkeypatch.setattr(roots, "_MAXITER", 3)
        ours, theirs = both(lambda x: x**3 - 0.2, 0.0, 1.0, 1e-15, 4 * EPS, maxiter=3)
        assert ours[0] is theirs[0] is RuntimeError
        assert ours[1] == theirs[1] and len(ours[1]) == 5


def test_import_time_roots_match_scipy():
    # the two roots found while the package is imported
    eta_wr = optimize.brentq(lambda e: eos.g2_derivs(e, 2), 1e-6, eos.ETA_FS_LO, xtol=1e-15)
    assert eos.EosModel.eta_wr == eta_wr == 0.13044388419245392
    eta_kink = optimize.brentq(
        lambda x: float(eos.g2(x) + eos.g2_derivs(x, 1) * (eos.ETA_FS_LO - x)) - eos.GAMMA_FS,
        1e-3, uniform.ETA_WR, xtol=1e-15, rtol=8.9e-16,
    )
    assert uniform.ALPHA_TAU_KINK == float(eos.g2_derivs(eta_kink, 1)) == 40.12729975380033
