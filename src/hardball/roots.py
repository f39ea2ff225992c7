"""Brent's bracketing root finder, as scipy's brentq computes it.

A line-for-line port of scipy's ``brentq.c`` and the checks of its
Python wrapper, so every root (and every point f is evaluated at) is
the same float scipy returns, while ``import hardball`` loads no scipy.
The step is the secant when the contrapoint is the previous iterate
and inverse quadratic extrapolation otherwise, kept only when it is
short against the previous step and the bisection step.
"""

import math
import sys

__all__ = ["brentq"]

_RTOL = 4 * sys.float_info.epsilon  # the smallest rtol, and the default
_MAXITER = 100


def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a, b, xtol, rtol=_RTOL):
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Converged when half the bracket is below (xtol + rtol*|x|)/2.
    Raises ValueError for xtol <= 0, rtol below 4 eps, a NaN value of f
    or same-signed ends, and RuntimeError after _MAXITER iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            # the sign changed: the previous iterate is the new contrapoint
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the smaller |f| at xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
                else:  # inverse quadratic extrapolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's division gives inf or nan here (a denominator that
                # underflowed), and the test below refuses either
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur:f}")
