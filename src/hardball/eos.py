"""Hard-sphere equation of state with fluid and solid branches.

All quantities are reduced: eta is the packing fraction, g1(eta) the
pressure and g2(eta) the chemical potential on the Carnahan-Starling
fluid branch, g3 and g4 the same pair on Speedy's face-centered-cubic
solid branch.  Composing one against the inverse of the other yields
the pressure as a function of chemical potential, wp(gamma), which is
continuous and convex with a kink at the freezing point gamma_fs where
the equilibrium density jumps from 0.49 to 0.54.

The module is the one home of every equation-of-state constant: the
freezing and melting fractions ETA_FS_LO and ETA_FS_HI, close packing
ETA_FCC, the freezing potential GAMMA_FS, and g2's inflection ETA_WR,
GAMMA_WR and K_GAMMA_FS = 1/g2'(ETA_WR).  The two modes are
MODE_HARD_SPHERE and MODE_CS_EXTENDED, spelled as the `eos.mode` INI key
takes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roots import brentq

__all__ = [
    "ETA_FS_LO",
    "ETA_FS_HI",
    "ETA_FCC",
    "GAMMA_FS",
    "ETA_WR",
    "GAMMA_WR",
    "K_GAMMA_FS",
    "MODE_HARD_SPHERE",
    "MODE_CS_EXTENDED",
    "MODES",
    "EosModel",
    "g1",
    "g1_prime",
    "g2",
    "g2_derivs",
    "g2_inverse",
    "speedy_g3",
    "speedy_g4",
    "g4_inverse",
    "find_inflection",
]

ETA_FS_LO = 0.49  # freezing packing fraction, fluid side
ETA_FS_HI = 0.54  # melting packing fraction, solid side
ETA_FCC = math.pi * math.sqrt(2.0) / 6.0  # close packing of the fcc lattice

# Speedy's fit constants for the solid compressibility factor.
SPEEDY_A = 0.5921
SPEEDY_B = 0.7072
SPEEDY_C = 0.601

MODE_HARD_SPHERE = "hard-sphere"
MODE_CS_EXTENDED = "cs-extended"
MODES = (MODE_HARD_SPHERE, MODE_CS_EXTENDED)

# Inversion bracket and residual tolerance for the gamma -> eta solves.
_BRACKET_LO = 1e-12
_BRACKET_HI = 1.0 - 1e-12
_RESIDUAL_TOL = 1e-12
_SLOW_SWEEPS = 30  # sweeps after which a lane may also stop on its bracket width
_TABLE_NODES = 4097  # nodes of each inversion table
_MAX_SWEEPS = 200  # sweeps after which an inversion gives up


def _check_range(x, lo, hi, *, closed_lo=False):
    """Validate a scalar or array argument against an interval."""
    arr = np.asarray(x, dtype=float)
    ok = (arr >= lo) if closed_lo else (arr > lo)
    ok &= arr < hi
    if not np.all(ok):
        bound = "[" if closed_lo else "("
        raise ValueError(f"eta must lie in {bound}{lo}, {hi})")
    return arr


def _scalar_like(template, value):
    """Return a plain float when the original argument was scalar."""
    if np.ndim(template) == 0:
        return float(np.asarray(value))
    return value


def _g1(e):
    """g1 on an array already known to lie in (0, 1); no checks."""
    return (e + e**2 + e**3 - e**4) / (1.0 - e) ** 3


def g1(eta):
    """Carnahan-Starling reduced pressure on the fluid branch."""
    return _scalar_like(eta, _g1(_check_range(eta, 0.0, 1.0)))


def g1_prime(eta):
    """Closed-form derivative of g1."""
    e = _check_range(eta, 0.0, 1.0)
    d = (1.0 + 4.0 * e + 4.0 * e**2 - 4.0 * e**3 + e**4) / (1.0 - e) ** 4
    return _scalar_like(eta, d)


def _g2(e):
    """g2 on an array already known to lie in (0, 1); no checks."""
    return np.log(e) + (8.0 * e - 9.0 * e**2 + 3.0 * e**3) / (1.0 - e) ** 3


def _g2_prime(e):
    """First derivative of g2, unchecked like _g2."""
    return 1.0 / e + (8.0 - 2.0 * e) / (1.0 - e) ** 4


def g2(eta):
    """Carnahan-Starling reduced chemical potential on the fluid branch."""
    return _scalar_like(eta, _g2(_check_range(eta, 0.0, 1.0)))


def g2_derivs(eta, order):
    """Closed-form derivative of g2 of the requested order (1, 2, or 3)."""
    e = _check_range(eta, 0.0, 1.0)
    if order == 1:
        d = _g2_prime(e)
    elif order == 2:
        d = -1.0 / e**2 + (30.0 - 6.0 * e) / (1.0 - e) ** 5
    elif order == 3:
        d = 2.0 / e**3 + (144.0 - 24.0 * e) / (1.0 - e) ** 6
    else:
        raise ValueError("order must be 1, 2, or 3")
    return _scalar_like(eta, d)


def _solve_increasing(fn, dfn, target, lo, hi, x0):
    """Vectorized safeguarded Newton for a strictly increasing function.

    Every lane takes one Newton step from x0 before its residual is
    first checked, so a start within reach of its root costs two
    evaluations of fn.  A step that leaves the current sign-change
    bracket falls back to bisection (the first step may land on a
    bracket end, later ones must fall strictly inside), so convergence
    is unconditional on each lane's [lo, hi]; lo, hi and x0 have
    target's shape.  The first sweep runs on the whole batch and
    returns it when every lane meets the tolerance; otherwise each lane
    is frozen once its residual meets it, each later sweep updates and
    evaluates only the open lanes, and the solve returns when none are
    left.  fn and dfn run unchecked and dfn must be positive and
    finite, so x0 must lie in [lo, hi].
    """
    shape = np.shape(target)
    t, lo_a, hi_a, x0 = (np.ravel(a) for a in (target, lo, hi, x0))
    if not x0.size:
        return x0.copy().reshape(shape)
    f0 = fn(x0) - t
    with np.errstate(all="ignore"):
        x = x0 - f0 / dfn(x0)
    # dfn > 0 moves the step from x0 toward the root, so it lies in the
    # bracket that f0 updates exactly when it lies in [lo, hi].  A NaN or
    # infinite step fails the test; the first step may land on a bracket
    # end, where a start on its root at a range end stays.
    inside = (x >= lo_a) & (x <= hi_a)
    if not inside.all():
        mid = 0.5 * (np.where(f0 < 0.0, x0, lo_a) + np.where(f0 > 0.0, x0, hi_a))
        x = np.where(inside, x, mid)
    f = fn(x) - t
    # the relative tolerance below is never smaller than this one
    if (np.abs(f) < _RESIDUAL_TOL).all():
        return x.reshape(shape)
    # relative above |target| = 1: near the right endpoint one ulp of x
    # moves fn by ~1e-11 |target|, so an absolute demand is unattainable
    tol = _RESIDUAL_TOL * np.maximum(1.0, np.abs(t))
    lo_a = np.where(f0 < 0.0, x0, lo_a)
    hi_a = np.where(f0 > 0.0, x0, hi_a)
    lanes = np.arange(t.size)  # positions in x of the open lanes
    xa = x  # x holds each lane's first-sweep value until the lane is done
    for sweep in range(1, _MAX_SWEEPS + 1):
        # the lanes of sweep - 1 that meet the tolerance are done
        done = np.abs(f) < tol
        if sweep > _SLOW_SWEEPS:
            # near a pole one ulp of x moves fn by more than tol; a lane
            # bracketed to a few ulps is as converged as doubles allow
            done |= hi_a - lo_a <= 4.0 * np.spacing(hi_a)
        x[lanes[done]] = xa[done]
        keep = ~done
        if not keep.any():
            return x.reshape(shape)
        if sweep == _MAX_SWEEPS:
            raise RuntimeError("inversion did not reach the residual tolerance")
        lanes, xa, t, tol, f, lo_a, hi_a = (a[keep] for a in (lanes, xa, t, tol, f, lo_a, hi_a))
        lo_a = np.where(f < 0.0, xa, lo_a)
        hi_a = np.where(f > 0.0, xa, hi_a)
        with np.errstate(all="ignore"):
            xn = xa - f / dfn(xa)
        # a NaN or infinite step fails both tests
        inside = (xn > lo_a) & (xn < hi_a)
        xa = np.where(inside, xn, 0.5 * (lo_a + hi_a))
        f = fn(xa) - t


def _logit_table(fn, dfn, lo, hi):
    """Inversion table of fn on nodes from lo to hi, uniform in the logit of their position.

    Returns fn at the nodes and one packed row per cell, (gamma0, 1/h,
    a0, a1, a2, a3, x0, x1): the cell's nodes x0 < x1, where fn is gamma0
    and gamma0 + h, and the cubic Hermite interpolant of ln x between
    them, a0 + s (a1 + s (a2 + s a3)) at s = (gamma - gamma0)/h, matched
    to ln x and its slope 1/(x fn'(x)) at both nodes.  Each target's
    cell is its bracket, so no start lies outside it: from deep inside a
    pole (g2 at eta -> 1, g4 at close packing) Newton only creeps.
    """
    z = 1.0 / (1.0 + np.exp(-np.linspace(-27.0, 27.0, _TABLE_NODES)))
    x = lo + (hi - lo) * z
    x[[0, -1]] = lo, hi
    g, y = fn(x), np.log(x)
    h, dy = np.diff(g), np.diff(y)
    m = 1.0 / (x * dfn(x))
    m0, m1 = h * m[:-1], h * m[1:]
    rows = (g[:-1], 1.0 / h, y[:-1], m0, 3.0 * dy - 2.0 * m0 - m1, m0 + m1 - 2.0 * dy,
            x[:-1], x[1:])
    return g, np.array(rows)


def _invert(fn, dfn, table, gamma, bracket, where):
    """Solve fn(eta) = gamma lane by lane from the table's Hermite value, inside gamma's cell."""
    g = np.asarray(gamma, dtype=float)
    inside = (g >= bracket[0]) & (g <= bracket[1])  # NaN fails it too
    if not inside.all():
        raise ValueError("gamma must be finite" if not np.isfinite(g).all() else
                         f"gamma outside the {where}: gamma {float(g[~inside][0])!r} is not "
                         f"in [{bracket[0]!r}, {bracket[1]!r}]")
    g_tab, rows = table
    # the inner nodes count the cell: targets at the table's ends fall in its end cells
    g0, inv_h, a0, a1, a2, a3, lo, hi = rows.take(np.searchsorted(g_tab[1:-1], g), axis=1)
    s = (g - g0) * inv_h
    start = np.minimum(np.maximum(np.exp(a0 + s * (a1 + s * (a2 + s * a3))), lo), hi)
    return _scalar_like(gamma, _solve_increasing(fn, dfn, g, lo, hi, start))


_G2_TABLE = _logit_table(_g2, _g2_prime, _BRACKET_LO, _BRACKET_HI)
# Bracket images, used to reject unreachable targets before iterating.
_G2_LO, _G2_HI = float(_G2_TABLE[0][0]), float(_G2_TABLE[0][-1])


def g2_inverse(gamma):
    """Invert g2 on (0, 1) by safeguarded Newton with bisection fallback.

    The start is the table's Hermite value at gamma; the residual
    |g2(result) - gamma| is driven below 1e-12 max(1, |gamma|).  A gamma
    out of range raises ValueError naming the first one and the range.
    """
    return _invert(_g2, _g2_prime, _G2_TABLE, gamma, (_G2_LO, _G2_HI), "invertible bracket")


GAMMA_FS = float(g2(ETA_FS_LO))  # freezing chemical potential, ~15.2085


def _speedy_z(y):
    """Solid compressibility factor in the scaled variable y = eta/eta_fcc."""
    return 3.0 / (1.0 - y) - SPEEDY_A * (y - SPEEDY_B) / (y - SPEEDY_C)


def _speedy_z_prime(y):
    return 3.0 / (1.0 - y) ** 2 - SPEEDY_A * (SPEEDY_B - SPEEDY_C) / (y - SPEEDY_C) ** 2


def _speedy_g3(e):
    """speedy_g3 on an array already known to lie in [0.54, eta_fcc)."""
    return e * _speedy_z(e / ETA_FCC)


def speedy_g3(eta):
    """Speedy reduced pressure on the solid branch, eta in [0.54, eta_fcc).

    Written as eta times the compressibility factor; near close packing
    this reproduces the Alder expansion with constants K0 ~ -3.43 and
    K1 ~ 0.83.
    """
    e = _check_range(eta, ETA_FS_HI, ETA_FCC, closed_lo=True)
    return _scalar_like(eta, _speedy_g3(e))


def _speedy_g3_prime(eta):
    """Closed-form derivative of speedy_g3."""
    y = np.asarray(eta, dtype=float) / ETA_FCC
    return _speedy_z(y) + y * _speedy_z_prime(y)


def _speedy_g4_prime(e):
    """Derivative of speedy_g4, g3'(eta)/eta by the density relation."""
    return _speedy_g3_prime(e) / e


_Y_MELT = ETA_FS_HI / ETA_FCC
_Z_MELT = _speedy_z(_Y_MELT)


def _speedy_g4(e):
    """speedy_g4 on an array already known to lie in [0.54, eta_fcc)."""
    y = e / ETA_FCC
    a, b, c = SPEEDY_A, SPEEDY_B, SPEEDY_C
    return (
        GAMMA_FS
        + _speedy_z(y)
        - _Z_MELT
        + (3.0 - a * b / c) * np.log(y / _Y_MELT)
        - 3.0 * np.log((1.0 - y) / (1.0 - _Y_MELT))
        - a * (c - b) / c * np.log((y - c) / (_Y_MELT - c))
    )


def speedy_g4(eta):
    """Speedy reduced chemical potential on the solid branch.

    Integrates g3'(x)/x from the melting point in closed form: the
    integrand splits into logarithmic terms and a simple pole via
    partial fractions, so no quadrature is needed.  speedy_g4(0.54)
    equals the freezing chemical potential exactly.
    """
    e = _check_range(eta, ETA_FS_HI, ETA_FCC, closed_lo=True)
    return _scalar_like(eta, _speedy_g4(e))


_G4_HI_ETA = ETA_FCC * (1.0 - 1e-13)
_G4_HI = float(speedy_g4(_G4_HI_ETA))
_G4_TABLE = _logit_table(_speedy_g4, _speedy_g4_prime, ETA_FS_HI, _G4_HI_ETA)


def g4_inverse(gamma):
    """Invert speedy_g4 on [0.54, eta_fcc) from a table start, as g2_inverse."""
    return _invert(_speedy_g4, _speedy_g4_prime, _G4_TABLE, gamma, (GAMMA_FS, _G4_HI),
                   "solid branch")


def find_inflection():
    """Locate the inflection of g2, where g2' attains its minimum.

    Returns (eta_wr, gamma_wr, K): the packing fraction at which g2''
    vanishes, the chemical potential there, and K = 1/g2'(eta_wr), the
    largest slope the fluid density can have as a function of gamma.
    """
    eta_wr = brentq(lambda e: g2_derivs(e, 2), 1e-6, ETA_FS_LO, xtol=1e-15)
    return float(eta_wr), float(g2(eta_wr)), float(1.0 / g2_derivs(eta_wr, 1))


ETA_WR, GAMMA_WR, K_GAMMA_FS = find_inflection()


# Anchors pressure continuity at the kink: the solid branch is shifted by
# the constant g1(0.49) - g3(0.54) so wp matches from both sides, while the
# density relation g4 is left untouched.
_SOLID_PRESSURE_SHIFT = float(g1(ETA_FS_LO)) - float(speedy_g3(ETA_FS_HI))


@dataclass(frozen=True)
class EosModel:
    """Piecewise equation of state selected by mode.

    hard-sphere composes the Carnahan-Starling fluid branch with
    Speedy's solid branch across the kink at GAMMA_FS; cs-extended keeps
    the fluid formulas on all of eta in (0,1).  The mode is all that
    varies between models; the constants are the module's.
    """

    mode: str = MODE_HARD_SPHERE

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")

    def wp(self, gamma):
        """Reduced pressure as a function of chemical potential.

        Read off eta = wp_prime(gamma) in closed form, as response_at
        reads wp'': g1(eta) on the fluid branch, the shifted speedy_g3(eta)
        on the solid branch (eta >= 0.54 in hard-sphere mode).
        """
        # a scalar runs as a one-lane array, so it rounds as array lanes do
        e = np.atleast_1d(np.asarray(self.wp_prime(gamma), dtype=float))
        p = _g1(e)
        if self.mode == MODE_HARD_SPHERE:
            p = np.where(e < ETA_FS_HI, p,
                         _SOLID_PRESSURE_SHIFT + _speedy_g3(np.maximum(e, ETA_FS_HI)))
        return _scalar_like(gamma, p.reshape(np.shape(gamma)))

    def wp_prime(self, gamma):
        """Equilibrium packing fraction at chemical potential gamma.

        At the hard-sphere kink gamma_fs this is the left derivative,
        the fluid's 0.49.  Each lane is inverted from the table alone, so
        the same gamma gives the same bits in any call.
        """
        if self.mode == MODE_CS_EXTENDED:
            return g2_inverse(gamma)
        g = np.atleast_1d(np.asarray(gamma, dtype=float))
        fluid = g <= GAMMA_FS
        if fluid.all():  # g2_inverse rejects -inf; NaN and +inf are never fluid
            return _scalar_like(gamma, g2_inverse(g).reshape(np.shape(gamma)))
        if not np.isfinite(g).all():
            raise ValueError("gamma must be finite")
        out = np.empty_like(g)
        if np.any(fluid):
            out[fluid] = g2_inverse(g[fluid])
        if np.any(~fluid):
            out[~fluid] = g4_inverse(g[~fluid])
        return _scalar_like(gamma, out.reshape(np.shape(gamma)))

    def _reject_kink(self, gamma):
        """Raise ValueError if any gamma sits on the hard-sphere kink, where wp'' is undefined."""
        if self.mode == MODE_HARD_SPHERE and np.any(np.asarray(gamma, dtype=float) == GAMMA_FS):
            raise ValueError("density response is undefined at the kink gamma_fs")

    def wp_double_prime(self, gamma):
        """Density response d eta / d gamma; undefined at the kink."""
        self._reject_kink(gamma)
        return _scalar_like(gamma, self.response_at(self.wp_prime(gamma)))

    def response_at(self, eta):
        """wp'' where wp' equals eta, read off eta with no inversion.

        1/g2'(eta), or eta/g3'(eta) on the hard-sphere solid branch
        (eta >= 0.54); at eta = wp_prime(gamma) it is wp_double_prime(gamma).
        """
        e = np.asarray(eta, dtype=float)
        if self.mode == MODE_CS_EXTENDED:
            return 1.0 / _g2_prime(e)
        solid = np.minimum(np.maximum(e, ETA_FS_HI), _G4_HI_ETA)
        return np.where(e < ETA_FS_HI, 1.0 / _g2_prime(e), solid / _speedy_g3_prime(solid))

    def gamma_at(self, eta):
        """Chemical potential at which wp' equals eta, in closed form.

        g2(eta) or speedy_g4(eta) by mode and branch, with no inversion;
        in hard-sphere mode the coexistence gap (0.49, 0.54) maps to the
        kink gamma_fs and close packing to the solid top.
        """
        e = _check_range(eta, 0.0, 1.0)
        if self.mode == MODE_CS_EXTENDED:
            return _scalar_like(eta, _g2(e))
        solid = np.minimum(np.maximum(e, ETA_FS_HI), _G4_HI_ETA)
        g = np.where(e < ETA_FS_HI, _g2(np.minimum(e, ETA_FS_LO)), _speedy_g4(solid))
        return _scalar_like(eta, g)

    def gamma_range(self):
        """Lowest and highest gamma that wp_prime accepts in this mode.

        The floor is the fluid inversion's, density 1e-12; the ceiling is
        the fluid branch's near eta = 1 (CS-extended) or the solid
        branch's near close packing (hard-sphere).
        """
        return _G2_LO, _G2_HI if self.mode == MODE_CS_EXTENDED else _G4_HI
