"""Hard-sphere equation of state with fluid and solid branches.

All quantities are reduced: eta is the packing fraction, g1(eta) the
pressure and g2(eta) the chemical potential on the Carnahan-Starling
fluid branch, g3 and g4 the same pair on Speedy's face-centered-cubic
solid branch.  Composing one against the inverse of the other yields
the pressure as a function of chemical potential, wp(gamma), which is
continuous and convex with a kink at the freezing point gamma_fs where
the equilibrium density jumps from 0.49 to 0.54.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "ETA_FS_LO",
    "ETA_FS_HI",
    "ETA_FCC",
    "GAMMA_FS",
    "MODE_HARD_SPHERE",
    "MODE_CS_EXTENDED",
    "MODE_IDEAL_GAS",
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
    "ideal_gas_wp_prime",
]

ETA_FS_LO = 0.49  # freezing packing fraction, fluid side
ETA_FS_HI = 0.54  # melting packing fraction, solid side
ETA_FCC = math.pi * math.sqrt(2.0) / 6.0  # close packing of the fcc lattice

# Speedy's fit constants for the solid compressibility factor.
SPEEDY_A = 0.5921
SPEEDY_B = 0.7072
SPEEDY_C = 0.601

MODE_HARD_SPHERE = "hard-sphere-CS-Speedy"
MODE_CS_EXTENDED = "CS-extended-to-(0,1)"
MODE_IDEAL_GAS = "ideal-gas"
MODES = (MODE_HARD_SPHERE, MODE_CS_EXTENDED, MODE_IDEAL_GAS)

# Inversion bracket and residual tolerance for the gamma -> eta solves.
_BRACKET_LO = 1e-12
_BRACKET_HI = 1.0 - 1e-12
_RESIDUAL_TOL = 1e-12
_SLOW_SWEEPS = 30  # sweeps after which a lane may also stop on its bracket width
_MAX_SWEEPS = 200  # sweeps after which an inversion gives up


def _check_range(x, lo, hi, *, closed_lo=False, name="eta"):
    """Validate a scalar or array argument against an interval."""
    arr = np.asarray(x, dtype=float)
    ok = (arr >= lo) if closed_lo else (arr > lo)
    ok &= arr < hi
    if not np.all(ok):
        bound = "[" if closed_lo else "("
        raise ValueError(f"{name} must lie in {bound}{lo}, {hi})")
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

    Newton steps that leave the current sign-change bracket fall back to
    bisection, so convergence is unconditional on [lo, hi], which may
    differ per lane (broadcast like x0 against target).  A lane is
    frozen once its residual meets the tolerance: each sweep updates and
    evaluates only the lanes still open, and the solve returns when none
    are left.  fn and dfn run unchecked, so x0 must lie in [lo, hi].
    """
    t = np.asarray(target, dtype=float)
    shape = t.shape

    def flat(a):
        # a view where the shape already fits: only x is written in place
        a = np.asarray(a, dtype=float)
        return (a if a.shape == shape else np.broadcast_to(a, shape)).ravel()

    t, lo_a, hi_a = flat(t), flat(lo), flat(hi)
    x = flat(x0).copy()
    # relative above |target| = 1: near the right endpoint one ulp of x
    # moves fn by ~1e-11 |target|, so an absolute demand is unattainable
    tol = _RESIDUAL_TOL * np.maximum(1.0, np.abs(t))
    lanes = np.arange(t.size)  # positions in x of the open lanes
    xa = x
    f = fn(xa) - t
    for sweep in range(_MAX_SWEEPS):
        done = np.abs(f) < tol
        if sweep >= _SLOW_SWEEPS:
            # near a pole one ulp of x moves fn by more than tol; a lane
            # bracketed to a few ulps is as converged as doubles allow
            done |= hi_a - lo_a <= 4.0 * np.spacing(hi_a)
        if done.any():
            x[lanes[done]] = xa[done]
            keep = ~done
            if not keep.any():
                return x.reshape(shape)
            lanes, xa, t, tol, f, lo_a, hi_a = (
                a[keep] for a in (lanes, xa, t, tol, f, lo_a, hi_a)
            )
        lo_a = np.where(f < 0.0, xa, lo_a)
        hi_a = np.where(f > 0.0, xa, hi_a)
        with np.errstate(all="ignore"):
            xn = xa - f / dfn(xa)
        inside = np.isfinite(xn) & (xn > lo_a) & (xn < hi_a)
        xa = np.where(inside, xn, 0.5 * (lo_a + hi_a))
        f = fn(xa) - t
    raise RuntimeError("inversion did not reach the residual tolerance")


def _logit_table(fn, lo, hi):
    """Nodes from lo to hi, uniform in the logit of their position, and fn there.

    Each target's table cell is its starting bracket, so no start lies
    far from its root: from deep inside a pole (g2 at eta -> 1, g4 at
    close packing) Newton only creeps.
    """
    z = 1.0 / (1.0 + np.exp(-np.linspace(-27.0, 27.0, 109)))
    x = lo + (hi - lo) * z
    x[[0, -1]] = lo, hi
    return x, fn(x)


def _invert(fn, dfn, table, gamma, seed):
    """Solve fn(eta) = gamma lane by lane from seed, inside gamma's table cell."""
    x_tab, f_tab = table
    cell = np.clip(np.searchsorted(f_tab, gamma), 1, f_tab.size - 1)
    lo, hi = x_tab[cell - 1], x_tab[cell]
    return _solve_increasing(fn, dfn, gamma, lo, hi, np.clip(seed, lo, hi))


_G2_TABLE = _logit_table(_g2, _BRACKET_LO, _BRACKET_HI)
# Bracket images, used to reject unreachable targets before iterating.
_G2_LO, _G2_HI = float(_G2_TABLE[1][0]), float(_G2_TABLE[1][-1])


def g2_inverse(gamma, seed=None):
    """Invert g2 on (0, 1) by safeguarded Newton with bisection fallback.

    The residual |g2(result) - gamma| is driven below 1e-12 max(1, |gamma|).
    seed, a packing fraction per target (e.g. the caller's current
    profile), replaces the built-in starting guess; it is clipped into
    the target's table cell, so any seed is safe.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gamma must be finite")
    if np.any(g < _G2_LO) or np.any(g > _G2_HI):
        raise ValueError("gamma outside the invertible bracket")
    if seed is None:
        # Below gamma ~ -3 the ideal-gas exponential is an excellent seed.
        seed = np.where(g < 0.0, np.exp(np.clip(g, -27.0, 0.0)), 0.25)
    x = _invert(_g2, _g2_prime, _G2_TABLE, g, seed)
    return _scalar_like(gamma, x)


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
_G4_TABLE = _logit_table(_speedy_g4, ETA_FS_HI, _G4_HI_ETA)


def g4_inverse(gamma, seed=None):
    """Invert speedy_g4 on [0.54, eta_fcc); seed as for g2_inverse."""
    g = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gamma must be finite")
    if np.any(g < GAMMA_FS) or np.any(g > _G4_HI):
        raise ValueError("gamma outside the solid branch")
    x = _invert(
        _speedy_g4,
        lambda e: _speedy_g3_prime(e) / e,
        _G4_TABLE,
        g,
        0.6 if seed is None else seed,
    )
    return _scalar_like(gamma, x)


def find_inflection():
    """Locate the inflection of g2, where g2' attains its minimum.

    Returns (eta_wr, gamma_wr, K): the packing fraction at which g2''
    vanishes, the chemical potential there, and K = 1/g2'(eta_wr), the
    largest slope the fluid density can have as a function of gamma.
    """
    eta_wr = brentq(lambda e: g2_derivs(e, 2), 1e-6, ETA_FS_LO, xtol=1e-15)
    return float(eta_wr), float(g2(eta_wr)), float(1.0 / g2_derivs(eta_wr, 1))


_ETA_WR, _GAMMA_WR, _K_GAMMA_FS = find_inflection()


_IDEAL_GAS_HI = 700.0  # largest ideal-gas gamma, clear of exp overflow


def ideal_gas_wp_prime(gamma):
    """Ideal-gas density e^gamma, for low-density cross-checks."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g > _IDEAL_GAS_HI):
        raise OverflowError("gamma too large for the ideal-gas exponential")
    return _scalar_like(gamma, np.exp(g))


# Anchors pressure continuity at the kink: the solid branch is shifted by
# the constant g1(0.49) - g3(0.54) so wp matches from both sides, while the
# density relation g4 is left untouched.
_SOLID_PRESSURE_SHIFT = float(g1(ETA_FS_LO)) - float(speedy_g3(ETA_FS_HI))


@dataclass(frozen=True)
class EosModel:
    """Piecewise equation of state selected by mode.

    hard-sphere-CS-Speedy composes the Carnahan-Starling fluid branch
    with Speedy's solid branch across the kink at gamma_fs; CS-extended
    keeps the fluid formulas on all of eta in (0,1); ideal-gas replaces
    the density map by e^gamma.  Only mode is settable; the freezing
    and inflection constants are the module's, read-only on the class.
    """

    mode: str = MODE_HARD_SPHERE
    eta_fs_lo: ClassVar[float] = ETA_FS_LO
    eta_fs_hi: ClassVar[float] = ETA_FS_HI
    gamma_fs: ClassVar[float] = GAMMA_FS
    eta_wr: ClassVar[float] = _ETA_WR
    gamma_wr: ClassVar[float] = _GAMMA_WR
    K_gamma_fs: ClassVar[float] = _K_GAMMA_FS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")

    def wp(self, gamma):
        """Reduced pressure as a function of chemical potential.

        Read off eta = wp_prime(gamma) in closed form, as response_at
        reads wp'': g1(eta) on the fluid branch, the shifted
        speedy_g3(eta) on the solid branch (eta >= 0.54 in hard-sphere
        mode), and eta itself for the ideal gas.
        """
        eta = self.wp_prime(gamma)
        if self.mode == MODE_IDEAL_GAS:
            return eta
        # a scalar runs as a one-lane array, so it rounds as array lanes do
        e = np.atleast_1d(np.asarray(eta, dtype=float))
        p = _g1(e)
        if self.mode == MODE_HARD_SPHERE:
            p = np.where(e < ETA_FS_HI, p,
                         _SOLID_PRESSURE_SHIFT + _speedy_g3(np.maximum(e, ETA_FS_HI)))
        return _scalar_like(gamma, p.reshape(np.shape(gamma)))

    def wp_prime(self, gamma, seed=None):
        """Equilibrium packing fraction at chemical potential gamma.

        At the hard-sphere kink gamma_fs this is the left derivative,
        the fluid's 0.49.  seed, a packing fraction per gamma that the
        caller already holds (say the current profile), starts the
        inversion there; in hard-sphere mode each lane's seed goes to
        the branch its gamma falls on and is clipped into that branch's
        bracket, so a seed from the other branch is harmless.  The
        result meets the same residual with or without a seed.
        """
        if self.mode == MODE_IDEAL_GAS:
            return ideal_gas_wp_prime(gamma)
        if self.mode == MODE_CS_EXTENDED:
            return g2_inverse(gamma, seed)
        g = np.atleast_1d(np.asarray(gamma, dtype=float))
        fluid = g <= self.gamma_fs
        if seed is not None:
            seed = np.broadcast_to(np.asarray(seed, dtype=float), g.shape)
        out = np.empty_like(g)
        if np.any(fluid):
            out[fluid] = g2_inverse(g[fluid], None if seed is None else seed[fluid])
        if np.any(~fluid):
            out[~fluid] = g4_inverse(g[~fluid], None if seed is None else seed[~fluid])
        return _scalar_like(gamma, out.reshape(np.shape(gamma)))

    def _reject_kink(self, gamma):
        """Raise ValueError if any gamma sits on the hard-sphere kink, where wp'' is undefined."""
        if self.mode == MODE_HARD_SPHERE and np.any(
            np.asarray(gamma, dtype=float) == self.gamma_fs
        ):
            raise ValueError("density response is undefined at the kink gamma_fs")

    def wp_double_prime(self, gamma):
        """Density response d eta / d gamma; undefined at the kink."""
        self._reject_kink(gamma)
        return _scalar_like(gamma, self.response_at(self.wp_prime(gamma)))

    def response_at(self, eta):
        """wp'' where wp' equals eta, read off eta with no inversion.

        eta/g3'(eta) on the solid branch (eta >= 0.54 in hard-sphere
        mode), eta for the ideal gas, 1/g2'(eta) otherwise; for
        eta = wp_prime(gamma) this is wp_double_prime(gamma).
        """
        e = np.asarray(eta, dtype=float)
        if self.mode == MODE_IDEAL_GAS:
            return e
        if self.mode == MODE_CS_EXTENDED:
            return 1.0 / _g2_prime(e)
        solid = np.minimum(np.maximum(e, ETA_FS_HI), _G4_HI_ETA)
        return np.where(e < ETA_FS_HI, 1.0 / _g2_prime(e), solid / _speedy_g3_prime(solid))

    def gamma_at(self, eta):
        """Chemical potential at which wp' equals eta, in closed form.

        g2(eta), speedy_g4(eta) or log(eta) by mode and branch, with no
        inversion; in hard-sphere mode the coexistence gap (0.49, 0.54)
        maps to the kink gamma_fs and close packing to the solid top.
        """
        e = _check_range(eta, 0.0, math.inf if self.mode == MODE_IDEAL_GAS else 1.0)
        if self.mode == MODE_IDEAL_GAS:
            return _scalar_like(eta, np.log(e))
        if self.mode == MODE_CS_EXTENDED:
            return _scalar_like(eta, _g2(e))
        solid = np.minimum(np.maximum(e, ETA_FS_HI), _G4_HI_ETA)
        g = np.where(e < ETA_FS_HI, _g2(np.minimum(e, ETA_FS_LO)), _speedy_g4(solid))
        return _scalar_like(eta, g)

    def gamma_range(self):
        """Lowest and highest gamma that wp_prime accepts in this mode.

        The floor is the fluid inversion's, density 1e-12, for every
        mode; the ceiling is the fluid branch's near eta = 1
        (CS-extended), the solid branch's near close packing
        (hard-sphere) or the exponential's overflow guard (ideal gas).
        """
        top = {MODE_CS_EXTENDED: _G2_HI, MODE_HARD_SPHERE: _G4_HI}
        return _G2_LO, top.get(self.mode, _IDEAL_GAS_HI)
