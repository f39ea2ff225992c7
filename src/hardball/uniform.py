"""Space-uniform van der Waals theory for the attractive hard-sphere gas.

Roots of the algebraic fixed point eta = g2^-1(gamma + alpha*tau*eta),
the triple-solution region boundaries gamma_check/gamma_hat, the Maxwell
coexistence curve, uniform pressure and free-energy densities, and the
touching scale where the fluid band of a shrunken domain just touches
the band of the full one.

All roots come from one rule.  h = g2 - gamma - alpha*tau*eta turns only
at the two points ``eta_bounds`` where g2' = alpha*tau, so h is monotone
on at most three pieces of (0, 1) and each piece holds at most one root.
A turning point where h vanishes to ``_TANGENT_TOL`` is a tangency: the
double root that sits on the band edges gamma_check and gamma_hat.

The fluid-restricted gamma_hat follows the convex gamma_hat up to the
universal slope ``ALPHA_TAU_KINK`` and the fluid line GAMMA_FS -
ETA_FS_LO*alpha_tau beyond it, so band gaps peak at that kink or at an
end of their range.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import eos, kernels
from .roots import brentq

# slope thresholds: below ALPHA_TAU_MIN the map eta -> g2(eta) - at*eta is
# injective; at ALPHA_TAU_FS the small-slope root hits the freezing density
ALPHA_TAU_MIN = float(eos.g2_derivs(eos.ETA_WR, 1))
ALPHA_TAU_FS = float(eos.g2_derivs(eos.ETA_FS_LO, 1))
# at ALPHA_TAU_KINK the small-eta tangent of g2 passes through the freezing
# point (ETA_FS_LO, GAMMA_FS), so gamma_hat meets the fluid line there; the
# tangent's value at ETA_FS_LO falls monotonically as its point of contact
# moves from 0+ (where it is +inf) up to the inflection
_ETA_KINK = brentq(
    lambda x: float(eos.g2(x) + eos.g2_derivs(x, 1) * (eos.ETA_FS_LO - x)) - eos.GAMMA_FS,
    1e-3, eos.ETA_WR, xtol=1e-15, rtol=8.9e-16,
)
ALPHA_TAU_KINK = float(eos.g2_derivs(_ETA_KINK, 1))

_TANGENT_TOL = 1e-9  # |g2 - gamma - at*eta| below this at a critical point
_ETA_BOUNDS_MEMO = 256  # alpha_tau values whose eta_bounds stay memoized
_ETA_SPAN = (1e-300, 1.0 - 1e-9)  # roots are sought between these


@dataclass(frozen=True)
class UniformRoots:
    """Sorted roots of the uniform fixed point with stability flags.

    A root is iteration-stable when g2'(root) > alpha_tau, i.e. the
    fixed-point map has local slope below one there.  ``degenerate`` marks
    a tangency: two of the listed roots are the same critical point.
    """

    roots: tuple
    stability: tuple
    degenerate: bool = False

    def __post_init__(self):
        if not self.roots:
            raise ValueError("at least one root is required")
        if any(b < a for a, b in zip(self.roots, self.roots[1:])):
            raise ValueError("roots must be sorted")


def _piece_roots(alpha_tau, gamma, top_down=False):
    """The root of each monotone piece of h that holds one, with its tangency flag.

    h = g2 - gamma - alpha_tau*eta has h' = g2' - alpha_tau, which vanishes
    only at ``eta_bounds(alpha_tau)`` (nowhere when alpha_tau <=
    ALPHA_TAU_MIN).  Those critical points cut the span 1e-300 .. 1 - 1e-9
    into at most three pieces on which h is monotone, so each piece holds
    at most one root, found by brentq in log(eta) where h changes sign.
    A critical point with |h| < _TANGENT_TOL is a tangency: it is the root
    of both pieces it joins.  Pieces are visited from the bottom up, or
    from the top down; each piece's root does not depend on the order.
    """
    if alpha_tau < 0:
        raise ValueError("alpha_tau must be nonnegative")
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")

    def h(x):
        return float(eos.g2(x)) - gamma - alpha_tau * x

    critical = eta_bounds(alpha_tau) if alpha_tau > ALPHA_TAU_MIN else ()
    knots = (_ETA_SPAN[0], *critical, _ETA_SPAN[1])
    values = [h(x) for x in knots]
    tangent = [False, *(abs(v) < _TANGENT_TOL for v in values[1:-1]), False]
    pieces = range(len(knots) - 1)
    for i in reversed(pieces) if top_down else pieces:
        ends = [j for j in (i, i + 1) if tangent[j]]
        if ends:
            # just above ALPHA_TAU_MIN both ends of the middle piece can
            # be tangent; the one closer to a root is its root
            yield knots[min(ends, key=lambda j: abs(values[j]))], True
        elif values[i] * values[i + 1] <= 0.0:
            # log scale: small roots reach e^-690, where g2 ~ ln(eta)
            t = brentq(lambda t: h(math.exp(t)), math.log(knots[i]),
                       math.log(knots[i + 1]), xtol=1e-16, rtol=8.9e-16)
            yield math.exp(t), False


def _no_root(alpha_tau, gamma):
    return RuntimeError(
        f"no uniform root in {_ETA_SPAN} at alpha_tau={alpha_tau}, gamma={gamma}"
    )


def solve_uniform(alpha_tau, gamma):
    """All roots of g2(eta) = gamma + alpha_tau*eta in (0,1).

    One root per monotone piece of h = g2 - gamma - alpha_tau*eta that
    holds one, see `_piece_roots`; a tangency sets ``degenerate``.  Roots
    come out sorted because the pieces are.
    """
    gamma = float(gamma)
    found = list(_piece_roots(alpha_tau, gamma))
    if not found:
        raise _no_root(alpha_tau, gamma)
    roots = tuple(root for root, _ in found)
    stability = tuple(bool(eos.g2_derivs(r, 1) > alpha_tau) for r in roots)
    return UniformRoots(roots, stability, any(tangent for _, tangent in found))


def largest_root(alpha_tau, gamma):
    """solve_uniform(alpha_tau, gamma).roots[-1], solving only the piece that holds it.

    The pieces are scanned from the top down and the scan stops at the
    first root, which comes from the same brentq on the same piece.
    """
    gamma = float(gamma)
    for root, _ in _piece_roots(alpha_tau, gamma, top_down=True):
        return root
    raise _no_root(alpha_tau, gamma)


@functools.lru_cache(maxsize=_ETA_BOUNDS_MEMO)
def eta_bounds(alpha_tau):
    """The two solutions of g2'(eta) = alpha_tau flanking the inflection.

    A pure function of alpha_tau, memoized per value: one transition asks
    for the same alpha_tau a dozen times, and the memo lives as long as
    the process.
    """
    if alpha_tau <= ALPHA_TAU_MIN:
        raise ValueError(
            "alpha_tau must exceed g2'(eta_inflection) ~ 21.202 for two branches"
        )

    def slope_gap(x):
        return float(eos.g2_derivs(x, 1)) - alpha_tau

    lo = 0.5 / alpha_tau  # 1/eta term alone already exceeds alpha_tau here
    eta_lt = brentq(slope_gap, lo, eos.ETA_WR, xtol=1e-15, rtol=8.9e-16)
    hi = 1.0 - 0.8 * (6.0 / alpha_tau) ** 0.25  # (8-2eta)/(1-eta)^4 dominates
    eta_gt = brentq(slope_gap, eos.ETA_WR, hi, xtol=1e-15, rtol=8.9e-16)
    return eta_lt, eta_gt


def gamma_boundaries(alpha_tau, fluid_restricted=False):
    """Lower and upper chemical-potential limits of the triple-root band."""
    eta_lt, eta_gt = eta_bounds(alpha_tau)
    gamma_hat = float(eos.g2(eta_lt)) - alpha_tau * eta_lt
    gamma_check = float(eos.g2(eta_gt)) - alpha_tau * eta_gt
    if fluid_restricted:
        if alpha_tau >= ALPHA_TAU_FS:
            raise ValueError(
                "fluid-restricted band is empty for alpha_tau >= g2'(0.49)"
            )
        gamma_hat = min(gamma_hat, eos.GAMMA_FS - eos.ETA_FS_LO * alpha_tau)
    return gamma_check, gamma_hat


@dataclass(frozen=True)
class TriplicityRegion:
    """Region of (alpha, gamma) with three uniform roots at coupling tau."""

    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def contains(self, alpha, gamma):
        if alpha * self.tau <= ALPHA_TAU_MIN:
            return False
        check, hat = gamma_boundaries(alpha * self.tau)
        return check < gamma < hat


def pi_uniform(alpha_norm, gamma, eta, model=eos.EosModel()):
    """Uniform grand-potential density wp(gamma + an*eta) - an*eta^2/2."""
    eta = np.asarray(eta, dtype=float)
    if np.any(eta <= 0.0) or np.any(eta >= 1.0):
        raise ValueError("eta must lie in (0,1)")
    return model.wp(gamma + alpha_norm * eta) - 0.5 * alpha_norm * eta**2


def _pi_at_root(alpha_tau, eta):
    # at a root g2(eta) = gamma + at*eta, so wp(gamma + at*eta) = g1(eta)
    # on the extended Carnahan-Starling branch
    return float(eos.g1(eta)) - 0.5 * alpha_tau * eta**2


def coexistence_gamma(alpha_tau):
    """Maxwell point: gamma where gas and liquid pressures balance.

    The outer roots of ``solve_uniform`` are continuous over the closed
    band [gamma_check, gamma_hat]: at each edge the tangency rule pins
    the merging pair to its critical point.  The pressure gap is negative
    at gamma_check and positive at gamma_hat, so one brentq over the band
    finds the balance.  Just above ALPHA_TAU_MIN the band is narrower
    than 2*_TANGENT_TOL and the gap is flat where both turning points
    are tangencies; there h is near an odd cubic about the inflection,
    whose balance is the middle of the band.
    """
    gamma_check, gamma_hat = gamma_boundaries(alpha_tau)
    if gamma_hat - gamma_check < 2.0 * _TANGENT_TOL:
        return 0.5 * (gamma_check + gamma_hat)

    def varpi(gamma):
        roots = solve_uniform(alpha_tau, gamma).roots
        return _pi_at_root(alpha_tau, roots[-1]) - _pi_at_root(alpha_tau, roots[0])

    return brentq(varpi, gamma_check, gamma_hat, xtol=1e-14, rtol=8.9e-16)


def f_uniform(alpha_norm, eta):
    """Uniform free-energy density eta*g2 - g1 - an*eta^2/2."""
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(eta_arr <= 0.0) or np.any(eta_arr >= 1.0):
        raise ValueError("eta must lie in (0,1)")
    out = eta_arr * eos.g2(eta_arr) - eos.g1(eta_arr) - 0.5 * alpha_norm * eta_arr**2
    return out if out.shape else float(out)


def common_tangent(alpha_norm):
    """Touching points and slope of the double tangent under f_uniform.

    f_uniform' = g2 - alpha_norm*eta, so a line of slope mu touches the
    graph at the uniform roots for gamma = mu, and its intercept there is
    minus the pressure.  It touches at the gas and the liquid root at once
    where their pressures balance: the slope is ``coexistence_gamma``.
    """
    if alpha_norm <= ALPHA_TAU_MIN:
        raise ValueError("f_uniform is convex; no double tangent exists")
    slope = coexistence_gamma(alpha_norm)
    roots = solve_uniform(alpha_norm, slope).roots
    return roots[0], roots[-1], slope


def _gamma_gap(alpha, phi, psi):
    # gap between the upper curve of the stronger coupling and the lower
    # curve of the weaker one; regions overlap where this is positive
    _, hat = gamma_boundaries(alpha * phi, fluid_restricted=True)
    check, _ = gamma_boundaries(alpha * psi)
    return hat - check


def _best_alpha(phi, psi, alpha_range):
    # hat(alpha*phi) is convex below the kink and linear above it, and
    # -check(alpha*psi) is convex, so the gap's maximum over the admissible
    # alphas sits at the kink or at an end
    lo = max(alpha_range[0], ALPHA_TAU_MIN / psi * (1.0 + 1e-9))
    hi = min(alpha_range[1], ALPHA_TAU_FS / phi * (1.0 - 1e-9))
    if lo >= hi:
        return None
    kink = min(max(ALPHA_TAU_KINK / phi, lo), hi)
    return max(((a, _gamma_gap(a, phi, psi)) for a in (lo, kink, hi)), key=lambda p: p[1])


def touching_scale(spec, alpha_range, diam, volume):
    """Scale where the shrunken-domain band just touches the full band.

    The peak over alpha of gamma_hat_fluid(alpha*Phi(s)) -
    gamma_check(alpha*Psi) comes in closed form from ``_best_alpha``.
    A walk outward from the optimal scale brackets where that peak turns
    negative, and one brentq in s finds its zero.  Returns the scale and
    the alpha of the peak there.
    """
    sigma_grave, psi_max = kernels.optimal_scaling(spec, diam, volume)
    radius = 0.5 * diam

    def peak(s):
        return _best_alpha(kernels.phi_lambda(spec, s * radius), psi_max, alpha_range)

    def gap_at_scale(s):
        found = peak(s)
        return found[1] if found is not None else -1.0

    if gap_at_scale(sigma_grave) <= 0.0:
        raise ValueError("regions never overlap inside the alpha range")
    s_lo, s_hi = sigma_grave, sigma_grave
    for _ in range(60):
        s_hi *= 1.25
        if gap_at_scale(s_hi) < 0.0:
            break
        s_lo = s_hi
    else:
        raise ValueError("bands still overlap at the largest probed scale")

    sigma_acute = brentq(gap_at_scale, s_lo, s_hi, xtol=1e-15, rtol=8.9e-16)
    alpha_star = (peak(sigma_acute) or peak(s_lo))[0]
    return sigma_acute, alpha_star
