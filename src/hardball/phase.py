"""Finite-volume phase transitions and the droplet free-energy criterion.

Two first-order transitions are located on a ball.  At fixed chemical
potential the gas and liquid branches swap roles as pressure maximizer
at gamma_gl; at fixed particle number the vapor and droplet profiles
swap roles as free-energy minimizer at N_vd.  The droplet branch is
reached by a mass-constrained iteration: plain damped Newton at fixed
gamma stalls when started from a ball trial in a large container, but
re-solving gamma each step so the iterate keeps its mass follows the
canonical-ensemble valley, where the droplet is a stable minimizer.
That iteration is the fixed-point loop of `field` with the mass
multiplier `_gamma_for_mass` as its gamma rule, which hands back the
profile at the gamma it finds; its slow tail ends in one bordered
Newton solve in (eta, gamma), accepted only within twice the distance
the iteration still has to go.  Both mass matches, that one and
`constrained_solve`'s, and the gas/liquid pressure crossing run the one
safeguarded Newton on gamma, `_newton_on_gamma`, on an exact slope.
Every gas/liquid comparison goes through `_launch_gap`: the minimal and
maximal launches at one gamma, their pressure gap, and whether they are
distinct, read through `_launch_memo` so one public call launches each
gamma once.
`_scan_and_locate` scans (by default the algebraic band), then locates.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import eos, field, functionals, kernels, uniform

__all__ = [
    "BranchLostError",
    "BranchPoint",
    "GrandTransition",
    "PetitTransition",
    "constrained_solve",
    "decreasing_rearrangement",
    "droplet_criterion",
    "droplet_solve",
    "droplet_trial",
    "grand_canonical_transition",
    "n_hat",
    "petit_canonical_transition",
    "rearrangement_intersections",
]

_MASS_RTOL = 1e-9  # relative mass residual for constrained solves
_JUMP_FACTOR = 10.0  # continuation step ratio that flags a branch switch
_DISTINCT = 1e-7  # sup-norm separation below which two launches coincide
_SCAN_POINTS = 9  # gammas the pressure-gap scan visits across its bracket
_MASS_MATCH_STEPS = 200  # Newton/bisection steps of one mass match, at most
_OUTER_STEPS = 80  # Newton steps on gamma of one constrained solve or crossing, at most
_DROPLET_TOL, _DROPLET_STEPS = 1e-12, 20000  # droplet iteration: change tolerance, steps
_TRIAL_FLOOR = 1e-12  # droplet trial's density outside the ball


class BranchLostError(RuntimeError):
    """Continuation left its branch, or a droplet collapsed onto one."""


@dataclass(eq=False)
class BranchPoint:
    """One converged solution pinned to its thermodynamic bookkeeping."""

    gamma: float
    alpha: float
    solution: field.SolveReport
    functionals: functionals.FunctionalValues

    def __post_init__(self):
        if not self.solution.residual < 1e-8:
            raise ValueError("branch point requires a converged solve")
        vals = self.functionals
        scale = max(1.0, abs(vals.P), abs(self.gamma * vals.N), abs(vals.F))
        if abs(vals.P - (self.gamma * vals.N - vals.F)) > 1e-8 * scale:
            raise ValueError("branch point violates the Legendre identity")


@dataclass(eq=False)
class GrandTransition:
    """Coexistence at fixed chemical potential.

    gas and liquid are the minimal and maximal launches at gamma_gl,
    where their pressures are equal; delta_N is liquid minus gas mass.
    """

    gamma_gl: float
    gas: BranchPoint
    liquid: BranchPoint
    delta_N: float


@dataclass(eq=False)
class PetitTransition:
    """Coexistence at fixed particle number.

    delta_* are droplet minus vapor at the crossing mass; the chemical
    potential, energy, and entropy all jump down when the droplet takes
    over.  crossings counts rearranged-profile intersections and is
    reported without judgement.
    """

    N_vd: float
    vapor: BranchPoint
    droplet: BranchPoint
    gas: BranchPoint
    liquid: BranchPoint
    gamma_gl: float
    delta_Gamma: float
    delta_E: float
    delta_S: float
    embedding_ok: bool
    crossings: int


def _branch_point(spec, alpha, gamma, report, model):
    vals = functionals.functional_values(
        spec, alpha, gamma, report.field, model=model
    )
    return BranchPoint(
        gamma=float(gamma), alpha=float(alpha), solution=report, functionals=vals
    )


def _launch_gap(spec, alpha, gamma, domain, model):
    """Minimal and maximal launches at gamma, and their pressure gap.

    Returns (P[maximal] - P[minimal], sup-norm separation, minimal
    report, maximal report).  Where the separation is below _DISTINCT
    the launches coincide and the gap is quadrature noise, not a sign.
    """
    lo = field.minimal_solution(spec, alpha, gamma, domain, model=model)
    hi = field.maximal_solution(spec, alpha, gamma, domain, model=model)
    gap = functionals.pressure_functional(
        spec, alpha, gamma, hi.field, model=model
    ) - functionals.pressure_functional(spec, alpha, gamma, lo.field, model=model)
    return gap, float(np.max(np.abs(hi.field.values - lo.field.values))), lo, hi


def _launch_memo(spec, alpha, domain, model):
    """_launch_gap as a function of gamma, solved once per float(gamma)."""
    solve = functools.cache(lambda g: _launch_gap(spec, alpha, g, domain, model))
    return lambda gamma: solve(float(gamma))


def grand_canonical_transition(spec, alpha, domain, gamma_bracket, model=eos.EosModel()):
    """Locate the gas/liquid pressure crossing inside gamma_bracket.

    Both endpoints must give pressure gaps P[maximal] - P[minimal] of
    opposite sign; a one-signed bracket means the launches coincide or
    one branch is absent there, and raises.  The crossing is found by
    `_newton_on_gamma` from the end with the smaller gap, on the exact
    slope d(P[maximal] - P[minimal])/dgamma = N[maximal] - N[minimal]
    (dP/dgamma = N on each branch), to a step of 1e-12 + 8.9e-16 |gamma|.
    Only the two launches are solved, so above the dense gate no n x n
    matrix is formed; middle (saddle) solutions at the crossing are
    reached separately, by `field.newton_solve` or
    `constrained_solve(..., "middle")`.
    """
    launch = _launch_memo(spec, alpha, domain, model)
    return _locate_crossing(spec, alpha, domain, gamma_bracket, model, launch)


def _scan_and_locate(spec, alpha, domain, gamma_bracket, model):
    """Scan gamma_bracket (default: the algebraic band), then locate; one memo."""
    if gamma_bracket is None:
        g_lo, g_hi = uniform.gamma_boundaries(alpha * kernels.l1_norm_r3(spec))
        gamma_bracket = (g_lo + 1e-6, g_hi - 1e-6)
    launch = _launch_memo(spec, alpha, domain, model)
    bracket = _scan_for_crossing(launch, gamma_bracket)
    return _locate_crossing(spec, alpha, domain, bracket, model, launch)


def _locate_crossing(spec, alpha, domain, gamma_bracket, model, launch):
    """Body of grand_canonical_transition, reading launches from launch."""
    g_lo, g_hi = float(gamma_bracket[0]), float(gamma_bracket[1])
    if not g_lo < g_hi:
        raise ValueError("gamma_bracket must be increasing")
    gap_lo, sep_lo = launch(g_lo)[:2]
    gap_hi, sep_hi = launch(g_hi)[:2]
    for g, sep in ((g_lo, sep_lo), (g_hi, sep_hi)):
        if sep < _DISTINCT:
            raise ValueError(
                f"the launches coincide at gamma {g:.6f}; the pressure gap "
                "there is quadrature noise, so shrink the bracket"
            )
    if gap_lo == 0.0 or gap_hi == 0.0 or (gap_lo < 0.0) == (gap_hi < 0.0):
        raise ValueError(
            "pressure gap does not change sign over the bracket; one "
            "branch may be absent"
        )
    D = functionals.volume_weights(domain)

    def evaluate(g):
        # dP/dgamma = N on each branch, so the gap's slope is N_max - N_min
        gap, sep, lo, hi = launch(g)
        if sep < _DISTINCT:
            raise ValueError(f"the launches coincide at gamma {g!r}")
        return gap, float(D @ (hi.field.values - lo.field.values)), None

    start = g_lo if abs(gap_lo) <= abs(gap_hi) else g_hi
    gamma_gl = _newton_on_gamma(
        evaluate, start, (g_lo, g_hi), 0.0, lambda g: 1e-12 + 8.9e-16 * abs(g),
        "the pressure crossing left its bracket", _OUTER_STEPS,
    )[0]
    delta, _, lo, hi = launch(gamma_gl)
    gas = _branch_point(spec, alpha, gamma_gl, lo, model)
    liquid = _branch_point(spec, alpha, gamma_gl, hi, model)
    scale = max(1.0, abs(gas.functionals.P), abs(liquid.functionals.P))
    if abs(delta) > 1e-8 * scale:
        raise RuntimeError("pressure gap at the located crossing is too wide")
    return GrandTransition(
        gamma_gl=gamma_gl,
        gas=gas,
        liquid=liquid,
        delta_N=liquid.functionals.N - gas.functionals.N,
    )


def _newton_on_gamma(evaluate, gamma, window, ftol, xtol, message, steps):
    """Safeguarded Newton for the root of a monotone f(gamma) in a window.

    evaluate(gamma) returns (f, slope, payload); f may rise or fall.
    Until f has been seen with both signs the start and each step are
    clamped into window, and a step clamped onto the gamma just
    evaluated means the root lies beyond the window:
    ValueError(message).  Once both signs are seen, a step leaving
    their bracket bisects it.  An evaluation that raises ValueError
    retreats halfway to the last good gamma (a first evaluation has
    none and re-raises).  Stops at |f| <= ftol, at a step
    |f / slope| <= xtol(gamma), or after steps evaluations, and
    returns the last good (gamma, f, payload).
    """
    lo, hi = window
    gamma = min(max(gamma, lo), hi)
    good = None
    neg = pos = None  # gammas where f < 0 and f > 0
    for _ in range(steps):
        try:
            f, slope, payload = evaluate(gamma)
        except ValueError:
            if good is None:
                raise
            gamma = 0.5 * (gamma + good[0])
            continue
        good = (gamma, f, payload)
        if abs(f) <= ftol:
            break
        if f < 0.0:
            neg = gamma
        else:
            pos = gamma
        step = f / slope
        if abs(step) <= xtol(gamma):
            break
        g_next = gamma - step
        if neg is not None and pos is not None:
            a, b = min(neg, pos), max(neg, pos)
            if not a < g_next < b:
                g_next = 0.5 * (a + b)
        else:
            g_next = min(max(g_next, lo), hi)
            if g_next == gamma:
                raise ValueError(message)
        gamma = g_next
    return good


def constrained_solve(spec, alpha, domain, N_target, branch, model=eos.EosModel(),
                      start=None, gamma_seed=None):
    """Solve at fixed mass by safeguarded Newton on the chemical potential.

    The inner solve is the branch's own method: certified launches for
    the extremal branches, warm-started Newton for the middle branch
    (seeded by start, or by the middle algebraic root when start is
    omitted).  The outer step `_newton_on_gamma` takes the exact branch
    slope dN/dgamma = D.(I - diag(c) alpha M)^-1 c, c = wp'' of the
    inner solution, from one dense solve; it is negative on the middle
    branch.  A sup-norm step more than ten times the size predicted
    from the previous continuation step means the inner solve jumped
    branches and raises BranchLostError.
    """
    if branch not in ("minimal", "maximal", "middle"):
        raise ValueError("branch must be 'minimal', 'maximal' or 'middle'")
    N_target = float(N_target)
    D = functionals.volume_weights(domain)
    volume = float(np.sum(D))
    if not 0.0 < N_target < volume:
        raise ValueError("N_target outside the attainable mass range")

    # wp'(gamma + u) must stay invertible for 0 <= u < alpha phi (eta < 1);
    # the extremal branches end at the algebraic folds: keep Newton from
    # extrapolating across either before it has a bracket
    phi = kernels.phi_lambda(spec, domain.R)
    g_floor, g_ceil = model.gamma_range()
    g_ceil -= alpha * phi
    atau = alpha * kernels.l1_norm_r3(spec)
    if atau > uniform.ALPHA_TAU_MIN:
        g_check, g_hat = uniform.gamma_boundaries(atau)
        if branch == "minimal":
            g_ceil = g_hat - 1e-9
        elif branch == "maximal":
            g_floor = g_check + 1e-9
    M = alpha * field._self_ring(spec, domain, dense=True)

    warm = [start]

    def inner(g):
        if branch == "minimal":
            return field.minimal_solution(spec, alpha, g, domain, model=model)
        if branch == "maximal":
            return field.maximal_solution(spec, alpha, g, domain, model=model)
        if warm[0] is None:
            roots = uniform.solve_uniform(alpha * phi, g).roots
            if len(roots) < 3:
                raise ValueError(
                    "no middle algebraic root at this gamma; supply start"
                )
            warm[0] = field.constant_field(domain, roots[1])
        rep = field.newton_solve(spec, alpha, g, warm[0], model=model)
        warm[0] = rep.field
        return rep

    history = []  # (gamma, values) of accepted inner solves

    def evaluate(g):
        rep = inner(g)
        v = rep.field.values
        if len(history) >= 2:
            (g1, v1), (g0, v0) = history[-1], history[-2]
            dg = abs(g1 - g0)
            if dg > 0.0:
                predicted = np.max(np.abs(v1 - v0)) / dg * abs(g - g1)
                if np.max(np.abs(v - v1)) > _JUMP_FACTOR * predicted + 1e-9:
                    raise BranchLostError(
                        f"{branch} branch lost near gamma {g:.6f}: "
                        "sup-norm step exceeds ten times the prediction"
                    )
        history.append((g, v))
        return float(D @ v) - N_target, _mass_slope(model, M, D, v), rep

    mean = N_target / volume
    if gamma_seed is None:
        gamma_seed = model.gamma_at(mean) - alpha * phi * mean
    ftol = _MASS_RTOL * max(1.0, N_target)
    gamma, h, report = _newton_on_gamma(
        evaluate, float(gamma_seed), (g_floor, g_ceil),
        ftol, lambda g: 1e-15 * max(1.0, abs(g)),
        f"N_target appears beyond the {branch} branch's fold", _OUTER_STEPS + 1,
    )
    if abs(h) > ftol:
        raise ValueError(
            f"no mass match within {_OUTER_STEPS} outer steps on the {branch} "
            "branch; N_target may be outside its range"
        )
    report.branch_label = branch
    return _branch_point(spec, alpha, gamma, report, model)


def _mass_slope(model, aM, D, v):
    """Exact branch slope dN/dgamma = D.(I - diag(c) aM)^-1 c at the solution v, c = wp''."""
    c = model.response_at(v)
    return float(D @ np.linalg.solve(np.eye(v.size) - c[:, None] * aM, c))


def droplet_criterion(spec, alpha):
    """Free-energy test for a droplet beating the vapor at the same mass.

    Evaluated at the algebraic ceiling gamma_hat, where the vapor mass
    peaks: eta_hat_m is the merged small root, eta_hat_M the largest
    root, and the criterion fires when alpha times the whole-space
    kernel norm exceeds the bracketed combination of both densities.
    """
    atau = alpha * kernels.l1_norm_r3(spec)
    if not atau > uniform.ALPHA_TAU_MIN:
        raise ValueError(
            "droplet criterion needs alpha above the inflection slope "
            f"{uniform.ALPHA_TAU_MIN:.4f}"
        )
    gamma_hat = uniform.gamma_boundaries(atau)[1]
    eta_m = uniform.eta_bounds(atau)[0]
    eta_M = uniform.solve_uniform(atau, gamma_hat).roots[-1]

    def crowding(eta):
        return (3.0 - 2.0 * eta) / (1.0 - eta) ** 2

    rhs = 2.0 * (
        math.log(eta_M / eta_m) + crowding(eta_M) - crowding(eta_m)
    ) / (eta_M - eta_m)
    return {
        "lhs": float(atau),
        "rhs": float(rhs),
        "fires": bool(atau > rhs),
        "eta_hat_m": float(eta_m),
        "eta_hat_M": float(eta_M),
        "volume_ratio": float(eta_M / eta_m),
    }


def n_hat(spec, alpha, domain, model=eos.EosModel()):
    """Largest vapor-branch mass: N of the minimal solution at gamma_hat."""
    atau = alpha * kernels.l1_norm_r3(spec)
    gamma_hat = uniform.gamma_boundaries(atau)[1]
    rep = field.minimal_solution(spec, alpha, gamma_hat, domain, model=model)
    D = functionals.volume_weights(domain)
    return float(D @ rep.field.values)


def droplet_trial(spec, alpha, domain, N, ball_fraction):
    """Uniform ball of mass N on a floor of 1e-12, as droplet seed and comparator.

    The ball holds the fraction ball_fraction of the container volume;
    its radius is snapped to a panel edge so the quadrature sees a
    clean cut, and the ball density absorbs the floor's mass so the
    discrete mass equals N exactly.
    """
    del spec, alpha  # geometric construction; kept for a uniform call shape
    N = float(N)
    ball_fraction = float(ball_fraction)
    if not 0.0 < ball_fraction <= 1.0:
        raise ValueError("ball_fraction must lie in (0, 1]")
    D = functionals.volume_weights(domain)
    volume = float(np.sum(D))
    if N / (ball_fraction * volume) >= 1.0:
        raise ValueError(
            "overpacking: the ball cannot hold this mass below unit fraction"
        )
    edges = domain.edges
    r_ball = edges[int(np.argmin(np.abs(edges - domain.R * ball_fraction ** (1.0 / 3.0))))]
    inside = domain.nodes <= r_ball
    covered = float(D @ inside)
    if covered <= 0.0:
        raise ValueError("ball_fraction too small for this grid")
    density = (N - _TRIAL_FLOOR * (volume - covered)) / covered
    if not _TRIAL_FLOOR < density < 1.0:
        raise ValueError(
            "overpacking: snapped ball cannot hold this mass below unit "
            "fraction"
        )
    return field.DensityField(domain, np.where(inside, density, _TRIAL_FLOOR))


def _gamma_for_mass(model, D, u, N, seed):
    """Chemical potential gamma at which eta = wp'(gamma + u) has mass N.

    Returns (gamma, eta).  The start linearizes each lane about seed,
    the profile the caller holds; each step of `_newton_on_gamma` is
    one `wp_prime` inversion seeded by the last profile, with slope
    D.wp'' read off it by `EosModel.response_at`.  The window is where
    every lane gamma + u is invertible; a target outside it raises
    ValueError.  The solve stops once the step is below the inversion's
    resolution 1e-12 max(1, |gamma + u|).
    """
    g_min, g_max = model.gamma_range()
    u_lo, u_hi = float(np.min(u)), float(np.max(u))
    # keep every lane strictly inside the range after rounding of gamma + u
    bottom = g_min - u_lo + 1e-12 * (abs(g_min) + abs(u_lo))
    top = g_max - u_hi - 1e-12 * (abs(g_max) + abs(u_hi))
    u_abs = float(np.max(np.abs(u)))
    last = [seed]

    def evaluate(g):
        eta = np.asarray(model.wp_prime(g + u, seed=last[0]), dtype=float)
        last[0] = eta
        return float(D @ eta) - N, float(D @ model.response_at(eta)), eta

    w = D * model.response_at(seed)
    g = float((w @ (model.gamma_at(seed) - u) + N - D @ seed) / np.sum(w))
    g, gap, eta = _newton_on_gamma(
        evaluate, g, (bottom, top), 0.0,
        lambda g: 1e-12 * max(1.0, abs(g) + u_abs),
        f"mass target {N!r} lies outside the gamma window "
        f"[{bottom!r}, {top!r}] where wp'(gamma + u) is invertible",
        _MASS_MATCH_STEPS,
    )
    if abs(gap) > 1e-6 * max(1.0, N):
        raise RuntimeError(
            "mass cannot be matched by a single-branch density profile: "
            f"N {N!r}, last gamma {g!r}, mass gap {gap:.3e}"
        )
    return g, eta


def droplet_solve(spec, alpha, domain, N, start=None, model=eos.EosModel(),
                  check_collapse=True):
    """Land on the droplet branch at fixed mass N.

    Runs the fixed-point loop `field._fixed_point` with gamma re-solved
    every step by `_gamma_for_mass` (Newton on gamma, started from the
    current profile), whose profile at that gamma is the next iterate,
    under Picard's stopping rule.  The droplet minimizes F under the
    mass constraint, so this iteration converges from a crude ball
    trial where fixed-gamma Newton stalls.  Once it converges slowly
    (change ratio above 0.9, n <= 512; not Picard's cost rule, which
    would fire earlier and widen the acceptance window below) its tail
    is cut short by one bordered Newton solve in (eta, gamma) on the
    mass-constrained system, see `field._NewtonFinish`; the Newton
    limit is taken only where the iteration is heading, within twice
    its predicted remaining distance, and otherwise the iteration runs
    on.  The report's iterations count mass-matched steps plus Newton
    steps.  The converged gamma is the chemical potential of the
    droplet, and the profile solves the fixed-gamma equation to the
    usual residual.
    """
    D = functionals.volume_weights(domain)
    N = float(N)
    if start is None:
        atau = alpha * kernels.l1_norm_r3(spec)
        gamma_hat = uniform.gamma_boundaries(atau)[1]
        eta_big = uniform.solve_uniform(atau, gamma_hat).roots[-1]
        fraction = min(0.9, N / (eta_big * float(np.sum(D))))
        start = droplet_trial(spec, alpha, domain, N, fraction)
    M = field._self_ring(spec, domain)
    finish = None
    if domain.n <= field._DENSE_MAX:
        finish = field._NewtonFinish(M, alpha, model, border=(D, N))
    report, gamma = field._fixed_point(
        M, alpha, model, start,
        lambda u, v: _gamma_for_mass(model, D, u, N, v), _DROPLET_STEPS, _DROPLET_TOL,
        finish,
    )
    if check_collapse:
        vapor = field.minimal_solution(spec, alpha, gamma, domain, model=model)
        if float(np.max(np.abs(report.field.values - vapor.field.values))) < 1e-6:
            raise BranchLostError(
                "mass-constrained iteration collapsed onto the vapor branch "
                f"at N {N!r}, gamma {gamma!r}"
            )
    report.monotone_direction, report.branch_label = "none", "middle"
    return _branch_point(spec, alpha, gamma, report, model)


def petit_canonical_transition(spec, alpha, domain, N_bracket=None, model=eos.EosModel(),
                               gamma_gl=None, gamma_bracket=None):
    """Locate the vapor/droplet free-energy crossing at fixed mass.

    Bisects the mass for the sign change of F[vapor] - F[droplet]; at
    masses where the droplet collapses onto the vapor the gap is
    scored for the vapor side, so the mass window where no droplet
    exists is stepped over instead of mistaken for a crossing.  Needs
    the gas/liquid coexistence point for the embedding report: pass
    gamma_gl to launch the pair there once, or gamma_bracket to have it
    located here by `_scan_and_locate` (defaulting to the algebraic
    band), whose gas and liquid are then reused.  The vapor at the
    gas's own mass is the gas.
    """
    crit = droplet_criterion(spec, alpha)
    if not crit["fires"]:
        raise ValueError(
            "droplet criterion does not fire at this alpha; no droplet "
            "branch is expected"
        )

    if gamma_gl is None:
        grand = _scan_and_locate(spec, alpha, domain, gamma_bracket, model)
        gamma_gl, gas, liquid = grand.gamma_gl, grand.gas, grand.liquid
    else:
        gamma_gl = float(gamma_gl)
        _, _, lo, hi = _launch_gap(spec, alpha, gamma_gl, domain, model)
        gas = _branch_point(spec, alpha, gamma_gl, lo, model)
        liquid = _branch_point(spec, alpha, gamma_gl, hi, model)

    atau = alpha * kernels.l1_norm_r3(spec)
    gamma_hat = uniform.gamma_boundaries(atau)[1]
    hat_report = field.minimal_solution(
        spec, alpha, gamma_hat, domain, model=model
    )
    hat_mass = functionals.n_functional(hat_report.field)
    if N_bracket is None:
        N_bracket = (gas.functionals.N, hat_mass)
    n_lo, n_hi = float(N_bracket[0]), float(N_bracket[1])
    if not n_lo < n_hi:
        raise ValueError("N_bracket must be increasing")

    droplet_cache = []  # (N, values) for warm starts
    n_gas = gas.functionals.N
    vapor_gamma = [None]  # gamma of the last vapor solved here

    def vapor_at(n):
        # the vapor mass peaks at gamma_hat; solving there directly
        # avoids Newton steps against the fold; at the gas's mass the
        # vapor is the gas
        if abs(n - hat_mass) <= 1e-9 * max(1.0, hat_mass):
            return _branch_point(spec, alpha, gamma_hat, hat_report, model)
        if abs(n - n_gas) <= 1e-9 * max(1.0, n_gas):
            return gas
        seed = vapor_gamma[0]
        if seed is None:
            # the mass match's first Newton step from gamma_gl, taken from
            # the gas already known there instead of a second launch
            aM = alpha * field._self_ring(spec, domain, dense=True)
            D = functionals.volume_weights(domain)
            seed = gamma_gl - (n_gas - n) / _mass_slope(model, aM, D, gas.solution.field.values)
        point = constrained_solve(
            spec, alpha, domain, n, "minimal", model=model, gamma_seed=seed,
        )
        vapor_gamma[0] = point.gamma
        return point

    def droplet_at(n):
        if droplet_cache:
            nearest = min(droplet_cache, key=lambda item: abs(item[0] - n))
            seed = field.DensityField(domain, nearest[1])
        else:
            seed = None
        return droplet_solve(
            spec, alpha, domain, n, start=seed, model=model,
            check_collapse=False,
        )

    @functools.cache
    def points(n):
        # (vapor, droplet, F[vapor] - F[droplet]) at mass n, solved once
        vapor = vapor_at(n)
        droplet = droplet_at(n)
        sep = float(np.max(np.abs(
            droplet.solution.field.values - vapor.solution.field.values
        )))
        if sep < 1e-6:
            # no droplet at this mass; score for the vapor side, and do
            # not let the collapsed profile seed later droplet solves
            return vapor, None, -1e-3 * max(1.0, abs(vapor.functionals.F))
        droplet_cache.append((n, droplet.solution.field.values))
        return vapor, droplet, vapor.functionals.F - droplet.functionals.F

    def crossing(n):
        vapor, droplet, _ = points(n)
        if droplet is None:
            raise BranchLostError("droplet branch unavailable at the crossing")
        return vapor, droplet

    gap_lo, gap_hi = points(n_lo)[2], points(n_hi)[2]
    if gap_lo == 0.0 or gap_hi == 0.0 or (gap_lo < 0.0) == (gap_hi < 0.0):
        raise ValueError(
            "free-energy gap does not change sign over the mass bracket"
        )
    n_vd = float(brentq(
        lambda n: points(n)[2], n_lo, n_hi, xtol=1e-4, rtol=8.9e-16,
    ))
    vapor, droplet = crossing(n_vd)

    # polish the crossing with the known slope dF/dN = Gamma per branch
    for _ in range(8):
        fgap = vapor.functionals.F - droplet.functionals.F
        scale = max(1.0, abs(vapor.functionals.F))
        if abs(fgap) <= 1e-8 * scale:
            break
        slope = vapor.gamma - droplet.gamma
        n_vd -= fgap / slope
        vapor, droplet = crossing(n_vd)
    else:
        raise RuntimeError("free-energy gap failed to close at the crossing")

    return PetitTransition(
        N_vd=n_vd,
        vapor=vapor,
        droplet=droplet,
        gas=gas,
        liquid=liquid,
        gamma_gl=gamma_gl,
        delta_Gamma=droplet.gamma - vapor.gamma,
        delta_E=droplet.functionals.E - vapor.functionals.E,
        delta_S=droplet.functionals.S - vapor.functionals.S,
        embedding_ok=bool(gas.functionals.N <= n_vd < liquid.functionals.N),
        crossings=rearrangement_intersections(
            vapor.solution.field, droplet.solution.field
        ),
    )


def pressure_crossing_bracket(spec, alpha, domain, gamma_bracket, model=eos.EosModel()):
    """Sub-bracket of gamma_bracket over which the pressure gap changes sign."""
    return _scan_for_crossing(_launch_memo(spec, alpha, domain, model), gamma_bracket)


def _scan_for_crossing(launch, gamma_bracket):
    """Scan the bracket for a pressure-gap sign change between gammas
    where the launches are genuinely distinct; where they coincide
    the gap is quadrature noise and must not count as a sign."""
    grid = np.linspace(gamma_bracket[0], gamma_bracket[1], _SCAN_POINTS)
    prev_g = grid[0]
    prev_gap, prev_sep = launch(prev_g)[:2]
    for right in grid[1:]:
        gap, sep = launch(right)[:2]
        if sep < _DISTINCT:
            continue
        if prev_sep >= _DISTINCT and (prev_gap < 0.0) != (gap < 0.0):
            return (float(prev_g), float(right))
        prev_g, prev_gap, prev_sep = right, gap, sep
    raise ValueError(
        "no pressure-gap sign change between distinct-branch gammas "
        "inside the bracket"
    )


def decreasing_rearrangement(fld):
    """Field values sorted largest first, paired with their panel volumes.

    The pair list represents the symmetric-decreasing rearrangement as
    a step function of enclosed volume; any integral of a composition
    f(eta) is preserved exactly because only the ordering changes.
    """
    weights = functionals.volume_weights(fld.domain)
    order = np.argsort(fld.values, kind="stable")[::-1]
    return fld.values[order], weights[order]


def rearrangement_intersections(field_a, field_b):
    """Count transversal crossings of two decreasing rearrangements.

    Both step functions are compared on the merged enclosed-volume
    grid; segments where they agree to rounding are skipped, so
    tangential contact does not count.
    """
    dom_a, dom_b = field_a.domain, field_b.domain
    if dom_a.n != dom_b.n or not np.allclose(dom_a.nodes, dom_b.nodes):
        raise ValueError("fields must share one domain")
    val_a, w_a = decreasing_rearrangement(field_a)
    val_b, w_b = decreasing_rearrangement(field_b)
    cum_a = np.cumsum(w_a)
    cum_b = np.cumsum(w_b)
    edges = np.unique(np.concatenate(([0.0], cum_a, cum_b)))
    mids = 0.5 * (edges[:-1] + edges[1:])
    step_a = val_a[np.minimum(np.searchsorted(cum_a, mids), len(val_a) - 1)]
    step_b = val_b[np.minimum(np.searchsorted(cum_b, mids), len(val_b) - 1)]
    diff = step_a - step_b
    tiny = 1e-11 * max(1.0, float(np.max(np.abs(diff), initial=0.0)))
    signs = np.sign(diff[np.abs(diff) > tiny])
    if signs.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0.0))
