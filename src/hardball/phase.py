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
profile at the gamma it finds; once it turns slow, one bordered
Newton solve in (eta, gamma) cuts its tail short, accepted only within
twice the distance the iteration still has to go.  Both mass matches,
that one and `constrained_solve`'s, and the gas/liquid pressure
crossing run the one safeguarded Newton on gamma, `_newton_on_gamma`,
on an exact slope; the vapor/droplet free-energy gap runs it on the
mass, once `brentq` has brought it close.
Every gas/liquid comparison goes through `_launch_gap`: the minimal and
maximal launches at one gamma, their pressure gap, and whether they are
distinct, read through `_launch_memo` so one public call launches each
gamma once.  The memo starts each new minimal launch from the minimal
solution at the nearest lower gamma it holds, and each maximal launch
from the maximal solution at the nearest higher one: by comparison the
minimal solution rises with gamma and the maximal one falls as gamma
falls, so these are sub- and supersolutions on the right side of the
extremal solutions, and the monotone iterations still end there.
The vapor mass matches of one petit transition each start from the
vapor solved before them, through `constrained_solve`'s ``seed``, and
read the vapor off one mass-bordered Newton solve from that seed, the
droplet finish's solve, which is regular at the vapor fold: where the
finish's contraction certificate shows it to be the minimal solution
at its gamma, no launch is made.
`grand_canonical_transition` is the one gas/liquid locator: one
safeguarded Newton on gamma, started from the top end of its bracket
(by default the algebraic band, in hard-sphere mode its fluid part)
where its launches are distinct, and from the low end only where they
coincide at the top.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import eos, field, functionals, kernels, uniform
from .roots import brentq

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
    "petit_canonical_transition",
    "rearrangement_intersections",
]

_MASS_RTOL = 1e-9  # relative mass residual for constrained solves
_JUMP_FACTOR = 10.0  # continuation step ratio that flags a branch switch
_DISTINCT = 1e-7  # sup-norm separation below which two launches coincide
_COLLAPSED = 1e-6  # sup-norm separation below which a droplet is the vapor
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


def _launch_gap(spec, alpha, gamma, domain, model, below=None, above=None):
    """Minimal and maximal launches at gamma, and their pressure gap.

    Returns (P[maximal] - P[minimal], sup-norm separation, minimal
    report, maximal report).  Where the separation is below _DISTINCT
    the launches coincide and the gap is quadrature noise, not a sign.
    below and above are the minimal and maximal launches' neighbours,
    (gamma', report), as `field.extremal_pairs` takes them; None
    launches cold.  The two launches run as one two-column block, whose
    columns keep the bits they have alone and whose Newton finishes
    share one alpha M.
    """
    [(lo, hi)] = field.extremal_pairs(spec, alpha, [gamma], domain, model=model,
                                      neighbours=[(below, above)])
    gap = functionals.pressure_functional(
        spec, alpha, gamma, hi.field, model=model
    ) - functionals.pressure_functional(spec, alpha, gamma, lo.field, model=model)
    return gap, float(np.max(np.abs(hi.field.values - lo.field.values))), lo, hi


def _launch_memo(spec, alpha, domain, model):
    """_launch_gap as a function of gamma, solved once per float(gamma).

    A new gamma's minimal launch starts from the minimal solution at the
    nearest lower gamma solved, and its maximal launch from the maximal
    solution at the nearest higher one, which `field.extremal_pairs`
    passes over where it descended from a lower ceiling; with no
    neighbour a launch starts cold.
    """
    solved = {}  # float(gamma) -> _launch_gap's result

    def launch(gamma):
        g = float(gamma)
        if g not in solved:
            lower = [x for x in solved if x < g]
            higher = [x for x in solved if x > g]
            below = (max(lower), solved[max(lower)][2]) if lower else None
            above = (min(higher), solved[min(higher)][3]) if higher else None
            solved[g] = _launch_gap(spec, alpha, g, domain, model, below, above)
        return solved[g]

    return launch


def grand_canonical_transition(spec, alpha, domain, gamma_bracket=None,
                               model=eos.EosModel()):
    """Locate the gas/liquid pressure crossing inside gamma_bracket.

    gamma_bracket defaults to the algebraic band `gamma_boundaries`
    moved 1e-6 inward, its low end raised to 1e-6 above the floor of
    `model.gamma_range()` where the band reaches below it.  In
    hard-sphere mode that band is fluid-restricted: above
    `uniform.ALPHA_TAU_KINK` its top lies lower, past which the
    hard-sphere ceiling drops to the small algebraic root and the
    launches coincide.  Where the uniform coexistence gamma lies above
    that top, the liquid at coexistence is past freezing: ValueError
    names alpha, R, n, that gamma and the top, as it names alpha, R and
    n where the band is empty.  An end outside the EOS range raises
    ValueError, naming alpha, R, n, the bracket and the range.  All are
    raised before any launch.  The top end is
    launched first, and `_newton_on_gamma` starts there on the pressure
    gap P[maximal] - P[minimal] with the exact slope
    N[maximal] - N[minimal], to a step of `_gamma_xtol`, 1e-12 + 8.9e-16
    |gamma|.
    The low end is launched only where the launches coincide at the top
    (the Newton then starts from the low end), where a Newton step is
    clamped onto it, or for an error message: near the liquid spinodal
    it is the costly end.  A gamma where the launches coincide or cannot
    finish (`field.NoConvergence`) fails its evaluation, and the Newton
    retreats halfway to its last good gamma, passing it over.  With no
    distinct end, or a Newton step clamped onto the end it evaluated
    last, the error names alpha, the grid, the ends and their gaps.  A
    pressure gap left where the Newton stops is accepted up to the larger
    of 1e-8 max(1, |P_gas|, |P_liquid|) and the Newton's own resolution,
    |N_liquid - N_gas| `_gamma_xtol`(gamma_gl), which grows with the
    ball; a wider one raises RuntimeError naming the point reached and
    that gap.
    Only the two launches are solved, so above the dense gate no n x n
    matrix is formed; a middle (saddle) solution at the crossing is
    reached separately, by `field.newton_solve`.
    """
    g_min, g_max = model.gamma_range()
    if gamma_bracket is None:
        atau, hard = alpha * kernels.l1_norm_r3(spec), model.mode == eos.MODE_HARD_SPHERE
        try:
            g_check, g_hat = uniform.gamma_boundaries(atau, fluid_restricted=hard)
        except ValueError as exc:  # the fluid band is empty
            raise ValueError(f"{exc} ({_grid(alpha, domain)})") from None
        coexistence = uniform.coexistence_gamma(atau) if hard else -math.inf
        if coexistence > g_hat:
            raise ValueError(
                f"uniform coexistence at gamma {coexistence!r} lies above the top {g_hat!r} "
                f"of the hard-sphere fluid band: the liquid there is past freezing "
                f"({_grid(alpha, domain)})")
        gamma_bracket = (max(g_check, g_min) + 1e-6, g_hat - 1e-6)
    ends = (float(gamma_bracket[0]), float(gamma_bracket[1]))
    if not ends[0] < ends[1]:
        raise ValueError(f"gamma_bracket {ends} must be increasing ({_grid(alpha, domain)})")
    if ends[0] < g_min or ends[1] > g_max:
        raise ValueError(
            f"gamma bracket [{ends[0]!r}, {ends[1]!r}] leaves the EOS range "
            f"[{g_min!r}, {g_max!r}] ({_grid(alpha, domain)})")
    launch = _launch_memo(spec, alpha, domain, model)

    def no_crossing():  # names both ends' gaps: the low end is launched here if not yet
        gaps = tuple(launch(g)[0] for g in ends)
        return ("no pressure-gap sign change between distinct-branch gammas "
                f"inside the bracket ({_inputs(alpha, domain, ends, gaps)})")

    start = ends[1] if launch(ends[1])[1] >= _DISTINCT else ends[0]
    if launch(start)[1] < _DISTINCT:
        raise ValueError(no_crossing())
    D = functionals.volume_weights(domain)

    def evaluate(g):
        # dP/dgamma = N on each branch, so the gap's slope is N_max - N_min
        gap, sep, lo, hi = launch(g)
        if sep < _DISTINCT:
            raise ValueError(f"the launches coincide at gamma {g!r}")
        return gap, float(D @ (hi.field.values - lo.field.values)), None

    gamma_gl = _newton_on_gamma(evaluate, start, ends, 0.0, _gamma_xtol, no_crossing,
                                _OUTER_STEPS)[0]
    delta, _, lo, hi = launch(gamma_gl)
    gas = _branch_point(spec, alpha, gamma_gl, lo, model)
    liquid = _branch_point(spec, alpha, gamma_gl, hi, model)
    delta_N = liquid.functionals.N - gas.functionals.N
    floor = 1e-8 * max(1.0, abs(gas.functionals.P), abs(liquid.functionals.P))
    if abs(delta) > max(floor, abs(delta_N) * _gamma_xtol(gamma_gl)):
        raise RuntimeError("pressure gap at the located crossing is too wide "
                           f"({_located(alpha, domain, ends, gamma_gl, delta)})")
    return GrandTransition(gamma_gl=gamma_gl, gas=gas, liquid=liquid, delta_N=delta_N)


def _gamma_xtol(gamma):
    """The Newton on gamma's step resolution, 1e-12 + 8.9e-16 |gamma|."""
    return 1e-12 + 8.9e-16 * abs(gamma)


def _newton_on_gamma(evaluate, gamma, window, ftol, xtol, message, steps, second=None):
    """Safeguarded Newton for the root of a monotone f(gamma) in a window.

    gamma is a chemical potential, or the mass in the petit
    transition's free-energy gap.  evaluate(gamma) returns
    (f, slope, payload); f may rise or fall.
    Until f has been seen with both signs the start and each step are
    clamped into window, and a step clamped onto the gamma just
    evaluated means the root lies beyond the window:
    ValueError(message).  Once both signs are seen, a step leaving
    their bracket bisects it.  message may be a function returning the
    message, called only then.  An evaluation that cannot be had raises
    ValueError and retreats halfway to the last good gamma (a first
    evaluation has none and re-raises).  Stops at |f| <= ftol, at a step
    |f / slope| <= xtol(gamma), or after steps evaluations, and
    returns the last good (gamma, f, payload).  second, a gamma inside
    window, replaces the Newton step from a first evaluation that
    leaves |f| > ftol, whose slope then goes unread.
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
        if second is not None:
            gamma, second = second, None
            continue
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
                raise ValueError(message() if callable(message) else message)
        gamma = g_next
    return good


def constrained_solve(spec, alpha, domain, N_target, model=eos.EosModel(), seed=None):
    """The vapor at fixed mass: the minimal solution at the gamma where N = N_target.

    An evaluation launches `field.minimal_solution`, and the outer
    step `_newton_on_gamma` takes the exact branch slope
    dN/dgamma = D.(I - diag(c) alpha M)^-1 c, c = wp'' of that
    solution (see `_mass_slope`), with gamma kept below the algebraic
    fold gamma_hat.  A sup-norm step more than ten times the size
    predicted from the previous continuation step means the launch
    jumped branches and raises BranchLostError.  Other solutions at
    fixed mass are `droplet_solve`'s.

    seed, a solved (gamma, report) of the minimal branch on a grid of
    the same (R, n), starts the Newton at its gamma, where its report is
    read instead of solved; a seed already at N_target returns at once,
    and a seed of another branch or on another grid raises ValueError
    naming it.  Otherwise one Newton solve from the seed, `field._newton`
    bordered by the mass (D, N_target), the tangent system of
    pseudo-arclength continuation and regular at the fold, carries
    (profile, gamma) to N_target, and the Newton on gamma evaluates that
    gamma second, in place of a step on the seed's slope; the seed stays
    the last good gamma to retreat to.  That evaluation launches
    nothing: the bordered profile is the minimal solution there where
    `field._certificate` accepts it as the limit of the launch from
    wp'(gamma) (see `_certified_vapor`), and holds N_target to Newton's
    tolerance.  A profile it refuses did not follow the seed's branch,
    or cannot be shown to: that evaluation, made once, raises ValueError
    naming gamma and the failed condition, and the Newton retreats
    toward the seed, or steps from it on its slope where the bordered
    solve fails or leaves the window.  Every other evaluation launches,
    and without a seed the Newton starts from the uniform estimate.
    """
    N_target = float(N_target)
    D = functionals.volume_weights(domain)
    volume = float(np.sum(D))
    if not 0.0 < N_target < volume:
        raise ValueError(f"N_target {N_target!r} outside the attainable mass range "
                         f"(0, {volume!r}) ({_grid(alpha, domain)})")
    if seed is not None:
        where = f"minimal mass match from a seed at gamma {seed[0]!r}"
        if seed[1].branch_label != "minimal":
            raise ValueError(f"{where}: the seed is a {seed[1].branch_label} solution")
        grid = seed[1].field.domain
        if (grid.R, grid.n) != (domain.R, domain.n):
            raise ValueError(f"{where}: the seed was solved on another grid (R {grid.R!r}, "
                             f"n {grid.n}), not (R {domain.R!r}, n {domain.n})")

    # wp'(gamma + u) must stay invertible for 0 <= u < alpha phi (eta < 1);
    # the minimal branch ends at the algebraic fold gamma_hat: keep Newton
    # from extrapolating across it before it has a bracket
    phi = kernels.phi_lambda(spec, domain.R)
    g_floor, g_ceil = model.gamma_range()
    g_ceil -= alpha * phi
    # the whole-space folds exist only for an integrable kernel
    atau = 0.0 if spec.a_n else alpha * kernels.l1_norm_r3(spec)
    if atau > uniform.ALPHA_TAU_MIN:
        g_ceil = uniform.gamma_boundaries(atau)[1] - 1e-9
    attraction = field._Attraction(spec, alpha, domain)
    ftol = _MASS_RTOL * max(1.0, N_target)
    history = []  # (gamma, values) of accepted inner solves
    predicted = None  # the bordered solve's (gamma, profile, steps), carried from the seed

    def evaluate(g):
        nonlocal predicted
        if seed is not None and g == seed[0]:
            rep = seed[1]
        elif predicted is not None and g == predicted[0]:  # once, so that no step cycles on it
            (_, eta, steps), predicted = predicted, None
            rep = _certified_vapor(attraction, model, g, eta, steps)
        else:
            rep = field.minimal_solution(spec, alpha, g, domain, model=model)
        v = rep.field.values
        if len(history) >= 2:
            (g1, v1), (g0, v0) = history[-1], history[-2]
            dg = abs(g1 - g0)
            if dg > 0.0:
                expected = np.max(np.abs(v1 - v0)) / dg * abs(g - g1)
                if np.max(np.abs(v - v1)) > _JUMP_FACTOR * expected + 1e-9:
                    raise BranchLostError(f"minimal branch lost near gamma {g:.6f}: "
                                          "sup-norm step exceeds ten times the prediction")
        history.append((g, v))
        h = float(D @ v) - N_target
        # a met target ends the Newton before it reads the slope, and a
        # prediction replaces the step from the first evaluation, the seed's
        if abs(h) <= ftol or (predicted is not None and g == seed[0]):
            return h, None, rep
        return h, _mass_slope(model, attraction, D, v), rep

    if seed is not None and abs(float(D @ seed[1].field.values) - N_target) > ftol:
        try:
            eta, _, _, steps, g = field._newton(attraction, seed[0], model,
                                                seed[1].field.values, field._NEWTON_TOL,
                                                field._NEWTON_STEPS, border=(D, N_target))
            predicted = (g, eta, steps) if g_floor <= g <= g_ceil else None
        except (RuntimeError, ValueError):  # the match steps from the seed on its slope
            pass
    mean = N_target / volume
    gamma0 = model.gamma_at(mean) - alpha * phi * mean if seed is None else seed[0]
    gamma, h, report = _newton_on_gamma(
        evaluate, float(gamma0), (g_floor, g_ceil), ftol, lambda g: 1e-15 * max(1.0, abs(g)),
        f"N_target {N_target!r} appears beyond the minimal branch's fold "
        f"({_grid(alpha, domain)}; gamma window [{g_floor!r}, {g_ceil!r}])", _OUTER_STEPS + 1,
        None if predicted is None else predicted[0],
    )
    if abs(h) > ftol:
        raise ValueError(f"no mass match within {_OUTER_STEPS} outer steps on the minimal "
                         f"branch; N_target {N_target!r} may be outside its range "
                         f"({_grid(alpha, domain)}; last gamma {gamma!r}, mass gap {h:.6e})")
    return _branch_point(spec, alpha, gamma, report, model)


def _certified_vapor(attraction, model, gamma, eta, steps):
    """The bordered profile eta at gamma as the minimal solution there, by `field._certificate`.

    The launch at gamma would climb from the constant subsolution
    wp'(gamma); eta is its limit where it lies above that start, its
    fixed-point residual, computed here, is below the loop's, and the
    contraction bound over [wp'(gamma), eta] is below 1.  The report,
    labelled minimal and up, counts the bordered solve's Newton steps.
    Otherwise ValueError names gamma and the failed condition.
    """
    u = attraction.apply(eta)
    # wp'(gamma + u), then the start wp'(gamma), in one lane-wise inversion
    image = np.asarray(model.wp_prime(np.append(gamma + u, gamma)))
    residual = float(np.max(np.abs(image[:-1] - eta)))
    start = np.full(eta.size, image[-1])
    failed, _ = field._certificate(attraction, gamma, model, start, eta, residual, "up",
                                   np.ones(eta.size))
    if failed is not None:
        raise ValueError(f"the bordered profile at gamma {gamma!r} is not certified minimal: "
                         f"{failed[1]}")
    report = field._report(attraction.domain, eta, gamma, u, steps, residual, "up")
    return field._labelled(report, "minimal", "up")


def _mass_slope(model, attraction, D, v):
    """Branch slope dN/dgamma = D.(I - diag(c) alpha M)^-1 c at v, c = wp'', by `_Attraction`."""
    c = model.response_at(v)
    return float(D @ attraction.solve(c, c))


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
    eta_M = uniform.largest_root(atau, gamma_hat)

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


def droplet_trial(domain, N, ball_fraction):
    """Uniform ball of mass N on a floor of 1e-12, as droplet seed and comparator.

    The ball holds the fraction ball_fraction of the container volume;
    its radius is snapped to the nearest nonzero panel edge so the
    quadrature sees a clean cut, or to the first edge above it whose
    ball holds N below unit fraction, and the ball density absorbs the
    floor's mass so the discrete mass equals N exactly.
    """
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
    # edge 0 holds no node; the whole container holds N below unit fraction
    nearest = max(1, int(np.argmin(np.abs(edges - domain.R * ball_fraction ** (1.0 / 3.0)))))
    for r_ball in edges[nearest:]:
        inside = domain.nodes <= r_ball
        covered = float(D @ inside)
        density = (N - _TRIAL_FLOOR * (volume - covered)) / covered
        if density < 1.0:
            break
    if not _TRIAL_FLOOR < density:
        raise ValueError("the trial ball's density does not exceed the floor")
    return field.DensityField(domain, np.where(inside, density, _TRIAL_FLOOR))


def _gamma_for_mass(model, D, u, N, seed):
    """Chemical potential gamma at which eta = wp'(gamma + u) has mass N.

    Returns (gamma, eta).  The start linearizes each lane about seed,
    the profile the caller holds; each step of `_newton_on_gamma` is
    one `wp_prime` inversion, with slope D.wp'' read off it by
    `EosModel.response_at`.  The window is where every lane gamma + u
    is invertible; a target outside it raises ValueError.  The solve
    stops once the step is below the inversion's resolution
    1e-12 max(1, |gamma + u|).
    """
    g_min, g_max = model.gamma_range()
    u_lo, u_hi = float(np.min(u)), float(np.max(u))
    # keep every lane strictly inside the range after rounding of gamma + u
    bottom = g_min - u_lo + 1e-12 * (abs(g_min) + abs(u_lo))
    top = g_max - u_hi - 1e-12 * (abs(g_max) + abs(u_hi))
    u_abs = float(np.max(np.abs(u)))

    def evaluate(g):
        eta = np.asarray(model.wp_prime(g + u), dtype=float)
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

    Runs the fixed-point loop `field._fixed_point` on a one-column
    block with gamma re-solved every step by `_gamma_for_mass` (Newton
    on gamma, started from the current profile), whose profile at that
    gamma is the next iterate, under Picard's stopping rule.  The
    droplet minimizes F under the mass constraint, so this iteration
    converges from a crude ball trial where fixed-gamma Newton stalls;
    the default start is a `droplet_trial` at the density eta_hat_M.
    At the first step where it converges slowly (change ratio above
    0.9, n <= 512; not Picard's cost rule, which would fire earlier and
    widen the acceptance window below) one bordered Newton solve in
    (eta, gamma) on the mass-constrained system cuts its tail short,
    see `field._NewtonFinish`; the Newton limit is taken only where the
    iteration is heading, within twice its predicted remaining
    distance, and otherwise the iteration runs on with no second solve.
    The report's iterations count mass-matched steps plus Newton steps.
    A ValueError or RuntimeError of the iteration, a mass it cannot
    match or a loop that does not converge, is raised again as its own
    type with N, alpha, R and n added.  The converged gamma is the
    chemical potential of the droplet, and the profile solves the
    fixed-gamma equation to the usual residual.
    """
    D = functionals.volume_weights(domain)
    N = float(N)
    if start is None:
        eta_big = droplet_criterion(spec, alpha)["eta_hat_M"]
        start = droplet_trial(domain, N, min(0.9, N / (eta_big * float(np.sum(D)))))
    attraction = field._Attraction(spec, alpha, domain)

    def rule(cols, U, V):  # the block's one column
        gamma, eta = _gamma_for_mass(model, D, U[:, 0], N, V[:, 0])
        return np.array([gamma]), eta[:, None]

    finishes = [field._NewtonFinish(attraction, model, border=(D, N))
                if attraction.finishable else None]
    try:
        [(report, gamma)] = field._fixed_point(
            attraction, model, start.values[:, None], rule, _DROPLET_STEPS, _DROPLET_TOL,
            finishes,
        )
    except (ValueError, RuntimeError) as exc:  # the same type, so that callers retreat as before
        raise type(exc)(f"{exc} (droplet at N {N!r}, {_grid(alpha, domain)})") from exc
    if check_collapse:
        vapor = field.minimal_solution(spec, alpha, gamma, domain, model=model)
        if float(np.max(np.abs(report.field.values - vapor.field.values))) < _COLLAPSED:
            raise BranchLostError(
                "mass-constrained iteration collapsed onto the vapor branch "
                f"at N {N!r}, gamma {gamma!r}"
            )
    report.monotone_direction, report.branch_label = "none", "middle"
    return _branch_point(spec, alpha, gamma, report, model)


def petit_canonical_transition(spec, alpha, domain, N_bracket=None, model=eos.EosModel(),
                               gamma_gl=None, gamma_bracket=None):
    """Locate the vapor/droplet free-energy crossing at fixed mass.

    `brentq` brackets the sign change of F[vapor] - F[droplet] in the
    mass to 1e-4; at masses where the droplet collapses onto the vapor
    the gap is scored for the vapor side, so the mass window where no
    droplet exists is stepped over instead of mistaken for a crossing.
    From brentq's root `_newton_on_gamma` closes the gap on the mass,
    on the slope dF/dN = Gamma per branch, to 1e-8 max(1, |F[vapor]|)
    at that root, within N_bracket, retreating from a mass with no
    droplet; a gap still open after nine
    evaluations raises RuntimeError naming alpha, R, n, N_bracket, the
    mass reached and the gap left.  Needs the gas/liquid coexistence
    point for the embedding report: pass gamma_gl to launch the pair
    there once, or gamma_bracket (None: the algebraic band) to have it
    located here by `grand_canonical_transition`, which checks the
    bracket against the EOS range first and whose gas and liquid
    are then reused.  N_bracket defaults to the gas's mass and the mass
    of the vapor at gamma_hat, which is launched only then.

    Each vapor is a `constrained_solve` seeded with the vapor solved
    before it, the first with the gas at gamma_gl, so the first Newton
    evaluation of each reads its seed instead of launching, and a vapor
    at its seed's mass is the seed.  Its second evaluation, at the gamma
    of the mass-bordered Newton solve from the seed, takes that solve's
    profile, certified minimal, so that a vapor most often costs no
    launch and holds its mass to Newton's tolerance.
    """
    crit = droplet_criterion(spec, alpha)
    if not crit["fires"]:
        raise ValueError("droplet criterion does not fire, so no droplet branch is expected: "
                         f"alpha l1 {crit['lhs']!r} is not above {crit['rhs']!r} "
                         f"({_grid(alpha, domain)})")

    if gamma_gl is None:
        grand = grand_canonical_transition(spec, alpha, domain, gamma_bracket, model)
        gamma_gl, gas, liquid = grand.gamma_gl, grand.gas, grand.liquid
    else:
        gamma_gl = float(gamma_gl)
        [(lo, hi)] = field.extremal_pairs(spec, alpha, [gamma_gl], domain, model=model)
        gas = _branch_point(spec, alpha, gamma_gl, lo, model)
        liquid = _branch_point(spec, alpha, gamma_gl, hi, model)

    hat = None  # the vapor at gamma_hat, where the vapor mass peaks
    if N_bracket is None:
        gamma_hat = uniform.gamma_boundaries(alpha * kernels.l1_norm_r3(spec))[1]
        hat_report = field.minimal_solution(spec, alpha, gamma_hat, domain, model=model)
        hat = _branch_point(spec, alpha, gamma_hat, hat_report, model)
        N_bracket = (gas.functionals.N, hat.functionals.N)
    n_lo, n_hi = float(N_bracket[0]), float(N_bracket[1])
    if not n_lo < n_hi:
        raise ValueError(f"N_bracket {(n_lo, n_hi)} must be increasing ({_grid(alpha, domain)})")

    droplet_cache = []  # (N, values) for warm starts
    last_vapor = [(gamma_gl, gas.solution)]  # the seed of the next vapor mass match

    def vapor_at(n):
        # solving at gamma_hat directly avoids Newton steps against the fold
        if hat is not None and abs(n - hat.functionals.N) <= 1e-9 * max(1.0, hat.functionals.N):
            return hat
        point = constrained_solve(spec, alpha, domain, n, model=model, seed=last_vapor[0])
        last_vapor[0] = (point.gamma, point.solution)
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
        if sep < _COLLAPSED:
            # no droplet at this mass; score for the vapor side, and do
            # not let the collapsed profile seed later droplet solves
            return vapor, None, -1e-3 * max(1.0, abs(vapor.functionals.F))
        droplet_cache.append((n, droplet.solution.field.values))
        return vapor, droplet, vapor.functionals.F - droplet.functionals.F

    def gap(n):
        # dF/dN = Gamma on each branch, so the gap's slope is Gamma_v - Gamma_d
        vapor, droplet, fgap = points(n)
        if droplet is None:  # the Newton retreats from a mass with no droplet
            raise ValueError(f"droplet branch unavailable at mass {n!r}")
        return fgap, vapor.gamma - droplet.gamma, (vapor, droplet)

    gap_lo, gap_hi = points(n_lo)[2], points(n_hi)[2]
    if gap_lo == 0.0 or gap_hi == 0.0 or (gap_lo < 0.0) == (gap_hi < 0.0):
        raise ValueError(
            "free-energy gap does not change sign over the mass bracket "
            f"({_inputs(alpha, domain, (n_lo, n_hi), (gap_lo, gap_hi))})"
        )
    n_vd = float(brentq(
        lambda n: points(n)[2], n_lo, n_hi, xtol=1e-4, rtol=8.9e-16,
    ))
    ftol = 1e-8 * max(1.0, abs(points(n_vd)[0].functionals.F))
    n_vd, fgap, (vapor, droplet) = _newton_on_gamma(
        gap, n_vd, (n_lo, n_hi), ftol, lambda n: 0.0,
        "the free-energy crossing left the mass bracket", 9,
    )
    if abs(fgap) > ftol:
        raise RuntimeError("free-energy gap failed to close at the crossing "
                           f"({_located(alpha, domain, (n_lo, n_hi), n_vd, fgap)})")

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
    """gamma_gl +- 1e-6 max(1, |gamma_gl|), clipped to gamma_bracket.

    gamma_gl is `grand_canonical_transition`'s; both ends are checked to
    have distinct launches and pressure gaps of opposite sign.
    """
    g = grand_canonical_transition(spec, alpha, domain, gamma_bracket, model).gamma_gl
    h = 1e-6 * max(1.0, abs(g))
    ends = (max(g - h, float(gamma_bracket[0])), min(g + h, float(gamma_bracket[1])))
    launch = _launch_memo(spec, alpha, domain, model)
    (gap_lo, sep_lo), (gap_hi, sep_hi) = (launch(e)[:2] for e in ends)
    if min(sep_lo, sep_hi) < _DISTINCT or gap_lo * gap_hi >= 0.0:
        raise ValueError(
            "no pressure-gap sign change between distinct-branch gammas "
            f"inside the bracket ({_inputs(alpha, domain, ends, (gap_lo, gap_hi))})"
        )
    return ends


def _grid(alpha, domain):
    """alpha and the grid, for an error message."""
    return f"alpha {alpha!r}, R {domain.R!r}, n {domain.n}"


def _inputs(alpha, domain, bracket, gaps):
    """alpha, the grid, a bracket and the gap at each of its ends, for an error message."""
    (a, b), (gap_a, gap_b) = bracket, gaps
    return (f"{_grid(alpha, domain)}; bracket ends {a!r} and {b!r}, "
            f"gaps {float(gap_a):.6e} and {float(gap_b):.6e}")


def _located(alpha, domain, bracket, point, gap):
    """alpha, the grid, a bracket, the point located in it and the gap left there."""
    return (f"{_grid(alpha, domain)}; bracket ends {bracket[0]!r} and {bracket[1]!r}, "
            f"located at {point!r}, gap left {float(gap):.6e}")


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
