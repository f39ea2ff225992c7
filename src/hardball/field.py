"""Radial container solver for the attractive hard-sphere gas.

Solves the fixed-point equation eta(r) = wp'(gamma - (alpha V*eta)(r))
on a ball B_R.  The 3D convolution against a radial kernel reduces to a
one-dimensional integral through the ring primitive of `kernels`, so
one matrix M turns the nonlocal equation into a map on node values.  Up
to 512 nodes, and for any kernel with a van der Waals part, M is
assembled densely.  Above that, Yukawa and Newton kernels apply M
through `RingOperator` in O(n p) with no n x n array: off the p x p
panel blocks M is the rank-one radial Green's function in each
triangle, so cumulative sums and a block-diagonal correction do the
convolution.  Consumers that factor M or form its Jacobian (Newton,
mass slopes, f_stability) still get the dense matrix, assembled on
their first request.  Monotone Picard iteration reaches the extremal
solutions from constant sub- and supersolutions; damped Newton reaches
the unstable branch inbetween; a handful of closed-form predicates
settle existence, uniqueness, and fluid-range membership a priori.

One private loop, `_fixed_point`, iterates eta -> wp'(gamma + alpha M eta)
for a rule that picks gamma from the potential and hands back the
profile there: a constant for Picard, the mass-holding multiplier for
`phase.droplet_solve`.  Every SolveReport is built by `_report`, the
one home of the certified-fluid rule.  One private damped Newton loop,
`_newton`, serves `newton_solve` and `_NewtonFinish`, the finish of
slowly converging fixed-point sequences.  For a monotone Picard launch
the finish keeps the extremal labels: the Newton limit v* replaces the
Picard limit only when v* lies beyond the last monotone iterate v_k,
so the Picard limit lies in the order interval between them, and a
Collatz-Wielandt bound shows the map to be a contraction on that
interval, so the interval holds one fixed point.  For the droplet's
mass-matched iteration the loop carries a mass border, with gamma as
one more unknown, and its limit is accepted only where the iteration
is heading: within twice the geometric tail of its remaining changes.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import eos, kernels, uniform

__all__ = [
    "RadialDomain",
    "DensityField",
    "SolveReport",
    "PredicateReport",
    "make_domain",
    "constant_field",
    "apply_kernel",
    "convolve",
    "convolve_at",
    "picard_iterate",
    "minimal_solution",
    "maximal_solution",
    "subsolution_launch",
    "newton_solve",
    "predicates",
    "write_csv",
    "read_csv",
]

_FLUID_MARGIN = 1e-9  # strict margin for the certified-fluid flag
_RESIDUAL_TOL = 1e-9  # fixed-point residual required on top of the change test
_ASSEMBLY_ROWS = 64  # rows of the ring matrix assembled per elementwise pass
_STALL_STEPS, _STALL_CUT = 8, 0.99  # Newton stalls: 8 accepted steps, < 1% cut
_NEWTON_TOL, _NEWTON_STEPS = 1e-12, 60  # Newton's residual target and step limit
_PICARD_STEPS = 20000  # fixed-point iterations after which Picard gives up
_FINISH_FROM = 3  # the finish arms from step 3; step 2 compares with the first step
_FINISH_RATIO = 0.9  # the bordered finish arms at a change ratio above 0.9
# A certified finish's cost in Picard steps, calibrated on one BLAS thread by the
# script in BENCH_newton_cost.json: at the node counts _COST_NODES, a Newton step's
# Jacobian build and solve (_DENSE_COST, on top of its residual) and one power step
# of the certificate (_POWER_COST); a finish takes about _FINISH_STEPS Newton steps
# and _FINISH_POWER power steps
_COST_NODES = (64, 128, 256, 512)
_DENSE_COST = (0.41, 1.2, 5.7, 19.0)
_POWER_COST = (0.085, 0.092, 0.12, 0.23)
_FINISH_STEPS, _FINISH_POWER = 4.5, 17.0
_DENSE_MAX = 512  # largest node count for the Newton finish and the dense ring matrix
_SEGMENT = 500.0  # kappa-length of one segment of RingOperator's discounted sums
_POWER_STEPS, _POWER_MOVED = 100, 1e-10  # power steps per contraction bound, at most


@dataclass(eq=False)
class RadialDomain:
    """Composite quadrature grid on [0, R].

    nodes and weights integrate smooth functions of s against ds; the
    s^2 volume factor is applied by the caller.  edges carries the
    panel boundaries when the grid is panel-structured, which the
    convolution assembly needs to split integrands at their kink.
    """

    R: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray | None = None
    _rings: dict = dc_field(default_factory=dict, repr=False)
    _ring_lock: threading.Lock = dc_field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.shape != (self.n,) or self.weights.shape != (self.n,):
            raise ValueError("nodes and weights must both have length n")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.nodes <= 0) or np.any(self.nodes >= self.R):
            raise ValueError("nodes must lie strictly inside (0, R)")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        third = float(self.weights @ self.nodes**2)
        if abs(third - self.R**3 / 3.0) > 1e-12 * self.R**3 / 3.0:
            raise ValueError("weights do not reproduce int_0^R s^2 ds")
        if self.edges is not None:
            # the panel split reads each panel's nodes off these edges
            e = self.edges = np.asarray(self.edges, dtype=float)
            if e.ndim != 1 or e.size < 2 or np.any(np.diff(e) <= 0):
                raise ValueError("edges must be strictly increasing")
            if e[0] != 0.0 or e[-1] != self.R:
                raise ValueError("edges must run from 0 to R")
            if self.n % (e.size - 1) or self.n // (e.size - 1) < 2:
                raise ValueError("n must be a multiple of the panel count, "
                                 "with at least 2 nodes per panel")
            pn = self.nodes.reshape(e.size - 1, -1)
            if np.any(pn[:, 0] <= e[:-1]) or np.any(pn[:, -1] >= e[1:]):
                raise ValueError("panel nodes must lie strictly inside their edges")


def make_domain(R, n=512, panel=8):
    """Composite Gauss-Legendre grid: n/panel equal panels on [0, R]."""
    if n <= 0 or panel < 2 or n % panel:
        raise ValueError("n must be a positive multiple of the panel size")
    x, w = np.polynomial.legendre.leggauss(panel)
    edges = np.linspace(0.0, R, n // panel + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return RadialDomain(R=float(R), n=n, nodes=nodes, weights=weights, edges=edges)


@dataclass(eq=False)
class DensityField:
    """Volume fraction per node; always strictly inside (0, 1)."""

    domain: RadialDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.n,):
            raise ValueError("values must match the domain's node count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if np.any(self.values <= 0.0) or np.any(self.values >= 1.0):
            raise ValueError("volume fractions must lie strictly in (0, 1)")


@dataclass(eq=False)
class SolveReport:
    """Outcome of one solve.

    certification is only set by maximal_solution: "fluid-ceiling" when
    the freezing constant itself was the supersolution, so the result
    is maximal among all fluid fields; "algebraic-ceiling" when only an
    algebraic root was available, certifying maximality below that root.
    iterations counts fixed-point steps plus, for a solve with a Newton
    finish, the finishing Newton steps.  A finished Picard profile is
    the monotone limit the labels speak of, by the contraction
    certificate of `picard_iterate`, to Newton's residual.  residual is
    max|wp'(gamma + u) - eta| by an inversion seeded by eta: 0.0 means each
    lane meets the EOS tolerance 1e-12 max(1, |gamma + u|), not an exact solution.
    """

    field: DensityField
    iterations: int
    residual: float
    monotone_direction: str  # up | down | none
    branch_label: str  # minimal | maximal | middle | other
    certified_fluid: bool
    certification: str = ""


@dataclass(frozen=True)
class PredicateReport:
    """A-priori yes/no facts about the solution set at (alpha, gamma)."""

    existence_sufficient: bool
    all_fluid_sufficient: bool
    no_nonfluid_sufficient: bool
    no_fluid_necessaryviolation: bool
    uniqueness_contraction: bool
    triple_candidate: bool


def constant_field(domain, value):
    """Constant density field on the given grid."""
    return DensityField(domain, np.full(domain.n, float(value)))


def _ring_matrix(spec, domain, targets):
    """Matrix M with (M @ eta)(t) = -(V*eta)(t) for the ball B_R.

    Row t discretizes (2pi/t) int_0^R s eta(s) [prim(t+s) - prim(|t-s|)] ds.
    prim(|t-s|) has a kink at s = t whenever the kernel has a nonzero
    contact value s(-V(s)) at s = 0+, so the panel containing an interior
    target is re-integrated in two smooth halves against the panel's own
    Lagrange basis, evaluated in barycentric form.  A zero target radius
    uses the limit row 4 pi int s^2 (-V(s)) eta(s) ds instead of the 2pi/t
    reduction.  Both the dense rows and the panel split are assembled a
    block of rows at a time, so the temporaries of the elementwise
    expressions stay block-sized.
    """
    t = np.asarray(targets, dtype=float)
    s = domain.nodes
    w = domain.weights
    M = np.zeros((t.size, s.size))

    pos = t > 0.0
    rows = np.flatnonzero(pos)
    for start in range(0, rows.size, _ASSEMBLY_ROWS):
        block = rows[start:start + _ASSEMBLY_ROWS]
        tp = t[block][:, None]
        ring = kernels.ring_primitive(spec, tp + s) - kernels.ring_primitive(
            spec, np.abs(tp - s)
        )
        M[block] = (2.0 * math.pi / tp) * w * s * ring
    if np.any(~pos):
        M[~pos] = 4.0 * math.pi * w * s**2 * (-kernels.kernel_eval(spec, s))

    if domain.edges is not None:
        panel = s.size // (domain.edges.size - 1)
        for block, kb, vals in _panel_split(spec, domain, t):
            M[block[:, None], kb[:, None] * panel + np.arange(panel)] = vals
    return M


def _panel_split(spec, domain, t):
    """The re-integrated panel rows of `_ring_matrix`, a block of targets at a time.

    Yields (rows, panels, values): the targets among t strictly inside a
    panel, the index of that panel, and each target's row over the
    panel's own nodes, split at the target's kink.
    """
    s = domain.nodes
    edges = domain.edges
    pn = s.reshape(edges.size - 1, -1)  # the nodes of each panel
    panel = pn.shape[1]
    xg, wg = np.polynomial.legendre.leggauss(panel)
    gap = pn[:, :, None] - pn[:, None, :]
    gap[:, np.arange(panel), np.arange(panel)] = 1.0
    bw = 1.0 / np.prod(gap, axis=2)  # barycentric weights of each panel
    k = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, edges.size - 2)
    rows = np.flatnonzero((edges[k] < t) & (t < edges[k + 1]))
    for start in range(0, rows.size, _ASSEMBLY_ROWS):
        block = rows[start:start + _ASSEMBLY_ROWS]
        kb = k[block]
        tb = t[block][:, None, None]
        a, b = edges[kb][:, None, None], edges[kb + 1][:, None, None]
        lo = np.concatenate((a, tb), axis=1)  # (T, 2, 1): the two halves
        hi = np.concatenate((tb, b), axis=1)
        xs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg  # (T, 2, p) Gauss points
        ws = 0.5 * (hi - lo) * wg
        ring = kernels.ring_primitive(spec, tb + xs) - kernels.ring_primitive(
            spec, np.abs(tb - xs)
        )
        # Lagrange basis of the target's panel at every Gauss point, (T, 2, p, p)
        diff = xs[..., None] - pn[kb][:, None, None, :]
        exact = np.abs(diff) <= 1e-300
        terms = bw[kb][:, None, None, :] / np.where(exact, 1.0, diff)
        basis = terms / terms.sum(axis=3, keepdims=True)
        hit = exact.any(axis=3)
        basis[hit] = exact[hit]
        row = np.einsum("tqi,tqij->tj", ws * xs * ring, basis)
        yield block, kb, (2.0 * math.pi / t[block])[:, None] * row


class _Discount:
    """S_i = sum over j <= i of e^(x_j - x_i) Y_j along increasing x, in O(n).

    One cumulative sum per segment of x-length at most _SEGMENT, its
    terms scaled from the segment's first node, so no exponential
    overflows; each segment's total is carried into the next.
    """

    def __init__(self, x):
        starts = [0]
        while True:
            nxt = int(np.searchsorted(x, x[starts[-1]] + _SEGMENT, side="right"))
            if nxt >= x.size:
                break
            starts.append(nxt)
        ref = np.repeat(x[starts], np.diff(starts + [x.size]))
        self.grow, self.decay = np.exp(x - ref)[:, None], np.exp(ref - x)[:, None]
        self.hops = np.exp(x[starts[:-1]] - x[starts[1:]])
        self.bounds = list(zip(starts, starts[1:] + [x.size]))

    def __call__(self, Y):
        out = np.empty_like(Y)
        for k, (a, b) in enumerate(self.bounds):
            c = np.cumsum(self.grow[a:b] * Y[a:b], axis=0)
            if k:
                c += self.hops[k - 1] * carry
            out[a:b] = self.decay[a:b] * c
            carry = c[-1]
        return out


class RingOperator:
    """The node-to-node ring matrix of a kernel with no van der Waals part, in O(n p).

    Off the panel split, entry (i, j) of `_ring_matrix` is (2 pi/t_i)
    w_j s_j G(t_i, s_j), with the radial Green's function G(t, s) =
    (2 a_y/kappa) e^(-kappa max) sinh(kappa min) + 2 a_n min, rank one in
    each triangle.  So M = diag(2 pi/t) G diag(w s) + C, and G is applied
    by cumulative sums: e^(-kappa max) sinh(kappa min) = e^(-kappa |t -
    s|) h(min), h(x) = (1 - e^(-2 kappa x))/2, the discounted sums running
    in segments (`_Discount`).  C is block diagonal: each panel's split
    block of `_ring_matrix` minus the same formula on that block.  `@`
    applies M to a vector or to the columns of an (n, k) array, and T is
    the transposed operator (G is symmetric).
    """

    def __init__(self, spec, domain):
        t = domain.nodes
        self.shape = (t.size, t.size)
        self._post, self._pre = (2.0 * math.pi / t)[:, None], (domain.weights * t)[:, None]
        self._t, self._a_n = t[:, None], 2.0 * spec.a_n
        self._a_y = 2.0 * spec.a_y / spec.kappa
        if spec.a_y:
            x = spec.kappa * t
            self._h = (-0.5 * np.expm1(-2.0 * x))[:, None]
            self._up = _Discount(x)
            self._down = _Discount(-x[::-1])
            self._step = np.exp(x[:-1] - x[1:])[:, None]
        self._blocks = None
        if domain.edges is not None:
            panels = domain.edges.size - 1
            split = np.empty((t.size, t.size // panels))
            for block, _, vals in _panel_split(spec, domain, t):
                split[block] = vals
            pn = t.reshape(panels, -1)
            lo = np.minimum(pn[:, :, None], pn[:, None, :])
            hi = np.maximum(pn[:, :, None], pn[:, None, :])
            green = self._a_n * lo
            if spec.a_y:
                k = spec.kappa
                green += self._a_y * np.exp(-k * (hi - lo)) * (-0.5 * np.expm1(-2.0 * k * lo))
            formula = (self._post.reshape(panels, -1, 1) * green
                       * self._pre.reshape(panels, 1, -1))
            self._blocks = split.reshape(panels, -1, split.shape[1]) - formula

    @property
    def T(self):
        op = copy.copy(self)
        op._post, op._pre = self._pre, self._post
        if self._blocks is not None:
            op._blocks = self._blocks.transpose(0, 2, 1)
        return op

    def _green(self, Z):
        """G Z for an (n, k) array Z."""
        out = np.zeros_like(Z)
        if self._a_n:
            above = np.zeros_like(Z)  # sum over j > i of Z_j
            above[:-1] = np.cumsum(Z[:0:-1], axis=0)[::-1]
            out += self._a_n * (np.cumsum(self._t * Z, axis=0) + self._t * above)
        if self._a_y:
            above = np.zeros_like(Z)  # sum over j > i of e^(-kappa(t_j - t_i)) Z_j
            above[:-1] = self._step * self._down(Z[::-1])[::-1][1:]
            out += self._a_y * (self._up(self._h * Z) + self._h * above)
        return out

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        Z = x.reshape(self.shape[1], -1)
        out = self._post * self._green(self._pre * Z)
        if self._blocks is not None:
            panels, p, _ = self._blocks.shape
            out += (self._blocks @ Z.reshape(panels, p, -1)).reshape(out.shape)
        return out.reshape(x.shape)


def _self_ring(spec, domain, dense=False):
    """The node-to-node ring matrix M, or the operator that applies it, cached on the domain.

    Above _DENSE_MAX nodes a kernel with no van der Waals part gets its
    `RingOperator`, which applies M and M^T in O(n p) with no n x n
    array; below, and for van der Waals, the assembled matrix, which
    BLAS applies faster there and the Newton finishes need anyway.
    dense=True asks for the assembled matrix at any n, for the
    consumers that factor or form M; it is assembled on the first such
    request.  The check-and-assemble holds the domain's lock, so sweep
    threads sharing a domain build each once.
    """
    structured = not dense and domain.n > _DENSE_MAX and not spec.a_w
    with domain._ring_lock:
        key = (spec, structured)
        if key not in domain._rings:
            domain._rings[key] = (RingOperator(spec, domain) if structured
                                  else _ring_matrix(spec, domain, domain.nodes))
        return domain._rings[key]


def apply_kernel(spec, alpha, domain, values):
    """alpha(-V * values) on the grid, for arbitrary node values.

    The density-field validation is skipped, so perturbations and other
    signed fields can reuse the same cached ring matrix or operator;
    values may be one field or the columns of an (n, k) array.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return alpha * (_self_ring(spec, domain) @ np.asarray(values, dtype=float))


def convolve(spec, alpha, fld):
    """Attractive potential -(alpha V*eta) on the field's own grid; positive."""
    return apply_kernel(spec, alpha, fld.domain, fld.values)


def convolve_at(spec, alpha, fld, radii):
    """Attractive potential -(alpha V*eta) at arbitrary radii >= 0."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    r = np.asarray(radii, dtype=float)
    if np.any(r < 0):
        raise ValueError("radii must be non-negative")
    out = alpha * (_ring_matrix(spec, fld.domain, np.atleast_1d(r)) @ fld.values)
    return float(out[0]) if np.ndim(radii) == 0 else out


def _report(domain, values, gamma, u, iterations, residual, direction="none"):
    """SolveReport of a converged field, with the certified-fluid rule.

    The field is certified fluid when every argument gamma + u stays
    strictly below the freezing chemical potential.
    """
    return SolveReport(
        field=DensityField(domain, values),
        iterations=iterations,
        residual=residual,
        monotone_direction=direction,
        branch_label="other",
        certified_fluid=bool(np.max(gamma + u) < eos.GAMMA_FS - _FLUID_MARGIN),
    )


def _fixed_point(M, alpha, model, eta0, gamma_rule, max_iter, tol, finish=None):
    """Iterate eta -> wp'(gamma + u), u = alpha M eta, with gamma_rule(u, eta).

    gamma_rule returns gamma and the new profile wp'(gamma + u), each
    EOS inversion seeded by the current profile.  The one loop behind
    the grand problem (gamma_rule a constant) and the mass-constrained
    one (gamma_rule the Lagrange multiplier that holds the mass, which
    holds the profile at the gamma it returns).  Stops only when the
    sup-norm change drops below tol AND the residual at the last step's
    gamma drops below 1e-9, so a stalled sequence runs into max_iter
    and raises instead of reporting false convergence.  The monotone
    direction is read off the first step.  finish, if given, is offered
    every later iterate that has not yet stopped, as finish(iteration,
    eta, gamma, change, direction); a non-None answer (profile,
    potential, residual, steps, gamma) ends the loop there, with its
    steps added to the iteration count and its gamma returned.
    Returns the report and the last gamma.
    """
    v = eta0.values
    direction, gamma, change = "none", None, math.inf
    for it in range(1, max_iter + 1):
        u = alpha * (M @ v)
        gamma, new = gamma_rule(u, v)
        if np.any(new >= 1.0) or np.any(new <= 0.0):
            raise ValueError("iteration left the volume-fraction range (0, 1) "
                             f"at gamma {gamma!r}, iteration {it}")
        change = float(np.max(np.abs(new - v)))
        if it == 1:
            scale = 1e-14 * max(1.0, float(np.max(np.abs(v))))
            if change <= scale:
                direction = "none"
            elif np.all(new >= v - scale):
                direction = "up"
            elif np.all(new <= v + scale):
                direction = "down"
        v = new
        if change < tol:
            u = alpha * (M @ v)
            res = float(np.max(np.abs(
                np.asarray(model.wp_prime(gamma + u, seed=v)) - v
            )))
            if res < _RESIDUAL_TOL:
                return _report(eta0.domain, v, gamma, u, it, res, direction), gamma
        if finish is not None:
            done = finish(it, v, gamma, change, direction)
            if done is not None:
                star, u, res, steps, gamma = done
                return _report(eta0.domain, star, gamma, u, it + steps, res,
                               direction), gamma
    raise RuntimeError(f"no convergence within {max_iter} iterations: last gamma "
                       f"{gamma!r}, sup-norm change {change:.3e}")


def _contraction_bound(aM, absM, gamma, model, lo, hi, y):
    """Collatz-Wielandt bound on the Picard map's contraction over [lo, hi].

    T(eta) = wp'(gamma + aM eta), aM = alpha M, absM = |aM|.  Over the
    order interval lo <= eta <= hi the argument at node i stays within
    gamma + (aM lo)_i - s_i .. gamma + (aM hi)_i + s_i, s the negative
    part of aM applied to hi - lo, and wp'' there is at most r_i, its
    value at gamma_wr clipped into that range (the fluid wp'' is
    unimodal in gamma with its peak at gamma_wr).  So |T(a) - T(b)| <=
    B|a - b| with B = diag(r) absM, and for every positive y,
    max_i (By)_i/y_i bounds the contraction of T in the y-weighted sup
    norm (Varga, Matrix Iterative Analysis): below 1, T has at most one
    fixed point in [lo, hi].  Power steps y -> By/max(By) from the given
    positive y keep it positive (absM has a positive diagonal) and turn
    it toward the Perron vector of B, where the bound is rho(B); they
    stop once the bound drops below 1, once min_i (By)_i/y_i reaches 1
    (a lower bound on rho(B), so then no y gives a bound below 1), once
    y moves by at most 1e-10 of its largest entry, or after 100 steps.
    Returns the smallest bound seen, or inf when an argument reaches the
    hard-sphere kink, and the last y, from which a later call goes on.
    """
    ulo, uhi = aM @ lo, aM @ hi
    spread = np.maximum(0.5 * (absM @ (hi - lo) - (uhi - ulo)), 0.0)
    glo, ghi = gamma + ulo - spread, gamma + uhi + spread
    if model.mode == eos.MODE_HARD_SPHERE and np.max(ghi) >= model.gamma_fs:
        return math.inf, y
    peak = np.clip(model.gamma_wr, glo, ghi)
    r = model.response_at(np.asarray(model.wp_prime(peak, seed=hi)))
    bound = math.inf
    for _ in range(_POWER_STEPS):
        By = r * (absM @ y)
        ratios = By / y
        bound = min(bound, float(np.max(ratios)))
        z = By / np.max(By)
        moved = float(np.max(np.abs(z - y)))
        y = z
        if bound < 1.0 or np.min(ratios) >= 1.0 or moved <= _POWER_MOVED:
            break
    return bound, y


def _finish_cost(n):
    """Predicted cost of a certified Newton finish at n nodes, in Picard steps."""
    return (_FINISH_STEPS * (1.0 + float(np.interp(n, _COST_NODES, _DENSE_COST)))
            + _FINISH_POWER * float(np.interp(n, _COST_NODES, _POWER_COST)))


class _NewtonFinish:
    """Newton finish of one slowly converging fixed-point sequence.

    `_fixed_point` offers it every iterate v_k with the gamma of that
    step.  It arms at the first step where the sequence is slow, and
    fires once the change has halved since then at a step where it
    still is: the sequence is slow and converging, not sliding through
    a bottleneck, where a Newton solve from v_k fails.  Firing runs one
    damped Newton solve from v_k to a limit v*; the solve gives up as
    soon as a step cuts the residual by less than that fixed-point step
    cut the change, for the iteration then does as well far more
    cheaply.  A failed or refused solve leaves plain iteration.

    At fixed gamma (no border) only monotone sequences are finished,
    and slow means that the Picard steps still ahead cost more than a
    finish.  At the ratio q of the last two changes about
    log(tol/change)/log(q) steps remain (without end once q >= 1), tol
    the loop's change tolerance; `_finish_cost` prices the finish's
    Newton steps and certificate power steps in Picard steps at this
    n.  The limit v* is certified.  If v* lies beyond v_k (up to
    Newton's tolerance), the Picard limit L lies in the order interval
    between them ([v_k, v*] going up, [v*, v_k] going down), since the
    map is monotone and v* is fixed.  v* is accepted once `_contraction_bound`
    on that interval is below 1: T then has one fixed point there, so
    L = v* (to Newton's residual over 1 - bound).  Otherwise Picard
    goes on, and the bound is checked again against a newer v_k each
    time the change has halved, with no second solve and with its
    power steps going on from the vector the last check reached.  A v*
    on the wrong side is dropped.

    With a mass border (D, N) the solve is `_newton`'s bordered one in
    (eta, gamma) from (v_k, gamma_k), for the mass-matched iteration
    of `phase.droplet_solve`.  Its limit has no order interval to sit
    in, so v* is accepted only where the linearly converging sequence
    is heading: sup|v* - v_k| <= 2 change ratio / (1 - ratio), twice
    the geometric tail of the changes left at the firing step.  Slow
    means here a change ratio above 0.9 from step 3: a finish fired
    earlier, at larger changes, would widen that window.
    """

    def __init__(self, M, alpha, model, tol=None, border=None):
        self.M, self.alpha, self.model, self.border = M, alpha, model, border
        self.tol = tol
        self.cost = _finish_cost(M.shape[0]) if border is None else None
        self.change = self.checked = math.inf
        self.tried, self.limit = False, None
        self.aM = self.absM = self.y = None

    def __call__(self, it, v, gamma, change, direction):
        if self.border is None and direction == "none":
            return None
        ratio = change / self.change if self.change else 0.0
        self.change = change
        if self.border is not None:
            slow = ratio > _FINISH_RATIO
        else:  # change > 0 whenever ratio > 0
            slow = ratio >= 1.0 or (
                ratio > 0.0 and math.log(self.tol / change) / math.log(ratio) > self.cost)
        slow = slow and it >= _FINISH_FROM
        if self.limit is None and (self.tried or not slow):
            return None
        if change > 0.5 * self.checked:
            return None
        armed, self.checked = self.checked < math.inf, change
        if not armed:
            return None
        if self.limit is None:
            self.tried = True
            self.limit = self._solve(v, gamma, ratio)
            if self.limit is None:
                return None
        star = self.limit[0]
        if self.border is not None:  # v* must lie where the sequence is heading
            if ratio < 1.0 and np.max(np.abs(star - v)) <= 2.0 * change * ratio / (1.0 - ratio):
                return self.limit
            self.limit = None
            return None
        lo, hi = (v, star) if direction == "up" else (star, v)
        if np.any(lo > hi + _NEWTON_TOL):
            self.limit = None
            return None
        if self.y is None:
            self.absM, self.y = np.abs(self.aM), np.ones(v.size)
        bound, self.y = _contraction_bound(self.aM, self.absM, gamma, self.model,
                                           np.minimum(lo, hi), hi, self.y)
        return self.limit if bound < 1.0 else None

    def _solve(self, v, gamma, ratio):
        """Newton from v; None if it fails or a step cuts the residual less than ratio."""
        self.aM = self.alpha * self.M
        norms = []

        def watch(step, norm):
            if norms and norm > ratio * norms[-1]:
                raise RuntimeError(f"Newton step {step} cut the residual less than Picard")
            norms.append(norm)

        try:
            return _newton(self.aM, gamma, self.model, v, _NEWTON_TOL, _NEWTON_STEPS,
                           watch, self.border)
        except (RuntimeError, ValueError):
            return None


def picard_iterate(spec, alpha, gamma, eta0, tol=1e-10, model=eos.EosModel()):
    """Fixed-point iteration eta -> wp'(gamma + alpha(-V*eta)) at fixed gamma.

    Runs the shared loop `_fixed_point` with a constant gamma; see
    there for the stopping rule and the monotone direction.  A
    monotone sequence (n <= 512, not the ideal gas) whose Picard steps
    left to tol cost more than a Newton finish is finished by one
    damped Newton solve whose limit is accepted only with a
    certificate that it is the limit the monotone sequence
    converges to: the Collatz-Wielandt bound of `_contraction_bound`
    below 1 on the order interval between the last iterate and the
    Newton limit (see `_NewtonFinish`).  Without the certificate the
    iteration runs on as plain Picard.  The report then counts Picard
    and Newton steps.
    """
    M = _self_ring(spec, eta0.domain)

    def rule(u, v):
        eta = model.wp_prime(gamma + u, seed=v)
        return gamma, np.asarray(eta, dtype=float)

    finish = None
    if model.mode != eos.MODE_IDEAL_GAS and eta0.domain.n <= _DENSE_MAX:
        finish = _NewtonFinish(M, alpha, model, tol=tol)
    return _fixed_point(M, alpha, model, eta0, rule, _PICARD_STEPS, tol, finish)[0]


def minimal_solution(spec, alpha, gamma, domain, model=eos.EosModel(), tol=1e-10):
    """Pointwise smallest solution, grown from the constant wp'(gamma).

    The attraction only raises the argument of wp', so the constant
    wp'(gamma) is a subsolution and the iteration climbs monotonically
    to the minimal solution.  A slow climb may end in a Newton finish,
    accepted only with `picard_iterate`'s contraction certificate, so
    the label stays true.
    """
    start = constant_field(domain, float(model.wp_prime(gamma)))
    report = picard_iterate(spec, alpha, gamma, start, tol=tol, model=model)
    report.branch_label = "minimal"
    return report


def maximal_solution(spec, alpha, gamma, domain, model=eos.EosModel(), tol=1e-10):
    """Pointwise largest solution below a constant algebraic supersolution.

    A constant c is a supersolution iff g2(c) >= gamma + alpha Phi c.
    In hard-sphere mode the freezing fraction 0.49 is used whenever it
    qualifies (certification "fluid-ceiling": maximal among all fluid
    fields); otherwise the largest algebraic root at slope alpha Phi
    that is still in the fluid range (certification "algebraic-ceiling":
    maximal below that root).  CS-extended mode always descends from
    the largest algebraic root, which bounds every solution.  A slow
    descent may end in a Newton finish, accepted only with
    `picard_iterate`'s contraction certificate, so the label and the
    certification stay true.
    """
    if model.mode == eos.MODE_IDEAL_GAS:
        raise ValueError("supersolution construction needs a hard-sphere branch")
    phi = kernels.phi_lambda(spec, domain.R)
    if model.mode == eos.MODE_CS_EXTENDED:
        start_value = uniform.solve_uniform(alpha * phi, gamma).roots[-1]
        certification = "algebraic-ceiling"
    elif gamma - eos.GAMMA_FS + alpha * phi * eos.ETA_FS_LO <= 0.0:
        start_value, certification = eos.ETA_FS_LO, "fluid-ceiling"
    else:
        roots = uniform.solve_uniform(alpha * phi, gamma)
        fluid = [r for r in roots.roots if r <= eos.ETA_FS_LO + 1e-12]
        if not fluid:
            raise ValueError(
                "supersolution unavailable: no algebraic root in the fluid range "
                f"at alpha {alpha!r}, gamma {gamma!r}"
            )
        start_value, certification = fluid[-1], "algebraic-ceiling"
    report = picard_iterate(
        spec, alpha, gamma, constant_field(domain, start_value), tol=tol, model=model
    )
    report.branch_label = "maximal"
    report.certification = certification
    return report


def subsolution_launch(spec, alpha, gamma, domain, mu, sigma_grave):
    """Monotone-up solve started from a shrunken-ball comparison field.

    The start is wp'(gamma + alpha etabar int_{shrunken ball} (-V)),
    where etabar is the smallest (mu="m") or largest (mu="M") root of
    the algebraic equation at slope alpha Psi of the ball shrunk by
    sigma_grave.  Both starts are subsolutions; mu="M" climbs past the
    minimal branch.  CS-extended equation of state throughout, and
    (alpha, gamma) must lie in the triple-solution bands of both the
    full ball's Phi and the shrunken ball's Psi; the band errors name
    alpha and gamma.  A slow climb may end in a Newton finish, accepted
    only with `picard_iterate`'s contraction certificate.
    """
    if mu not in ("m", "M"):
        raise ValueError("mu must be 'm' or 'M'")
    if not 0.0 < sigma_grave <= 1.0:
        raise ValueError("sigma_grave must lie in (0, 1]")
    model = eos.EosModel(mode=eos.MODE_CS_EXTENDED)
    R = domain.R
    phi = kernels.phi_lambda(spec, R)
    psi = kernels.psi_lambda(
        spec, sigma_grave * 2.0 * R, sigma_grave**3 * 4.0 * math.pi * R**3 / 3.0
    )
    for tau in (phi, psi):
        if alpha * tau <= uniform.ALPHA_TAU_MIN:
            raise ValueError("alpha below the triple-solution region: "
                             f"alpha {alpha!r}, gamma {gamma!r}")
        lo, hi = uniform.gamma_boundaries(alpha * tau)
        if not lo < gamma < hi:
            raise ValueError("(alpha, gamma) outside the triple-solution region: "
                             f"alpha {alpha!r}, gamma {gamma!r}")

    roots = uniform.solve_uniform(alpha * psi, gamma)
    etabar = roots.roots[0] if mu == "m" else roots.roots[-1]
    shrunk = make_domain(sigma_grave * R, n=domain.n, panel=8)
    ones = constant_field(shrunk, etabar)
    u0 = convolve_at(spec, alpha, ones, domain.nodes)
    start = DensityField(
        domain, np.asarray(model.wp_prime(gamma + u0), dtype=float)
    )
    report = picard_iterate(spec, alpha, gamma, start, model=model)
    report.branch_label = "minimal" if mu == "m" else "other"
    return report


def _newton(aM, gamma, model, v, tol, max_iter, callback=None, border=None):
    """Damped Newton on F(eta) = eta - wp'(gamma + aM eta) from v.

    The one loop behind `newton_solve` and the Newton finish.  With a
    mass border (D, N), gamma is one more unknown, started from the
    gamma given, and the mass D.eta = N, held as the mean fraction
    D.eta/sum(D) = N/sum(D), one more equation: each step solves the
    bordered system [[I - diag(wp'') aM, -wp''], [D^T/sum(D), 0]] of
    size n + 1, the tangent system of the mass-constrained branch, and
    the residual is the largest of |F| and the mean-fraction gap.
    Returns (eta, aM eta, residual, steps, gamma).  A solve whose last
    8 accepted steps together cut the residual by less than 1% has
    stalled and raises RuntimeError; every failure names gamma and the
    last residual.
    """
    n = v.size
    if border is not None:
        D, N = border
        w, mean = D / np.sum(D), N / np.sum(D)

    def resid(x):
        vec, g = (x[:n], x[n]) if border is not None else (x, gamma)
        u = aM @ vec
        eta = np.asarray(model.wp_prime(g + u, seed=vec))
        F = vec - eta
        return (F if border is None else np.append(F, w @ vec - mean)), u, eta

    def failure(what):
        return RuntimeError(f"{what} at gamma {g!r}: residual {norm:.3e}")

    x = v if border is None else np.append(v, gamma)
    g = gamma
    F, u, eta = resid(x)
    norm = float(np.max(np.abs(F)))
    norms = [norm]  # residual after each accepted step
    if callback is not None:
        callback(0, norm)
    for it in range(1, max_iter + 1):
        if norm < tol:
            return x[:n], u, norm, it - 1, g
        if len(norms) > _STALL_STEPS and norm > _STALL_CUT * norms[-1 - _STALL_STEPS]:
            raise RuntimeError(
                f"Newton stalled at gamma {g!r}: residual {norm:.3e} after "
                f"step {it - 1}, cut by under 1% over the last {_STALL_STEPS} steps"
            )
        model._reject_kink(g + u)
        c = model.response_at(eta)
        J = np.eye(x.size)
        J[:n, :n] -= c[:, None] * aM
        if border is not None:
            J[:n, n], J[n, :n], J[n, n] = -c, w, 0.0
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise failure("singular Jacobian in the density solve") from exc
        lam = 1.0
        while lam > 1e-6:
            cand = x + lam * step
            try:
                Fc, uc, etac = resid(cand)
            except (ValueError, OverflowError):
                # candidate left the branch's invertible range; shorten
                lam *= 0.5
                continue
            nc = float(np.max(np.abs(Fc)))
            if nc < (1.0 - 0.25 * lam) * norm:
                x, F, u, eta, norm = cand, Fc, uc, etac, nc
                g = float(x[n]) if border is not None else gamma
                norms.append(norm)
                if callback is not None:
                    callback(it, norm)
                break
            lam *= 0.5
        else:
            raise failure("damped step failed to reduce the residual")
    raise failure(f"no convergence within {max_iter} Newton steps")


def newton_solve(spec, alpha, gamma, eta0, model=eos.EosModel(), callback=None):
    """Damped Newton on F(eta) = eta - wp'(gamma + alpha(-V*eta)).

    The Jacobian I - diag(wp'') alpha M is assembled densely, from the
    dense ring matrix at any n, which the node counts in use comfortably
    allow; its wp'' is read off the profile the residual has just
    inverted, with no second inversion.
    Unlike Picard this also reaches iteration-unstable solutions, at
    quadratic rate near any root.  A solve whose last 8 accepted steps
    together cut the residual by less than 1% has stalled and raises
    RuntimeError; every failure names gamma and the last residual.
    callback, if given, receives (iteration, residual) after every
    accepted step.
    """
    aM = alpha * _self_ring(spec, eta0.domain, dense=True)
    v, u, norm, steps, _ = _newton(aM, gamma, model, eta0.values.copy(), _NEWTON_TOL,
                                   _NEWTON_STEPS, callback)
    return _report(eta0.domain, v, gamma, u, steps, norm)


def predicates(spec, alpha, gamma, domain, model=eos.EosModel()):
    """Closed-form a-priori facts about the solution set on this ball.

    existence_sufficient: the algebraic equation at slope alpha Phi has
    a root in the fluid range, so a constant supersolution exists and
    the extremal fluid solutions with it.  Its residual h = g2 - gamma -
    alpha Phi eta falls to -inf at 0+ and below 0.49 turns only at its
    local maximum ``eta_bounds(alpha Phi)[0]`` < ETA_WR, so a root lies
    in (0, 0.49] exactly when h >= 0 at 0.49 or at that maximum; no root
    is solved for.  all_fluid_sufficient: the
    freezing constant is a supersolution, so every solution below it is
    fluid everywhere.  no_nonfluid_sufficient: even an fcc-packed field
    cannot push the argument past the kink, so no solution leaves the
    fluid branch.  no_fluid_necessaryviolation: already the pointwise
    lower bound wp'(gamma) pushes the center argument past the kink,
    ruling out certified-fluid solutions.  uniqueness_contraction: the
    fixed-point map is a sup-norm contraction.  triple_candidate: the
    whole-space argument bound keeps even fcc packing below the kink,
    the regime where three branches can coexist.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    phi = kernels.phi_lambda(spec, domain.R)
    at = alpha * phi
    probes = [eos.ETA_FS_LO]
    if at > uniform.ALPHA_TAU_MIN:
        probes.append(uniform.eta_bounds(at)[0])
    existence = max(float(eos.g2(x)) - gamma - at * x for x in probes) >= 0.0
    all_fluid = gamma - eos.GAMMA_FS + alpha * phi * eos.ETA_FS_LO <= 0.0
    no_nonfluid = gamma - eos.GAMMA_FS + alpha * phi * eos.ETA_FCC <= 0.0
    floor = float(model.wp_prime(gamma))
    no_fluid = gamma - eos.GAMMA_FS + alpha * phi * floor >= 0.0
    contraction = existence and model.K_gamma_fs * alpha * phi < 1.0
    if spec.a_n > 0:
        triple = False  # Newton tail is not integrable over all of space
    else:
        triple = gamma + alpha * kernels.l1_norm_r3(spec) * eos.ETA_FCC <= eos.GAMMA_FS
    return PredicateReport(
        existence_sufficient=existence,
        all_fluid_sufficient=all_fluid,
        no_nonfluid_sufficient=no_nonfluid,
        no_fluid_necessaryviolation=no_fluid,
        uniqueness_contraction=contraction,
        triple_candidate=triple,
    )


def write_csv(path, fld, spec, alpha, gamma, branch_label="other"):
    """Serialize a density field with a self-describing '#' header."""
    lines = [
        f"# R={fld.domain.R!r}",
        f"# n={fld.domain.n}",
        "# spec=a_w={!r},a_y={!r},a_n={!r},varkappa={!r},kappa={!r}".format(
            spec.a_w, spec.a_y, spec.a_n, spec.varkappa, spec.kappa
        ),
        f"# alpha={float(alpha)!r}",
        f"# gamma={float(gamma)!r}",
        f"# branch_label={branch_label}",
        "r,eta",
    ]
    lines += [
        f"{r!r},{v!r}"
        for r, v in zip(fld.domain.nodes.tolist(), fld.values.tolist())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Load a density field written by write_csv; returns (field, meta).

    Weights and panel size are not stored: the grid is rebuilt from (R, n)
    with the first panel size dividing n whose nodes match the abscissae.
    """
    meta = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key.strip()] = val.strip()
            elif line != "r,eta":
                a, b = line.split(",")
                rows.append((float(a), float(b)))
    kv = dict(part.split("=") for part in meta["spec"].split(","))
    meta["spec"] = kernels.KernelSpec(
        a_w=float(kv["a_w"]),
        a_y=float(kv["a_y"]),
        a_n=float(kv["a_n"]),
        varkappa=float(kv["varkappa"]),
        kappa=float(kv["kappa"]),
    )
    meta["alpha"] = float(meta["alpha"])
    meta["gamma"] = float(meta["gamma"])
    R, n = float(meta["R"]), int(meta["n"])
    nodes = np.array([r for r, _ in rows])
    panels = [p for p in range(2, n + 1) if n % p == 0] if nodes.size == n else []
    for panel in sorted(panels, key=lambda p: p != 8):  # the default first
        domain = make_domain(R, n=n, panel=panel)
        if np.max(np.abs(nodes - domain.nodes)) <= 1e-12 * R:
            break
    else:
        raise ValueError("stored abscissae do not match the rebuilt grid")
    values = np.array([v for _, v in rows])
    return DensityField(domain, values), meta
