"""Radial container solver for the attractive hard-sphere gas.

Solves the fixed-point equation eta(r) = wp'(gamma - (alpha V*eta)(r))
on a ball B_R.  The 3D convolution against a radial kernel reduces to a
one-dimensional integral through the ring primitive of `kernels`, so
one matrix M, each row's own panel split at its kink by `_split`, turns
the nonlocal equation into a map on node values.  Up to 512 nodes, and
for any kernel with a van der Waals part, M is assembled densely.
Above that, Yukawa and Newton kernels apply M through `RingOperator` in
O(n p) with no n x n array: off the p x p panel blocks M is the radial
Green's function of their elliptic PDE, rank one in each triangle
(`_green_terms`), so cumulative sums and a block-diagonal correction do
the convolution; the stability forms read M - `_Attraction.skew`, its
D-symmetric part, D the volume weights.  Every solver reaches alpha M
through one `_Attraction` per call, which applies it as alpha (M @ x),
the one product of Picard, Newton's residuals and the certificate, and
solves I - diag(c) alpha M: by that Green's tridiagonal inverse in
O(n p^2) from 128 nodes for a Yukawa or a Newton kernel, else by LU in
one workspace per attraction, the one solver that reads the dense M.
Monotone Picard iteration reaches the extremal solutions from constant
sub- and supersolutions, tightened where the caller hands over the same
branch's solution at a nearby gamma on the side that comparison allows;
damped Newton reaches the unstable branch inbetween; a handful of
closed-form predicates settle existence, uniqueness, and fluid-range
membership a priori.

One private loop, `_fixed_point`, iterates eta -> wp'(gamma + alpha M eta)
for a rule that picks gamma from the potential and hands back the
profile there: a constant for Picard, the mass-holding multiplier for
`phase.droplet_solve`.  It steps the columns of an (n, k) block, each
its own sequence with its own gamma, applying alpha M and wp' to all open
columns at once and dropping each column as it stops; every column
keeps the bits it has alone.  `extremal_pairs` runs all minimal and
maximal launches of a gamma grid as one block, and the gas/liquid
locator's pair at each gamma, warm from its neighbours, as a
two-column one; the other solves are one-column blocks.  Every
SolveReport is built by `_report`, the one home of the certified-fluid
rule.  One private damped Newton loop, `_newton`, serves `newton_solve`
and `_NewtonFinish`, the finish of slowly converging fixed-point
sequences; the finishes of one block share its `_Attraction`.  A
monotone Picard launch keeps its extremal label through the finish:
the Newton limit replaces the Picard limit only with a Collatz-Wielandt
certificate that the map contracts on the order interval between the
last iterate and that limit (`_certificate`, which also admits the
bordered vapor of `phase.constrained_solve`).  For the droplet's
mass-matched iteration the finish carries a mass border, with gamma as
one more unknown, and takes its limit only where the iteration is
heading: within twice the geometric tail of its remaining changes.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import eos, kernels, uniform

__all__ = [
    "NoConvergence",
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
    "extremal_pairs",
    "subsolution_launch",
    "newton_solve",
    "predicates",
]

_FLUID_MARGIN = 1e-9  # strict margin for the certified-fluid flag
_RESIDUAL_TOL = 1e-9  # fixed-point residual required on top of the change test
_ASSEMBLY_ROWS = 64  # rows of the ring matrix assembled per elementwise pass
_STALL_STEPS, _STALL_CUT = 8, 0.99  # Newton stalls: 8 accepted steps, < 1% cut
_NEWTON_TOL, _NEWTON_STEPS = 1e-12, 60  # Newton's residual target and step limit
_PICARD_STEPS = 20000  # fixed-point iterations after which Picard gives up
_FINISH_FROM = 3  # the finish arms from step 3; step 2 compares with the first step
_FINISH_RATIO = 0.9  # the bordered finish arms, and fires, at a change ratio above 0.9
# A certified finish's price in Picard steps, one at every n it runs at.  On one BLAS
# thread a finish costs about 10 steps at 64 nodes (LU) and 17-23 from 128 (G^-1); any
# price from 10 to 13 fires the same finishes in the grand and petit transitions
_FINISH_COST = 12.0
# gated: RingOperator, G^-1 at every n took grand-r30 0.059 -> 0.070 s, petit-r15 0.043 -> 0.058 s
_DENSE_MAX = 512  # largest node count for the Newton finish and the dense ring matrix
# gated: at every n, G^-1 took petit-r15 (64 nodes, LU) 0.041 -> 0.048 s, on one BLAS thread
_STRUCTURED_MIN, _REFINE = 128, 1e-13  # G^-1 elimination: from 128 nodes; refined residual
_SEGMENT = 500.0  # kappa-length of one segment of RingOperator's discounted sums
_POWER_STEPS, _POWER_MOVED = 100, 1e-10  # power steps per contraction bound, at most
_PANEL = 8  # Gauss-Legendre nodes per panel of every grid
_GAUSS = np.polynomial.legendre.leggauss(_PANEL)  # the panels' rule on [-1, 1]


class NoConvergence(ValueError, RuntimeError):
    """A fixed-point sequence still open after its step budget; a Newton on gamma retreats."""


@dataclass(eq=False)
class RadialDomain:
    """Composite Gauss-Legendre grid on [0, R]: n/8 equal panels of 8 nodes.

    nodes and weights integrate smooth functions of s against ds; the
    s^2 volume factor is applied by the caller.  edges are the panel
    boundaries, where the convolution assembly splits integrands at
    their kink.
    """

    R: float
    n: int
    nodes: np.ndarray = dc_field(init=False)
    weights: np.ndarray = dc_field(init=False)
    edges: np.ndarray = dc_field(init=False)
    _rings: dict = dc_field(default_factory=dict, init=False, repr=False)
    _ring_lock: threading.Lock = dc_field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def __post_init__(self):
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ValueError(f"R must be positive and finite, got {self.R!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n <= 0 or self.n % _PANEL:
            raise ValueError(f"n must be a positive integer multiple of {_PANEL}, got {self.n!r}")
        x, w = _GAUSS
        self.edges = np.linspace(0.0, self.R, self.n // _PANEL + 1)
        half = 0.5 * (self.edges[1:] - self.edges[:-1])
        mid = 0.5 * (self.edges[1:] + self.edges[:-1])
        self.nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        self.weights = (half[:, None] * w[None, :]).ravel()


def make_domain(R, n=512):
    """The grid of n nodes on [0, R]; see `RadialDomain`."""
    return RadialDomain(float(R), n)


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
    finish, the finishing Newton steps; a vapor that
    `phase.constrained_solve` reads off its mass-bordered Newton solve
    counts that solve's steps.  A finished Picard profile, like such a
    vapor, is the monotone limit the labels speak of, by the contraction
    certificate `_certificate`, to Newton's residual.  residual is
    max|wp'(gamma + u) - eta| at the returned eta and gamma, with
    u = alpha M eta as the solve applied it (a mass-bordered Newton
    finish also counts its mass row).  wp' is a pure function of its
    argument, so the same u gives the same residual bit for bit.
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
    contact value s(-V(s)) at s = 0+, so `_split` re-integrates the panel
    containing an interior target in two smooth halves: the self ring in
    one call, at the reference nodes of every panel, and other radii at
    their reference coordinates in their own panels, a block at a time.
    A zero target radius uses the limit row 4 pi int s^2 (-V(s)) eta(s) ds
    instead of the 2pi/t reduction.  The dense rows are assembled a block
    of rows at a time, so the temporaries of the elementwise expressions
    stay block-sized.
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

    if t.shape == s.shape and np.array_equal(t, s):  # the self ring: every panel at every node
        parts = [(np.arange(s.size), np.arange(s.size // _PANEL)[:, None], _GAUSS[0])]
    else:  # the targets strictly inside a panel, one panel each, a block of rows at a time
        kt = np.clip(np.searchsorted(domain.edges, t, side="right") - 1, 0, s.size // _PANEL - 1)
        a, b = domain.edges[kt], domain.edges[kt + 1]
        rows = np.flatnonzero((a < t) & (t < b))
        tau = ((t - 0.5 * (b + a)) / (0.5 * (b - a)))[rows]
        cut = range(_ASSEMBLY_ROWS, rows.size, _ASSEMBLY_ROWS)
        parts = zip(*(np.split(v, cut, axis=-1) for v in (rows, kt[rows][None], tau)))
    for rows, k, tau in parts:
        vals = _split(spec, domain, k, tau)
        cols = np.broadcast_to(k, vals.shape[:-1]).reshape(-1, 1) * _PANEL + np.arange(_PANEL)
        M[rows[:, None], cols] = vals.reshape(-1, _PANEL)
    return M


def _lagrange(nodes, points):
    """The Lagrange basis of nodes (..., p) at points (..., q), (..., q, p), in barycentric form;
    a point on a node (to 1e-300) takes that node's unit row."""
    gap = nodes[..., :, None] - nodes[..., None, :]
    gap[..., np.arange(_PANEL), np.arange(_PANEL)] = 1.0
    diff = points[..., None] - nodes[..., None, :]
    exact = np.abs(diff) <= 1e-300
    terms = (1.0 / np.prod(gap, axis=-1))[..., None, :] / np.where(exact, 1.0, diff)
    basis = terms / terms.sum(axis=-1, keepdims=True)
    hit = exact.any(axis=-1)
    basis[hit] = exact[hit]
    return basis


def _split(spec, domain, k, tau):
    """Rows over panel k's nodes, (..., q, p), of targets t = mid_k + half_k tau split at t.

    tau (q,) broadcasts against k, (K, 1) or (1, q); t is computed as `RadialDomain` computes
    its nodes.  Each row integrates [a, t] and [t, b] by the Gauss rule against the panel's
    Lagrange basis, which in reference coordinates depends on tau alone: it is formed once
    per entry of tau and contracted with the halves' weighted ring values of every panel.
    """
    a, b = domain.edges[k], domain.edges[k + 1]
    t = 0.5 * (b + a) + 0.5 * (b - a) * tau
    tc, a, b = (np.broadcast_to(v, t.shape)[..., None, None] for v in (t, a, b))
    lo, hi = np.concatenate((a, tc), axis=-2), np.concatenate((tc, b), axis=-2)  # (..., q, 2, 1)
    xs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _GAUSS[0]
    ring = kernels.ring_primitive(spec, tc + xs) - kernels.ring_primitive(spec, np.abs(tc - xs))
    f = (0.5 * (hi - lo) * _GAUSS[1] * xs * ring).reshape(t.shape + (2 * _PANEL,))
    x, tq = _GAUSS[0], tau[:, None]
    basis = _lagrange(x, np.concatenate((0.5 * (tq - 1.0) + 0.5 * (tq + 1.0) * x,
                                         0.5 * (1.0 + tq) + 0.5 * (1.0 - tq) * x), axis=1))
    rows = np.matmul(f.transpose(1, 0, 2), basis).transpose(1, 0, 2)
    return (2.0 * math.pi / t)[..., None] * rows


class _Discount:
    """out_i += f_i S_i, S_i = sum over j <= i of e^(x_j - x_i) g_j Z_j along increasing x, in O(n).

    One cumulative sum per segment of x-length at most _SEGMENT, f and g
    folded with the exponentials scaled from the segment's first node,
    so no exponential overflows; each segment's total is carried into
    the next.
    """

    def __init__(self, x, f, g):
        starts = [0]
        while True:
            nxt = int(np.searchsorted(x, x[starts[-1]] + _SEGMENT, side="right"))
            if nxt >= x.size:
                break
            starts.append(nxt)
        ref = np.repeat(x[starts], np.diff(starts + [x.size]))
        self.f, self.g = (f * np.exp(ref - x))[:, None], (g * np.exp(x - ref))[:, None]
        self.hops = np.exp(x[starts[:-1]] - x[starts[1:]])
        self.bounds = list(zip(starts, starts[1:] + [x.size]))

    def __call__(self, out, Z):
        for k, (a, b) in enumerate(self.bounds):
            c = self.g[a:b] * Z[a:b]
            if k:
                c[0] += self.hops[k - 1] * carry
            np.cumsum(c, axis=0, out=c)
            carry = c[-1].copy()
            c *= self.f[a:b]
            out[a:b] += c


def _green_terms(spec):
    """The terms (A, rate, h) of the radial Green's function G = sum A e^(rate (min - max)) h(min):
    Yukawa (2 a_y/kappa, kappa, (1 - e^(-2 kappa x))/2), then Newton (2 a_n, 0, x)."""
    k = spec.kappa
    terms = [(2.0 * spec.a_y / k, k, lambda x: -0.5 * np.expm1(-2.0 * k * x)),
             (2.0 * spec.a_n, 0.0, lambda x: x)]
    return [term for term, on in zip(terms, (spec.a_y, spec.a_n)) if on]


def _panel_green(spec, domain):
    """diag(2 pi/t) G diag(w t) on each panel's own p x p block; see `RingOperator`."""
    t, pn = domain.nodes, domain.nodes.reshape(-1, _PANEL)
    lo = np.minimum(pn[:, :, None], pn[:, None, :])
    hi = np.maximum(pn[:, :, None], pn[:, None, :])
    green = sum(A * np.exp(rate * (lo - hi)) * h(lo) for A, rate, h in _green_terms(spec))
    return ((2.0 * math.pi / t).reshape(-1, _PANEL, 1) * green
            * (domain.weights * t).reshape(-1, 1, _PANEL))


def _green_inverse(term, t):
    """The tridiagonal inverse of one `_green_terms` term on nodes t: (diagonal, off-diagonal).

    Entries are ratios of h at node differences x (a Yukawa sinh(kappa x) held as e^(kappa x)
    h(x)), the off-diagonal's e^(-rate x) kept apart."""
    amp, rate, h = term
    d, damp = h(np.diff(t)), np.exp(-rate * np.diff(t))
    diag = np.concatenate(([h(t[1]) / (h(t[0]) * d[0])], h(t[2:] - t[:-2]) / (d[:-1] * d[1:]),
                           [1.0 / d[-1]]))
    return diag / amp, -damp / (amp * d)


class RingOperator:
    """The node-to-node ring matrix of a kernel with no van der Waals part, in O(n p).

    Off the panel split, entry (i, j) of `_ring_matrix` is (2 pi/t_i)
    w_j s_j G(t_i, s_j), with the radial Green's function G(t, s) =
    (2 a_y/kappa) e^(-kappa max) sinh(kappa min) + 2 a_n min, a sum of
    the rank-one terms of `_green_terms`, A e^(x(min) - x(max)) h(min)
    with x = rate t in each triangle.  So M = diag(2 pi/t) G diag(w s)
    + C, and each term is applied by two discounted cumulative sums
    (`_Discount`), one up over j <= i and one down over j >= i, with
    2 pi/t, w t, A and h folded into their factor vectors at build
    time.  C is block diagonal: each panel's `_split` block (kept),
    minus the same formula on it and the diagonal both sums count.  `@`
    applies M to a vector or to the columns of an (n, k) array.
    """

    def __init__(self, spec, domain):
        t = domain.nodes
        self.shape = (t.size, t.size)
        post, pre = 2.0 * math.pi / t, domain.weights * t
        terms = [(A, rate * t, h(t)) for A, rate, h in _green_terms(spec)]  # (A, x, h) of G
        self._sums = [(_Discount(x, A * post, h * pre),
                       _Discount(-x[::-1], (A * h * post)[::-1], pre[::-1])) for A, x, h in terms]
        self._split = _split(spec, domain, np.arange(t.size // _PANEL)[:, None], _GAUSS[0])
        self._blocks = self._split - _panel_green(spec, domain)
        twice = post * pre * sum(A * h for A, _, h in terms)  # G's diagonal, in both sums
        self._blocks.reshape(-1, _PANEL**2)[:, ::_PANEL + 1] -= twice.reshape(-1, _PANEL)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        Z = x.reshape(self.shape[1], -1)
        k, Z3 = Z.shape[1], Z.reshape(-1, _PANEL, Z.shape[1])
        # BLAS takes a lone column by another kernel, with other bits, so it goes as two
        out = (self._blocks @ (Z3 if k > 1 else Z3.repeat(2, axis=2)))[..., :k].reshape(Z.shape)
        for up, down in self._sums:
            up(out, Z)
            down(out[::-1], Z[::-1])
        return out.reshape(x.shape)


def _self_ring(spec, domain, dense=False):
    """The node-to-node ring matrix M, or the operator that applies it, cached on the domain.

    Above _DENSE_MAX nodes a kernel with no van der Waals part gets its
    `RingOperator`, which applies M in O(n p) with no n x n array;
    below, and for van der Waals, the assembled matrix, which BLAS
    applies faster there.  dense, set only by `_Attraction.dense`, asks
    for the assembled matrix at any n.  The check-and-assemble
    holds the domain's lock, so a library caller's threads sharing one
    domain build each ring once and get the same object; no command
    solves on threads.
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


def _direction(v, new, change):
    """The monotone direction of a first step v -> new of sup-norm change."""
    scale = 1e-14 * max(1.0, float(np.max(np.abs(v))))
    if change <= scale:
        return "none"
    if np.all(new >= v - scale):
        return "up"
    if np.all(new <= v + scale):
        return "down"
    return "none"


def _fixed_point(attraction, model, V, gamma_rule, max_iter, tol, finishes=None):
    """Iterate each column v of the (n, k) block V by v -> wp'(gamma + u), u = alpha M v.

    Each column is its own sequence with its own gamma; the columns
    step together, so M and wp' are applied to all open columns in one
    call each.  gamma_rule(open, U, V) returns, for the open columns
    (their indices into the block), their potentials U and profiles V,
    each column's gamma and its new profile wp'(gamma + u): a gamma per
    column for Picard (`_picard`), the multiplier that holds the mass
    for the one column of `phase.droplet_solve`.  A column stops only
    when its sup-norm change drops below tol AND its residual at its
    last gamma drops below 1e-9, so a stalled sequence runs into
    max_iter and raises instead of reporting false convergence.  Its
    monotone direction is read off its first step.  finishes, if given,
    holds one finish per column, offered every later iterate of its
    column that has not yet stopped, as finish(iteration, v, gamma,
    change, direction); a non-None answer (profile, potential, residual,
    steps, gamma) stops the column there, with its steps added to the
    iteration count and its gamma returned.  A stopped column's report
    is built by `_report`, and the column leaves the block.  A column
    that leaves (0, 1) raises ValueError, and one still open after
    max_iter steps `NoConvergence`, each naming that column's gamma.  The
    bits of each column are those of a one-column block from the same
    start: `_Attraction.apply` and wp' treat the columns apart.  Returns
    one (report, gamma) per column, in column order.
    """
    k = V.shape[1]
    finishes = finishes or [None] * k
    out, directions, changes = [None] * k, ["none"] * k, [math.nan] * k
    cols = list(range(k))  # the open columns' indices into the block
    for it in range(1, max_iter + 1):
        U = attraction.apply(V)
        G, new = gamma_rule(cols, U, V)
        if (new >= 1.0).any() or (new <= 0.0).any():
            j = int(np.argmax(((new >= 1.0) | (new <= 0.0)).any(axis=0)))
            raise ValueError("iteration left the volume-fraction range (0, 1) "
                             f"at gamma {float(G[j])!r}, iteration {it}")
        last, changes = changes, np.abs(new - V).max(axis=0).tolist()
        if it == 1:
            directions = [_direction(V[:, j], new[:, j], changes[j]) for j in range(k)]
        V = new
        stops = {}
        close = [j for j, change in enumerate(changes) if change < tol]
        if close:
            u = attraction.apply(V[:, close])
            res = np.abs(np.asarray(model.wp_prime(G[close] + u)) - V[:, close]).max(axis=0)
            for i, j in enumerate(close):
                if res[i] < _RESIDUAL_TOL:
                    stops[j] = (V[:, j], u[:, i], float(res[i]), 0, float(G[j]))
        for j, c in enumerate(cols):
            if j not in stops and finishes[c] is not None:
                done = finishes[c](it, V[:, j], float(G[j]), changes[j], directions[c])
                if done is not None:
                    stops[j] = done
        if not stops:
            continue
        for j, (star, u, res, steps, gamma) in stops.items():
            out[cols[j]] = (_report(attraction.domain, star.copy(), gamma, u, it + steps,
                                    res, directions[cols[j]]), gamma)
        keep = [j for j in range(len(cols)) if j not in stops]
        if not keep:
            return out
        cols, V, G = [cols[j] for j in keep], V[:, keep], G[keep]
        changes, last = [changes[j] for j in keep], [last[j] for j in keep]
    ratio = changes[0] / last[0] if last[0] else math.inf
    raise NoConvergence(f"no convergence within {max_iter} iterations: last gamma {float(G[0])!r}, "
                        f"sup-norm change {changes[0]:.3e}, change ratio {ratio:.6f}")


def _contraction_bound(attraction, gamma, model, lo, hi, y, star):
    """Collatz-Wielandt bound on the Picard map's contraction over [lo, hi].

    T(eta) = wp'(gamma + alpha M eta), and star ("lo" or "hi") names the
    end of the interval that is a fixed point v*.  Over lo <= eta <= hi
    the argument at node i stays within gamma + (alpha M lo)_i - s_i ..
    gamma + (alpha M hi)_i + s_i, s = N (hi - lo) with N the negative
    part of alpha M, and wp'' there is at most r_i, its value at
    gamma_wr clipped into that range (the fluid wp'' is unimodal in
    gamma with its peak at gamma_wr).  So |T(a) - T(b)| <= B|a - b|
    with B = diag(r) |alpha M|, and for every positive y, max_i
    (By)_i/y_i bounds the contraction of T in the y-weighted sup norm
    (Varga, Matrix Iterative Analysis): below 1, T has at most one fixed
    point in [lo, hi].  Where that bound (`_perron_bound` from the given
    y) is not below 1, r gives way to `_secant_slopes`, which is never
    larger: a second fixed point L in [lo, hi] would have |L - v*| =
    |T(L) - T(v*)| <= diag(slopes) |alpha M| |L - v*|, so the same bound
    below 1 with the secant slopes rules it out.  The secant power steps
    go on from the vector the first ones reached.  The `_Attraction`
    attraction applies alpha M as Picard does, and N and |alpha M|, so a
    check forms no n x n array.  Returns the smallest bound seen, or inf
    when an argument reaches the hard-sphere kink, and the last y, from
    which a later call goes on.
    """
    ulo, uhi = attraction.apply(lo), attraction.apply(hi)
    spread = attraction.neg_apply(hi - lo)
    glo, ghi = gamma + ulo - spread, gamma + uhi + spread
    if model.mode == eos.MODE_HARD_SPHERE and np.max(ghi) >= model.gamma_fs:
        return math.inf, y
    peak = np.clip(model.gamma_wr, glo, ghi)
    r = model.response_at(np.asarray(model.wp_prime(peak)))
    bound, y = _perron_bound(r, attraction.abs_apply, y)
    if bound >= 1.0:
        slopes = _secant_slopes(model, gamma + (ulo if star == "lo" else uhi), glo, ghi, r)
        secant, y = _perron_bound(slopes, attraction.abs_apply, y)
        bound = min(bound, secant)
    return bound, y


def _certificate(attraction, gamma, model, v, star, residual, direction, y):
    """Whether star, a fixed point at gamma, is the limit of the monotone sequence through v.

    The acceptance rule of `_NewtonFinish`, and of the bordered vapor
    of `phase.constrained_solve`, whose v is the constant subsolution
    wp'(gamma).  star must (a) lie beyond v at every node, up to
    Newton's tolerance (above v going up, below it going down); (b) have
    a fixed-point residual below _RESIDUAL_TOL; and (c) give a
    `_contraction_bound` below 1 over the order interval between v and
    star, star its fixed end.  By (a) and the map's monotonicity the
    sequence's limit L lies in that interval, and by (c) the map has one
    fixed point there, so L = star to the residual over 1 - bound.  The
    bound leans on wp'' being unimodal, which the ideal gas's is not, so
    the ideal gas is never certified.  Returns (failed, y): failed is
    None, or (condition, message) for the first condition that fails,
    one of "model", "side", "residual" and "bound"; y is the bound's
    power-step vector, from which a later check goes on.
    """
    if model.mode == eos.MODE_IDEAL_GAS:
        return ("model", "the ideal gas's wp'' has no peak to bound the map by"), y
    lo, hi = (v, star) if direction == "up" else (star, v)
    if np.any(lo > hi + _NEWTON_TOL):
        return ("side", f"it lies up to {float(np.max(lo - hi)):.3e} on the wrong side of "
                        "the sequence"), y
    if not residual < _RESIDUAL_TOL:
        return ("residual", f"its residual {residual:.3e} is not below {_RESIDUAL_TOL:g}"), y
    bound, y = _contraction_bound(attraction, gamma, model, np.minimum(lo, hi), hi, y,
                                  "hi" if direction == "up" else "lo")
    if not bound < 1.0:
        return ("bound", f"its contraction bound {bound:.6f} is not below 1"), y
    return None, y


def _perron_bound(r, abs_apply, y):
    """The smallest max_i (By)_i/y_i, B = diag(r) |alpha M|, along power steps from y.

    abs_apply(y) is |alpha M| y.  Power steps y -> By/max(By) from a positive
    y keep it positive (|alpha M| has a positive diagonal) and turn it toward
    the Perron vector of B, where the bound is rho(B); they stop once
    the bound drops below 1, once min_i (By)_i/y_i reaches 1 (a lower
    bound on rho(B), so then no y gives a bound below 1), once y moves
    by at most 1e-10 of its largest entry, or after 100 steps.  Returns
    the bound and the last y.
    """
    bound = math.inf
    for _ in range(_POWER_STEPS):
        By = r * abs_apply(y)
        ratios = By / y
        bound = min(bound, float(np.max(ratios)))
        z = By / np.max(By)
        moved = float(np.max(np.abs(z - y)))
        y = z
        if bound < 1.0 or np.min(ratios) >= 1.0 or moved <= _POWER_MOVED:
            break
    return bound, y


def _secant_slopes(model, xs, glo, ghi, r):
    """Per node, a bound on |wp'(x) - wp'(xs_i)| / |x - xs_i| over x in [glo_i, ghi_i].

    xs is the argument of the fixed point v*, and r, wp'' at gamma_wr
    clipped into each node's range, bounds wp'' there.  On each side of
    xs_i the secant slope from xs_i to x is the mean of wp'' between
    them.  wp'' is unimodal, so where wp'' at the side's far end f is at
    least the secant S(f) to it, S(f) is the largest secant on that side
    (the mean still grows there, and past the peak wp'' stays above it);
    elsewhere the side's largest wp'' bounds every secant: r if gamma_wr
    lies on that side, else wp'' at the side's end nearer to gamma_wr.
    S(f) carries the inversion tolerance of its two wp' values over the
    width, so a difference lost to rounding cannot shrink it; on a side
    of zero width it is its limit, wp'' at xs_i.  Never above r, node by
    node.
    """
    lo, hi = np.minimum(glo, xs), np.maximum(ghi, xs)
    eta = np.asarray(model.wp_prime(np.stack((lo, xs, hi))))
    c = model.response_at(eta)  # wp'' at lo, xs and hi
    fuzz = 2.0 * eos._RESIDUAL_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))) * r
    slopes = np.zeros_like(r)
    for far, width, rise, (a, b) in ((0, xs - lo, eta[1] - eta[0], (lo, xs)),
                                     (2, hi - xs, eta[2] - eta[1], (xs, hi))):
        wide = width > 0.0
        secant = np.where(wide, (rise + fuzz) / np.where(wide, width, 1.0), c[1])
        peak = np.where((a <= model.gamma_wr) & (model.gamma_wr <= b), r,
                        np.maximum(c[far], c[1]))
        slopes = np.maximum(slopes, np.where(c[far] >= secant, secant, peak))
    return np.minimum(slopes, r)


class _Attraction:
    """alpha M on one grid, as the solvers apply and solve it; one per consumer call.

    M is `_self_ring`'s ring, applied as alpha (M @ x).  Only the LU path
    reads `dense`, M assembled at any n, and writes -c alpha M into one
    Jacobian workspace, sized for the bordered system at the first solve,
    so later Newton steps allocate no n x n array.  Every negative entry
    of M lies in an own-panel p x p block (the kink split; elsewhere M is
    the ring of a nonnegative kernel), so N, the negative part of alpha
    times those blocks, held by its few entries, gives |alpha M| y =
    alpha M y + 2 N y with no n x n |alpha M|.
    """

    def __init__(self, spec, alpha, domain):
        self.spec, self.alpha, self.domain = spec, alpha, domain
        self.finishable = domain.n <= _DENSE_MAX  # where Newton finishes may factor alpha M
        self.structured = domain.n >= _STRUCTURED_MIN and not (spec.a_w or spec.a_y and spec.a_n)
        # kept: a fresh np.eye(m) - c alpha M per solve has the same bits, but took the vdW
        # grand transition (R=15, n=512, CS-extended) 0.24-0.36 s against 0.18 s
        self._work = None  # the LU path's Jacobian workspace, (n + 1)^2 values

    @functools.cached_property
    def M(self):
        return _self_ring(self.spec, self.domain)

    @functools.cached_property
    def dense(self):
        return _self_ring(self.spec, self.domain, dense=True)

    @functools.cached_property
    def _own_blocks(self):  # the operator's split blocks, else the dense M's diagonal ones
        return self.M._split if isinstance(self.M, RingOperator) else np.einsum(
            "kikj->kij", self.M.reshape(self.domain.n // _PANEL, _PANEL, -1, _PANEL))

    @functools.cached_property
    def skew(self):
        """(B - D^-1 B^T D)/2 on each own-panel block B, D = t^2 w; D M is symmetric off them."""
        d, B = (self.domain.nodes**2 * self.domain.weights).reshape(-1, 1, _PANEL), self._own_blocks
        return 0.5 * (B - B.transpose(0, 2, 1) * d / d.transpose(0, 2, 1))

    @functools.cached_property
    def _structure(self):
        """`_eliminate`'s c-free parts: alpha C, G^-1 in and between panels, alpha 2 pi/t, w t."""
        dom, p, i = self.domain, self.domain.n // _PANEL, np.arange(_PANEL)
        [term] = _green_terms(self.spec)
        diag, off = _green_inverse(term, dom.nodes)
        inner = np.append(off, 0.0).reshape(p, _PANEL)  # 0 after the last panel
        tri = diag.reshape(p, _PANEL, 1) * np.eye(_PANEL)
        tri[:, i[:-1], i[1:]] = tri[:, i[1:], i[:-1]] = inner[:, :-1]
        aC = self.alpha * (self._own_blocks - _panel_green(self.spec, dom))
        post = (self.alpha * 2.0 * math.pi / dom.nodes).reshape(p, _PANEL, 1)
        return aC, tri, inner[:, -1].tolist(), post, (dom.weights * dom.nodes).reshape(p, -1, 1)

    @functools.cached_property
    def _negative(self):
        """N's entries as (rows, columns, values), found in the own-panel blocks; None if none."""
        blocks = self.alpha * self._own_blocks
        k, i, j = np.nonzero(blocks < 0.0)
        return (k * _PANEL + i, k * _PANEL + j, -blocks[k, i, j]) if k.size else None

    def apply(self, V):
        """alpha M V for a vector or an (n, k) block, each column with the bits of alpha (M @ v)."""
        # a dense M goes a column at a time: BLAS rounds a column by the block it is in
        if isinstance(self.M, RingOperator) or V.ndim == 1 or V.shape[1] == 1:
            return self.alpha * (self.M @ V)
        return self.alpha * np.column_stack([self.M @ V[:, j] for j in range(V.shape[1])])

    def neg_apply(self, y):
        """N y for one vector y, N the negative part of alpha M."""
        if self._negative is None:
            return np.zeros_like(y)
        rows, cols, values = self._negative
        return np.bincount(rows, values * y[cols], minlength=y.size)

    def abs_apply(self, y):
        """|alpha M| y = alpha M y + 2 N y for one vector y; `apply`'s alpha M y where N is zero."""
        out = self.apply(y)
        return out if self._negative is None else out + 2.0 * self.neg_apply(y)

    def solve(self, c, b, border=None):
        """x with (I - diag(c) alpha M) x = b, bordered by the column -c and the mass row border.

        Through G^-1 where `structured` (`_eliminate`); otherwise written over the
        attraction's workspace, C-ordered at its own size, every entry written so no
        border is left over from an earlier solve, and LU-factored.  Raises
        np.linalg.LinAlgError where the matrix is singular or the solve not finite.
        """
        if self.structured:
            with np.errstate(all="ignore"):
                x = self._eliminate(c, b, border)
            if np.isfinite(x).all():
                return x
            raise np.linalg.LinAlgError("singular or non-finite solve through G^-1")
        n, m = c.size, b.size
        if self._work is None:
            self._work = np.empty((n + 1) ** 2)
        J = self._work[:m * m].reshape(m, m)
        # -c_i fl(alpha M_ij), as eye - c (alpha M) rounds it, in one-panel ufunc buffers
        with np.errstate():
            np.setbufsize(_PANEL**2)
            A = np.multiply(self.dense, self.alpha, out=J[:n, :n])
            np.multiply(A, -c[:, None], out=A)
        J.reshape(-1)[:n * (m + 1):m + 1] += 1.0
        if border is not None:
            J[:n, n], J[n, :n], J[n, n] = -c, border, 0.0
        return np.linalg.solve(J, b)

    def _eliminate(self, c, b, border):
        """`solve` in O(n p^2) through the tridiagonal G^-1.

        With M = diag(2 pi/t) G diag(w t) + C, B = I - diag(c) alpha C, P = alpha diag(c 2 pi/t),
        Q = diag(w t): (G^-1 - Q B^-1 P) y = Q B^-1 b, x = B^-1 (b + P y), where the p x p diagonal
        blocks H_j couple only by G^-1's entries o_j between panels.  Batched inverses, then pivots
        S_j = H_j - sigma_j e_0 e_0^T (Sherman-Morrison), forward sweep and back substitution as
        scalar recurrences; y has G^-1's conditioning, so a residual above _REFINE of x is refined
        once.  The border's -c is one more column, gamma its Schur complement."""
        aC, tri, o, post, q = self._structure
        n, panels, e = c.size, c.size // _PANEL, _PANEL - 1
        Bi = np.linalg.inv(np.eye(_PANEL) - c.reshape(panels, _PANEL, 1) * aC)
        BP = Bi * (c.reshape(panels, _PANEL, 1) * post).reshape(panels, 1, _PANEL)
        Hi = np.linalg.inv(tri - q * BP)
        h00, h70, h07, h77 = (Hi[:, i, j].tolist() for i, j in ((0, 0), (e, 0), (0, e), (e, e)))
        piv, m, sig = [], [], 0.0  # S_j^-1 = H_j^-1 + m_j H_j^-1 e_0 e_0^T H_j^-1
        for j in range(panels):
            piv.append(1.0 - sig * h00[j] or math.nan)  # a zero pivot ends in LinAlgError
            m.append(sig / piv[j])
            sig = o[j] ** 2 * (h77[j] + m[j] * h70[j] * h07[j])  # o_j^2 (S_j^-1)_(p-1,p-1)
        cols = b[:n, None] if border is None else np.column_stack((b[:n], c))
        x, r, k = 0.0, cols, cols.shape[1]
        for _ in range(2):
            Bb = Bi @ r.reshape(panels, _PANEL, k)
            U = Hi @ (q * Bb)
            lower, upper = np.zeros((panels, k)), np.zeros((panels, k))
            for col in range(k):  # z_j = r_j - a_j e_0, a_(j+1) = o_j (S_j^-1 z_j)_(p-1)
                u0, u7 = U[:, 0, col].tolist(), U[:, e, col].tolist()
                a, w0, beta, y0 = [0.0], [], [], 0.0
                for j in range(panels):
                    w0.append((u0[j] - a[j] * h00[j]) / piv[j])
                    a.append(o[j] * (u7[j] + m[j] * h70[j] * u0[j] - a[j] * h70[j] / piv[j]))
                for j in reversed(range(panels)):  # y_j = S_j^-1 (z_j - beta_j e_(p-1))
                    beta.append(o[j] * y0)
                    y0 = w0[j] - beta[-1] * h07[j] / piv[j]
                lower[:, col], upper[:, col] = a[:-1], beta[::-1]
            g = U - Hi[..., :1] * lower[:, None] - Hi[..., e:] * upper[:, None]
            y = g + np.asarray(m)[:, None, None] * Hi[..., :1] * g[:, :1]
            x = x + (Bb + BP @ y).reshape(n, k)
            r = cols - x + c[:, None] * (self.alpha * (self.M @ x))
            if np.max(np.abs(r)) <= _REFINE * np.max(np.abs(x)):
                break
        if border is None:
            return x[:, 0]
        gamma = (b[n] - border @ x[:, 0]) / (border @ x[:, 1])
        return np.append(x[:, 0] + gamma * x[:, 1], gamma)


class _NewtonFinish:
    """Newton finish of one slowly converging fixed-point sequence.

    `_fixed_point` offers it every iterate v_k of its column with the
    gamma of that step; its Newton solves share the block's
    `attraction`.  It arms at the first step where the sequence is
    slow.  Firing runs one damped Newton solve from v_k to a limit v*;
    the solve gives up as soon as a step cuts the residual by less than
    that fixed-point step cut the change, for the iteration then does
    as well far more cheaply.  A failed or refused solve leaves plain
    iteration.

    At fixed gamma (no border) only monotone sequences are finished,
    and slow means that the Picard steps still ahead cost more than a
    finish.  The finish fires once the change has halved since it
    armed, at a step where the sequence still is slow: it is then slow
    and converging, not sliding through a bottleneck, where a Newton
    solve from v_k fails.  At the ratio q of the last two changes about
    log(tol/change)/log(q) steps remain (without end once q >= 1), tol
    the loop's change tolerance; `_FINISH_COST` prices the finish, its
    Newton steps and certificate power steps, at one number of Picard
    steps for every n.  The limit v* is certified by `_certificate`, the
    one rule that `phase.constrained_solve` also applies to its
    bordered vapor.  If v* lies beyond v_k (up to Newton's tolerance),
    the Picard limit L lies in the order interval between them ([v_k,
    v*] going up, [v*, v_k] going down), since the map is monotone and
    v* is fixed.  v* is accepted once `_contraction_bound` on that
    interval is below 1: T then has one fixed point there, so L = v*
    (to Newton's residual over 1 - bound).  Next to a fold the
    peak of wp'' over the interval keeps that bound above 1 long after
    v* is found, so the bound falls back on the secant slopes of wp'
    from v*'s own argument, which is all the uniqueness argument needs.
    Otherwise Picard goes on, and the bound is checked again against a
    newer v_k each time the change has halved, with no second solve and
    with its power steps going on from the vector the last check
    reached.  A v* on the wrong side is dropped.

    With a mass border (D, N) the solve is `_newton`'s bordered one in
    (eta, gamma) from (v_k, gamma_k), for the mass-matched iteration
    of `phase.droplet_solve`.  Slow means here a change ratio above 0.9
    from step 3, and the finish fires at the step it arms, once.  Its
    limit has no order interval to sit in, so v* is accepted only where
    the linearly converging sequence is heading: sup|v* - v_k| <= 2
    change ratio / (1 - ratio), twice the geometric tail of the changes
    left at the firing step.  A lower ratio would arm at larger changes
    and widen that window.
    """

    def __init__(self, attraction, model, tol=None, border=None):
        self.attraction, self.model, self.border = attraction, model, border
        self.tol = tol
        self.change = self.checked = math.inf
        self.tried, self.limit = False, None
        self.y = np.ones(attraction.domain.n)  # the certificate's power-step vector

    def __call__(self, it, v, gamma, change, direction):
        if self.border is None and direction == "none":
            return None
        ratio = change / self.change if self.change else 0.0
        self.change = change
        if self.border is not None:  # one solve, fired at the step the finish arms
            if self.tried or ratio <= _FINISH_RATIO or it < _FINISH_FROM:
                return None
            self.tried = True
            limit = self._solve(v, gamma, ratio)
            # v* must lie where the sequence is heading
            if limit is not None and ratio < 1.0 and \
                    np.max(np.abs(limit[0] - v)) <= 2.0 * change * ratio / (1.0 - ratio):
                return limit
            return None
        # change > 0 whenever ratio > 0
        slow = it >= _FINISH_FROM and (ratio >= 1.0 or (
            ratio > 0.0 and math.log(self.tol / change) / math.log(ratio) > _FINISH_COST))
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
        failed, self.y = _certificate(self.attraction, gamma, self.model, v, self.limit[0],
                                      self.limit[2], direction, self.y)
        if failed is not None and failed[0] == "side":
            self.limit = None
        return self.limit if failed is None else None

    def _solve(self, v, gamma, ratio):
        """Newton from v; None if it fails or a step cuts the residual less than ratio."""
        norms = []

        def watch(step, norm):
            if norms and norm > ratio * norms[-1]:
                raise RuntimeError(f"Newton step {step} cut the residual less than Picard")
            norms.append(norm)

        try:
            return _newton(self.attraction, gamma, self.model, v, _NEWTON_TOL,
                           _NEWTON_STEPS, watch, self.border)
        except (RuntimeError, ValueError):
            return None


def _picard(spec, alpha, gammas, starts, domain, tol, model):
    """Picard launches at gammas[j] from the columns starts[:, j], as one block; their reports.

    See `picard_iterate`, which runs a one-column block; every column
    gets its own Newton finish where that one would, all sharing one
    alpha M.
    """
    attraction = _Attraction(spec, alpha, domain)
    gammas = np.asarray(gammas, dtype=float)

    def rule(cols, U, V):
        G = gammas[cols]
        return G, np.asarray(model.wp_prime(G + U), dtype=float)

    finishes = None
    if model.mode != eos.MODE_IDEAL_GAS and attraction.finishable:
        finishes = [_NewtonFinish(attraction, model, tol=tol) for _ in gammas]
    return [report for report, _ in
            _fixed_point(attraction, model, starts, rule, _PICARD_STEPS, tol, finishes)]


def picard_iterate(spec, alpha, gamma, eta0, tol=1e-10, model=eos.EosModel()):
    """Fixed-point iteration eta -> wp'(gamma + alpha(-V*eta)) at fixed gamma.

    Runs the shared loop `_fixed_point` on a one-column block with a
    constant gamma; see there for the stopping rule and the monotone
    direction.  A monotone sequence (n <= 512, not the ideal gas) with
    more than `_FINISH_COST` Picard steps left to tol is finished by
    one damped Newton solve whose limit is accepted only with a
    certificate that it is the limit the monotone sequence converges
    to: the Collatz-Wielandt bound of `_contraction_bound` below 1 on
    the order interval between the last iterate and the Newton limit
    (see `_NewtonFinish`).  Without the certificate the iteration runs
    on as plain Picard.  The report then counts Picard and Newton
    steps.
    """
    return _picard(spec, alpha, [gamma], eta0.values[:, None], eta0.domain, tol, model)[0]


def _labelled(report, branch, direction, certification=""):
    """A launch's report with its branch label and certification.

    A launch from a sub- or supersolution moves up or down by
    comparison, so a first step too small to read (a start already at
    the fixed point to roundoff) still reports that direction.
    """
    report.branch_label, report.certification = branch, certification
    if report.monotone_direction == "none":
        report.monotone_direction = direction
    return report


def _minimal_start(spec, alpha, gamma, domain, model, neighbour=None):
    """The start of a minimal launch at gamma, cold or from a neighbour; see `extremal_pairs`."""
    start = np.full(domain.n, float(model.wp_prime(gamma)))
    if neighbour is not None:
        fault = _neighbour_fault(spec, alpha, gamma, domain, model, "minimal", neighbour)
        if fault is not None:
            raise ValueError(fault)
        start = np.maximum(start, neighbour[1].field.values)
    return start


def minimal_solution(spec, alpha, gamma, domain, model=eos.EosModel(), tol=1e-10):
    """Pointwise smallest solution, grown from the constant wp'(gamma).

    The attraction only raises the argument of wp', so the constant
    wp'(gamma) is a subsolution and the iteration climbs monotonically
    to the minimal solution.  A slow climb may end in a Newton finish,
    accepted only with `picard_iterate`'s contraction certificate, so
    the label stays true.  The climb reports direction "up" even where
    its first step is too small to read.  `extremal_pairs` can start
    the climb from a neighbouring gamma's minimal solution instead.
    """
    start = _minimal_start(spec, alpha, gamma, domain, model)
    report = picard_iterate(spec, alpha, gamma, DensityField(domain, start), tol=tol,
                            model=model)
    return _labelled(report, "minimal", "up")


def _certification(alpha_phi, gamma, model):
    """How maximal_solution's ceiling certifies it at gamma; see there."""
    if model.mode == eos.MODE_HARD_SPHERE and (
            gamma - eos.GAMMA_FS + alpha_phi * eos.ETA_FS_LO <= 0.0):
        return "fluid-ceiling"
    return "algebraic-ceiling"


def _ceiling(spec, alpha, gamma, domain, model):
    """The constant supersolution maximal_solution descends from, and its certification."""
    if model.mode == eos.MODE_IDEAL_GAS:
        raise ValueError("supersolution construction needs a hard-sphere branch")
    alpha_phi = alpha * kernels.phi_lambda(spec, domain.R)
    certification = _certification(alpha_phi, gamma, model)
    if certification == "fluid-ceiling":
        return eos.ETA_FS_LO, certification
    if model.mode == eos.MODE_CS_EXTENDED:
        return uniform.largest_root(alpha_phi, gamma), certification
    fluid = [r for r in uniform.solve_uniform(alpha_phi, gamma).roots
             if r <= eos.ETA_FS_LO + 1e-12]
    if not fluid:
        raise ValueError(
            "supersolution unavailable: no algebraic root in the fluid range "
            f"at alpha {alpha!r}, gamma {gamma!r}"
        )
    return fluid[-1], certification


def _neighbour_fault(spec, alpha, gamma, domain, model, branch, neighbour):
    """Why neighbour=(gamma', report) cannot start branch's launch at gamma, or None.

    The neighbour must be a solution of that branch on a grid of the
    same (R, n), at gamma' below gamma for the minimal branch and above
    it for the maximal one.  A maximal neighbour must also carry the
    certification the launch at gamma gets and descend from a ceiling
    at least as high.  The largest algebraic root (CS-extended) rises
    with gamma, and the fluid ceiling is 0.49 at every gamma, so only
    hard-sphere algebraic ceilings are solved for and compared.
    """
    g_n, rep = neighbour
    where = f"{branch} launch at gamma {gamma!r} from a neighbour at gamma {g_n!r}"
    if rep.branch_label != branch:
        return f"{where}: the neighbour is a {rep.branch_label} solution"
    if not (g_n < gamma if branch == "minimal" else g_n > gamma):
        side = "below" if branch == "minimal" else "above"
        return f"{where}: the neighbour must lie {side} gamma"
    grid = rep.field.domain
    if (grid.R, grid.n) != (domain.R, domain.n):
        return (f"{where}: the neighbour was solved on another grid "
                f"(R {grid.R!r}, n {grid.n}), not (R {domain.R!r}, n {domain.n})")
    if branch == "minimal":
        return None
    alpha_phi = alpha * kernels.phi_lambda(spec, domain.R)
    certification = _certification(alpha_phi, gamma, model)
    if rep.certification != certification:
        return (f"{where}: the neighbour's certification {rep.certification!r} is not "
                f"this launch's {certification!r}")
    if model.mode == eos.MODE_HARD_SPHERE and certification == "algebraic-ceiling":
        ceiling = _ceiling(spec, alpha, gamma, domain, model)[0]
        above = _ceiling(spec, alpha, g_n, domain, model)[0]
        if above < ceiling:
            return (f"{where}: the neighbour's ceiling {above!r} lies below "
                    f"this launch's {ceiling!r}")
    return None


def _maximal_start(spec, alpha, gamma, domain, model, neighbour=None):
    """The start of a maximal launch at gamma and its certification; see `extremal_pairs`."""
    start_value, certification = _ceiling(spec, alpha, gamma, domain, model)
    start = np.full(domain.n, start_value)
    if neighbour is not None:
        fault = _neighbour_fault(spec, alpha, gamma, domain, model, "maximal", neighbour)
        if fault is not None:
            raise ValueError(fault)
        start = np.minimum(start, neighbour[1].field.values)
    return start, certification


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
    certification stay true.  The descent reports direction "down" even
    where its first step is too small to read.  `extremal_pairs` can
    start the descent from a neighbouring gamma's maximal solution
    instead.
    """
    start, certification = _maximal_start(spec, alpha, gamma, domain, model)
    report = picard_iterate(spec, alpha, gamma, DensityField(domain, start), tol=tol,
                            model=model)
    return _labelled(report, "maximal", "down", certification)


def extremal_pairs(spec, alpha, gammas, domain, model=eos.EosModel(), tol=1e-10,
                   neighbours=None):
    """The (minimal, maximal) solution pair at each gamma of a grid, in grid order.

    Each pair is `minimal_solution` and `maximal_solution` at its gamma,
    bit for bit: the launches start where those do, from the constant
    wp'(gamma) and from the certified ceiling, and carry the same
    labels.  All 2k launches run as the columns of one block in the
    shared loop `_fixed_point`, so M and wp' are applied once per step
    to every launch still open, and each column's bits do not depend on
    which other gammas share the block.  The first launch to fail
    raises, naming its gamma.

    neighbours, if given, holds one (below, above) per gamma: the
    minimal solution at a lower gamma' and the maximal solution at a
    higher one, each (gamma', report) on a grid of the same (R, n), or
    None to start that launch cold.  The minimal launch then climbs from
    max(wp'(gamma), below) and the maximal one descends from min(c,
    above), c the ceiling.  By comparison (Sattinger; Amann) the
    minimal solution rises with gamma: below is a subsolution at gamma,
    since wp' rises with its argument, the max of two subsolutions is
    one, and both lie below the minimal solution at gamma, so the climb
    ends there.  Likewise above is a supersolution at gamma, the min of
    two is one, and a solution at gamma below c is a subsolution at
    gamma', so where above descended from a ceiling of at least c it
    lies above the maximal solution at gamma, and the descent ends there
    with the same certification.  A neighbour that is not a solution of
    its branch, lies on the wrong side of gamma, was solved on another
    grid or, for the maximal branch, carries another certification or
    descends from a lower ceiling raises ValueError naming both gammas,
    and neighbours of another length than gammas raise ValueError
    naming both lengths.
    """
    if neighbours is not None and len(neighbours) != len(gammas):
        raise ValueError(f"neighbours has length {len(neighbours)} but gammas has length "
                         f"{len(gammas)}")
    starts, certifications = [], []
    for gamma, (below, above) in zip(gammas, neighbours or [(None, None)] * len(gammas)):
        lo = _minimal_start(spec, alpha, gamma, domain, model, below)
        hi, certification = _maximal_start(spec, alpha, gamma, domain, model, above)
        starts += [lo, hi]
        certifications.append(certification)
    reports = _picard(spec, alpha, np.repeat(np.asarray(gammas, dtype=float), 2),
                      np.column_stack(starts), domain, tol, model)
    return [(_labelled(lo, "minimal", "up"), _labelled(hi, "maximal", "down", certification))
            for lo, hi, certification in zip(reports[::2], reports[1::2], certifications)]


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
    only with `picard_iterate`'s contraction certificate.  Both climbs
    report direction "up" even where the first step is too small to
    read.
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
    shrunk = make_domain(sigma_grave * R, n=domain.n)
    ones = constant_field(shrunk, etabar)
    u0 = convolve_at(spec, alpha, ones, domain.nodes)
    start = DensityField(
        domain, np.asarray(model.wp_prime(gamma + u0), dtype=float)
    )
    report = picard_iterate(spec, alpha, gamma, start, model=model)
    return _labelled(report, "minimal" if mu == "m" else "other", "up")


def _newton(attraction, gamma, model, v, tol, max_iter, callback=None, border=None):
    """Damped Newton on F(eta) = eta - wp'(gamma + alpha M eta) from v, by the attraction.

    The one loop behind `newton_solve` and the Newton finish; it applies
    alpha M as Picard does.  With a mass border (D, N), gamma is one
    more unknown, started from the gamma given, and the mass D.eta = N,
    held as the mean fraction D.eta/sum(D) = N/sum(D), one more
    equation: each step solves the bordered system [[I - diag(wp'')
    alpha M, -wp''], [D^T/sum(D), 0]] of size n + 1, the tangent system
    of the mass-constrained branch, and the residual is the largest of
    |F| and the mean-fraction gap.  Returns (eta, alpha M eta, residual,
    steps, gamma).  A solve whose last 8 accepted steps together cut the
    residual by less than 1% has stalled and raises RuntimeError; every
    failure names gamma and the last residual.  callback, if given,
    receives (step, residual) at the start and after every accepted step.
    """
    n, w = v.size, None
    if border is not None:
        D, N = border
        w, mean = D / np.sum(D), N / np.sum(D)

    def resid(x):
        vec, g = (x[:n], x[n]) if border is not None else (x, gamma)
        u = attraction.apply(vec)
        eta = np.asarray(model.wp_prime(g + u))
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
        try:
            step = attraction.solve(model.response_at(eta), -F, w)
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


def newton_solve(spec, alpha, gamma, eta0, model=eos.EosModel()):
    """Damped Newton on F(eta) = eta - wp'(gamma + alpha(-V*eta)).

    The Jacobian I - diag(wp'') alpha M is solved by `_Attraction`, through
    G^-1 from 128 nodes for a Yukawa or a Newton kernel, else by LU; the
    residuals apply alpha M as Picard does, so above 512 nodes such a
    kernel forms no n x n array.  Its wp'' is read off the profile the
    residual has just inverted.  Unlike Picard this also reaches
    iteration-unstable solutions, at quadratic rate near any root.  A
    solve whose last 8 accepted steps together cut the residual by less
    than 1% has stalled and raises RuntimeError; every failure names
    gamma and the last residual.
    """
    v, u, norm, steps, _ = _newton(_Attraction(spec, alpha, eta0.domain), gamma, model,
                                   eta0.values.copy(), _NEWTON_TOL, _NEWTON_STEPS)
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
