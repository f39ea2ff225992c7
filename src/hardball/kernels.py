"""Attraction kernels and their ball integrals.

A kernel is a non-negative linear combination of three radial families,
all strictly negative: van der Waals (1+vk^2 r^2)^-3, Yukawa e^-kr/r,
and Newton 1/r.  For a ball domain every integral the solvers need has
a closed form: the in-ball potential of a uniform density, its sup Phi
(the center's value, the kernel's L1 norm over the ball) and its L1
norm (the double integral), the second moment and the boundary
(tail-mass) constant, plus the geometric functional Psi and the
scaling optimum used to build subsolutions.

Sign convention: integrals of the attraction are reported positive,
i.e. ball_potential returns -(V*1)(r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "kernel_eval",
    "l1_norm_r3",
    "ball_potential",
    "ball_double_integral",
    "phi_lambda",
    "psi_lambda",
    "optimal_scaling",
    "second_moment",
    "boundary_constant",
    "ring_primitive",
]


@dataclass(frozen=True)
class KernelSpec:
    """Amplitudes and inverse ranges of the attraction kernel.

    a_w, a_y, a_n weight the van der Waals, Yukawa, and Newton parts;
    varkappa and kappa are the inverse ranges of the first two.
    """

    a_w: float = 0.0
    a_y: float = 0.0
    a_n: float = 0.0
    varkappa: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("a_w", "a_y", "a_n", "varkappa", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if min(self.a_w, self.a_y, self.a_n) < 0:
            raise ValueError("kernel amplitudes must be non-negative")
        if self.a_w == self.a_y == self.a_n == 0:
            raise ValueError("at least one kernel amplitude must be positive")
        if self.varkappa <= 0 or self.kappa <= 0:
            raise ValueError("inverse ranges must be positive")

    @property
    def singular(self) -> bool:
        """True when the kernel diverges at the origin."""
        return self.a_y > 0 or self.a_n > 0


def kernel_eval(spec, r):
    """Pointwise kernel value; strictly negative for r > 0.

    A float r, as a quadrature rule passes one point at a time, skips
    the array conversion and its reductions; the ufuncs are the same,
    so it gets the value the array path gives.
    """
    if isinstance(r, float):
        rr, negative, zero = r, r < 0, r == 0
    else:
        rr = np.asarray(r, dtype=float)
        negative, zero = (rr < 0).any(), (rr == 0).any()
    if negative:
        raise ValueError("r must be non-negative")
    if spec.singular and zero:
        raise ValueError("kernel is singular at r = 0")
    out = 0.0  # broadcasts to rr's shape at the first term
    if spec.a_w:
        out -= spec.a_w / np.power(1.0 + spec.varkappa**2 * (rr * rr), 3)
    if spec.a_y:
        out -= spec.a_y * np.exp(-spec.kappa * rr) / rr
    if spec.a_n:
        out -= spec.a_n / rr
    if np.ndim(out) == 0:
        return float(out)
    return out


def l1_norm_r3(spec):
    """L1 norm of the kernel over all of space."""
    if spec.a_n > 0:
        raise ValueError("the Newton part is not integrable over R^3")
    return spec.a_w * math.pi**2 / (4.0 * spec.varkappa**3) + spec.a_y * 4.0 * math.pi / spec.kappa**2


def _sinh_ratio(kr, kR):
    """(1+kR)e^-kR sinh(kr)/kr, written to avoid overflow for large kr."""
    small = np.abs(kr) < 1e-6
    safe = np.where(small, 1.0, kr)
    grow = (np.exp(-(kR - kr)) - np.exp(-(kR + kr))) / (2.0 * safe)
    lim = np.exp(-kR) * (1.0 + kr**2 / 6.0)
    return (1.0 + kR) * np.where(small, lim, grow)


def ball_potential(spec, r, R):
    """In-ball potential -(V*1)_{B_R}(r) of a unit density, closed form.

    Valid for 0 <= r <= R; the same expressions evaluate for r > R but
    no longer represent the potential there.
    """
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0) or R <= 0:
        raise ValueError("need r >= 0 and R > 0")
    out = np.zeros_like(rr)
    if spec.a_w:
        vk = spec.varkappa
        # (vk^2(R^2+r^2)+1)^2 - 4 vk^4 R^2 r^2 factorized for stability
        den = (vk**2 * (R - rr) ** 2 + 1.0) * (vk**2 * (R + rr) ** 2 + 1.0)
        out += (
            spec.a_w
            * math.pi
            / (4.0 * vk**3)
            * (
                np.arctan(vk * (R + rr))
                + np.arctan(vk * (R - rr))
                + 2.0 * vk * R * (vk**2 * (R**2 - rr**2) - 1.0) / den
            )
        )
    if spec.a_y:
        k = spec.kappa
        out += spec.a_y * 4.0 * math.pi / k**2 * (1.0 - _sinh_ratio(k * rr, k * R))
    if spec.a_n:
        out += spec.a_n * 2.0 * math.pi * (R**2 - rr**2 / 3.0)
    if np.ndim(r) == 0:
        return float(out)
    return out


def phi_lambda(spec, R):
    """Phi_Lambda, the ball potential's sup: the center's, the kernel's L1 norm over the ball."""
    if R <= 0:
        raise ValueError("R must be positive")
    out = 0.0
    if spec.a_w:
        x = spec.varkappa * R
        out += (
            spec.a_w
            * math.pi
            / (2.0 * spec.varkappa**3)
            * (math.atan(x) + x * (x**2 - 1.0) / (x**2 + 1.0) ** 2)
        )
    if spec.a_y:
        x = spec.kappa * R
        out += spec.a_y * 4.0 * math.pi / spec.kappa**2 * (1.0 - (1.0 + x) * math.exp(-x))
    if spec.a_n:
        out += spec.a_n * 2.0 * math.pi * R**2
    return out


def ball_double_integral(spec, R):
    """L1 norm over the ball of the in-ball potential (a double integral)."""
    if R <= 0:
        raise ValueError("R must be positive")
    out = 0.0
    if spec.a_w:
        x = spec.varkappa * R
        out += (
            spec.a_w
            * math.pi**2
            / (6.0 * spec.varkappa**6)
            * (4.0 * x**3 * math.atan(2.0 * x) - 4.0 * x**2 + math.log1p(4.0 * x**2))
        )
    if spec.a_y:
        x = spec.kappa * R
        if x < 1.0:
            # the bracket is O(x^2) built from O(x^-2) pieces; sum its Taylor
            # series instead, coefficients c_k = 1.5 (-2)^k 2^2 (k+1)/(k+3)!
            bracket = 0.0
            c_prev = 1.0
            xk = 1.0
            for k in range(1, 40):
                c_k = c_prev * (-2.0) * (k + 1) / (k * (k + 3))
                xk *= x
                if k >= 2:
                    bracket -= (c_k + c_prev) * xk
                c_prev = c_k
        else:
            bracket = 1.0 - (1.0 + x) * 1.5 * (
                (1.0 + math.exp(-2.0 * x)) / x**2 - (1.0 - math.exp(-2.0 * x)) / x**3
            )
        out += spec.a_y * 16.0 * math.pi**2 / (3.0 * spec.kappa**5) * x**3 * bracket
    if spec.a_n:
        # uniform-ball self-energy; also the kappa -> 0 limit of the Yukawa form
        out += spec.a_n * 32.0 * math.pi**2 / 15.0 * R**5
    return out


def psi_lambda(spec, diam, volume):
    """Worst-case lower bound -V(diam)|Lambda| on the potential."""
    if diam <= 0 or volume <= 0:
        raise ValueError("diam and volume must be positive")
    return -kernel_eval(spec, diam) * volume


def optimal_scaling(spec, diam, volume):
    """Maximize Psi over rescalings of the domain by a factor in (0, 1].

    Returns (sigma_grave, psi_max) where the map
    sigma -> -sigma^3 V(sigma*diam) |Lambda| attains its global maximum.
    A single family has one interior critical point, so its maximizer
    is closed form and capped at 1: Yukawa sigma^2 e^(-kappa diam
    sigma) peaks at 2/(kappa diam), van der Waals sigma^3 (1 +
    (varkappa diam sigma)^2)^-3 at 1/(varkappa diam).  Mixtures are
    searched by `_scan_scaling`.
    """
    if spec.a_n > 0:
        raise ValueError("scaling optimum requires an integrable kernel")
    if diam <= 0 or volume <= 0:
        raise ValueError("diam and volume must be positive")
    if spec.a_w and spec.a_y:
        return _scan_scaling(spec, diam, volume)
    peak = 2.0 / (spec.kappa * diam) if spec.a_y else 1.0 / (spec.varkappa * diam)
    sigma = min(1.0, peak)
    return sigma, psi_lambda(spec, sigma * diam, sigma**3 * volume)


def _scan_scaling(spec, diam, volume):
    """`optimal_scaling` by search: a scan of 2048 scales, each interior
    maximum polished by a bounded minimize_scalar; on near-ties the
    largest maximizer wins."""
    from scipy.optimize import minimize_scalar  # here, so `import hardball` loads no scipy

    def psi(s):
        return -float(kernel_eval(spec, s * diam)) * s**3 * volume

    grid = np.concatenate([np.geomspace(1e-8, 1.0, 1024), np.linspace(1e-3, 1.0, 1024)])
    grid = np.unique(grid)
    vals = np.array([psi(s) for s in grid])
    candidates = [(1.0, psi(1.0))]
    interior = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    for i in interior:
        res = minimize_scalar(
            lambda s: -psi(s),
            bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
            method="bounded",
            options={"xatol": 1e-14},
        )
        candidates.append((float(res.x), psi(float(res.x))))
    best = max(v for _, v in candidates)
    sigma = max(s for s, v in candidates if v >= best * (1.0 - 1e-12))
    return sigma, psi(sigma)


def second_moment(spec):
    """Second moment (1/6) int |x|^2 V d^3x; negative for attraction."""
    if spec.a_n > 0:
        raise ValueError("the Newton part has no finite second moment")
    out = 0.0
    if spec.a_y:
        out -= spec.a_y * 4.0 * math.pi / spec.kappa**4
    if spec.a_w:
        out -= spec.a_w * math.pi**2 / (8.0 * spec.varkappa**5)
    return out


def boundary_constant(spec):
    """Tail-mass constant int_0^inf (|V|_L1(R^3) - |V|_L1(B_R)) dR.

    Closed form: the van der Waals tail integrates to pi/vk^4 through
    its arctan terms, the Yukawa tail (4 pi/k^2)(1+kR)e^-kR to 8 pi/k^3.
    """
    if spec.a_n > 0:
        raise ValueError("requires an integrable kernel")
    return spec.a_w * math.pi / spec.varkappa**4 + 8.0 * math.pi * spec.a_y / spec.kappa**3


def ring_primitive(spec, t):
    """Primitive int_0^t u(-V(u)) du of the ring-reduced kernel.

    The radial reduction of the 3D convolution only ever needs this
    antiderivative, which is elementary for all three families.
    """
    tt = np.asarray(t, dtype=float)
    if (tt < 0).any():
        raise ValueError("t must be non-negative")
    out = 0.0  # broadcasts to tt's shape at the first term
    if spec.a_w:
        vk2 = spec.varkappa**2
        y = vk2 * tt**2  # 1 - 1/(1 + y)^2, with no cancellation at small y
        out += spec.a_w / (4.0 * vk2) * (y * (2.0 + y) / (1.0 + y) ** 2)
    if spec.a_y:
        out += spec.a_y * (1.0 - np.exp(-spec.kappa * tt)) / spec.kappa
    if spec.a_n:
        out += spec.a_n * tt
    if tt.ndim == 0:
        return float(out)
    return out
