"""Spectral radius of the attraction operator on a ball container.

The convolution eta -> -(V*eta) restricted to the container is a compact
positive operator, so its spectral radius is the largest eigenvalue and
the corresponding eigenfunction can be taken positive.  Power iteration
from the constant function converges to both.  The radius controls where
small gas solutions can exist: no solution staying below the inflection
volume fraction survives past the spinodal estimate gamma_hat.
"""

from dataclasses import dataclass

import numpy as np

from . import field, functionals, kernels, uniform

__all__ = [
    "SpectralReport",
    "spectral_radius",
    "spinodal_gamma_hat",
]


@dataclass(eq=False)
class SpectralReport:
    """Converged power iteration data for one kernel and container."""

    domain: field.RadialDomain
    v_lambda: float
    eigenfield: np.ndarray
    lower_bound: float
    upper_bound: float
    iterations: int

    def __post_init__(self):
        if not self.lower_bound <= self.v_lambda < self.upper_bound:
            raise ValueError("spectral radius violates its a priori bounds")
        if not np.all(self.eigenfield > 0.0):
            raise ValueError("principal eigenfunction must be positive")


def spectral_radius(spec, domain, tol=1e-10, max_iter=20000):
    """Largest eigenvalue of eta -> -(V*eta) on the ball, with bounds.

    Power iteration starts from the constant function and renormalizes in
    the volume-weighted norm each step; convergence is declared when the
    Rayleigh quotient moves by less than ``tol`` relatively.  The returned
    eigenfield is scaled to unit integral.  The a priori bracket is the
    mean of the ball potential from below and the kernel's L1 norm over
    the ball from above; both are attached to the report.
    """
    matrix = field._self_ring(spec, domain)
    weights = functionals.volume_weights(domain)
    volume = 4.0 * np.pi * domain.R**3 / 3.0
    lower = kernels.ball_double_integral(spec, domain.R) / volume
    upper = kernels.ball_l1(spec, domain.R)

    xi = np.ones(domain.n)
    rayleigh = 0.0
    for iteration in range(1, max_iter + 1):
        image = matrix @ xi
        norm_sq = weights @ (xi * xi)
        new = (weights @ (xi * image)) / norm_sq
        xi = image / np.sqrt(weights @ (image * image))
        if abs(new - rayleigh) < tol * max(1.0, abs(new)):
            rayleigh = new
            break
        rayleigh = new
    else:
        raise RuntimeError(
            "power iteration did not settle; spectrum may be degenerate"
        )

    xi = xi / (weights @ xi)
    return SpectralReport(
        domain=domain,
        v_lambda=float(rayleigh),
        eigenfield=xi,
        lower_bound=float(lower),
        upper_bound=float(upper),
        iterations=iteration,
    )


def spinodal_gamma_hat(alpha_v):
    """Chemical-potential ceiling for small gas solutions.

    For attraction strength alpha times spectral radius v, a solution
    staying below the inflection volume fraction everywhere forces
    gamma < g2(eta_<) - alpha_v*eta_<, where eta_< is the smaller root of
    g2'(eta) = alpha_v.  Requires alpha_v above the inflection slope,
    else no such root exists.
    """
    if not alpha_v > uniform.ALPHA_TAU_MIN:
        raise ValueError(
            "spinodal estimate needs alpha_v above the inflection slope"
            f" {uniform.ALPHA_TAU_MIN:.4f}"
        )
    return uniform.gamma_boundaries(alpha_v)[1]
