"""Spectral radius of the attraction operator on a ball container.

The convolution eta -> -(V*eta) restricted to the container is a compact
positive operator, so its spectral radius is the largest eigenvalue and
the corresponding eigenfunction can be taken positive.  One Lanczos
eigensolve finds both.  The radius controls where small gas solutions
can exist: no solution staying below the inflection volume fraction
survives past the spinodal estimate gamma_hat.
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
    """Top eigenpair of the attraction; iterations counts the eigensolve's matvecs."""

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


def spectral_radius(spec, domain):
    """Largest eigenvalue of eta -> -(V*eta) on the ball, with bounds.

    The eigenpair comes from one Lanczos eigensolve of the attraction in
    the volume metric, converged to machine precision; the returned
    eigenfield is scaled to unit integral.  The a priori bracket is the
    mean of the ball potential from below and the kernel's L1 norm over
    the ball from above; both are attached to the report.
    """
    v_lambda, xi, matvecs = functionals._top_eigenpair(spec, 1.0, domain, np.ones(domain.n))
    volume = 4.0 * np.pi * domain.R**3 / 3.0
    return SpectralReport(
        domain, v_lambda, xi / (functionals.volume_weights(domain) @ xi),
        lower_bound=float(kernels.ball_double_integral(spec, domain.R) / volume),
        upper_bound=float(kernels.phi_lambda(spec, domain.R)), iterations=matvecs)


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
