"""Grand-potential and free-energy functionals on radial density fields.

All functionals integrate over the ball with the volume element
4 pi r^2 dr built from the domain quadrature.  P is the quantity the
solutions make stationary at fixed chemical potential; F = E - S is its
Legendre partner at fixed particle content, so gamma N - F = P holds on
every solution.  Second variations are evaluated as explicit quadratic
forms and classified by random probes plus a shifted power iteration
for the extremal eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eos, field as field_mod

__all__ = [
    "FunctionalValues",
    "StabilityReport",
    "volume_weights",
    "entropy_density",
    "entropy_density_second",
    "n_functional",
    "e_functional",
    "s_functional",
    "f_functional",
    "gamma_of",
    "pressure_functional",
    "functional_values",
    "second_variation_P",
    "second_variation_F",
    "p_stability",
    "f_stability",
    "branch_derivatives",
]


@dataclass(frozen=True)
class FunctionalValues:
    """The five integral functionals plus the solved-for gamma.

    Gamma is None for fields that do not solve the fixed-point equation
    at any chemical potential.
    """

    P: float
    N: float
    E: float
    S: float
    F: float
    Gamma: float | None

    def as_dict(self):
        return {"P": self.P, "N": self.N, "E": self.E, "S": self.S,
                "F": self.F, "Gamma": self.Gamma}


@dataclass(frozen=True)
class StabilityReport:
    """Sign classification of a second-variation quadratic form.

    label is "stable", "unstable", or "indifferent"; extremal_eigenvalue
    is the eigenvalue of the discretized form that decides the label
    (largest for P, smallest mass-preserving for F); probe_failures
    counts random probes violating the stable sign.
    """

    label: str
    extremal_eigenvalue: float
    probe_failures: int


def volume_weights(domain):
    """Weights integrating node values against 4 pi r^2 dr."""
    return 4.0 * np.pi * domain.nodes**2 * domain.weights


def entropy_density(eta):
    """Closed-form entropy density (11/2)eta - eta ln eta - eta(3-2eta)/(1-eta)^2."""
    e = np.asarray(eta, dtype=float)
    if np.any(e <= 0.0) or np.any(e >= 1.0):
        raise ValueError("entropy density needs eta strictly inside (0, 1)")
    out = 5.5 * e - e * np.log(e) - e * (3.0 - 2.0 * e) / (1.0 - e) ** 2
    return float(out) if np.ndim(eta) == 0 else out


def entropy_density_second(eta):
    """Second derivative of the entropy density; equals -g2' and is < 0."""
    return -eos.g2_derivs(eta, 1)


def n_functional(fld):
    """Particle measure: integral of eta over the ball."""
    return float(volume_weights(fld.domain) @ fld.values)


def _interaction(spec, fld):
    """(1/2) integral of eta (-V*eta), the attraction's energy gain at alpha=1."""
    w1 = field_mod.apply_kernel(spec, 1.0, fld.domain, fld.values)
    return 0.5 * float(volume_weights(fld.domain) @ (fld.values * w1))


def e_functional(spec, alpha, fld):
    """Energy:temperature ratio (3/2)N minus the attraction integral."""
    return 1.5 * n_functional(fld) - alpha * _interaction(spec, fld)


def s_functional(fld):
    """Entropy from the closed-form density."""
    return float(volume_weights(fld.domain) @ entropy_density(fld.values))


def f_functional(spec, alpha, fld):
    """Free-energy:temperature ratio, E - S."""
    return e_functional(spec, alpha, fld) - s_functional(fld)


def gamma_of(spec, alpha, fld, model=None, tol=1e-5):
    """Chemical potential the field solves for, or None.

    Inverts the density map nodewise and subtracts the potential; a
    solution produces the same value at every node.  Hard-sphere fields
    with values in the branch gap (eta_fs^<, eta_fs^>) solve nothing.
    """
    model = field_mod._default_model(model)
    u = field_mod.convolve(spec, alpha, fld)
    v = fld.values
    if model.mode == eos.MODE_IDEAL_GAS:
        local = np.log(v)
    elif model.mode == eos.MODE_CS_EXTENDED:
        local = eos.g2(v)
    else:
        fluid = v <= eos.ETA_FS_LO + 1e-12
        solid = v >= eos.ETA_FS_HI - 1e-12
        if not np.all(fluid | solid):
            return None
        local = np.where(fluid, eos.g2(np.minimum(v, eos.ETA_FS_LO)),
                         eos.speedy_g4(np.maximum(v, eos.ETA_FS_HI)))
    cand = local - u
    if float(np.max(cand) - np.min(cand)) > tol:
        return None
    return float(volume_weights(fld.domain) @ cand) / float(
        volume_weights(fld.domain).sum()
    )


def pressure_functional(spec, alpha, gamma, fld, model=None):
    """Grand-potential functional: int wp(gamma + alpha(-V*eta)) - interaction."""
    model = field_mod._default_model(model)
    u = field_mod.convolve(spec, alpha, fld)
    local = np.asarray(model.wp(gamma + u), dtype=float)
    return float(volume_weights(fld.domain) @ local) - alpha * _interaction(spec, fld)


def functional_values(spec, alpha, gamma, fld, model=None):
    """Bundle of all functionals for one field."""
    return FunctionalValues(
        P=pressure_functional(spec, alpha, gamma, fld, model=model),
        N=n_functional(fld),
        E=e_functional(spec, alpha, fld),
        S=s_functional(fld),
        F=f_functional(spec, alpha, fld),
        Gamma=gamma_of(spec, alpha, fld, model=model),
    )


def second_variation_P(spec, alpha, gamma, fld, sigma, model=None):
    """Quadratic form (1/2)int wp''(gamma+u)(alpha V*sigma)^2 + (1/2)int int alpha V sigma sigma.

    Negative for every sigma exactly when the solution is a local
    maximum of P.  Raises at the hard-sphere kink, where wp'' does not
    exist.
    """
    model = field_mod._default_model(model)
    sig = np.asarray(sigma, dtype=float)
    u = field_mod.convolve(spec, alpha, fld)
    curv = np.asarray(model.wp_double_prime(gamma + u), dtype=float)
    w = field_mod.apply_kernel(spec, alpha, fld.domain, sig)
    D = volume_weights(fld.domain)
    return 0.5 * float(D @ (curv * w**2)) - 0.5 * float(D @ (sig * w))


def second_variation_F(spec, alpha, fld, sigma, project=True):
    """Quadratic form -(1/2)int s''(eta) sigma^2 + (1/2)int int alpha V sigma sigma.

    sigma must carry zero total mass; anything else is projected onto
    the mass-preserving subspace first.  Positive for every admissible
    sigma exactly when the solution is a local minimum of F.
    """
    sig = np.asarray(sigma, dtype=float)
    D = volume_weights(fld.domain)
    mass = float(D @ sig)
    if abs(mass) > 1e-12 * max(1.0, float(np.max(np.abs(sig)))):
        if not project:
            raise ValueError("sigma must integrate to zero over the ball")
        sig = sig - D * (mass / float(D @ D))
    curv = np.asarray(entropy_density_second(fld.values), dtype=float)
    w = field_mod.apply_kernel(spec, alpha, fld.domain, sig)
    return -0.5 * float(D @ (curv * sig**2)) - 0.5 * float(D @ (sig * w))


def _power_extremal(matvec, n, rng, largest, iters=3000, rtol=1e-11):
    """Extremal eigenvalue of a symmetric operator by shifted power iteration."""
    # crude spectral-radius bound from a few random Rayleigh quotients
    bound = 0.0
    for _ in range(4):
        z = rng.standard_normal(n)
        bound = max(bound, float(np.linalg.norm(matvec(z)) / np.linalg.norm(z)))
    shift = 2.0 * bound + 1e-30
    sign = 1.0 if largest else -1.0
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = sign * matvec(x) + shift * x
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0, x
        x_new = y / ny
        lam_new = float(x_new @ (sign * matvec(x_new) + shift * x_new))
        if abs(lam_new - lam) < rtol * max(1.0, abs(lam_new)):
            lam = lam_new
            x = x_new
            break
        lam, x = lam_new, x_new
    return sign * (lam - shift), x


def _classify(extremal, stable_when_negative, scale):
    tol = 1e-10 * max(1.0, scale)
    val = extremal if stable_when_negative else -extremal
    if val < -tol:
        return "stable"
    if val > tol:
        return "unstable"
    return "indifferent"


def p_stability(spec, alpha, gamma, fld, model=None, n_probes=100, seed=0):
    """Classify the P second variation at a solution.

    Builds the discretized symmetric form, checks n_probes random
    perturbations for sign violations, and drives a shifted power
    iteration to the largest eigenvalue; stable means the form is
    negative for every perturbation.
    """
    model = field_mod._default_model(model)
    dom = fld.domain
    u = field_mod.convolve(spec, alpha, fld)
    curv = np.asarray(model.wp_double_prime(gamma + u), dtype=float)
    D = volume_weights(dom)
    A = alpha * field_mod._self_ring(spec, dom)

    def form(sig):
        w = A @ sig
        return 0.5 * float(D @ (curv * w**2)) - 0.5 * float(D @ (sig * w))

    # symmetric matrix of the form in plain coordinates
    B = 0.5 * (A.T * (D * curv)) @ A - 0.25 * (D[:, None] * A + (D[:, None] * A).T)
    B = 0.5 * (B + B.T)

    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n_probes):
        sig = rng.standard_normal(dom.n)
        if form(sig) >= 0.0:
            failures += 1
    lam, _ = _power_extremal(lambda z: B @ z, dom.n, rng, largest=True)
    scale = float(np.max(np.abs(B)))
    return StabilityReport(
        label=_classify(lam, stable_when_negative=True, scale=scale),
        extremal_eigenvalue=lam,
        probe_failures=failures,
    )


def f_stability(spec, alpha, fld, n_probes=100, seed=0):
    """Classify the F second variation over mass-preserving perturbations.

    stable means the form is positive for every zero-mass perturbation;
    probes and the power iteration are projected against the volume
    weight vector accordingly.
    """
    dom = fld.domain
    D = volume_weights(dom)
    curv = np.asarray(entropy_density_second(fld.values), dtype=float)
    A = alpha * field_mod._self_ring(spec, dom)
    B = -0.5 * np.diag(D * curv) - 0.25 * (D[:, None] * A + (D[:, None] * A).T)
    B = 0.5 * (B + B.T)

    d_unit = D / np.linalg.norm(D)

    def project(z):
        return z - d_unit * float(d_unit @ z)

    def form(sig):
        return float(sig @ (B @ sig))

    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n_probes):
        sig = project(rng.standard_normal(dom.n))
        if form(sig) <= 0.0:
            failures += 1
    lam, _ = _power_extremal(
        lambda z: project(B @ project(z)), dom.n, rng, largest=False
    )
    scale = float(np.max(np.abs(B)))
    return StabilityReport(
        label=_classify(lam, stable_when_negative=False, scale=scale),
        extremal_eigenvalue=lam,
        probe_failures=failures,
    )


def branch_derivatives(spec, alpha, gamma, fld, model=None):
    """Derivatives of P and F along a solution branch.

    By stationarity the implicit field variation drops out, leaving
    dP/dgamma = N, dP/dalpha = -dF/dalpha = the interaction integral,
    and dF/dN = the chemical potential the field solves.
    """
    inter = _interaction(spec, fld)
    return {
        "dP_dgamma": n_functional(fld),
        "dP_dalpha": inter,
        "dF_dN": gamma_of(spec, alpha, fld, model=model),
        "dF_dalpha": -inter,
    }
