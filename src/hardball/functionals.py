"""Grand-potential and free-energy functionals on radial density fields.

All functionals integrate over the ball with the volume element
4 pi r^2 dr built from the domain quadrature.  P is the quantity the
solutions make stationary at fixed chemical potential; F = E - S is its
Legendre partner at fixed particle content, so gamma N - F = P holds on
every solution.  Second variations are evaluated as explicit quadratic
forms on random probes and classified by the extremal eigenvalue of
the discretized form in the volume metric: P's top one by Lanczos
(`_top_eigenpair`, also `spectral`'s), F's from a dense eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

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

_GAMMA_SPREAD = 1e-5  # nodewise gamma spread up to which gamma_of accepts a field
_PROBES = 100  # random perturbations each stability classification tries


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

    label is "stable", "unstable", or "indifferent"; probe_failures
    counts random probes violating the stable sign.  extremal_eigenvalue
    decides the label.  For P it is the largest eigenvalue of the form
    relative to int sigma alpha(-V*sigma), equal to (rho(K) - 1)/2 for
    the spectral radius rho(K) of the linearized fixed-point map, so
    stable means rho(K) < 1; perturbations with alpha M sigma = 0 do
    not count.  For F it is the smallest eigenvalue of the form
    relative to int sigma^2 over zero-mass sigma, and stable means it
    is positive.
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


def gamma_of(spec, alpha, fld, model=eos.EosModel()):
    """Chemical potential the field solves for, or None.

    Inverts the density map nodewise by `EosModel.gamma_at` and
    subtracts the potential; a solution produces the same value at
    every node.  Hard-sphere fields with values in the branch gap
    (eta_fs^<, eta_fs^>), up to 1e-12 at either end, solve nothing.
    gamma_at clips nodes within 1e-13 of close packing, or past it, to
    the solid top, and reads nodes within 1e-12 below eta_fs^> as
    g2(eta_fs^<), one ulp from g4(eta_fs^>).
    """
    v = fld.values
    if model.mode == eos.MODE_HARD_SPHERE and not np.all(
        (v <= eos.ETA_FS_LO + 1e-12) | (v >= eos.ETA_FS_HI - 1e-12)
    ):
        return None
    cand = model.gamma_at(v) - field_mod.convolve(spec, alpha, fld)
    if float(np.max(cand) - np.min(cand)) > _GAMMA_SPREAD:
        return None
    return float(volume_weights(fld.domain) @ cand) / float(
        volume_weights(fld.domain).sum()
    )


def pressure_functional(spec, alpha, gamma, fld, model=eos.EosModel()):
    """Grand-potential functional: int wp(gamma + alpha(-V*eta)) - interaction."""
    u = field_mod.convolve(spec, alpha, fld)
    local = np.asarray(model.wp(gamma + u), dtype=float)
    return float(volume_weights(fld.domain) @ local) - alpha * _interaction(spec, fld)


def functional_values(spec, alpha, gamma, fld, model=eos.EosModel()):
    """Bundle of all functionals for one field."""
    return FunctionalValues(
        P=pressure_functional(spec, alpha, gamma, fld, model=model),
        N=n_functional(fld),
        E=e_functional(spec, alpha, fld),
        S=s_functional(fld),
        F=f_functional(spec, alpha, fld),
        Gamma=gamma_of(spec, alpha, fld, model=model),
    )


def _ring_volume_metric(spec, alpha, domain):
    """T = D^(-1/2) sym(D alpha M) D^(-1/2): int sigma alpha(-V*sigma) in the volume metric."""
    D = volume_weights(domain)
    DA = D[:, None] * (alpha * field_mod._self_ring(spec, domain, dense=True))
    d = 1.0 / np.sqrt(D)
    return d[:, None] * (0.5 * (DA + DA.T)) * d


def _top_eigenpair(spec, alpha, domain, c):
    """Top eigenpair of c T c by Lanczos, T of _ring_volume_metric applied, never formed.

    The start c D^(1/2) is fixed.  Returns the value, c x / D^(1/2) for the
    eigenvector x after one step of K = diag(c^2) alpha M (D M is symmetric
    only to about 1e-6), signed to a positive sum, and the matvec count.
    M and M^T are applied by the cached ring matrix, or above 512 nodes
    by `field.RingOperator`, so no n x n array is formed there either.
    """
    M = field_mod._self_ring(spec, domain)
    MT = M.T
    s = np.sqrt(volume_weights(domain))
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        y = c * np.ravel(x)
        return c * (0.5 * alpha) * (s * (M @ (y / s)) + (MT @ (s * y)) / s)

    op = scipy.sparse.linalg.LinearOperator((domain.n, domain.n), matvec=matvec, dtype=float)
    value, x = scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=c * s)
    xi = c**2 * (M @ (c * x[:, 0] / s))
    return float(value[0]), np.copysign(1.0, xi.sum()) * xi, matvecs


def _zero_mass(D, sig):
    """sig minus its component along D: the row(s) then integrate to zero."""
    return sig - np.multiply.outer(sig @ D / (D @ D), D)


def _p_curvature(spec, alpha, gamma, fld, model):
    """wp''(gamma + u) at the field's own potential; raises at the kink."""
    u = field_mod.convolve(spec, alpha, fld)
    return np.asarray(model.wp_double_prime(gamma + u), dtype=float)


def _form_P(spec, alpha, fld, curv, sig):
    """(1/2)int wp'' w^2 - (1/2)int sig w, w = alpha(-V*sig); one value per row of sig."""
    w = field_mod.apply_kernel(spec, alpha, fld.domain, sig.T).T
    return 0.5 * ((curv * w**2 - sig * w) @ volume_weights(fld.domain))


def _form_F(spec, alpha, fld, curv, sig):
    """-(1/2)int s'' sig^2 - (1/2)int sig w, w = alpha(-V*sig); one value per row of sig."""
    w = field_mod.apply_kernel(spec, alpha, fld.domain, sig.T).T
    return -0.5 * ((curv * sig**2 + sig * w) @ volume_weights(fld.domain))


def second_variation_P(spec, alpha, gamma, fld, sigma, model=eos.EosModel()):
    """Quadratic form (1/2)int wp''(gamma+u)(alpha V*sigma)^2 + (1/2)int int alpha V sigma sigma.

    Negative for every sigma exactly when the solution is a local
    maximum of P.  Raises at the hard-sphere kink, where wp'' does not
    exist.
    """
    curv = _p_curvature(spec, alpha, gamma, fld, model)
    return float(_form_P(spec, alpha, fld, curv, np.asarray(sigma, dtype=float)))


def second_variation_F(spec, alpha, fld, sigma):
    """Quadratic form -(1/2)int s''(eta) sigma^2 + (1/2)int int alpha V sigma sigma.

    F is varied at fixed mass, so a sigma carrying more than roundoff of
    total mass is first projected onto the mass-preserving subspace.
    Positive for every admissible sigma exactly when the solution is a
    local minimum of F.
    """
    sig = np.asarray(sigma, dtype=float)
    D = volume_weights(fld.domain)
    mass = float(D @ sig)
    if abs(mass) > 1e-12 * max(1.0, float(np.max(np.abs(sig)))):
        sig = _zero_mass(D, sig)
    return float(_form_F(spec, alpha, fld, entropy_density_second(fld.values), sig))


def _stability(lam, stable_sign, scale, failures):
    """Report for eigenvalue lam; stable when stable_sign * lam clears roundoff of scale."""
    margin, tol = stable_sign * lam, 1e-10 * max(1.0, scale)
    label = "stable" if margin > tol else "unstable" if margin < -tol else "indifferent"
    return StabilityReport(label, lam, failures)


def p_stability(spec, alpha, gamma, fld, model=eos.EosModel(), seed=0):
    """Classify the P second variation at a solution.

    probe_failures counts the 100 random perturbations, drawn from
    seed, on which the form is not negative.  extremal_eigenvalue is
    the form's largest eigenvalue relative to int sigma alpha(-V*sigma):
    the top one of (c T c - I)/2, c = wp''(gamma+u)^(1/2) and T the
    attraction in the volume metric, by Lanczos.  c T c has the
    spectrum of the linearized fixed-point map K = diag(wp'') alpha M,
    so rho(K) = 1 + 2 extremal_eigenvalue, and stable means rho(K) < 1.
    Perturbations with alpha M sigma = 0 leave the potential unchanged
    and do not count.  Assumes a positive semidefinite attraction, as
    for the Yukawa, Newton and van der Waals kernels, so that matrix has
    entries at most max(1/2, |lam|), its roundoff scale; at alpha = 0 it
    is -I/2.
    """
    curv = _p_curvature(spec, alpha, gamma, fld, model)
    probes = np.random.default_rng(seed).standard_normal((_PROBES, fld.domain.n))
    failures = int(np.count_nonzero(_form_P(spec, alpha, fld, curv, probes) >= 0.0))
    top = _top_eigenpair(spec, alpha, fld.domain, np.sqrt(curv))[0] if alpha > 0 else 0.0
    lam = 0.5 * (top - 1.0)
    return _stability(lam, -1.0, max(0.5, abs(lam)), failures)


def f_stability(spec, alpha, fld, seed=0):
    """Classify the F second variation over mass-preserving perturbations.

    probe_failures counts the 100 random zero-mass perturbations, drawn
    from seed, on which the form is not positive.  extremal_eigenvalue
    is the form's smallest eigenvalue relative to int sigma^2 over
    zero-mass sigma: that of -(1/2)(diag(s''(eta)) + T), T the
    attraction in the volume metric, on an orthonormal basis orthogonal
    to D^(1/2), from one dense symmetric eigensolve.  Stable means it
    is positive.
    """
    D = volume_weights(fld.domain)
    curv = entropy_density_second(fld.values)
    probes = _zero_mass(D, np.random.default_rng(seed).standard_normal((_PROBES, D.size)))
    failures = int(np.count_nonzero(_form_F(spec, alpha, fld, curv, probes) <= 0.0))
    basis = scipy.linalg.null_space(np.sqrt(D)[None, :])
    T = _ring_volume_metric(spec, alpha, fld.domain)
    B = basis.T @ (-0.5 * (np.diag(curv) + T)) @ basis
    lam = float(scipy.linalg.eigh(B, eigvals_only=True, subset_by_index=[0, 0])[0])
    return _stability(lam, 1.0, float(np.max(np.abs(B))), failures)


def branch_derivatives(spec, alpha, gamma, fld, model=eos.EosModel()):
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
