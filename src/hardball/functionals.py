"""Grand-potential and free-energy functionals on radial density fields.

All functionals integrate over the ball with the volume element
4 pi r^2 dr built from the domain quadrature.  P is the quantity the
solutions make stationary at fixed chemical potential; F = E - S is its
Legendre partner at fixed particle content, so gamma N - F = P holds on
every solution.  `functional_values` alone computes N, E, S, F and
Gamma, and `pressure_functional` P alone.  Second variations are
evaluated as explicit quadratic forms on random probes and classified
by the extremal eigenvalue of the discretized form in the volume
metric: P's top one by Lanczos (`_top_eigenpair`, also `spectral`'s),
F's from a dense eigensolve.
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
    "pressure_functional",
    "functional_values",
    "second_variation_P",
    "second_variation_F",
    "p_stability",
    "f_stability",
]

_GAMMA_SPREAD = 1e-5  # nodewise gamma spread up to which a field has a Gamma
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


def _interaction(fld, w1):
    """(1/2) integral of eta w1 for w1 = -V*eta, the attraction's energy gain at alpha=1."""
    return 0.5 * float(volume_weights(fld.domain) @ (fld.values * w1))


def _potentials(spec, alpha, fld):
    """-V*eta and alpha(-V*eta) from one application of the ring.

    The second is `field.convolve`'s potential bit for bit: that is
    alpha * (M @ eta), and M @ eta = 1.0 * (M @ eta).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    w1 = field_mod.apply_kernel(spec, 1.0, fld.domain, fld.values)
    return w1, alpha * w1


def pressure_functional(spec, alpha, gamma, fld, model=eos.EosModel()):
    """Grand-potential functional: int wp(gamma + alpha(-V*eta)) - interaction."""
    w1, u = _potentials(spec, alpha, fld)
    return _pressure(alpha, gamma, fld, u, w1, model)


def _pressure(alpha, gamma, fld, u, w1, model):
    local = np.asarray(model.wp(gamma + u), dtype=float)
    return float(volume_weights(fld.domain) @ local) - alpha * _interaction(fld, w1)


def functional_values(spec, alpha, gamma, fld, model=eos.EosModel()):
    """P, N, E = (3/2)N - alpha I, S, F = E - S and Gamma, from one ring apply.

    Gamma is the chemical potential the field solves for, or None:
    `EosModel.gamma_at` at each node less the potential, the same at
    every node of a solution.  Hard-sphere fields with values in the
    branch gap (eta_fs^<, eta_fs^>), up to 1e-12 at either end, solve
    nothing: gamma_at reads nodes within 1e-12 below eta_fs^> as
    g2(eta_fs^<), one ulp from g4(eta_fs^>).
    """
    w1, u = _potentials(spec, alpha, fld)
    D, v = volume_weights(fld.domain), fld.values
    N = float(D @ v)
    E = 1.5 * N - alpha * _interaction(fld, w1)
    S = float(D @ entropy_density(v))
    gap = model.mode == eos.MODE_HARD_SPHERE and not np.all(
        (v <= eos.ETA_FS_LO + 1e-12) | (v >= eos.ETA_FS_HI - 1e-12)
    )
    cand = None if gap else model.gamma_at(v) - u
    Gamma = (None if cand is None or float(np.max(cand) - np.min(cand)) > _GAMMA_SPREAD
             else float(D @ cand) / float(D.sum()))
    return FunctionalValues(P=_pressure(alpha, gamma, fld, u, w1, model), N=N, E=E, S=S,
                            F=E - S, Gamma=Gamma)


def _ring_volume_metric(spec, alpha, domain):
    """T = D^(1/2) alpha (M - skew) D^(-1/2) = D^(-1/2) sym(D alpha M) D^(-1/2), in one array."""
    attraction = field_mod._Attraction(spec, alpha, domain)
    T, K = alpha * attraction.dense, attraction.skew
    np.einsum("kikj->kij", T.reshape(K.shape[0], K.shape[1], -1, K.shape[1]))[...] -= alpha * K
    s = np.sqrt(volume_weights(domain))
    return np.divide(np.multiply(T, s[:, None], out=T), s, out=T)


def _top_eigenpair(spec, alpha, domain, c):
    """Top eigenpair of c T c by Lanczos, T of _ring_volume_metric applied, never formed.

    The start c D^(1/2) is fixed.  Returns the value, c x / D^(1/2) for the
    eigenvector x after one step of diag(c^2) alpha M (D M is symmetric only
    to quadrature error, 1e-5 of its largest entry at kappa 1, R=30, n=256,
    1.5e-3 at kappa 5, R=15, n=64), signed to a positive sum, and the matvec
    count.  A matvec applies M, the cached ring matrix or above 512 nodes
    `field.RingOperator` (no n x n array), less `field._Attraction.skew`.
    """
    import scipy.sparse.linalg  # on first use, so `import hardball` loads no scipy

    attraction = field_mod._Attraction(spec, alpha, domain)
    M, skew = attraction.M, attraction.skew
    s = np.sqrt(volume_weights(domain))
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        z = c * np.ravel(x) / s
        return c * (alpha * s) * (M @ z - (skew @ z.reshape(skew.shape[0], -1, 1)).ravel())

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
    attraction in the volume metric, on the orthonormal basis
    orthogonal to D^(1/2) that one Householder reflector gives, from
    one dense symmetric eigensolve.  Stable means it is positive.
    """
    import scipy.linalg  # on first use, so `import hardball` loads no scipy

    D = volume_weights(fld.domain)
    curv = entropy_density_second(fld.values)
    probes = _zero_mass(D, np.random.default_rng(seed).standard_normal((_PROBES, D.size)))
    failures = int(np.count_nonzero(_form_F(spec, alpha, fld, curv, probes) <= 0.0))
    form = _ring_volume_metric(spec, alpha, fld.domain)
    form.reshape(-1)[::D.size + 1] += curv  # diag(curv) + T, in place
    # the reflector H = I - 2 w w^T / w.w takes D^(1/2) to -|D^(1/2)| e_1, so H's other
    # columns span the zero-mass sigma; H form H = form - w q^T - q w^T
    w = np.sqrt(D)
    w[0] += np.linalg.norm(w)
    p = form @ w * (2.0 / (w @ w))
    q = p - (p @ w / (w @ w)) * w
    wq = np.multiply.outer(w[1:], q[1:])
    B = -0.5 * (form[1:, 1:] - wq - wq.T)
    lam = float(scipy.linalg.eigh(B, eigvals_only=True, subset_by_index=[0, 0])[0])
    return _stability(lam, 1.0, float(np.max(np.abs(B))), failures)

