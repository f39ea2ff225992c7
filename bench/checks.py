"""Output checks computed apart from the code under test.

The Carnahan-Starling formulas are written out here rather than taken
from ``hardball.eos``, so a fixed-point check never goes through the
inversion it is meant to test.  Convolutions use the ring matrix the
solve itself used; ``ring_matches_ball`` checks that matrix against the
closed-form ball potential.
"""

import math

import numpy as np

from hardball import field, kernels


def cs_mu(eta):
    """Carnahan-Starling chemical potential g2(eta)."""
    return np.log(eta) + (8.0 * eta - 9.0 * eta**2 + 3.0 * eta**3) / (1.0 - eta) ** 3


def cs_mu_prime(eta):
    return 1.0 / eta + (8.0 - 2.0 * eta) / (1.0 - eta) ** 4


def cs_pressure(eta):
    return (eta + eta**2 + eta**3 - eta**4) / (1.0 - eta) ** 3


def cs_entropy(eta):
    return 5.5 * eta - eta * np.log(eta) - eta * (3.0 - 2.0 * eta) / (1.0 - eta) ** 2


def volume_weights(domain):
    """4 pi s^2 w per node."""
    return 4.0 * math.pi * domain.nodes**2 * domain.weights


class Report:
    """Named pass/fail results of one round's checks."""

    def __init__(self):
        self.results = []  # (name, ok, detail)

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    def close(self, name, got, want, rtol, scale=None):
        err = abs(got - want) / (max(1.0, abs(want)) if scale is None else scale)
        self.add(name, err <= rtol, f"rel {err:.1e} (limit {rtol:.0e})")

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)

    def failures(self):
        return [f"{n}: {d}" for n, ok, d in self.results if not ok]


def fixed_point(report, label, spec, alpha, gamma, fld, hard_sphere=False, tol=1e-8):
    """g2(eta) = gamma + alpha(-V*eta) at every node, as a density residual.

    The chemical-potential residual is divided by g2'(eta), which makes
    it comparable with the solvers' own 1e-9 density residual.  In the
    hard-sphere model g2 holds only on the fluid branch, eta <= 0.49.
    """
    eta = fld.values
    if hard_sphere:
        fluid = bool(np.all(eta <= 0.49))
        report.add(f"{label}: profile on the fluid branch", fluid,
                   f"max eta {float(np.max(eta)):.4f}")
        if not fluid:
            return
    u = field.convolve(spec, alpha, fld)
    resid = float(np.max(np.abs((cs_mu(eta) - gamma - u) / cs_mu_prime(eta))))
    report.add(f"{label}: fixed point at every node", resid <= tol,
               f"max {resid:.1e} (limit {tol:.0e})")


def ring_matches_ball(report, label, spec, domain, rtol=1e-10):
    """The ring matrix applied to a constant field gives the ball potential."""
    got = field.apply_kernel(spec, 1.0, domain, np.ones(domain.n))
    want = kernels.ball_potential(spec, domain.nodes, domain.R)
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    report.add(f"{label}: ring matrix reproduces the ball potential", err <= rtol,
               f"rel {err:.1e} (limit {rtol:.0e})")


def thermo(spec, alpha, gamma, fld):
    """N, E, S, F, P of a solution from the written-out CS formulas.

    At a solution wp(gamma + u) = g1(eta), so P needs no inversion.
    """
    eta = fld.values
    D = volume_weights(fld.domain)
    inter = 0.5 * float(D @ (eta * field.convolve(spec, 1.0, fld)))
    N = float(D @ eta)
    E = 1.5 * N - alpha * inter
    S = float(D @ cs_entropy(eta))
    P = float(D @ cs_pressure(eta)) - alpha * inter
    return {"N": N, "E": E, "S": S, "F": E - S, "P": P, "gamma": gamma}


def thermo_scale(values):
    """Magnitude against which P, gamma N and F are compared.

    P = gamma N - F is a difference of terms far larger than P itself
    near coexistence, so, as in the program's own Legendre check, the
    largest term sets the scale.
    """
    return max(1.0, abs(values["P"]), abs(values["gamma"] * values["N"]), abs(values["F"]))


def point_agrees(report, label, point, values, rtol=1e-8):
    """The program's reported functionals match the recomputed ones."""
    mine = point.functionals
    scale = thermo_scale(values)
    for key in ("N", "F", "P"):
        report.close(f"{label}: reported {key} matches the recomputed one",
                     getattr(mine, key), values[key], rtol, scale)
    report.close(f"{label}: P = gamma N - F",
                 values["P"], values["gamma"] * values["N"] - values["F"], rtol, scale)
