"""Thermodynamic identities as test oracles.

On a solution the free energy F = E - S, with E = (3/2) N - alpha I and
I = (1/2) int eta (-V*eta), is stationary in eta on the profiles of
fixed mass.  So at fixed N the derivative of F in alpha is the explicit
one, dF/dalpha = -I, and a difference of solved free energies checks
the solver and the functionals against each other with no reference
value.  A droplet off its constrained solution by delta moves F by
order delta^2 and the difference quotient by delta^2 / h.
"""

import pytest

from hardball import eos, field, functionals, kernels, phase

SPEC_Y = kernels.KernelSpec(a_y=1.0, kappa=1.0)
ALPHA_31 = 31.0 / kernels.l1_norm_r3(SPEC_Y)
EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)
# the vapor/droplet crossing of the benchmark's petit-r15 transition (R=15, n=64)
N_VD_15 = 438.1945073783408


def test_droplet_free_energy_slope_in_alpha_at_fixed_mass(monkeypatch):
    # Richardson's combination of centred differences at h and h/2, h =
    # 1e-4 alpha, reads 4.2e-12 relative (1.5e-11 at a mass 1e-11 away);
    # its truncation is about 6e-13, the rest the solves' roundoff.  The
    # centred difference at h/2 alone reads 8.9e-8.  Every droplet ends
    # in the bordered Newton finish, fired at the step it arms
    dom = field.make_domain(15.0, n=64)
    bordered = []
    newton = field._newton

    def spy(*args):
        bordered.append(args[-1] is not None)
        return newton(*args)

    monkeypatch.setattr(field, "_newton", spy)
    base = phase.droplet_solve(SPEC_Y, ALPHA_31, dom, N_VD_15, model=EXT,
                               check_collapse=False).solution.field
    interaction = functionals._interaction(base, functionals._unit_potential(SPEC_Y, base))

    def f(alpha):
        return phase.droplet_solve(SPEC_Y, alpha, dom, N_VD_15, start=base, model=EXT,
                                   check_collapse=False).functionals.F

    def centred(h):
        return (f(ALPHA_31 + h) - f(ALPHA_31 - h)) / (2.0 * h)

    h = 1e-4 * ALPHA_31
    slope = (4.0 * centred(0.5 * h) - centred(h)) / 3.0
    assert bordered == [True] * 5
    assert slope == pytest.approx(-interaction, rel=1e-10)
