"""Thermodynamic identities as test oracles.

On a solution the free energy F = E - S, with E = (3/2) N - alpha I and
I = (1/2) int eta (-V*eta), is stationary in eta on the profiles of
fixed mass.  So at fixed N the derivative of F in alpha is the explicit
one, dF/dalpha = -I, and a difference of solved free energies checks
the solver and the functionals against each other with no reference
value.  A droplet off its constrained solution by delta moves F by
order delta^2 and the difference quotient by delta^2 / h.  In the same
way P is stationary at fixed gamma, with dP/dgamma = N and dP/dalpha =
I, checked on the gas and the liquid at the grand crossing; so along the
grand line P_gas = P_liquid the coexistence gamma moves with alpha by
the Clausius-Clapeyron slope -(I_liq - I_gas)/(N_liq - N_gas), and
along the petit line F_vapor = F_droplet, where dF/dN = Gamma, the
crossing mass moves by (I_drop - I_vap)/(Gamma_drop - Gamma_vap).
"""

import pytest

from hardball import eos, field, functionals, kernels, phase

SPEC_Y = kernels.KernelSpec(a_y=1.0, kappa=1.0)
ALPHA_31 = 31.0 / kernels.l1_norm_r3(SPEC_Y)
EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)
# the vapor/droplet crossing of the benchmark's petit-r15 transition (R=15, n=64)
N_VD_15 = 438.19450705161347
# the vapor-fold mass at R=15, n=256, whose fractions bracket petit-r15's masses
N_HAT_15 = 453.4086905340539
# the gas/liquid crossing of the benchmark's grand-r30 transition (R=30, n=256)
GAMMA_GL_30 = -4.848100784705523


def test_droplet_free_energy_slope_in_alpha_at_fixed_mass(monkeypatch):
    # Richardson's combination of centred differences at h and h/2, h =
    # 1e-4 alpha, reads 3.2e-12 relative (3.1e-12 to 3.3e-12 at masses 1e-11 away);
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
    interaction = functionals._interaction(base, field.apply_kernel(SPEC_Y, 1.0, base.domain, base.values))

    def f(alpha):
        return phase.droplet_solve(SPEC_Y, alpha, dom, N_VD_15, start=base, model=EXT,
                                   check_collapse=False).functionals.F

    def centred(h):
        return (f(ALPHA_31 + h) - f(ALPHA_31 - h)) / (2.0 * h)

    h = 1e-4 * ALPHA_31
    slope = (4.0 * centred(0.5 * h) - centred(h)) / 3.0
    assert bordered == [True] * 5
    assert slope == pytest.approx(-interaction, rel=1e-10)


def test_vapor_free_energy_slope_in_alpha_at_fixed_mass(monkeypatch):
    # each vapor at N_vd is a seeded mass match from the cold launch, at its
    # alpha, at a gamma 1e-3 below the crossing's, so each is read off its
    # bordered Newton solve and certified, and holds N_vd to 1e-12
    # relative.  Richardson's combination of centred differences at h and
    # h/2, h = 1e-4 alpha, then reads 2.9e-11 relative, and 3e-12 to 6e-11
    # with the seeds at gammas 1e-4 to 1e-2 either side: the roundoff of F
    # over 2h.  Launched vapors hold the mass only to 1e-9 relative
    dom = field.make_domain(15.0, n=64)
    gamma = phase.constrained_solve(SPEC_Y, ALPHA_31, dom, N_VD_15, model=EXT).gamma - 1e-3
    certified = []
    real = phase._certified_vapor

    def spy(*args):
        certified.append(real(*args))
        return certified[-1]

    monkeypatch.setattr(phase, "_certified_vapor", spy)

    def vapor(alpha):
        seed = field.minimal_solution(SPEC_Y, alpha, gamma, dom, model=EXT)
        return phase.constrained_solve(SPEC_Y, alpha, dom, N_VD_15, model=EXT, seed=(gamma, seed))

    base = vapor(ALPHA_31).solution.field
    interaction = functionals._interaction(base, field.apply_kernel(SPEC_Y, 1.0, base.domain, base.values))

    def centred(h):
        return (vapor(ALPHA_31 + h).functionals.F - vapor(ALPHA_31 - h).functionals.F) / (2.0 * h)

    h = 1e-4 * ALPHA_31
    slope = (4.0 * centred(0.5 * h) - centred(h)) / 3.0
    assert len(certified) == 5
    assert slope == pytest.approx(-interaction, rel=1e-10)


def test_grand_line_clausius_clapeyron_slope():
    # gamma_gl at R=15, n=64 (petit-r15's grid and gamma bracket).
    # Richardson's combination of centred differences at h = 1e-4 alpha
    # and h/2 reads 5.2e-10 relative, and so it does at h = 1e-3 and
    # 3e-4 alpha, so this is no truncation: it is the launches' own stop
    # (ROADMAP item 24 finds the liquid there 1.3e-9 off in sup norm).
    # The centred difference at h/2 alone reads 1.2e-9
    dom = field.make_domain(15.0, n=64)

    def grand(alpha):
        return phase.grand_canonical_transition(SPEC_Y, alpha, dom, (-4.75, -4.45), model=EXT)

    def interaction(point):
        fld = point.solution.field
        return functionals._interaction(fld, field.apply_kernel(SPEC_Y, 1.0, fld.domain, fld.values))

    line = grand(ALPHA_31)
    slope = -(interaction(line.liquid) - interaction(line.gas)) / line.delta_N

    def centred(h):
        return (grand(ALPHA_31 + h).gamma_gl - grand(ALPHA_31 - h).gamma_gl) / (2.0 * h)

    h = 1e-4 * ALPHA_31
    assert (4.0 * centred(0.5 * h) - centred(h)) / 3.0 == pytest.approx(slope, rel=1e-9)


# Richardson's combination of centred differences at h and h/2, h = 1e-4
# in gamma and 1e-4 alpha in alpha, reads for dP/dgamma and dP/dalpha
# 8.3e-10 and 1.7e-9 relative on the gas, and so it does at h from 3e-5
# to 1e-3: no truncation but the gas launch's stop, whose mass lies 8.3e-10
# below that of the gas solved to tol 1e-12.  The liquid reads 3.9e-12 and
# 1.2e-11
@pytest.mark.parametrize("branch,rel_gamma,rel_alpha", [
    ("minimal", 1e-9, 2e-9),
    ("maximal", 1e-11, 3e-11),
], ids=["gas", "liquid"])
def test_pressure_slopes_at_fixed_gamma(branch, rel_gamma, rel_alpha):
    dom = field.make_domain(30.0, n=256)
    launch = getattr(field, f"{branch}_solution")
    base = launch(SPEC_Y, ALPHA_31, GAMMA_GL_30, dom, model=EXT).field
    mass = float(functionals.volume_weights(dom) @ base.values)
    interaction = functionals._interaction(base, field.apply_kernel(SPEC_Y, 1.0, base.domain, base.values))

    def p(alpha, gamma):
        fld = launch(SPEC_Y, alpha, gamma, dom, model=EXT).field
        return functionals.pressure_functional(SPEC_Y, alpha, gamma, fld, model=EXT)

    def richardson(f, x, h):
        def centred(h):
            return (f(x + h) - f(x - h)) / (2.0 * h)

        return (4.0 * centred(0.5 * h) - centred(h)) / 3.0

    dp_dgamma = richardson(lambda g: p(ALPHA_31, g), GAMMA_GL_30, 1e-4)
    dp_dalpha = richardson(lambda a: p(a, GAMMA_GL_30), ALPHA_31, 1e-4 * ALPHA_31)
    assert dp_dgamma == pytest.approx(mass, rel=rel_gamma)
    assert dp_dalpha == pytest.approx(interaction, rel=rel_alpha)


def test_petit_line_slope():
    # N_vd at R=15, n=64 (petit-r15's grid, mass bracket and gamma bracket).
    # Each N_vd is moved by its residual F gap over delta_Gamma: both branches
    # hold N_vd to 1e-12 relative, so the gap compares F at one mass.
    # Richardson's combination of centred differences at h = 1e-4 alpha and
    # h/2 then reads 2.7e-10 relative.  The plain N_vd reads 6.0e-5, the
    # F-gap closure's stop
    dom = field.make_domain(15.0, n=64)

    def petit(alpha):
        return phase.petit_canonical_transition(
            SPEC_Y, alpha, dom, N_bracket=(0.965 * N_HAT_15, 0.968 * N_HAT_15), model=EXT,
            gamma_bracket=(-4.75, -4.45))

    def interaction(alpha, point):
        values = point.functionals
        return (1.5 * values.N - values.E) / alpha

    def n_vd(alpha):
        line = petit(alpha)
        return line.N_vd + (line.vapor.functionals.F - line.droplet.functionals.F) / line.delta_Gamma

    line = petit(ALPHA_31)
    slope = (interaction(ALPHA_31, line.droplet)
             - interaction(ALPHA_31, line.vapor)) / line.delta_Gamma

    def centred(h):
        return (n_vd(ALPHA_31 + h) - n_vd(ALPHA_31 - h)) / (2.0 * h)

    h = 1e-4 * ALPHA_31
    assert (4.0 * centred(0.5 * h) - centred(h)) / 3.0 == pytest.approx(slope, rel=1e-9)
