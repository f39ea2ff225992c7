"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, prints a single
"criterion N (label): PASS/FAIL" line, and pins the agreed tolerances
and runtime budgets.  Golden values marked as recorded were frozen
from the first verified run of the corresponding pipeline and guard
against silent drift.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from hardball import eos, field, functionals, kernels, phase, spectral, uniform

SPEC_Y = kernels.KernelSpec(a_y=1.0, kappa=1.0)
SPEC_W = kernels.KernelSpec(a_w=1.0, varkappa=1.0)
SPEC_N = kernels.KernelSpec(a_n=1.0)
L1_Y = kernels.l1_norm_r3(SPEC_Y)
ALPHA_31 = 31.0 / L1_Y
EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)

# recorded goldens: grand and petit transition locations at R=30,
# n=512, unit Yukawa, alpha*l1 = 31, CS-extended equation of state
GAMMA_GL_GOLDEN = -4.848100784705362
N_VD_GOLDEN = 2239.871161308435


@contextlib.contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({label}): PASS", flush=True)


def test_criterion_01_constants_block():
    with verdict(1, "constants block"):
        t0 = time.monotonic()
        eta_wr, gamma_wr, slope_inv = eos.find_inflection()
        assert eta_wr == pytest.approx(0.130, abs=0.002)
        assert gamma_wr == pytest.approx(-0.67, abs=0.02)
        assert slope_inv == pytest.approx(0.047, abs=0.002)
        assert float(eos.g2(0.49)) == pytest.approx(15.208, abs=1e-3)
        # derivative values are quoted at the rounded inflection point
        assert float(eos.g2_derivs(0.130, 1)) == pytest.approx(21.20, abs=0.1)
        assert float(eos.g2_derivs(0.130, 3)) == pytest.approx(1235.22, abs=2)
        assert float(eos.speedy_g4(0.54)) == pytest.approx(15.208, abs=1e-2)
        assert time.monotonic() - t0 < 1.0


def _potential_oracle(spec, r, R):
    # nested ring reduction; never touches the closed forms
    def inner(lo, hi):
        val, _ = quad(lambda t: t * -kernels.kernel_eval(spec, t),
                      lo, hi, epsabs=1e-13)
        return val

    val, _ = quad(lambda s: s * inner(abs(r - s), r + s), 0.0, R,
                  points=[r] if r < R else None, epsabs=1e-12, limit=200)
    return 2 * math.pi / r * val


def test_criterion_02_closed_form_integrals():
    with verdict(2, "closed-form kernel integrals"):
        t0 = time.monotonic()
        for spec in (SPEC_Y, SPEC_W, SPEC_N):
            # the ring primitive feeds the double-integral oracle below,
            # so pin it against direct quadrature first
            for lo, hi in ((0.0, 0.3), (0.3, 2.0), (2.0, 7.5)):
                direct, _ = quad(
                    lambda t: t * -kernels.kernel_eval(spec, t), lo, hi,
                    epsabs=1e-13)
                diff = kernels.ring_primitive(spec, hi) \
                    - kernels.ring_primitive(spec, lo)
                assert diff == pytest.approx(direct, rel=1e-9, abs=1e-13)
            for R in (0.1, 1.0, 10.0, 100.0):
                # the potential form is an in-ball expression
                for frac in (0.04, 0.3, 0.62, 0.9, 0.999):
                    r = frac * R
                    closed = float(kernels.ball_potential(spec, r, R))
                    oracle = _potential_oracle(spec, r, R)
                    assert closed == pytest.approx(oracle, rel=1e-6)
                norm, _ = quad(
                    lambda t: 4 * math.pi * t**2
                    * -kernels.kernel_eval(spec, t), 0.0, R)
                assert float(kernels.phi_lambda(spec, R)) == pytest.approx(
                    norm, rel=1e-6)
            # bipolar reduction for the double integral at two scales
            for R in (0.5, 1.5):

                def f(s, r, spec=spec):
                    return r * s * (
                        kernels.ring_primitive(spec, r + s)
                        - kernels.ring_primitive(spec, abs(r - s)))

                lower, _ = quad(lambda r: quad(
                    lambda s: f(s, r), 0, r, epsabs=1e-12)[0], 0, R)
                upper, _ = quad(lambda r: quad(
                    lambda s: f(s, r), r, R, epsabs=1e-12)[0], 0, R)
                assert float(kernels.ball_double_integral(spec, R)) == \
                    pytest.approx(8 * math.pi**2 * (lower + upper), rel=1e-6)
        assert time.monotonic() - t0 < 10.0


def test_criterion_03_thermodynamic_identities():
    with verdict(3, "thermodynamic and Legendre identities"):
        etas = np.linspace(1e-4, 0.9, 1000)
        gap = np.abs(etas * eos.g2_derivs(etas, 1) - eos.g1_prime(etas))
        assert float(np.max(gap)) < 1e-10

        def legendre(spec, alpha, gamma, fld, model):
            vals = functionals.functional_values(
                spec, alpha, gamma, fld, model=model)
            scale = max(1.0, abs(vals.P), abs(gamma * vals.N), abs(vals.F))
            return abs(vals.P - (gamma * vals.N - vals.F)) / scale

        hs = eos.EosModel()
        dom5 = field.make_domain(5.0, n=512)
        alpha5 = 20.0 / kernels.phi_lambda(SPEC_Y, 5.0)
        rep = field.minimal_solution(SPEC_Y, alpha5, -2.0, dom5)
        assert legendre(SPEC_Y, alpha5, -2.0, rep.field, hs) < 1e-8
        dom_small = field.make_domain(0.5, n=256)
        dom15 = field.make_domain(15.0, n=256)
        for spec, alpha, gamma, dom in (
                (SPEC_Y, 100.0, -7.0, dom_small),
                (SPEC_Y, ALPHA_31, -4.5, dom15)):
            for launch in (field.minimal_solution, field.maximal_solution):
                rep = launch(spec, alpha, gamma, dom, model=EXT)
                assert legendre(spec, alpha, gamma, rep.field, EXT) < 1e-8


def test_criterion_04_monotone_iteration_suite():
    with verdict(4, "monotone launches"):
        t0 = time.monotonic()
        hs = eos.EosModel()
        alpha = 15.0 / L1_Y
        gamma = -5.0
        floor = float(hs.wp_prime(gamma))
        for R in (5.0, 15.0, 30.0):
            dom = field.make_domain(R, n=512)
            # the solver's ring quadrature; its integrals are checked
            # against convolve_at and adaptive quadrature elsewhere
            ring = alpha * field._self_ring(SPEC_Y, dom)
            top = uniform.solve_uniform(
                alpha * kernels.phi_lambda(SPEC_Y, R), gamma).roots[-1]
            finals = {}
            for sense, start in ((+1, floor), (-1, top)):
                v = np.full(dom.n, start)
                p_prev = -np.inf
                for step in range(1, 20001):
                    new = np.asarray(hs.wp_prime(gamma + ring @ v))
                    # monotone within 1e-12 per step, in the launch sense
                    assert float(np.max(sense * (v - new))) <= 1e-12
                    p = functionals.pressure_functional(
                        SPEC_Y, alpha, gamma,
                        field.DensityField(dom, new), model=hs)
                    assert p >= p_prev - 1e-8 * max(1.0, abs(p))
                    p_prev = p
                    change = float(np.max(np.abs(new - v)))
                    v = new
                    if change < 1e-10:
                        break
                else:
                    raise AssertionError("launch did not converge")
                assert np.all(v >= floor - 1e-12)
                finals[sense] = v
            assert np.all(finals[+1] <= finals[-1] + 1e-12)
            rep_min = field.minimal_solution(SPEC_Y, alpha, gamma, dom)
            rep_max = field.maximal_solution(SPEC_Y, alpha, gamma, dom)
            assert np.max(np.abs(finals[+1] - rep_min.field.values)) < 1e-8
            assert np.max(np.abs(finals[-1] - rep_max.field.values)) < 1e-8
        assert time.monotonic() - t0 < 60.0


def test_criterion_05_contraction_uniqueness():
    with verdict(5, "contraction uniqueness"):
        t0 = time.monotonic()
        dom = field.make_domain(5.0, n=512)
        phi = kernels.phi_lambda(SPEC_Y, 5.0)
        alpha = 0.8 / (phi * eos.K_GAMMA_FS)
        assert alpha * phi * eos.K_GAMMA_FS < 1.0
        rng = np.random.default_rng(5)
        solutions = []
        for _ in range(10):
            start = field.DensityField(dom, rng.uniform(0.02, 0.95, dom.n))
            rep = field.picard_iterate(SPEC_Y, alpha, -2.0, start, tol=1e-12)
            solutions.append(rep.field.values)
        spread = max(float(np.max(np.abs(a - b)))
                     for a in solutions for b in solutions)
        assert spread < 2e-10
        assert time.monotonic() - t0 < 60.0


def test_criterion_06_triplicity_small_ball():
    with verdict(6, "small-ball triplicity"):
        t0 = time.monotonic()
        alpha, gamma, R = 764.0, -9.0, 1.0
        dom = field.make_domain(R, n=512)
        volume = 4 * math.pi * R**3 / 3
        sigma, psi_max = kernels.optimal_scaling(SPEC_W, 2 * R, volume)
        phi_scaled = kernels.phi_lambda(SPEC_W, sigma * R)
        assert uniform.TriplicityRegion(tau=phi_scaled).contains(alpha, gamma)
        assert uniform.TriplicityRegion(tau=psi_max).contains(alpha, gamma)
        small = field.subsolution_launch(SPEC_W, alpha, gamma, dom, "m", sigma)
        large = field.subsolution_launch(SPEC_W, alpha, gamma, dom, "M", sigma)
        assert small.residual < 1e-9 and large.residual < 1e-9
        sep = float(np.max(np.abs(large.field.values - small.field.values)))
        assert sep > 0.1
        roots = uniform.solve_uniform(
            alpha * kernels.phi_lambda(SPEC_W, R), gamma).roots
        assert len(roots) == 3
        middle = field.newton_solve(
            SPEC_W, alpha, gamma,
            field.constant_field(dom, roots[1]), model=EXT)
        assert middle.residual < 1e-9
        for other in (small, large):
            gap = float(np.max(np.abs(
                middle.field.values - other.field.values)))
            assert gap > 0.01
        rng = np.random.default_rng(3)
        forms = [functionals.second_variation_P(
            SPEC_W, alpha, gamma, middle.field,
            rng.standard_normal(dom.n), model=EXT) for _ in range(20)]
        assert min(forms) < 0.0 < max(forms)
        assert time.monotonic() - t0 < 300.0


def test_criterion_07_droplet_criterion():
    with verdict(7, "droplet criterion"):
        t0 = time.monotonic()
        crit = phase.droplet_criterion(SPEC_Y, ALPHA_31)
        assert crit["eta_hat_M"] == pytest.approx(0.41, abs=0.01)
        assert crit["eta_hat_m"] == pytest.approx(0.045, abs=0.003)
        assert crit["rhs"] == pytest.approx(28.75, abs=0.2)
        assert crit["volume_ratio"] == pytest.approx(9.0, abs=0.5)
        assert crit["fires"] is True

        # the two-level trial must beat the last vapor profile in F
        dom = field.make_domain(60.0, n=512)
        gamma_hat = uniform.gamma_boundaries(31.0)[1]
        vapor = field.minimal_solution(
            SPEC_Y, ALPHA_31, gamma_hat, dom, model=EXT)
        weights = functionals.volume_weights(dom)
        n_hat = float(weights @ vapor.field.values)
        eta_big = uniform.solve_uniform(31.0, gamma_hat).roots[-1]
        fraction = n_hat / (eta_big * float(weights.sum()))
        trial = phase.droplet_trial(dom, n_hat, fraction)
        f_trial, f_vapor = (functionals.functional_values(
            SPEC_Y, ALPHA_31, gamma_hat, fld, model=EXT).F for fld in (trial, vapor.field))
        assert f_trial < f_vapor
        assert time.monotonic() - t0 < 60.0


def test_criterion_08_transitions_at_r30():
    with verdict(8, "first-order transitions at R=30"):
        t0 = time.monotonic()
        dom = field.make_domain(30.0, n=512)
        # one call, as `hardball transition` makes it, locates both transitions
        petit = phase.petit_canonical_transition(
            SPEC_Y, ALPHA_31, dom, model=EXT, gamma_bracket=(-4.88, -4.15))
        assert petit.gamma_gl == pytest.approx(GAMMA_GL_GOLDEN, abs=1e-6)
        p_gas = petit.gas.functionals.P
        p_liq = petit.liquid.functionals.P
        assert abs(p_gas - p_liq) <= 1e-8 * max(1.0, abs(p_gas))
        assert petit.liquid.functionals.N - petit.gas.functionals.N > 1000.0

        assert petit.N_vd == pytest.approx(N_VD_GOLDEN, abs=0.01)
        f_vap = petit.vapor.functionals.F
        f_dro = petit.droplet.functionals.F
        assert abs(f_vap - f_dro) <= 1e-8 * max(1.0, abs(f_vap))
        assert abs(petit.vapor.functionals.N - petit.N_vd) <= 1e-12 * petit.N_vd
        assert petit.delta_Gamma < 0.0
        assert petit.delta_E < 0.0
        assert petit.delta_S < 0.0
        assert petit.embedding_ok
        assert petit.crossings >= 0
        print(f"recorded: gamma_gl={petit.gamma_gl!r} "
              f"N_vd={petit.N_vd!r} delta_Gamma={petit.delta_Gamma!r} "
              f"crossings={petit.crossings}", flush=True)
        assert time.monotonic() - t0 < 900.0


def test_criterion_09_spectral_radius():
    with verdict(9, "spectral radius"):
        t0 = time.monotonic()
        newton = spectral.spectral_radius(SPEC_N, field.make_domain(1.0, n=512))
        assert 2 * math.pi / 15 < newton.v_lambda < 2 * math.pi
        yukawa = spectral.spectral_radius(SPEC_Y, field.make_domain(50.0, n=512))
        assert yukawa.v_lambda == pytest.approx(4 * math.pi, rel=0.01)
        assert time.monotonic() - t0 < 30.0


def test_criterion_10_pde_cross_check():
    with verdict(10, "elliptic cross-check"):
        t0 = time.monotonic()
        hs = eos.EosModel()
        alpha = 20.0 / kernels.phi_lambda(SPEC_Y, 5.0)
        residuals = []
        for n in (256, 512, 1024):
            dom = field.make_domain(5.0, n=n)
            rep = field.minimal_solution(SPEC_Y, alpha, -2.0, dom)
            h = 5.0 / (n + 1)
            r = np.linspace(h, 5.0 - h, n)
            u = field.convolve_at(SPEC_Y, alpha, rep.field, r)
            pot = u / alpha
            eta = np.asarray(hs.wp_prime(-2.0 + u))
            lap = (pot[2:] - 2 * pot[1:-1] + pot[:-2]) / h**2 \
                + (pot[2:] - pot[:-2]) / (h * r[1:-1])
            residuals.append(float(np.max(np.abs(
                -lap + pot[1:-1] - 4 * math.pi * eta[1:-1]))))
        orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
        assert min(orders) >= 1.9

        dom = field.make_domain(5.0, n=512)
        rep = field.minimal_solution(SPEC_Y, alpha, -2.0, dom)
        lhs = float(np.asarray(field.convolve_at(
            SPEC_Y, alpha, rep.field, np.array([5.0]))).ravel()[0]) / alpha
        v = rep.field.values
        spline = CubicSpline(
            np.concatenate([[0.0], dom.nodes, [5.0]]),
            np.concatenate([[v[0]], v, [v[-1]]]))
        integral, _ = quad(lambda s: s * math.sinh(s) * spline(s),
                           0.0, 5.0, limit=200)
        rhs = 4 * math.pi * math.exp(-5.0) / 5.0 * integral
        assert abs(lhs - rhs) / abs(rhs) < 1e-6
        assert time.monotonic() - t0 < 120.0


def test_criterion_11_spinodal_asymptotics():
    with verdict(11, "spinodal asymptotics"):
        gamma_hat = uniform.gamma_boundaries(1e4)[1]
        assert gamma_hat == pytest.approx(-math.log(1e4) - 1.0, abs=0.01)


def test_criterion_12_phi_psi_ratio():
    with verdict(12, "potential bound ratio"):
        spec = kernels.KernelSpec(a_y=1.0, kappa=0.5)
        R = 40.0
        phi = kernels.phi_lambda(spec, R)
        _, psi = kernels.optimal_scaling(
            spec, 2 * R, 4 * math.pi * R**3 / 3)
        assert 35.0 <= phi / psi <= 55.0
