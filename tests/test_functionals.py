"""Tests for the thermodynamic functionals and stability classifiers."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from hardball import eos, field, functionals, kernels, uniform

SPEC_Y = kernels.KernelSpec(a_y=1.0, kappa=1.0)
SPEC_W = kernels.KernelSpec(a_w=1.0, varkappa=0.2)

PHI_Y5 = kernels.phi_lambda(SPEC_Y, 5.0)


@pytest.fixture(scope="module")
def dom5():
    return field.make_domain(5.0, n=512)


@pytest.fixture(scope="module")
def fluid_branch(dom5):
    # Contraction-free but single-valued regime: alpha*Phi = 20, gamma = -2.
    alpha = 20.0 / PHI_Y5
    gamma = -2.0
    rep = field.minimal_solution(SPEC_Y, alpha, gamma, dom5)
    return alpha, gamma, rep.field


@pytest.fixture(scope="module")
def triple_branches():
    # van der Waals kernel in a small container, three coexisting solutions.
    dom = field.make_domain(0.5, n=256)
    alpha, gamma = 100.0, -7.0
    model = eos.EosModel(mode=eos.MODE_CS_EXTENDED)
    phi = kernels.phi_lambda(SPEC_W, 0.5)
    roots = uniform.solve_uniform(alpha * phi, gamma)
    lo = field.minimal_solution(SPEC_W, alpha, gamma, dom, model=model)
    mid = field.newton_solve(
        SPEC_W, alpha, gamma, field.constant_field(dom, roots.roots[1]), model=model
    )
    hi = field.maximal_solution(SPEC_W, alpha, gamma, dom, model=model)
    return dom, alpha, gamma, model, lo.field, mid.field, hi.field


class TestEntropyDensity:
    def test_matches_quadrature_oracle(self):
        # s(eta) = (5/2) eta - eta ln eta - int_0^eta (g2(x) - ln x) dx.
        for eta in (0.01, 0.1, 0.3, 0.5, 0.8):
            tail, _ = quad(lambda x: eos.g2(x) - np.log(x), 0.0, eta)
            oracle = 2.5 * eta - eta * np.log(eta) - tail
            assert functionals.entropy_density(eta) == pytest.approx(oracle, rel=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            functionals.entropy_density(np.array([0.2, 1.0]))
        with pytest.raises(ValueError):
            functionals.entropy_density(-0.1)

    def test_second_derivative_is_minus_g2_prime(self):
        eta = np.array([0.05, 0.2, 0.45])
        h = 1e-6
        fd = (
            functionals.entropy_density(eta + h)
            - 2.0 * functionals.entropy_density(eta)
            + functionals.entropy_density(eta - h)
        ) / h**2
        exact = functionals.entropy_density_second(eta)
        assert np.allclose(fd, exact, rtol=1e-3)
        assert np.allclose(exact, -eos.g2_derivs(eta, 1), rtol=1e-14)


class TestGlobalFunctionals:
    def test_particle_number_constant_field(self, dom5):
        fld = field.constant_field(dom5, 0.3)
        exact = 0.3 * 4.0 * np.pi * 5.0**3 / 3.0
        N = functionals.functional_values(SPEC_Y, 0.0, -2.0, fld).N
        assert N == pytest.approx(exact, rel=1e-12)

    def test_energy_without_interaction(self, dom5):
        fld = field.constant_field(dom5, 0.25)
        vals = functionals.functional_values(SPEC_Y, 0.0, -2.0, fld)
        assert vals.E == pytest.approx(1.5 * vals.N)

    def test_entropy_constant_field(self, dom5):
        fld = field.constant_field(dom5, 0.2)
        vol = 4.0 * np.pi * 5.0**3 / 3.0
        exact = functionals.entropy_density(0.2) * vol
        S = functionals.functional_values(SPEC_Y, 0.0, -2.0, fld).S
        assert S == pytest.approx(exact, rel=1e-8)

    def test_pressure_without_interaction(self, dom5):
        # At alpha = 0 the solution is the constant wp'(gamma) and the grand
        # potential collapses to wp(gamma) |B_R|.
        gamma = -2.0
        eta = eos.g2_inverse(gamma)
        fld = field.constant_field(dom5, eta)
        vol = 4.0 * np.pi * 5.0**3 / 3.0
        exact = eos.g1(eta) * vol
        got = functionals.pressure_functional(SPEC_Y, 0.0, gamma, fld)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_legendre_identity_on_solutions(self, dom5):
        # P = gamma N - F holds exactly on fixed points, for every branch.
        for aphi, gamma in ((10.0, -2.0), (20.0, -2.0), (45.0, -6.0)):
            alpha = aphi / PHI_Y5
            rep = field.minimal_solution(SPEC_Y, alpha, gamma, dom5)
            vals = functionals.functional_values(SPEC_Y, alpha, gamma, rep.field)
            assert vals.P == pytest.approx(gamma * vals.N - vals.F, rel=1e-8)

    def test_legendre_identity_triple(self, triple_branches):
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        for fld in (lo, mid, hi):
            vals = functionals.functional_values(
                SPEC_W, alpha, gamma, fld, model=model
            )
            assert vals.P == pytest.approx(gamma * vals.N - vals.F, rel=1e-8)

    def test_values_bundle_consistent(self, fluid_branch):
        alpha, gamma, fld = fluid_branch
        vals = functionals.functional_values(SPEC_Y, alpha, gamma, fld)
        D = functionals.volume_weights(fld.domain)
        w1 = field.apply_kernel(SPEC_Y, 1.0, fld.domain, fld.values)
        assert vals.N == float(D @ fld.values)
        assert vals.E == 1.5 * vals.N - alpha * functionals._interaction(fld, w1)
        assert vals.S == float(D @ functionals.entropy_density(fld.values))
        assert vals.F == vals.E - vals.S
        assert vals.Gamma == pytest.approx(gamma, abs=1e-8)
        d = dataclasses.asdict(vals)
        assert set(d) == {"P", "N", "E", "S", "F", "Gamma"}
        assert d["P"] == vals.P


class TestValuesFromOneRing:
    """functional_values applies the ring once, and its P is pressure_functional's."""

    @pytest.mark.parametrize("case", ["dense n=64", "operator n=1024", "no Gamma"])
    def test_equals_standalone_functionals(self, case, monkeypatch):
        alpha, gamma = 20.0 / PHI_Y5, -2.0
        model = eos.EosModel()
        if case == "no Gamma":
            # a hard-sphere field that solves nothing
            alpha, fld = 1.0, field.constant_field(field.make_domain(5.0, n=64), 0.2)
        else:
            dom = field.make_domain(5.0, n=int(case.split("=")[1]))
            fld = field.minimal_solution(SPEC_Y, alpha, gamma, dom, model=model).field
        want = functionals.pressure_functional(SPEC_Y, alpha, gamma, fld, model=model)
        applied = []
        real = field.apply_kernel

        def counted(spec, a, domain, values):
            applied.append(type(field._self_ring(spec, domain)).__name__)
            return real(spec, a, domain, values)

        monkeypatch.setattr(field, "apply_kernel", counted)
        got = functionals.functional_values(SPEC_Y, alpha, gamma, fld, model=model)
        assert got.P == want
        assert (got.Gamma is None) == (case == "no Gamma")
        assert applied == ["RingOperator" if case.startswith("operator") else "ndarray"]


class TestGammaRecovery:
    def test_solution_recovers_gamma(self, fluid_branch):
        alpha, gamma, fld = fluid_branch
        got = functionals.functional_values(SPEC_Y, alpha, gamma, fld).Gamma
        assert got == pytest.approx(gamma, abs=1e-8)

    def test_non_solution_returns_none(self, dom5):
        fld = field.constant_field(dom5, 0.2)
        assert functionals.functional_values(SPEC_Y, 1.0, -2.0, fld).Gamma is None

    def test_forbidden_band_returns_none(self, dom5):
        fld = field.constant_field(dom5, 0.51)
        assert functionals.functional_values(SPEC_Y, 0.0, -2.0, fld).Gamma is None


class TestMonotonePressure:
    def test_pressure_rises_along_upward_iteration(self, dom5):
        # Each Picard step from below increases the pressure functional.
        alpha = 20.0 / PHI_Y5
        gamma = -2.0
        fld = field.constant_field(dom5, eos.g2_inverse(gamma))
        values = fld.values
        last = functionals.pressure_functional(SPEC_Y, alpha, gamma, fld)
        for _ in range(40):
            u = field.apply_kernel(SPEC_Y, alpha, dom5, values)
            values = eos.g2_inverse(gamma + u)
            cur = functionals.pressure_functional(
                SPEC_Y, alpha, gamma, field.DensityField(dom5, values)
            )
            assert cur >= last - 1e-12 * max(1.0, abs(last))
            last = cur

    def test_pressure_rises_along_downward_iteration(self, triple_branches):
        # Descending iterates raise the pressure as well: stable fixed points
        # are local maxima of P, approached from either side.
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        start = uniform.solve_uniform(
            alpha * kernels.phi_lambda(SPEC_W, dom.R), gamma
        ).roots[-1]
        values = np.full(dom.n, start)
        last = functionals.pressure_functional(
            SPEC_W, alpha, gamma, field.DensityField(dom, values), model=model
        )
        for _ in range(40):
            u = field.apply_kernel(SPEC_W, alpha, dom, values)
            values = model.wp_prime(gamma + u)
            cur = functionals.pressure_functional(
                SPEC_W, alpha, gamma, field.DensityField(dom, values), model=model
            )
            assert cur >= last - 1e-12 * max(1.0, abs(last))
            last = cur


class TestSecondVariations:
    def test_zero_direction_vanishes(self, fluid_branch):
        alpha, gamma, fld = fluid_branch
        z = np.zeros(fld.domain.n)
        assert functionals.second_variation_P(SPEC_Y, alpha, gamma, fld, z) == 0.0
        assert functionals.second_variation_F(SPEC_Y, alpha, fld, z) == 0.0

    def test_f_variation_without_interaction(self, dom5):
        # At alpha = 0 the quadratic form reduces to (1/2) int g2' sigma^2.
        rng = np.random.default_rng(3)
        sigma = rng.standard_normal(dom5.n)
        fld = field.constant_field(dom5, 0.2)
        d = functionals.volume_weights(dom5)
        proj = sigma - d * (d @ sigma) / (d @ d)
        expected = 0.5 * (d * eos.g2_derivs(fld.values, 1)) @ proj**2
        got = functionals.second_variation_F(SPEC_Y, 0.0, fld, sigma)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got > 0.0

    def test_mass_preserving_direction_accepted_unprojected(self, dom5):
        fld = field.constant_field(dom5, 0.2)
        rng = np.random.default_rng(5)
        sigma = rng.standard_normal(dom5.n)
        d = functionals.volume_weights(dom5)
        sigma -= d * (d @ sigma) / (d @ d)
        got = functionals.second_variation_F(SPEC_Y, 0.0, fld, sigma)
        assert np.isfinite(got)


class TestStability:
    def test_minimal_solution_is_p_stable(self, fluid_branch):
        alpha, gamma, fld = fluid_branch
        rep = functionals.p_stability(SPEC_Y, alpha, gamma, fld)
        assert rep.label == "stable"
        assert rep.extremal_eigenvalue < 0.0
        assert rep.probe_failures == 0

    def test_no_attraction_is_p_stable(self, fluid_branch):
        # c T c vanishes at alpha = 0, which leaves (c T c - I)/2 = -I/2
        _, gamma, fld = fluid_branch
        rep = functionals.p_stability(SPEC_Y, 0.0, gamma, fld)
        assert rep.extremal_eigenvalue == -0.5
        assert rep.label == "stable"

    def test_middle_branch_is_p_unstable(self, triple_branches):
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        rep = functionals.p_stability(SPEC_W, alpha, gamma, mid, model=model)
        assert rep.label == "unstable"
        assert rep.extremal_eigenvalue > 0.0
        assert rep.probe_failures > 0

    def test_outer_branches_are_p_stable(self, triple_branches):
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        for fld in (lo, hi):
            rep = functionals.p_stability(SPEC_W, alpha, gamma, fld, model=model)
            assert rep.label == "stable"
            assert rep.extremal_eigenvalue < 0.0

    def test_random_direction_witnesses_instability(self, triple_branches):
        # The quadratic form itself goes positive on the middle branch.
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        rng = np.random.default_rng(11)
        forms = [
            functionals.second_variation_P(
                SPEC_W, alpha, gamma, mid, rng.standard_normal(dom.n), model=model
            )
            for _ in range(20)
        ]
        assert max(forms) > 0.0

    def test_p_stable_implies_f_stable(self, triple_branches):
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        for fld in (lo, hi):
            prep = functionals.p_stability(SPEC_W, alpha, gamma, fld, model=model)
            frep = functionals.f_stability(SPEC_W, alpha, fld)
            assert prep.label == "stable"
            assert frep.label == "stable"
            assert frep.extremal_eigenvalue > 0.0

    def test_f_stability_canonical_is_weaker(self, triple_branches):
        # The middle branch fails the grand-canonical test yet passes the
        # canonical one: fixing the particle number removes the soft mode.
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        frep = functionals.f_stability(SPEC_W, alpha, mid)
        assert frep.label == "stable"


class TestStabilitySpectrum:
    """extremal_eigenvalue against written-out dense linear algebra."""

    def test_p_value_is_half_spectral_radius_minus_one(self, triple_branches):
        # (rho(K) - 1)/2 for the linearized fixed-point map K = diag(wp'') alpha M
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        ring = alpha * field._self_ring(SPEC_W, dom)
        for fld, expected in ((lo, -0.476189), (mid, 0.688718), (hi, -0.318826)):
            curv = model.wp_double_prime(gamma + field.convolve(SPEC_W, alpha, fld))
            rho = np.max(np.abs(np.linalg.eigvals(curv[:, None] * ring)))
            rep = functionals.p_stability(SPEC_W, alpha, gamma, fld, model=model)
            assert rep.extremal_eigenvalue == pytest.approx(0.5 * (rho - 1.0), abs=1e-10)
            assert rep.extremal_eigenvalue == pytest.approx(expected, abs=1e-6)

    def test_values_do_not_depend_on_the_grid(self, triple_branches):
        _, alpha, gamma, model, *_ = triple_branches
        roots = uniform.solve_uniform(alpha * kernels.phi_lambda(SPEC_W, 0.5), gamma)
        values = []
        for n in (128, 256):
            dom = field.make_domain(0.5, n=n)
            flds = (
                field.minimal_solution(SPEC_W, alpha, gamma, dom, model=model).field,
                field.newton_solve(SPEC_W, alpha, gamma,
                                   field.constant_field(dom, roots.roots[1]),
                                   model=model).field,
                field.maximal_solution(SPEC_W, alpha, gamma, dom, model=model).field,
            )
            values.append([
                (functionals.p_stability(SPEC_W, alpha, gamma, f, model=model).extremal_eigenvalue,
                 functionals.f_stability(SPEC_W, alpha, f).extremal_eigenvalue)
                for f in flds
            ])
        assert np.allclose(values[0], values[1], rtol=1e-3, atol=0.0)

    def test_f_value_matches_written_out_reference(self, triple_branches):
        # smallest eigenvalue of the volume-metric form on a QR basis of
        # the zero-mass directions
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        D = functionals.volume_weights(dom)
        DA = D[:, None] * (alpha * field._self_ring(SPEC_W, dom))
        form = (-0.5 * np.diag(D * functionals.entropy_density_second(mid.values))
                - 0.25 * (DA + DA.T))
        d = 1.0 / np.sqrt(D)
        volume_form = d[:, None] * form * d
        q, _ = np.linalg.qr(np.column_stack([np.sqrt(D), np.eye(dom.n)[:, 1:]]))
        basis = q[:, 1:]
        ref = np.linalg.eigvalsh(basis.T @ volume_form @ basis)[0]
        rep = functionals.f_stability(SPEC_W, alpha, mid)
        assert rep.extremal_eigenvalue == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_top_eigenpair_matches_written_out_symmetric_part(self, n):
        # c D^(-1/2) (DA + DA^T)/2 D^(-1/2) c, DA = D alpha M: M dense at 256
        # nodes, applied by field.RingOperator at 1024
        spec = kernels.KernelSpec(a_y=0.7, kappa=2.0, a_n=0.3)
        dom = field.make_domain(15.0, n=n)
        alpha, c = 0.4, 0.3 + 0.5 * np.exp(-dom.nodes / 5.0)
        assert isinstance(field._self_ring(spec, dom), field.RingOperator) is (n == 1024)
        D = functionals.volume_weights(dom)
        DA = D[:, None] * (alpha * field._ring_matrix(spec, dom, dom.nodes))
        d = c / np.sqrt(D)
        ref = np.linalg.eigvalsh(d[:, None] * (0.5 * (DA + DA.T)) * d)[-1]
        value = functionals._top_eigenpair(spec, alpha, dom, c)[0]
        assert value == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_probe_block_matches_sequential_draws(self, triple_branches):
        dom, alpha, gamma, model, lo, mid, hi = triple_branches
        block = np.random.default_rng(4).standard_normal((functionals._PROBES, dom.n))
        rng = np.random.default_rng(4)
        rows = [rng.standard_normal(dom.n) for _ in range(functionals._PROBES)]
        assert np.array_equal(block, np.array(rows))
        forms = [functionals.second_variation_P(SPEC_W, alpha, gamma, mid, z, model=model)
                 for z in rows]
        rep = functionals.p_stability(SPEC_W, alpha, gamma, mid, model=model, seed=4)
        assert rep.probe_failures == sum(f >= 0.0 for f in forms)


class TestBranchDerivatives:
    """Derivatives of P and F along a solution branch, read off the functionals.

    By stationarity the implicit field variation drops out, leaving
    dP/dgamma = N, dP/dalpha = (1.5 N - E)/alpha = -dF/dalpha, the
    interaction integral, and dF/dN = Gamma, the chemical potential the
    field solves.
    """

    def test_structural_identities(self, fluid_branch):
        alpha, gamma, fld = fluid_branch
        vals = functionals.functional_values(SPEC_Y, alpha, gamma, fld)
        assert vals.N == float(functionals.volume_weights(fld.domain) @ fld.values)
        # F is linear in alpha at a fixed field, with slope -(1.5 N - E)/alpha
        doubled = functionals.functional_values(SPEC_Y, 2.0 * alpha, gamma, fld)
        dF_dalpha = (doubled.F - vals.F) / alpha
        assert (1.5 * vals.N - vals.E) / alpha == pytest.approx(-dF_dalpha, rel=1e-12)
        assert vals.Gamma == pytest.approx(gamma, abs=1e-8)

    def test_gamma_derivative_matches_finite_difference(self, dom5):
        alpha = 20.0 / PHI_Y5
        gamma, h = -2.0, 1e-4
        fld = field.minimal_solution(SPEC_Y, alpha, gamma, dom5).field
        center = functionals.functional_values(SPEC_Y, alpha, gamma, fld)
        dP_dgamma, dF_dN = center.N, center.Gamma
        vals = {}
        for g in (gamma + h, gamma - h):
            rep = field.minimal_solution(SPEC_Y, alpha, g, dom5)
            vals[g] = functionals.functional_values(SPEC_Y, alpha, g, rep.field)
        dP = (vals[gamma + h].P - vals[gamma - h].P) / (2 * h)
        dF = (vals[gamma + h].F - vals[gamma - h].F) / (2 * h)
        dN = (vals[gamma + h].N - vals[gamma - h].N) / (2 * h)
        assert dP == pytest.approx(dP_dgamma, rel=1e-7)
        assert dF / dN == pytest.approx(dF_dN, rel=1e-6)

    def test_alpha_derivative_matches_finite_difference(self, dom5):
        alpha = 20.0 / PHI_Y5
        gamma = -2.0
        ha = alpha * 1e-4
        fld = field.minimal_solution(SPEC_Y, alpha, gamma, dom5).field
        center = functionals.functional_values(SPEC_Y, alpha, gamma, fld)
        dP_dalpha = (1.5 * center.N - center.E) / alpha
        dF_dN = center.Gamma
        vals = {}
        for a in (alpha + ha, alpha - ha):
            rep = field.minimal_solution(SPEC_Y, a, gamma, dom5)
            vals[a] = functionals.functional_values(SPEC_Y, a, gamma, rep.field)
        dP = (vals[alpha + ha].P - vals[alpha - ha].P) / (2 * ha)
        # F is differentiated at fixed N; correct the fixed-gamma difference
        # by the particle-number drift times the chemical potential.
        dF = (vals[alpha + ha].F - vals[alpha - ha].F) / (2 * ha)
        dN = (vals[alpha + ha].N - vals[alpha - ha].N) / (2 * ha)
        assert dP == pytest.approx(dP_dalpha, rel=1e-7)
        assert dF - dF_dN * dN == pytest.approx(-dP_dalpha, rel=1e-7)
