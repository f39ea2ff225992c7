"""Tests for the spectral radius of the attraction operator."""

import numpy as np
import pytest
from scipy.optimize import brentq

from hardball import eos, field, kernels, spectral, uniform

SPEC_Y = kernels.KernelSpec(a_y=1.0, kappa=1.0)
SPEC_W = kernels.KernelSpec(a_w=1.0, varkappa=0.7)
SPEC_N = kernels.KernelSpec(a_n=1.0)


class TestSpectralRadius:
    def test_newton_unit_ball_analytic(self):
        # The radial eigenproblem for the Coulomb operator reduces to
        # -Delta xi = (4 pi / v) xi with a matching condition forcing
        # cos(kR) = 0, hence v = 16/pi on the unit ball.
        rep = spectral.spectral_radius(SPEC_N, field.make_domain(1.0, n=512))
        assert rep.v_lambda == pytest.approx(16.0 / np.pi, rel=1e-9)
        assert rep.iterations < 100

    def test_newton_bounds_strict(self):
        rep = spectral.spectral_radius(SPEC_N, field.make_domain(1.0, n=512))
        assert rep.lower_bound == pytest.approx(8.0 * np.pi / 5.0, rel=1e-12)
        assert rep.upper_bound == pytest.approx(2.0 * np.pi, rel=1e-12)
        assert rep.lower_bound < rep.v_lambda < rep.upper_bound

    def test_yukawa_large_ball_analytic(self):
        # Interior eigenfield sin(kr)/r matched to the decaying exterior
        # solution forces k cot(kR) = -kappa; then v = 4 pi/(kappa^2+k^2).
        R = 50.0
        k = brentq(
            lambda k: k / np.tan(k * R) + 1.0,
            np.pi / (2.0 * R) + 1e-9,
            np.pi / R - 1e-9,
            xtol=1e-15,
        )
        exact = 4.0 * np.pi / (1.0 + k * k)
        rep = spectral.spectral_radius(SPEC_Y, field.make_domain(R, n=512))
        assert rep.v_lambda == pytest.approx(exact, rel=2e-8)
        # large containers approach the full-space norm
        assert abs(rep.v_lambda - 4.0 * np.pi) < 0.01 * 4.0 * np.pi

    def test_eigenfield_positive_decreasing_unit_mass(self):
        dom = field.make_domain(5.0, n=512)
        for spec in (SPEC_Y, SPEC_W, SPEC_N):
            rep = spectral.spectral_radius(spec, dom)
            assert np.all(rep.eigenfield > 0.0)
            assert np.all(np.diff(rep.eigenfield) <= 0.0)
            weights = 4.0 * np.pi * dom.nodes**2 * dom.weights
            assert weights @ rep.eigenfield == pytest.approx(1.0, rel=1e-12)

    def test_rayleigh_matches_growth_factor(self):
        dom = field.make_domain(5.0, n=512)
        rep = spectral.spectral_radius(SPEC_Y, dom)
        image = field.apply_kernel(SPEC_Y, 1.0, dom, rep.eigenfield)
        weights = 4.0 * np.pi * dom.nodes**2 * dom.weights
        growth = np.sqrt(
            (weights @ (image * image)) / (weights @ (rep.eigenfield**2))
        )
        assert growth == pytest.approx(rep.v_lambda, rel=1e-9)

    def test_matches_dense_eigensolve(self):
        # near the CLI scan's largest radius, where the spectral gap is
        # small: value and eigenfield of the discrete operator, to roundoff
        dom = field.make_domain(26.0, n=512)
        M = field._self_ring(SPEC_Y, dom)
        rep = spectral.spectral_radius(SPEC_Y, dom)
        assert rep.v_lambda == pytest.approx(np.max(np.linalg.eigvals(M).real), rel=1e-12)
        image = rep.v_lambda * rep.eigenfield
        assert np.max(np.abs(M @ rep.eigenfield - image)) <= 1e-10 * np.max(np.abs(image))

    def test_mixed_kernel_bounds(self):
        spec = kernels.KernelSpec(a_w=0.5, varkappa=1.0, a_y=1.0, kappa=2.0, a_n=0.3)
        rep = spectral.spectral_radius(spec, field.make_domain(3.0, n=256))
        assert rep.lower_bound <= rep.v_lambda < rep.upper_bound

    def test_norm_chain_over_radii(self):
        # L1 over the ball equals the center potential (= Phi for balls)
        # and grows toward, never past, the full-space norm.
        for spec in (SPEC_Y, SPEC_W):
            total = kernels.l1_norm_r3(spec)
            last = 0.0
            for R in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                ball = kernels.phi_lambda(spec, R)
                assert ball == pytest.approx(kernels.ball_potential(spec, 0.0, R), rel=1e-12)
                assert last < ball < total
                last = ball


class TestSpinodalGammaHat:
    def test_rejects_weak_attraction(self):
        with pytest.raises(ValueError):
            spectral.spinodal_gamma_hat(uniform.ALPHA_TAU_MIN)
        with pytest.raises(ValueError):
            spectral.spinodal_gamma_hat(15.0)

    def test_value_near_threshold(self):
        assert spectral.spinodal_gamma_hat(21.21) == pytest.approx(-3.43, abs=0.05)

    def test_agrees_with_uniform_band_edge(self):
        for at in (22.0, 31.0, 100.0):
            assert spectral.spinodal_gamma_hat(at) == pytest.approx(
                uniform.gamma_boundaries(at)[1], rel=1e-14
            )

    def test_no_small_solution_past_ceiling(self):
        # Just above gamma_hat(alpha v) the minimal solution must leave the
        # small-density range; well below it stays inside.
        dom = field.make_domain(5.0, n=512)
        rep = spectral.spectral_radius(SPEC_Y, dom)
        alpha = 23.0 / rep.v_lambda
        ceiling = spectral.spinodal_gamma_hat(23.0)
        above = field.minimal_solution(SPEC_Y, alpha, ceiling + 0.05, dom)
        exceeded = above.field.values.max() > uniform.ETA_WR
        assert exceeded or not above.certified_fluid
        below = field.minimal_solution(SPEC_Y, alpha, ceiling - 0.3, dom)
        assert below.field.values.max() < uniform.ETA_WR
