"""Uniform (algebraic) van der Waals theory tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardball import eos, uniform
from hardball.kernels import KernelSpec

ATMIN = uniform.ALPHA_TAU_MIN  # 21.2024541158456
ATFS = uniform.ALPHA_TAU_FS  # 105.807134577829


class TestSolveUniform:
    def test_no_coupling_single_root(self):
        roots = uniform.solve_uniform(0.0, -5.0)
        assert len(roots.roots) == 1
        assert roots.roots[0] == pytest.approx(float(eos.g2_inverse(-5.0)), abs=1e-11)
        assert roots.stability == (True,)

    def test_three_roots_mid_band(self):
        lo, hi = uniform.gamma_boundaries(25.0)
        roots = uniform.solve_uniform(25.0, 0.5 * (lo + hi))
        assert len(roots.roots) == 3
        assert roots.stability == (True, False, True)
        assert not roots.degenerate

    def test_threshold_merge(self):
        at = ATMIN + 1e-6
        _, gamma_hat = uniform.gamma_boundaries(at)
        roots = uniform.solve_uniform(at, gamma_hat)
        assert roots.degenerate
        for r in roots.roots:
            assert r == pytest.approx(0.130, abs=1e-3)

    def test_tangent_double_root_at_upper_boundary(self):
        at = 25.0
        eta_lt, _ = uniform.eta_bounds(at)
        _, gamma_hat = uniform.gamma_boundaries(at)
        roots = uniform.solve_uniform(at, gamma_hat)
        assert roots.degenerate
        assert len(roots.roots) == 3
        assert abs(roots.roots[0] - roots.roots[1]) < 1e-9
        assert roots.roots[0] == pytest.approx(eta_lt, abs=1e-10)

    @pytest.mark.parametrize("at", [ATMIN + 1e-9, ATMIN + 1e-6, 25.0, 31.0, 100.0])
    def test_three_roots_at_band_edges(self, at):
        for gamma in uniform.gamma_boundaries(at):
            roots = uniform.solve_uniform(at, gamma)
            assert roots.degenerate
            assert len(roots.roots) == 3
            assert list(roots.roots) == sorted(roots.roots)

    def test_root_near_lower_end(self):
        # g2 ~ ln(eta) here: the root is about e^-600
        roots = uniform.solve_uniform(0.0, -600.0)
        assert len(roots.roots) == 1
        assert abs(float(eos.g2(roots.roots[0])) + 600.0) <= 1e-12 * 600.0

    def test_no_root_above_lower_end(self):
        with pytest.raises(RuntimeError):
            uniform.solve_uniform(0.0, -700.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            uniform.solve_uniform(-1.0, 0.0)
        with pytest.raises(ValueError):
            uniform.solve_uniform(1.0, math.nan)

    @settings(deadline=None, max_examples=60)
    @given(
        at=st.floats(min_value=0.0, max_value=200.0),
        gamma=st.floats(min_value=-30.0, max_value=14.0),
    )
    def test_roots_satisfy_equation(self, at, gamma):
        roots = uniform.solve_uniform(at, gamma)
        assert uniform.largest_root(at, gamma) == roots.roots[-1]
        assert 1 <= len(roots.roots) <= 3
        for r, stable in zip(roots.roots, roots.stability):
            assert abs(float(eos.g2(r)) - gamma - at * r) < 1e-8
            assert stable == (float(eos.g2_derivs(r, 1)) > at)


def _largest_root_cases():
    # one piece (no coupling, and below ALPHA_TAU_MIN), then above it: mid
    # band, both band edges (tangencies) and the gammas just outside them
    cases = [(0.0, -5.0), (0.0, -600.0), (ATMIN - 1.0, 3.0), (25.0, 10.0), (25.0, -20.0)]
    for at in (ATMIN + 1e-9, ATMIN + 1e-6, 25.0, 31.0, 100.0):
        check, hat = uniform.gamma_boundaries(at)
        cases += [(at, 0.5 * (check + hat)), (at, check), (at, hat),
                  (at, math.nextafter(check, -math.inf)), (at, math.nextafter(hat, math.inf))]
    return cases


class TestLargestRoot:
    """largest_root is solve_uniform's last root bit for bit, from the top piece down."""

    def test_equals_last_root(self):
        kinds = set()
        for at, gamma in _largest_root_cases():
            roots = uniform.solve_uniform(at, gamma)
            assert uniform.largest_root(at, gamma) == roots.roots[-1], (at, gamma)
            kinds.add((len(roots.roots), roots.degenerate))
        assert {(1, False), (3, False), (3, True)} <= kinds

    def test_scans_only_down_to_the_first_root(self, monkeypatch):
        # mid band the top piece holds the largest root: one brentq, not three
        calls = []
        real = uniform.brentq

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        check, hat = uniform.gamma_boundaries(31.0)
        eta_gt = uniform.eta_bounds(31.0)[1]
        uniform.eta_bounds.cache_clear()  # so that eta_bounds solves again
        monkeypatch.setattr(uniform, "brentq", counted)
        uniform.largest_root(31.0, 0.5 * (check + hat))
        # eta_bounds' two slope solves, then the top piece's root
        assert len(calls) == 3 and calls[-1][0] == math.log(eta_gt)

    def test_same_errors(self):
        with pytest.raises(RuntimeError) as want:
            uniform.solve_uniform(0.0, -700.0)
        with pytest.raises(RuntimeError) as got:
            uniform.largest_root(0.0, -700.0)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError):
            uniform.largest_root(-1.0, 0.0)
        with pytest.raises(ValueError):
            uniform.largest_root(1.0, math.nan)


class TestEtaBounds:
    def test_threshold_error(self):
        with pytest.raises(ValueError):
            uniform.eta_bounds(ATMIN)
        with pytest.raises(ValueError):
            uniform.eta_bounds(10.0)

    def test_collapse_at_threshold(self):
        lt, gt = uniform.eta_bounds(ATMIN + 1e-9)
        assert lt == pytest.approx(0.13044388419245392, abs=1e-4)
        assert gt == pytest.approx(0.13044388419245392, abs=1e-4)
        assert lt < 0.13044388419245392 < gt

    def test_known_low_root(self):
        lt, gt = uniform.eta_bounds(31.0)
        assert lt == pytest.approx(0.045, abs=0.003)
        assert gt > 0.2

    def test_defining_equation(self):
        for at in (22.0, 31.0, 60.0, 300.0, 1e4):
            lt, gt = uniform.eta_bounds(at)
            assert float(eos.g2_derivs(lt, 1)) == pytest.approx(at, rel=1e-10)
            assert float(eos.g2_derivs(gt, 1)) == pytest.approx(at, rel=1e-10)

    def test_monotone_in_alpha_tau(self):
        ats = np.linspace(ATMIN + 0.01, 120.0, 40)
        pairs = [uniform.eta_bounds(a) for a in ats]
        lts = [p[0] for p in pairs]
        gts = [p[1] for p in pairs]
        assert all(a > b for a, b in zip(lts, lts[1:]))
        assert all(a < b for a, b in zip(gts, gts[1:]))

    def test_memo_returns_the_fresh_solve(self, monkeypatch):
        # a memoized pair has the bits of a fresh solve, and a hit solves nothing
        ats = (ATMIN + 1e-6, 22.0, 31.0, np.float64(31.0), 1e4)
        memo = [uniform.eta_bounds(at) for at in ats]
        fresh = [uniform.eta_bounds.__wrapped__(at) for at in ats]
        assert [tuple(x.hex() for x in pair) for pair in memo] == \
            [tuple(x.hex() for x in pair) for pair in fresh]
        calls = []
        monkeypatch.setattr(uniform, "brentq", lambda *args, **kwargs: calls.append(args))
        assert [uniform.eta_bounds(at) for at in ats] == memo
        assert calls == []

    def test_near_threshold_square_root_law(self):
        # spacing grows like sqrt(2 (at - at*) / g2''')
        for delta in (1e-4, 1e-6):
            lt, gt = uniform.eta_bounds(ATMIN + delta)
            width = math.sqrt(2.0 * delta / 1235.22)
            assert gt - 0.13044388419245392 == pytest.approx(width, rel=0.05)
            assert 0.13044388419245392 - lt == pytest.approx(width, rel=0.05)


class TestGammaBoundaries:
    def test_ordering(self):
        for at in (21.5, 31.0, 100.0, 1e3):
            check, hat = uniform.gamma_boundaries(at)
            assert check < hat

    def test_large_slope_asymptote_upper(self):
        _, hat = uniform.gamma_boundaries(1e4)
        assert hat == pytest.approx(-math.log(1e4) - 1.0, abs=0.01)

    def test_large_slope_asymptote_lower(self):
        at = 1e6
        check, _ = uniform.gamma_boundaries(at)
        two_term = -at + 8.0 * (at / 6.0) ** 0.75
        assert check / at == pytest.approx(two_term / at, abs=1e-3)

    def test_consistency_with_eta_bounds(self):
        at = 31.0
        lt, _ = uniform.eta_bounds(at)
        _, hat = uniform.gamma_boundaries(at)
        assert hat == pytest.approx(float(eos.g2(lt)) - at * lt, rel=1e-12)

    def test_near_threshold_expansions(self):
        # both curves leave the collapse point linearly, with opposite
        # (2 sqrt(2)/3) delta^(3/2) / sqrt(g2''') corrections
        eta_wr = 0.13044388419245392
        base = float(eos.g2(eta_wr)) - ATMIN * eta_wr
        delta = 1e-5
        check, hat = uniform.gamma_boundaries(ATMIN + delta)
        cubic = (2.0 * math.sqrt(2.0) / 3.0) * delta**1.5 / math.sqrt(1235.22)
        assert base - check == pytest.approx(eta_wr * delta + cubic, rel=1e-3)
        assert base - hat == pytest.approx(eta_wr * delta - cubic, rel=1e-3)

    def test_fluid_restriction_caps_upper(self):
        at = 40.0
        check, hat = uniform.gamma_boundaries(at)
        check_f, hat_f = uniform.gamma_boundaries(at, fluid_restricted=True)
        assert check_f == check
        assert hat_f == min(hat, eos.GAMMA_FS - 0.49 * at)

    def test_fluid_curves_meet_at_both_ends(self):
        near_lo = ATMIN + 1e-8
        check, hat = uniform.gamma_boundaries(near_lo, fluid_restricted=True)
        assert hat - check == pytest.approx(0.0, abs=1e-3)
        near_hi = ATFS - 1e-6
        check, hat = uniform.gamma_boundaries(near_hi, fluid_restricted=True)
        assert hat - check == pytest.approx(0.0, abs=1e-3)

    def test_fluid_restriction_empty_band(self):
        with pytest.raises(ValueError):
            uniform.gamma_boundaries(ATFS + 1.0, fluid_restricted=True)


class TestTriplicityRegion:
    def test_affine_similarity(self):
        r1 = uniform.TriplicityRegion(tau=1.0)
        r2 = uniform.TriplicityRegion(tau=2.5)
        rng = np.random.default_rng(7)
        alphas = rng.uniform(22.0, 400.0, 40)
        gammas = rng.uniform(-25.0, 0.0, 40)
        for a, g in zip(alphas, gammas):
            assert r1.contains(a, g) == r2.contains(a / 2.5, g)

    def test_threshold_field(self):
        region = uniform.TriplicityRegion(tau=3.0)
        assert uniform.ALPHA_TAU_MIN == pytest.approx(21.2024541158456, rel=1e-10)
        assert not region.contains(uniform.ALPHA_TAU_MIN / 3.0, -5.0)


class TestPiUniform:
    def test_stationary_at_roots(self):
        at, gamma = 31.0, -4.6
        model = eos.EosModel(eos.MODE_CS_EXTENDED)
        for r in uniform.solve_uniform(at, gamma).roots:
            h = 1e-5
            d = (
                uniform.pi_uniform(at, gamma, r + h, model)
                - uniform.pi_uniform(at, gamma, r - h, model)
            ) / (2 * h)
            assert abs(d) < 1e-6

    def test_no_coupling_flat(self):
        vals = [uniform.pi_uniform(0.0, -3.0, e) for e in (0.05, 0.2, 0.4)]
        assert max(vals) - min(vals) == 0.0
        assert vals[0] == pytest.approx(float(eos.g1(eos.g2_inverse(-3.0))), rel=1e-12)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            uniform.pi_uniform(10.0, 0.0, 1.5)


class TestCoexistence:
    def test_inside_band_and_balanced(self):
        for at in (25.0, 31.0):
            check, hat = uniform.gamma_boundaries(at)
            gl = uniform.coexistence_gamma(at)
            assert check < gl < hat
            roots = uniform.solve_uniform(at, gl).roots
            model = eos.EosModel(eos.MODE_CS_EXTENDED)
            gap = uniform.pi_uniform(at, gl, roots[-1], model) - uniform.pi_uniform(
                at, gl, roots[0], model
            )
            assert abs(gap) < 1e-10

    def test_sign_structure(self):
        at = 31.0
        check, hat = uniform.gamma_boundaries(at)
        gl = uniform.coexistence_gamma(at)
        model = eos.EosModel(eos.MODE_CS_EXTENDED)

        def varpi(gamma):
            roots = uniform.solve_uniform(at, gamma).roots
            return float(
                uniform.pi_uniform(at, gamma, roots[-1], model)
                - uniform.pi_uniform(at, gamma, roots[0], model)
            )

        span = hat - check
        for frac in (0.02, 0.25):
            assert varpi(check + frac * span) < 0
            assert varpi(hat - frac * span) > 0
        # dense scan: exactly one sign change, at gl
        gammas = np.linspace(check + 1e-6, hat - 1e-6, 200)
        signs = np.sign([varpi(g) for g in gammas])
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert gammas[flips[0]] < gl < gammas[flips[0] + 1]

    def test_solve_count(self, monkeypatch):
        calls = []

        def counted(*args, _solve=uniform.solve_uniform, **kwargs):
            calls.append(args)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(uniform, "solve_uniform", counted)
        uniform.coexistence_gamma(31.0)
        assert len(calls) <= 15

    @pytest.mark.parametrize("delta, tol", [(1e-9, 0.2), (1e-6, 0.01), (1e-4, 0.01)])
    def test_near_threshold_mid_band(self, delta, tol):
        # h is close to an odd cubic about the inflection, so the pressures
        # balance in the middle of the band (a few ulps wide at 1e-9)
        check, hat = uniform.gamma_boundaries(ATMIN + delta)
        gl = uniform.coexistence_gamma(ATMIN + delta)
        assert (gl - check) / (hat - check) == pytest.approx(0.5, abs=tol)

    def test_decreasing_in_alpha_tau(self):
        gls = [uniform.coexistence_gamma(at) for at in (23.0, 27.0, 35.0, 50.0)]
        assert all(a > b for a, b in zip(gls, gls[1:]))


class TestFUniform:
    def test_derivative_matches(self):
        an = 31.0
        for e in (0.01, 0.1, 0.3, 0.6):
            h = 1e-6
            fd = (uniform.f_uniform(an, e + h) - uniform.f_uniform(an, e - h)) / (2 * h)
            assert abs(fd - (float(eos.g2(e)) - an * e)) < 1e-6

    def test_convex_without_coupling(self):
        etas = np.linspace(1e-3, 0.489, 2000)
        vals = uniform.f_uniform(0.0, etas)
        assert np.all(np.diff(vals, 2) > 0)

    def test_common_tangent_matches_coexistence(self):
        an = 31.0
        a, b, slope = uniform.common_tangent(an)
        gl = uniform.coexistence_gamma(an)
        assert slope == pytest.approx(gl, abs=1e-8)
        roots = uniform.solve_uniform(an, gl).roots
        assert a == pytest.approx(roots[0], abs=1e-6)
        assert b == pytest.approx(roots[-1], abs=1e-6)

    def test_tangent_line_supports_graph(self):
        an = 40.0
        a, b, slope = uniform.common_tangent(an)
        etas = np.linspace(1e-4, 0.99, 5000)
        line = uniform.f_uniform(an, a) + slope * (etas - a)
        assert np.all(uniform.f_uniform(an, etas) - line > -1e-9)

    def test_convex_case_rejected(self):
        with pytest.raises(ValueError):
            uniform.common_tangent(10.0)

    @pytest.mark.parametrize("an", [31.0, 100.0, 1000.0])
    def test_common_tangent_touches_twice(self, an):
        # the slope of f_uniform at both points and the secant between them
        # agree; at an = 100 and 1000 the gas point lies below 1e-10
        a, b, slope = uniform.common_tangent(an)
        assert 0.0 < a < b < 1.0
        tol = 1e-13 * max(1.0, abs(slope))
        for e in (a, b):
            assert abs(float(eos.g2(e)) - an * e - slope) < tol
        secant = (uniform.f_uniform(an, b) - uniform.f_uniform(an, a)) / (b - a)
        assert abs(secant - slope) < tol


class TestTouchingScale:
    # soft enough that the in-ball and worst-case couplings are close,
    # giving the two bands room to overlap
    SPEC = KernelSpec(a_w=1.0, varkappa=0.2)
    DIAM = 1.0
    VOL = 4.0 * math.pi * 0.5**3 / 3.0

    def test_touching_configuration(self):
        from hardball import kernels

        sigma_grave, psi = kernels.optimal_scaling(self.SPEC, self.DIAM, self.VOL)
        sigma_acute, alpha_star = uniform.touching_scale(
            self.SPEC, (22.0, 500.0), self.DIAM, self.VOL
        )
        assert sigma_acute > sigma_grave
        # overlap holds strictly below the touching scale, fails above
        for s, expect in ((sigma_grave, True), (0.5 * (sigma_grave + sigma_acute), True), (1.05 * sigma_acute, False)):
            phi = kernels.phi_lambda(self.SPEC, s * 0.5 * self.DIAM)
            best = uniform._best_alpha(phi, psi, (22.0, 500.0))
            overlap = best is not None and best[1] > 0
            assert overlap == expect
        # tangency: the maximal gap vanishes at the touching scale
        phi = kernels.phi_lambda(self.SPEC, sigma_acute * 0.5 * self.DIAM)
        best = uniform._best_alpha(phi, psi, (22.0, 500.0))
        assert abs(best[1]) < 1e-6
        assert best[0] == pytest.approx(alpha_star, rel=1e-3)

    def test_kink_on_fluid_line(self):
        # at the kink slope the tangency edge gamma_hat meets the fluid line
        k = uniform.ALPHA_TAU_KINK
        assert uniform.ALPHA_TAU_MIN < k < uniform.ALPHA_TAU_FS
        hat = uniform.gamma_boundaries(k)[1]
        assert hat == pytest.approx(eos.GAMMA_FS - eos.ETA_FS_LO * k, abs=1e-12)

    def test_best_alpha_dominates_dense_grid(self):
        from hardball import kernels

        sigma_grave, psi = kernels.optimal_scaling(self.SPEC, self.DIAM, self.VOL)
        for s in (sigma_grave, 1.1 * sigma_grave):
            phi = kernels.phi_lambda(self.SPEC, s * 0.5 * self.DIAM)
            for alpha_range in ((22.0, 500.0), (22.0, 50.0), (60.0, 500.0)):
                alpha, best = uniform._best_alpha(phi, psi, alpha_range)
                assert best == uniform._gamma_gap(alpha, phi, psi)
                lo = max(alpha_range[0], uniform.ALPHA_TAU_MIN / psi * (1.0 + 1e-9))
                hi = min(alpha_range[1], uniform.ALPHA_TAU_FS / phi * (1.0 - 1e-9))
                for a in np.geomspace(lo, hi, 150):
                    assert uniform._gamma_gap(a, phi, psi) <= best

    # the peak sits at the kink for the wide range, at its low end for the
    # range starting above the kink
    @pytest.mark.parametrize("alpha_range", [(22.0, 500.0), (60.0, 500.0)])
    def test_peak_gap_vanishes_at_touching_scale(self, alpha_range):
        from hardball import kernels

        _, psi = kernels.optimal_scaling(self.SPEC, self.DIAM, self.VOL)
        sigma_acute, alpha_star = uniform.touching_scale(
            self.SPEC, alpha_range, self.DIAM, self.VOL
        )
        phi = kernels.phi_lambda(self.SPEC, sigma_acute * 0.5 * self.DIAM)
        alpha, best = uniform._best_alpha(phi, psi, alpha_range)
        assert alpha == alpha_star
        assert abs(best) < 1e-12

    def test_no_touch_error(self):
        # a large Yukawa ball has Phi/Psi far above the workable ratio
        spec = KernelSpec(a_y=1.0, kappa=1.0)
        with pytest.raises(ValueError):
            uniform.touching_scale(spec, (1.0, 1e4), 60.0, 4.0 * math.pi * 30.0**3 / 3.0)
