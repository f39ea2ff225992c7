"""Kernel integral tests.

Every closed form is checked against an independent adaptive-quadrature
route that never touches the closed-form expressions: the in-ball
potential via the nested ring reduction with an inner quad, norms via
the radial integral, the double integral via a bipolar double quad.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hardball import kernels
from hardball.kernels import KernelSpec

VDW = KernelSpec(a_w=1.0, varkappa=1.0)
YUK = KernelSpec(a_y=1.0, kappa=1.0)
NEW = KernelSpec(a_n=1.0)
MIX = KernelSpec(a_w=0.7, a_y=1.3, a_n=0.4, varkappa=2.0, kappa=0.5)


def potential_oracle(spec, r, R):
    """-(V*1)_{B_R}(r) by nested adaptive quadrature (ring reduction)."""

    def inner(lo, hi):
        val, _ = quad(lambda t: t * -kernels.kernel_eval(spec, t), lo, hi, epsabs=1e-13)
        return val

    if r == 0:
        val, _ = quad(lambda s: s**2 * -kernels.kernel_eval(spec, s), 0, R, epsabs=1e-13)
        return 4 * math.pi * val
    val, _ = quad(
        lambda s: s * inner(abs(r - s), r + s),
        0,
        R,
        points=[r] if r < R else None,
        epsabs=1e-12,
        limit=200,
    )
    return 2 * math.pi / r * val


class TestKernelEval:
    def test_examples(self):
        assert kernels.kernel_eval(NEW, 2.0) == pytest.approx(-0.5)
        assert kernels.kernel_eval(YUK, 1.0) == pytest.approx(-math.exp(-1))
        assert kernels.kernel_eval(VDW, 0.0) == pytest.approx(-1.0)

    def test_singularity(self):
        with pytest.raises(ValueError):
            kernels.kernel_eval(YUK, 0.0)
        with pytest.raises(ValueError):
            kernels.kernel_eval(NEW, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            kernels.kernel_eval(VDW, -1.0)

    def test_negative_and_monotone(self):
        r = np.linspace(0.01, 50.0, 500)
        for spec in (VDW, YUK, NEW, MIX):
            v = kernels.kernel_eval(spec, r)
            assert np.all(v < 0)
            assert np.all(np.diff(v) >= 0)

    @pytest.mark.parametrize("amps", [
        (1.3, 0.0, 0.0), (0.0, 0.7, 0.0), (0.0, 0.0, 2.1), (1.3, 0.7, 0.0),
        (1.3, 0.0, 2.1), (0.0, 0.7, 2.1), (1.3, 0.7, 2.1),
    ])
    @pytest.mark.parametrize("ranges", [(1.0, 1.0), (0.37, 2.9), (3.1, 0.05)])
    def test_float_path_equals_the_array_path(self, amps, ranges):
        # a float r, as quadrature passes it, skips the array machinery;
        # each value must agree with the array path's to one ulp
        spec = KernelSpec(*amps, *ranges)
        r = np.concatenate((np.geomspace(1e-6, 300.0, 500), [0.5, 1.0, 2.0]))
        for x, a in zip(r.tolist(), kernels.kernel_eval(spec, r).tolist()):
            s = kernels.kernel_eval(spec, x)
            assert type(s) is float
            assert abs(s - a) <= math.ulp(a)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec()
        with pytest.raises(ValueError):
            KernelSpec(a_y=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(a_y=1.0, kappa=0.0)

    @pytest.mark.parametrize("params,name", [
        ({"a_y": math.nan}, "a_y"),
        ({"a_y": 1.0, "a_w": math.inf}, "a_w"),
        ({"a_n": 1.0, "a_y": -math.inf}, "a_y"),
        ({"a_w": 1.0, "varkappa": math.inf}, "varkappa"),
        ({"a_y": 1.0, "kappa": math.nan}, "kappa"),
    ])
    def test_non_finite_parameter_is_named(self, params, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            KernelSpec(**params)


class TestL1Norm:
    def test_examples(self):
        assert kernels.l1_norm_r3(YUK) == pytest.approx(4 * math.pi, rel=1e-14)
        assert kernels.l1_norm_r3(VDW) == pytest.approx(math.pi**2 / 4, rel=1e-14)

    def test_newton_not_integrable(self):
        with pytest.raises(ValueError):
            kernels.l1_norm_r3(NEW)

    def test_large_ball_limit(self):
        for spec in (VDW, YUK):
            assert abs(kernels.phi_lambda(spec, 1e3) - kernels.l1_norm_r3(spec)) < 1e-8

    def test_quadrature(self):
        for spec in (VDW, YUK):
            val, _ = quad(
                lambda t: 4 * math.pi * t**2 * -kernels.kernel_eval(spec, t), 0, np.inf
            )
            assert kernels.l1_norm_r3(spec) == pytest.approx(val, rel=1e-9)


class TestBallPotential:
    def test_newton_examples(self):
        assert kernels.ball_potential(NEW, 0.0, 1.0) == pytest.approx(2 * math.pi, rel=1e-14)
        assert kernels.ball_potential(NEW, 1.0, 1.0) == pytest.approx(4 * math.pi / 3, rel=1e-14)

    def test_yukawa_center_matches_l1(self):
        for R in (0.5, 2.0, 10.0):
            assert kernels.ball_potential(YUK, 0.0, R) == pytest.approx(
                kernels.phi_lambda(YUK, R), rel=1e-12
            )

    @pytest.mark.parametrize("spec", [VDW, YUK, NEW], ids=["vdw", "yukawa", "newton"])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_against_quadrature(self, spec, scale):
        R = scale
        for frac in (0.0, 0.3, 0.7, 1.0):
            r = frac * R
            expected = potential_oracle(spec, r, R)
            assert kernels.ball_potential(spec, r, R) == pytest.approx(expected, rel=1e-6)

    def test_large_argument_stable(self):
        # exp overflow guard: huge kappa*r must not produce nan inside the ball
        spec = KernelSpec(a_y=1.0, kappa=1.0)
        vals = kernels.ball_potential(spec, np.linspace(0, 900, 10), 900.0)
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(4 * math.pi, rel=1e-6)

    def test_radially_nonincreasing(self):
        r = np.linspace(0.0, 3.0, 300)
        for spec in (VDW, YUK, NEW, MIX):
            u = kernels.ball_potential(spec, r, 3.0)
            assert np.all(np.diff(u) <= 1e-12)

    def test_linearity_in_amplitudes(self):
        r = np.linspace(0.0, 2.0, 50)
        combo = kernels.ball_potential(MIX, r, 2.0)
        parts = (
            0.7 * kernels.ball_potential(KernelSpec(a_w=1.0, varkappa=2.0), r, 2.0)
            + 1.3 * kernels.ball_potential(KernelSpec(a_y=1.0, kappa=0.5), r, 2.0)
            + 0.4 * kernels.ball_potential(NEW, r, 2.0)
        )
        assert np.allclose(combo, parts, rtol=1e-13)


class TestBallL1:
    def test_examples(self):
        assert kernels.phi_lambda(NEW, 1.0) == pytest.approx(2 * math.pi, rel=1e-14)
        expected = 4 * math.pi * (1 - 2 * math.exp(-1))
        assert kernels.phi_lambda(YUK, 1.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec", [VDW, YUK, NEW], ids=["vdw", "yukawa", "newton"])
    @pytest.mark.parametrize("R", [0.1, 1.0, 10.0, 100.0])
    def test_against_quadrature(self, spec, R):
        val, _ = quad(lambda t: 4 * math.pi * t**2 * -kernels.kernel_eval(spec, t), 0, R)
        assert kernels.phi_lambda(spec, R) == pytest.approx(val, rel=1e-8)


class TestBallDoubleIntegral:
    def test_newton_example(self):
        assert kernels.ball_double_integral(NEW, 1.0) == pytest.approx(
            32 * math.pi**2 / 15, rel=1e-13
        )

    def test_yukawa_small_kappa_approaches_newton(self):
        soft = KernelSpec(a_y=1.0, kappa=1e-4)
        assert kernels.ball_double_integral(soft, 1.0) == pytest.approx(
            kernels.ball_double_integral(NEW, 1.0), rel=1e-3
        )

    @pytest.mark.parametrize("spec", [VDW, YUK, NEW], ids=["vdw", "yukawa", "newton"])
    def test_against_double_quadrature(self, spec):
        # bipolar form: 8 pi^2 int int r s [P(r+s) - P(|r-s|)] ds dr with the
        # primitive P checked against quadrature elsewhere
        R = 1.5

        def f(s, r):
            return r * s * (kernels.ring_primitive(spec, r + s) - kernels.ring_primitive(spec, abs(r - s)))

        lower, _ = quad(lambda r: quad(lambda s: f(s, r), 0, r, epsabs=1e-12)[0], 0, R)
        upper, _ = quad(lambda r: quad(lambda s: f(s, r), r, R, epsabs=1e-12)[0], 0, R)
        expected = 8 * math.pi**2 * (lower + upper)
        assert kernels.ball_double_integral(spec, R) == pytest.approx(expected, rel=1e-6)

    def test_vdw_constant_kernel_limit(self):
        spec = KernelSpec(a_w=1.0, varkappa=1e-3)
        ball = 4 * math.pi / 3
        assert kernels.ball_double_integral(spec, 1.0) == pytest.approx(ball**2, rel=1e-3)


class TestPhiPsi:
    def test_phi_equals_ball_l1(self):
        # the ball's L1 norm is the potential of a unit density at the center
        for spec in (VDW, YUK, NEW, MIX):
            for R in (0.3, 2.0, 20.0):
                center = kernels.ball_potential(spec, 0.0, R)
                assert kernels.phi_lambda(spec, R) == pytest.approx(center, rel=1e-12)

    def test_phi_below_full_norm_and_increasing(self):
        Rs = np.linspace(0.1, 30.0, 50)
        for spec in (VDW, YUK):
            phis = np.array([kernels.phi_lambda(spec, R) for R in Rs])
            assert np.all(np.diff(phis) > 0)
            assert np.all(phis < kernels.l1_norm_r3(spec))

    def test_psi_examples(self):
        assert kernels.psi_lambda(NEW, 2.0, 1.0) == pytest.approx(0.5)
        for R in (0.5, 1.0, 5.0, 25.0):
            vol = 4 * math.pi * R**3 / 3
            for spec in (VDW, YUK, NEW, MIX):
                assert kernels.psi_lambda(spec, 2 * R, vol) < kernels.phi_lambda(spec, R)

    def test_psi_vdw_decay(self):
        d = 50.0
        small = kernels.psi_lambda(VDW, d, d**3)
        large = kernels.psi_lambda(VDW, 10 * d, (10 * d) ** 3)
        assert large / small == pytest.approx(1e-3, rel=1e-2)


class TestOptimalScaling:
    def test_vdw_interior_optimum(self):
        sigma, psi_max = kernels.optimal_scaling(VDW, 10.0, 1.0)
        assert sigma == pytest.approx(0.1, abs=1e-7)
        assert psi_max == pytest.approx(0.1**3 / 8.0, rel=1e-9)

    def test_yukawa_interior_optimum(self):
        sigma, psi_max = kernels.optimal_scaling(YUK, 10.0, 1.0)
        assert sigma == pytest.approx(0.2, abs=1e-7)
        expected = 0.2**3 * math.exp(-2.0) / 2.0
        assert psi_max == pytest.approx(expected, rel=1e-9)

    def test_boundary_optimum(self):
        sigma, _ = kernels.optimal_scaling(YUK, 1.0, 1.0)
        assert sigma == 1.0

    def test_dominates_unit_scale(self):
        for spec in (VDW, YUK):
            for diam in (0.5, 3.0, 40.0):
                _, psi_max = kernels.optimal_scaling(spec, diam, 2.0)
                assert psi_max >= kernels.psi_lambda(spec, diam, 2.0) - 1e-15

    def test_newton_rejected(self):
        with pytest.raises(ValueError):
            kernels.optimal_scaling(NEW, 1.0, 1.0)

    @pytest.mark.parametrize("family", ["yukawa", "vdw"])
    def test_closed_form_equals_the_scan(self, family):
        # inverse ranges and diameters putting the peak below, at and
        # beyond the cap sigma = 1.  sigma is checked against the closed
        # form and by local optimality, not against the scan's sigma:
        # the scan's bounded minimize_scalar stops at sqrt(machine eps)
        # relative in sigma, where psi is flat to second order
        def psi_at(spec, s):
            return kernels.psi_lambda(spec, s * diam, s**3 * 3.0)

        for inv in (0.05, 0.3, 1.0, 2.5):
            for diam in (0.1, 0.8, 2.0, 7.0, 60.0):
                if family == "yukawa":
                    spec = KernelSpec(a_y=1.7, kappa=inv)
                    peak = 2.0 / (inv * diam)
                else:
                    spec = KernelSpec(a_w=0.6, varkappa=inv)
                    peak = 1.0 / (inv * diam)
                sigma, psi = kernels.optimal_scaling(spec, diam, 3.0)
                assert sigma == pytest.approx(min(1.0, peak), rel=1e-12)
                for s in (sigma * (1.0 - 1e-4), sigma * (1.0 + 1e-4)):
                    if s <= 1.0:
                        assert psi >= psi_at(spec, s)
                _, scan_psi = kernels._scan_scaling(spec, diam, 3.0)
                assert psi == pytest.approx(scan_psi, rel=1e-10)
                assert psi >= scan_psi * (1.0 - 1e-15)

    def test_caps_at_one(self):
        assert kernels.optimal_scaling(KernelSpec(a_y=1.0, kappa=0.5), 2.0, 1.0)[0] == 1.0
        assert kernels.optimal_scaling(KernelSpec(a_w=1.0, varkappa=0.5), 2.0, 1.0)[0] == 1.0
        assert kernels.optimal_scaling(KernelSpec(a_w=1.0, varkappa=0.5), 2.5, 1.0)[0] == 0.8

    @pytest.mark.parametrize("spec,diam,peak", [
        # two interior maxima, at 0.103 and 0.7999; the second is global
        (KernelSpec(a_w=0.03, a_y=1.0, kappa=20.0, varkappa=1.25), 1.0, 0.79986),
        (KernelSpec(a_w=1.0, a_y=1.0, kappa=1.0, varkappa=1.0), 3.0, 0.59073),
    ])
    def test_mixture_optimum_equals_a_fine_scan(self, spec, diam, peak):
        # a mixture takes optimal_scaling's search path; the oracle is
        # psi on the 2e6 scales k/2e6, spaced 5e-7 apart
        s = np.arange(1, 2_000_001) / 2e6
        psi = -kernels.kernel_eval(spec, s * diam) * s**3 * 2.0
        best = int(np.argmax(psi))
        sigma, psi_max = kernels.optimal_scaling(spec, diam, 2.0)
        assert sigma == pytest.approx(peak, abs=1e-5)
        assert abs(sigma - s[best]) <= 1e-6
        assert psi_max == pytest.approx(psi[best], rel=1e-12)


class TestSecondMoment:
    def test_yukawa_closed_form(self):
        assert kernels.second_moment(YUK) == pytest.approx(-4 * math.pi, rel=1e-14)
        val, _ = quad(
            lambda t: 4 * math.pi / 6 * t**4 * kernels.kernel_eval(YUK, t), 1e-12, np.inf
        )
        assert kernels.second_moment(YUK) == pytest.approx(val, rel=1e-10)

    def test_vdw_closed_form(self):
        assert kernels.second_moment(VDW) == pytest.approx(-math.pi**2 / 8, rel=1e-14)
        val, _ = quad(lambda t: 4 * math.pi / 6 * t**4 * kernels.kernel_eval(VDW, t), 0, np.inf)
        assert kernels.second_moment(VDW) == pytest.approx(val, rel=1e-8)

    def test_scaling_and_sign(self):
        s = 3.0
        scaled = KernelSpec(a_y=1.0, kappa=1.0 / s)
        assert kernels.second_moment(scaled) == pytest.approx(
            s**4 * kernels.second_moment(YUK), rel=1e-12
        )
        assert kernels.second_moment(MIXABLE := KernelSpec(a_w=0.3, a_y=0.4)) < 0
        with pytest.raises(ValueError):
            kernels.second_moment(NEW)


class TestBoundaryConstant:
    def test_yukawa_value(self):
        # analytic tail integral: (4 pi/k^2) int (1+kR)e^-kR dR = 8 pi/k^3
        assert kernels.boundary_constant(YUK) == pytest.approx(8 * math.pi, rel=1e-6)

    def test_vdw_value(self):
        # analytic value pi/vk^4 from arctan tail integrals
        assert kernels.boundary_constant(VDW) == pytest.approx(math.pi, rel=1e-6)

    def test_positive_and_scaling(self):
        assert kernels.boundary_constant(MIXY := KernelSpec(a_w=1.0, a_y=1.0)) > 0
        half = KernelSpec(a_y=1.0, kappa=0.5)
        assert kernels.boundary_constant(half) == pytest.approx(
            8 * kernels.boundary_constant(YUK), rel=1e-6
        )
        # the tail integral is linear in the kernel: the parts add up
        assert kernels.boundary_constant(MIXY) == pytest.approx(math.pi + 8 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("spec", [VDW, YUK, KernelSpec(a_w=0.7, a_y=2.5, varkappa=0.3, kappa=1.7)],
                             ids=["vdw", "yukawa", "mix"])
    def test_against_quadrature(self, spec):
        total = kernels.l1_norm_r3(spec)
        val, _ = quad(lambda R: total - kernels.phi_lambda(spec, R), 0.0, np.inf, epsrel=1e-10, limit=200)
        assert kernels.boundary_constant(spec) == pytest.approx(val, rel=1e-9)


class TestRingPrimitive:
    def test_zero_at_origin(self):
        for spec in (VDW, YUK, NEW, MIX):
            assert kernels.ring_primitive(spec, 0.0) == 0.0

    @pytest.mark.parametrize("spec", [VDW, YUK, NEW, MIX], ids=["vdw", "yukawa", "newton", "mix"])
    def test_against_quadrature(self, spec):
        for t in (0.2, 1.0, 4.0, 30.0):
            val, _ = quad(lambda u: u * -kernels.kernel_eval(spec, u), 1e-300, t)
            assert kernels.ring_primitive(spec, t) == pytest.approx(val, rel=1e-9)


@settings(deadline=None, max_examples=30)
@given(
    aw=st.floats(min_value=0.0, max_value=5.0),
    ay=st.floats(min_value=0.1, max_value=5.0),
    R=st.floats(min_value=0.2, max_value=20.0),
)
def test_norm_chain(aw, ay, R):
    # |V|_L1(B_R) = Phi_B_R < |V|_L1(R^3) for any integrable combination
    spec = KernelSpec(a_w=aw, a_y=ay, varkappa=1.3, kappa=0.7)
    phi = kernels.phi_lambda(spec, R)
    assert kernels.ball_potential(spec, 0.0, R) == pytest.approx(phi, rel=1e-12)
    assert phi < kernels.l1_norm_r3(spec)

def test_big_ball_phi_psi_ratios():
    # pure-kernel asymptotic ratios of Phi to the best rescaled Psi
    for kappa in (0.5, 1.0):
        spec = KernelSpec(a_y=1.0, kappa=kappa)
        R = 60.0 / kappa
        sigma, psi_max = kernels.optimal_scaling(spec, 2 * R, 4 * math.pi * R**3 / 3)
        assert sigma == pytest.approx(1.0 / (kappa * R), rel=1e-6)
        ratio = kernels.phi_lambda(spec, R) / psi_max
        assert ratio == pytest.approx(6 * math.e**2, rel=1e-6)
    spec = KernelSpec(a_w=1.0, varkappa=0.5)
    R = 4000.0
    sigma, psi_max = kernels.optimal_scaling(spec, 2 * R, 4 * math.pi * R**3 / 3)
    assert sigma == pytest.approx(1.0 / (0.5 * 2 * R), rel=1e-4)
    ratio = kernels.phi_lambda(spec, R) / psi_max
    assert ratio == pytest.approx(12 * math.pi, rel=1e-3)


def test_import_leaves_scipy_integrate_unloaded():
    # every kernel integral is closed form, so importing the package must
    # not load scipy's quadrature module (it costs start-up time)
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, hardball; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
