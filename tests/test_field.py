"""Tests for the radial container solver.

Oracles: closed-form ball potentials for constant densities, a point
mass for the Newton kernel far field, the equivalent semilinear
elliptic PDE checked by finite differences on an auxiliary uniform
grid, and the nonlocal boundary identity integrated independently on a
spline interpolant of the converged density.
"""

import math
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from hardball import eos, field, functionals, kernels, spectral, uniform

SPEC_Y = kernels.KernelSpec(a_y=1.0, kappa=1.0)
SPEC_W = kernels.KernelSpec(a_w=1.0, varkappa=0.7)
SPEC_N = kernels.KernelSpec(a_n=1.0)
PHI_Y5 = kernels.phi_lambda(SPEC_Y, 5.0)


@pytest.fixture(scope="module")
def dom5():
    return field.make_domain(5.0, n=512)


class TestRadialDomain:
    def test_quadrature_exactness(self):
        for R in (0.3, 1.0, 17.0):
            dom = field.make_domain(R, n=64)
            assert abs(float(dom.weights.sum()) - R) < 1e-12 * R
            assert abs(float(dom.weights @ dom.nodes**2) - R**3 / 3) < 1e-12 * R**3
            # degree-15 polynomial is exact for 8-point panels
            assert abs(float(dom.weights @ dom.nodes**15) - R**16 / 16) < 1e-11 * R**16

    def test_node_layout(self):
        dom = field.make_domain(2.0, n=512)
        assert dom.n == 512
        assert np.all(np.diff(dom.nodes) > 0)
        assert dom.nodes[0] > 0 and dom.nodes[-1] < 2.0
        assert np.all(dom.weights > 0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            field.make_domain(0.0)
        with pytest.raises(ValueError):
            field.make_domain(1.0, n=100, panel=8)
        with pytest.raises(ValueError):
            field.RadialDomain(R=1.0, n=3, nodes=np.array([0.3, 0.2, 0.6]),
                               weights=np.ones(3))
        with pytest.raises(ValueError):
            field.RadialDomain(R=1.0, n=2, nodes=np.array([0.25, 0.75]),
                               weights=np.array([0.5, 0.5]))

    def test_edges_must_match_the_panels(self):
        grid = field.make_domain(1.0, n=16)

        def rebuilt(edges):
            return field.RadialDomain(R=1.0, n=16, nodes=grid.nodes,
                                      weights=grid.weights, edges=edges)

        rebuilt(grid.edges)
        for edges in (
            np.linspace(0.0, 1.0, 4),  # 16 nodes do not split into 3 panels
            np.linspace(0.0, 2.0, 3),  # runs past R
            np.array([0.1, 0.5, 1.0]),  # starts above 0
            np.array([0.0, 0.5, 0.5, 1.0]),  # not strictly increasing
            np.array([0.0, 0.3, 1.0]),  # first panel's nodes spill past 0.3
            np.linspace(0.0, 1.0, 17),  # one node per panel
        ):
            with pytest.raises(ValueError):
                rebuilt(edges)
        for panel in (2, 4, 8, 16):
            assert field.make_domain(3.0, n=16, panel=panel).edges.size == 16 // panel + 1


class TestRingCache:
    def test_threads_sharing_a_domain_assemble_once(self, monkeypatch):
        self._race(monkeypatch, 64, "_ring_matrix")

    def test_threads_sharing_a_domain_build_one_operator(self, monkeypatch):
        self._race(monkeypatch, 1024, "RingOperator")

    @staticmethod
    def _race(monkeypatch, n, builder):
        dom = field.make_domain(5.0, n=n)
        original = getattr(field, builder)
        calls = []

        def counted(*args):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # hold the race window open without the lock
            return original(*args)

        monkeypatch.setattr(field, builder, counted)
        start = threading.Barrier(4)
        rings = []

        def worker():
            start.wait(timeout=10)
            rings.append(field._self_ring(SPEC_Y, dom))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert len(rings) == 4 and all(r is rings[0] for r in rings)


class TestRingAssembly:
    @pytest.mark.parametrize("spec", [
        SPEC_W, SPEC_Y, SPEC_N,
        kernels.KernelSpec(a_w=0.5, a_y=1.2, a_n=0.3, varkappa=0.7, kappa=1.3),
    ])
    def test_dense_rows_equal_the_textbook_expression(self, spec):
        # the row-blocked assembly must give the same bits as the whole-
        # matrix expression; no panel edges, so every row is the dense one
        grid = field.make_domain(4.0, n=256)
        dom = field.RadialDomain(R=grid.R, n=grid.n, nodes=grid.nodes,
                                 weights=grid.weights)
        s, w = dom.nodes, dom.weights
        tp = s[:, None]

        def prim(x):  # int_0^x u(-V(u)) du, terms in kernels' order
            vk2 = spec.varkappa**2
            return (
                0.0
                + spec.a_w / (4.0 * vk2) * (1.0 - 1.0 / (1.0 + vk2 * x**2) ** 2)
                + spec.a_y * (1.0 - np.exp(-spec.kappa * x)) / spec.kappa
                + spec.a_n * x
            )

        expected = (2.0 * math.pi / tp) * w * s * (prim(tp + s) - prim(np.abs(tp - s)))
        assert np.array_equal(field._ring_matrix(spec, dom, s), expected)


def _barycentric_rows(nodes, points):
    """Lagrange basis values L_j(points), one weight loop per call."""
    bw = np.ones_like(nodes)
    for j in range(nodes.size):
        bw[j] = 1.0 / np.prod(np.delete(nodes[j] - nodes, j))
    diff = points[:, None] - nodes[None, :]
    exact = np.isclose(diff, 0.0, atol=1e-300, rtol=0.0)
    diff = np.where(exact, 1.0, diff)
    terms = bw[None, :] / diff
    rows = terms / terms.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    if np.any(hit):
        rows[hit] = exact[hit].astype(float)
    return rows


def _per_target_ring(spec, dom, targets):
    """Ring matrix with the panel split written out one target at a time."""
    t = np.asarray(targets, dtype=float)
    s = dom.nodes
    plain = field.RadialDomain(R=dom.R, n=dom.n, nodes=s, weights=dom.weights)
    M = field._ring_matrix(spec, plain, t)  # the dense rows, checked above
    panel = s.size // (dom.edges.size - 1)
    xg, wg = np.polynomial.legendre.leggauss(panel)
    idx = np.searchsorted(dom.edges, t, side="right") - 1
    for i in range(t.size):
        p = idx[i]
        if not 0 <= p < dom.edges.size - 1:
            continue
        a, b = dom.edges[p], dom.edges[p + 1]
        ti = t[i]
        if not a < ti < b:
            continue
        cols = slice(p * panel, (p + 1) * panel)
        row = np.zeros(panel)
        for lo, hi in ((a, ti), (ti, b)):
            xs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
            ws = 0.5 * (hi - lo) * wg
            ring = kernels.ring_primitive(spec, ti + xs) - kernels.ring_primitive(
                spec, np.abs(ti - xs)
            )
            row += (ws * xs * ring) @ _barycentric_rows(s[cols], xs)
        M[i, cols] = (2.0 * math.pi / ti) * row
    return M


def _radius_hitting_a_node(dom):
    """A radius in panel 3 whose lower half puts a Gauss point on a node."""
    xg = np.polynomial.legendre.leggauss(8)[0]
    a, node = dom.edges[3], dom.nodes[24]
    t = a + (node - a) / (0.5 * (1.0 + xg[7]))
    for _ in range(64):
        x = 0.5 * (t + a) + 0.5 * (t - a) * xg[7]
        if x == node:
            return t
        t = np.nextafter(t, np.inf if x < node else -np.inf)
    raise AssertionError("no radius puts the Gauss point exactly on the node")


class TestPanelSplit:
    SPECS = [
        SPEC_W, SPEC_Y, SPEC_N,
        kernels.KernelSpec(a_w=0.5, a_y=1.2, a_n=0.3, varkappa=0.7, kappa=1.3),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_self_ring_matches_the_per_target_loop(self, spec):
        dom = field.make_domain(4.0, n=256)
        got = field._ring_matrix(spec, dom, dom.nodes)
        expected = _per_target_ring(spec, dom, dom.nodes)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("spec", SPECS)
    def test_convolve_at_matches_the_per_target_loop(self, spec):
        dom = field.make_domain(4.0, n=256)
        s = dom.nodes
        radii = np.concatenate((
            [0.0, dom.edges[7], 4.0, 6.0],  # center, a panel edge, R, 1.5 R
            0.5 * (s[1:] + s[:-1])[::5],  # off-node radii inside panels
            [_radius_hitting_a_node(dom)],  # the exact-hit rule
        ))
        fld = field.DensityField(dom, 0.2 + 0.1 * np.cos(s))
        got = field.convolve_at(spec, 1.5, fld, radii)
        expected = 1.5 * (_per_target_ring(spec, dom, radii) @ fld.values)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_assembly_temporaries_stay_block_sized(self):
        dom = field.make_domain(4.0, n=1024)
        tracemalloc.start()
        try:
            M = field._ring_matrix(SPEC_Y, dom, dom.nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * M.nbytes


def _assert_applies(got, A, x):
    """got equals A @ x to 1e-12 of the apply's scale max(|A| |x|).

    The scale, not max|A x|, because the oracle's own entries carry
    roundoff of the differences prim(t+s) - prim(|t-s|), which signed
    columns x do not cancel the way they cancel A x.
    """
    assert got.shape == x.shape and np.all(np.isfinite(got))
    scale = np.max(np.abs(A) @ np.abs(x))
    assert np.max(np.abs(got - A @ x)) <= 1e-12 * scale


class TestRingOperator:
    SPEC_YN = kernels.KernelSpec(a_y=0.7, kappa=2.0, a_n=0.3)

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    @pytest.mark.parametrize("R", [4.0, 30.0, 80.0])
    @pytest.mark.parametrize("spec", [SPEC_Y, SPEC_N, SPEC_YN], ids=["Y", "N", "YN"])
    def test_applies_equal_the_ring_matrix(self, spec, R, n):
        # M, its transpose and an (n, k) block of signed columns
        dom = field.make_domain(R, n=n)
        M = field._ring_matrix(spec, dom, dom.nodes)
        op = field.RingOperator(spec, dom)
        profile = 0.2 + 0.1 * np.cos(dom.nodes)
        block = np.random.default_rng(n).standard_normal((n, 4))
        for got, A in ((op, M), (op.T, M.T)):
            _assert_applies(got @ profile, A, profile)
            _assert_applies(got @ block, A, block)

    def test_finite_where_sinh_overflows(self):
        # kappa R = 1000: sinh(kappa s) overflows past kappa s = 710, so the
        # discounted sums run in more than one scaled segment
        spec = kernels.KernelSpec(a_y=1.0, kappa=1000.0 / 30.0)
        dom = field.make_domain(30.0, n=1024)
        M = field._ring_matrix(spec, dom, dom.nodes)
        op = field.RingOperator(spec, dom)
        assert len(op._up.bounds) > 1
        x = np.random.default_rng(0).standard_normal((dom.n, 3))
        _assert_applies(op @ x, M, x)
        _assert_applies(op.T @ x, M.T, x)

    def test_self_ring_picks_the_operator_above_the_dense_gate(self):
        small = field.make_domain(4.0, n=field._DENSE_MAX)
        big = field.make_domain(4.0, n=2 * field._DENSE_MAX)
        assert isinstance(field._self_ring(SPEC_Y, small), np.ndarray)
        assert field._self_ring(SPEC_Y, small, dense=True) is field._self_ring(SPEC_Y, small)
        op = field._self_ring(self.SPEC_YN, big)
        assert isinstance(op, field.RingOperator)
        assert field._self_ring(self.SPEC_YN, big) is op
        M = field._self_ring(self.SPEC_YN, big, dense=True)
        assert np.array_equal(M, field._ring_matrix(self.SPEC_YN, big, big.nodes))
        # a van der Waals part is not rank one off the panels: dense
        assert isinstance(field._self_ring(SPEC_W, big), np.ndarray)

    def test_no_dense_matrix_on_the_picard_spectral_and_value_paths(self):
        # a quarter of one n x n float64 array bounds each path's peak at n=2048
        dom = field.make_domain(4.0, n=2048)
        alpha = 15.0 / kernels.l1_norm_r3(SPEC_Y)
        limit = dom.n**2 * 8 / 4
        tracemalloc.start()
        try:
            report = field.minimal_solution(SPEC_Y, alpha, -3.0, dom)
            picard = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            functionals.functional_values(SPEC_Y, alpha, -3.0, report.field)
            spectral.spectral_radius(SPEC_Y, dom)
            rest = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert picard < limit and rest < limit
        assert report.iterations == 22


class TestDensityField:
    def test_validation(self):
        dom = field.make_domain(1.0, n=16)
        field.DensityField(dom, np.full(16, 0.3))
        with pytest.raises(ValueError):
            field.DensityField(dom, np.full(8, 0.3))
        with pytest.raises(ValueError):
            field.DensityField(dom, np.full(16, 1.2))
        with pytest.raises(ValueError):
            field.DensityField(dom, np.full(16, 0.0))
        bad = np.full(16, 0.3)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            field.DensityField(dom, bad)


class TestConvolve:
    def test_constant_density_matches_closed_forms(self, dom5):
        for spec in (SPEC_Y, SPEC_W, SPEC_N):
            fld = field.constant_field(dom5, 0.3)
            u = field.convolve(spec, 2.0, fld)
            exact = 2.0 * 0.3 * kernels.ball_potential(spec, dom5.nodes, 5.0)
            assert np.max(np.abs(u - exact) / np.abs(exact)) < 1e-6
            assert np.all(u > 0)

    def test_linearity(self, dom5):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0.05, 0.4, size=dom5.n)
        u1 = field.convolve(SPEC_Y, 1.5, field.DensityField(dom5, vals))
        u2 = field.convolve(SPEC_Y, 1.5, field.DensityField(dom5, 2.0 * vals))
        assert np.max(np.abs(u2 - 2.0 * u1)) <= 1e-12 * np.max(u2)

    def test_point_mass_newton_far_field(self):
        # a thin radial bump acts like a point mass outside its support
        dom = field.make_domain(2.0, n=512)
        s0 = 0.6
        bump = np.exp(-0.5 * ((dom.nodes - s0) / 0.02) ** 2)
        mass = 4 * math.pi * float(dom.weights @ (dom.nodes**2 * bump))
        fld = field.DensityField(dom, np.clip(bump / mass * 0.05, 1e-300, None))
        for r in (1.2, 1.8):
            got = field.convolve_at(SPEC_N, 1.0, fld, r)
            assert abs(got - 0.05 / r) < 1e-8

    def test_center_limit(self, dom5):
        fld = field.constant_field(dom5, 0.3)
        u0 = field.convolve_at(SPEC_Y, 2.0, fld, 0.0)
        assert abs(u0 - 2.0 * 0.3 * kernels.ball_l1(SPEC_Y, 5.0)) < 1e-9
        arr = field.convolve_at(SPEC_Y, 2.0, fld, [0.0, 1.0])
        assert abs(arr[0] - u0) < 1e-14

    def test_mixed_kernel_is_sum_of_parts(self, dom5):
        mix = kernels.KernelSpec(a_y=0.7, a_w=0.2, kappa=1.0, varkappa=0.7)
        fld = field.constant_field(dom5, 0.2)
        u = field.convolve(mix, 1.0, fld)
        uy = field.convolve(kernels.KernelSpec(a_y=0.7, kappa=1.0), 1.0, fld)
        uw = field.convolve(kernels.KernelSpec(a_w=0.2, varkappa=0.7), 1.0, fld)
        assert np.max(np.abs(u - uy - uw)) < 1e-12 * np.max(u)

    def test_negative_alpha_rejected(self, dom5):
        with pytest.raises(ValueError):
            field.convolve(SPEC_Y, -1.0, field.constant_field(dom5, 0.2))


class TestPicard:
    def test_alpha_zero_one_step(self, dom5):
        eta = float(eos.g2_inverse(-2.0))
        rep = field.picard_iterate(SPEC_Y, 0.0, -2.0, field.constant_field(dom5, eta))
        assert rep.iterations == 1
        assert rep.monotone_direction == "none"
        assert np.max(np.abs(rep.field.values - eta)) == 0.0

    def test_non_convergence_raises(self, dom5, monkeypatch):
        monkeypatch.setattr(field, "_PICARD_STEPS", 3)
        start = field.constant_field(dom5, float(eos.g2_inverse(-2.0)))
        with pytest.raises(RuntimeError):
            field.picard_iterate(SPEC_Y, 20.0 / PHI_Y5, -2.0, start)

    def test_non_convergence_names_gamma(self, dom5, monkeypatch):
        monkeypatch.setattr(field, "_PICARD_STEPS", 3)
        start = field.constant_field(dom5, float(eos.g2_inverse(-2.0)))
        with pytest.raises(RuntimeError, match=r"last gamma -2\.0, sup-norm change"):
            field.picard_iterate(SPEC_Y, 20.0 / PHI_Y5, -2.0, start)

    def test_ideal_gas_leaves_branch(self, dom5):
        # e^(gamma+u) crosses 1 once the potential lifts the argument past 0
        model = eos.EosModel(mode=eos.MODE_IDEAL_GAS)
        start = field.constant_field(dom5, float(math.exp(-0.05)))
        with pytest.raises(ValueError):
            field.picard_iterate(SPEC_Y, 0.1, -0.05, start, model=model)

    def test_leaving_the_range_names_gamma_and_iteration(self, dom5):
        model = eos.EosModel(mode=eos.MODE_IDEAL_GAS)
        start = field.constant_field(dom5, float(math.exp(-0.05)))
        with pytest.raises(ValueError, match=r"^iteration left the volume-fraction "
                           r"range \(0, 1\) at gamma -0\.05, iteration 1$"):
            field.picard_iterate(SPEC_Y, 0.1, -0.05, start, model=model)

    def test_certified_fluid_flag(self, dom5):
        rep = field.minimal_solution(SPEC_Y, 10.0 / PHI_Y5, -2.0, dom5)
        assert rep.certified_fluid
        assert np.all(rep.field.values < eos.ETA_FS_LO)


class TestExtremalSolutions:
    def test_minimal_below_maximal(self, dom5):
        alpha = 20.0 / PHI_Y5
        rmin = field.minimal_solution(SPEC_Y, alpha, -2.0, dom5)
        rmax = field.maximal_solution(SPEC_Y, alpha, -2.0, dom5)
        assert rmin.monotone_direction == "up"
        assert rmax.monotone_direction == "down"
        assert rmin.branch_label == "minimal"
        assert rmax.branch_label == "maximal"
        assert np.all(rmin.field.values <= rmax.field.values + 1e-12)

    def test_contraction_regime_unique(self, dom5):
        # K alpha Phi = 0.47 < 1: the fixed point is unique, so the two
        # extremal iterations land on the same field
        alpha = 10.0 / PHI_Y5
        rmin = field.minimal_solution(SPEC_Y, alpha, -2.0, dom5)
        rmax = field.maximal_solution(SPEC_Y, alpha, -2.0, dom5)
        assert field.predicates(SPEC_Y, alpha, -2.0, dom5).uniqueness_contraction
        assert np.max(np.abs(rmin.field.values - rmax.field.values)) < 2e-10

    def test_bounded_by_small_algebraic_root(self, dom5):
        alpha = 20.0 / PHI_Y5
        root = uniform.solve_uniform(20.0, -2.0).roots[0]
        down = field.picard_iterate(SPEC_Y, alpha, -2.0,
                                    field.constant_field(dom5, root))
        assert down.monotone_direction == "down"
        assert np.all(down.field.values <= root + 1e-12)
        rmin = field.minimal_solution(SPEC_Y, alpha, -2.0, dom5)
        assert np.all(rmin.field.values <= root + 1e-12)

    def test_pointwise_lower_bound(self, dom5):
        for alpha, gamma in ((20.0 / PHI_Y5, -2.0), (45.0 / PHI_Y5, -6.0)):
            rep = field.minimal_solution(SPEC_Y, alpha, gamma, dom5)
            assert np.all(rep.field.values > float(eos.g2_inverse(gamma)))

    def test_maximal_certification_fluid_ceiling(self, dom5):
        # freezing constant qualifies as supersolution
        rep = field.maximal_solution(SPEC_Y, 20.0 / PHI_Y5, -2.0, dom5)
        assert rep.certification == "fluid-ceiling"
        assert rep.certified_fluid

    def test_fluid_ceiling_solves_no_uniform_roots(self, dom5, monkeypatch):
        # the freezing-constant start needs no algebraic root
        calls = []

        def counted(*args, _solve=uniform.solve_uniform, **kwargs):
            calls.append(args)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(uniform, "solve_uniform", counted)
        rep = field.maximal_solution(SPEC_Y, 20.0 / PHI_Y5, -2.0, dom5)
        assert rep.certification == "fluid-ceiling"
        assert calls == []

    def test_maximal_certification_algebraic_ceiling(self, dom5):
        # freezing constant fails the supersolution test, but an
        # algebraic root below it exists
        rep = field.maximal_solution(SPEC_Y, 45.0 / PHI_Y5, -6.0, dom5)
        assert rep.certification == "algebraic-ceiling"
        assert rep.monotone_direction == "down"

    def test_supersolution_unavailable(self, dom5):
        with pytest.raises(ValueError, match="supersolution"):
            field.maximal_solution(SPEC_Y, 20.0 / PHI_Y5, 12.0, dom5)

    def test_supersolution_unavailable_names_alpha_and_gamma(self, dom5):
        alpha = 20.0 / PHI_Y5
        with pytest.raises(ValueError, match=r"^supersolution unavailable: .* at "
                           rf"alpha {alpha!r}, gamma 12\.0$"):
            field.maximal_solution(SPEC_Y, alpha, 12.0, dom5)

    def test_ideal_gas_maximal_rejected(self, dom5):
        with pytest.raises(ValueError):
            field.maximal_solution(SPEC_Y, 0.1, -0.5, dom5,
                                   model=eos.EosModel(mode=eos.MODE_IDEAL_GAS))


@pytest.fixture(scope="module")
def launch_setup():
    dom = field.make_domain(TestSubsolutionLaunch.R, n=512)
    sg, _ = kernels.optimal_scaling(
        TestSubsolutionLaunch.SPEC,
        2 * TestSubsolutionLaunch.R,
        4 * math.pi * TestSubsolutionLaunch.R**3 / 3,
    )
    return dom, sg


class TestSubsolutionLaunch:
    SPEC = kernels.KernelSpec(a_w=1.0, varkappa=1.0)
    ALPHA, GAMMA, R = 764.0, -9.0, 1.0

    def test_scaling_shrinks(self, launch_setup):
        _, sg = launch_setup
        # range 1/varkappa is half the diameter, so the optimum shrinks
        assert abs(sg - 0.5) < 1e-6

    def test_both_launches_monotone_up(self, launch_setup):
        dom, sg = launch_setup
        for mu in ("m", "M"):
            rep = field.subsolution_launch(self.SPEC, self.ALPHA, self.GAMMA,
                                           dom, mu, sg)
            assert rep.monotone_direction == "up"
            assert rep.residual < 1e-9

    def test_small_launch_equals_minimal(self, launch_setup):
        dom, sg = launch_setup
        rep = field.subsolution_launch(self.SPEC, self.ALPHA, self.GAMMA,
                                       dom, "m", sg)
        model = eos.EosModel(mode=eos.MODE_CS_EXTENDED)
        rmin = field.minimal_solution(self.SPEC, self.ALPHA, self.GAMMA, dom,
                                      model=model)
        assert rep.branch_label == "minimal"
        assert np.max(np.abs(rep.field.values - rmin.field.values)) < 1e-8

    def test_large_launch_exceeds_small(self, launch_setup):
        dom, sg = launch_setup
        rm = field.subsolution_launch(self.SPEC, self.ALPHA, self.GAMMA,
                                      dom, "m", sg)
        rM = field.subsolution_launch(self.SPEC, self.ALPHA, self.GAMMA,
                                      dom, "M", sg)
        core = dom.nodes <= sg * self.R
        assert np.min(rM.field.values[core] - rm.field.values[core]) > 0.1

    def test_region_membership_enforced(self, launch_setup):
        dom, sg = launch_setup
        with pytest.raises(ValueError, match="triple-solution"):
            field.subsolution_launch(self.SPEC, 10.0, self.GAMMA, dom, "m", sg)
        with pytest.raises(ValueError, match="triple-solution"):
            field.subsolution_launch(self.SPEC, self.ALPHA, -40.0, dom, "m", sg)

    def test_band_errors_name_alpha_and_gamma(self, launch_setup):
        dom, sg = launch_setup
        with pytest.raises(ValueError, match=r"^alpha below the triple-solution "
                           r"region: alpha 10\.0, gamma -9\.0$"):
            field.subsolution_launch(self.SPEC, 10.0, self.GAMMA, dom, "m", sg)
        with pytest.raises(ValueError, match=r"^\(alpha, gamma\) outside the "
                           r"triple-solution region: alpha 764\.0, gamma -40\.0$"):
            field.subsolution_launch(self.SPEC, self.ALPHA, -40.0, dom, "m", sg)

    def test_bad_arguments(self, launch_setup):
        dom, sg = launch_setup
        with pytest.raises(ValueError):
            field.subsolution_launch(self.SPEC, self.ALPHA, self.GAMMA,
                                     dom, "x", sg)
        with pytest.raises(ValueError):
            field.subsolution_launch(self.SPEC, self.ALPHA, self.GAMMA,
                                     dom, "m", 1.5)


@pytest.fixture(scope="module")
def triple():
    dom = field.make_domain(TestNewton.R, n=256)
    model = eos.EosModel(mode=eos.MODE_CS_EXTENDED)
    phi = kernels.phi_lambda(TestNewton.SPEC, TestNewton.R)
    roots = uniform.solve_uniform(TestNewton.ALPHA * phi, TestNewton.GAMMA)
    return dom, model, roots


class TestNewton:
    SPEC = kernels.KernelSpec(a_w=1.0, varkappa=0.2)
    R, ALPHA, GAMMA = 0.5, 100.0, -7.0

    def test_middle_branch(self, triple):
        dom, model, roots = triple
        assert len(roots.roots) == 3
        rmid = field.newton_solve(self.SPEC, self.ALPHA, self.GAMMA,
                                  field.constant_field(dom, roots.roots[1]),
                                  model=model)
        rmin = field.minimal_solution(self.SPEC, self.ALPHA, self.GAMMA, dom,
                                      model=model)
        rmax = field.maximal_solution(self.SPEC, self.ALPHA, self.GAMMA, dom,
                                      model=model)
        assert rmid.residual < 1e-12
        # genuinely distinct from both extremal branches, and sandwiched
        assert np.max(np.abs(rmid.field.values - rmin.field.values)) > 1e-2
        assert np.max(np.abs(rmid.field.values - rmax.field.values)) > 1e-2
        assert np.all(rmin.field.values <= rmid.field.values + 1e-9)
        assert np.all(rmid.field.values <= rmax.field.values + 1e-9)

    def test_fixed_point_noop(self, triple, monkeypatch):
        dom, model, _ = triple
        rmin = field.minimal_solution(self.SPEC, self.ALPHA, self.GAMMA, dom,
                                      model=model)
        monkeypatch.setattr(field, "_NEWTON_TOL", 1e-8)
        rep = field.newton_solve(self.SPEC, self.ALPHA, self.GAMMA, rmin.field,
                                 model=model)
        assert rep.iterations == 0
        assert np.max(np.abs(rep.field.values - rmin.field.values)) == 0.0

    def test_quadratic_convergence(self, triple):
        dom, model, roots = triple
        hist = []
        field.newton_solve(self.SPEC, self.ALPHA, self.GAMMA,
                           field.constant_field(dom, roots.roots[1]),
                           model=model, callback=lambda k, r: hist.append(r))
        # each step roughly squares the residual until roundoff
        for prev, nxt in zip(hist, hist[1:]):
            if prev < 1e-13 or nxt < 1e-15:
                break
            assert nxt < 0.5 * prev**1.7

    def test_stall_raises_early(self):
        # at the R=15 grand crossing the solve from the middle root stalls
        # near residual 0.038 from step 12 on; it used to take 37 steps
        # before the line search failed
        spec = kernels.KernelSpec(a_y=1.0, kappa=1.0)
        alpha, gamma = 31.0 / kernels.l1_norm_r3(spec), -4.8481
        dom = field.make_domain(15.0, n=64)
        roots = uniform.solve_uniform(alpha * kernels.phi_lambda(spec, 15.0), gamma)
        steps = []
        with pytest.raises(RuntimeError, match=r"stalled at gamma -4\.8481"):
            field.newton_solve(spec, alpha, gamma,
                               field.constant_field(dom, roots.roots[1]),
                               model=eos.EosModel(mode=eos.MODE_CS_EXTENDED),
                               callback=lambda k, r: steps.append(r))
        # 8 accepted steps past the plateau's start, 1% cut not reached
        assert len(steps) - 1 <= 20
        assert steps[-1] > 0.99 * steps[-9] > 1e-2

    def test_jacobian_reuses_the_residual_inversion(self, triple, monkeypatch):
        # wp'' comes from response_at of the profile resid inverted
        dom, model, roots = triple
        calls = []
        real = eos.EosModel.wp_double_prime
        monkeypatch.setattr(eos.EosModel, "wp_double_prime",
                            lambda self, g: calls.append(1) or real(self, g))
        rep = field.newton_solve(self.SPEC, self.ALPHA, self.GAMMA,
                                 field.constant_field(dom, roots.roots[1]),
                                 model=model)
        assert rep.residual < 1e-12
        assert rep.iterations > 0
        assert calls == []

    def test_kink_argument_raises(self):
        # alpha = 0 puts every argument exactly on gamma_fs, where wp''
        # does not exist
        dom = field.make_domain(1.0, n=16)
        with pytest.raises(ValueError, match="kink"):
            field.newton_solve(SPEC_Y, 0.0, eos.GAMMA_FS,
                               field.constant_field(dom, 0.3),
                               model=eos.EosModel())


def _plain_monotone_picard(spec, alpha, gamma, start, model, tol=1e-10):
    """Reference: monotone Picard with no finish, to the library's stopping rule."""
    M = field._self_ring(spec, start.domain)
    v, direction = start.values, "none"
    for it in range(1, 20001):
        new = np.asarray(model.wp_prime(gamma + alpha * (M @ v), seed=v))
        change = float(np.max(np.abs(new - v)))
        if it == 1:
            scale = 1e-14 * max(1.0, float(np.max(np.abs(v))))
            if change > scale and np.all(new >= v - scale):
                direction = "up"
            elif change > scale and np.all(new <= v + scale):
                direction = "down"
        v = new
        if change < tol:
            eta = model.wp_prime(gamma + alpha * (M @ v), seed=v)
            res = float(np.max(np.abs(np.asarray(eta) - v)))
            if res < 1e-9:
                return v, res, it, direction
    raise AssertionError("reference Picard loop did not converge")


def _launch_with_start(monkeypatch, launch):
    """Run a launch and capture the start field it hands to picard_iterate."""
    starts = []
    real = field.picard_iterate

    def spy(spec, alpha, gamma, eta0, **kwargs):
        starts.append(eta0)
        return real(spec, alpha, gamma, eta0, **kwargs)

    monkeypatch.setattr(field, "picard_iterate", spy)
    report = launch()
    assert len(starts) == 1
    return report, starts[0]


@pytest.fixture(scope="module")
def dom30():
    return field.make_domain(30.0, n=256)


class TestNewtonFinish:
    """The certified Newton finish of slow monotone launches.

    At criterion 8's gamma_gl (R=30, unit Yukawa, alpha*l1 = 31,
    CS-extended) the maximal launch contracts at rate 0.965 and took 483
    plain Picard steps; the finish must land on the limit of that
    monotone sequence, with the same labels.
    """

    ALPHA = 31.0 / kernels.l1_norm_r3(SPEC_Y)
    GAMMA = -4.848100784705362  # criterion 8's recorded gamma_gl
    EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)

    def _matches_plain_picard(self, monkeypatch, spec, alpha, gamma, launch,
                              label, certification):
        report, start = _launch_with_start(monkeypatch, launch)
        values, res, steps, direction = _plain_monotone_picard(
            spec, alpha, gamma, start, self.EXT)
        assert float(np.max(np.abs(report.field.values - values))) <= 1e-7
        assert report.residual <= res
        assert report.monotone_direction == direction
        assert (report.branch_label, report.certification) == (label, certification)
        return report, steps

    def test_maximal_launch_matches_plain_picard(self, dom30, monkeypatch):
        report, steps = self._matches_plain_picard(
            monkeypatch, SPEC_Y, self.ALPHA, self.GAMMA,
            lambda: field.maximal_solution(SPEC_Y, self.ALPHA, self.GAMMA, dom30,
                                           model=self.EXT),
            "maximal", "algebraic-ceiling")
        assert report.monotone_direction == "down"
        assert report.iterations < steps  # the finish did fire

    def test_minimal_launch_matches_plain_picard(self, dom30, monkeypatch):
        report, _ = self._matches_plain_picard(
            monkeypatch, SPEC_Y, self.ALPHA, self.GAMMA,
            lambda: field.minimal_solution(SPEC_Y, self.ALPHA, self.GAMMA, dom30,
                                           model=self.EXT),
            "minimal", "")
        assert report.monotone_direction == "up"

    def test_subsolution_launch_matches_plain_picard(self, launch_setup, monkeypatch):
        # criterion 6's small ball: with the Yukawa kernel at R=30 the
        # shrunken ball's alpha*Psi stays below the triple-solution band
        dom, sg = launch_setup
        spec, alpha, gamma = (TestSubsolutionLaunch.SPEC, TestSubsolutionLaunch.ALPHA,
                              TestSubsolutionLaunch.GAMMA)
        report, _ = self._matches_plain_picard(
            monkeypatch, spec, alpha, gamma,
            lambda: field.subsolution_launch(spec, alpha, gamma, dom, "m", sg),
            "minimal", "")
        assert report.monotone_direction == "up"

    def test_maximal_launch_iteration_count(self, dom30):
        # Picard plus finishing Newton steps; plain Picard takes 483
        report = field.maximal_solution(SPEC_Y, self.ALPHA, self.GAMMA, dom30,
                                        model=self.EXT)
        assert report.iterations < 150

    @pytest.mark.parametrize("n", [512, 1024])
    def test_fast_solve_iteration_counts_unchanged(self, n):
        # a cli-scan-sized hard-sphere solve contracts fast, so the
        # finish never fires and the plain Picard counts stand; n=512
        # is the largest node count the finish is offered at, and
        # cli-scan's n=1024 lies above it
        dom = field.make_domain(4.0, n=n)
        alpha = 15.0 / kernels.l1_norm_r3(SPEC_Y)
        assert field.minimal_solution(SPEC_Y, alpha, -3.0, dom).iterations == 22
        assert field.maximal_solution(SPEC_Y, alpha, -3.0, dom).iterations == 26

    def test_bound_at_the_maximal_solution_is_its_spectral_radius(self, dom30):
        report = field.maximal_solution(SPEC_Y, self.ALPHA, self.GAMMA, dom30,
                                        model=self.EXT)
        v = report.field.values
        rho = 2.0 * functionals.p_stability(
            SPEC_Y, self.ALPHA, self.GAMMA, report.field,
            model=self.EXT).extremal_eigenvalue + 1.0
        aM = self.ALPHA * field._self_ring(SPEC_Y, dom30)
        absM = np.abs(aM)
        # each call stops its power steps once the bound is below 1;
        # calling on from the vector reached, until it moves by at most
        # the 1e-10 that ends a call, runs them down toward rho(K)
        y, moved = np.ones(dom30.n), 1.0
        while moved > 1e-10:
            bound, z = field._contraction_bound(aM, absM, self.GAMMA, self.EXT, v, v, y)
            y, moved = z, float(np.max(np.abs(z - y)))
            assert bound >= rho
        assert rho <= bound <= rho + 1e-6
        assert bound < 1.0

    def test_bound_reaches_one_around_the_middle_solution(self, ball_triple):
        # the Newton middle solution is unstable, so no interval holding
        # it can certify a unique fixed point
        dom, spec, alpha, gamma, small, large, middle = ball_triple
        aM = alpha * field._self_ring(spec, dom)
        absM = np.abs(aM)
        assert np.all(small <= middle) and np.all(middle <= large)
        for lo, hi in ((middle, middle), (small, middle), (middle, large), (small, large)):
            for y in (np.ones(dom.n), middle, large):
                bound, _ = field._contraction_bound(aM, absM, gamma, self.EXT, lo, hi, y)
                assert bound >= 1.0

    def test_bound_stops_where_no_vector_can_certify(self, ball_triple, monkeypatch):
        # across the whole triple every ratio (By)_i/y_i at y = ones is
        # at least 1, a lower bound on rho(B), so the first power step
        # settles it: the call gives what a one-step call gives
        dom, spec, alpha, gamma, small, large, _ = ball_triple
        aM = alpha * field._self_ring(spec, dom)
        absM = np.abs(aM)
        full = field._contraction_bound(aM, absM, gamma, self.EXT, small, large,
                                        np.ones(dom.n))
        monkeypatch.setattr(field, "_POWER_STEPS", 1)
        one = field._contraction_bound(aM, absM, gamma, self.EXT, small, large,
                                       np.ones(dom.n))
        assert full[0] == one[0] >= 1.0
        assert np.array_equal(full[1], one[1])

    def test_finish_refuses_a_limit_it_cannot_certify(self, ball_triple):
        # handed the middle solution as its Newton limit below a
        # descending iterate, the finish keeps iterating
        dom, spec, alpha, gamma, small, large, middle = ball_triple
        M = field._self_ring(spec, dom)
        finish = field._NewtonFinish(M, alpha, self.EXT)
        finish.tried, finish.checked, finish.aM = True, 1.0, alpha * M
        finish.limit = (middle, finish.aM @ middle, 0.0, 0, gamma)
        assert finish(10, large, gamma, 1e-3, "down") is None
        assert finish.limit is not None  # on the right side, so kept for re-checks

    def test_finish_drops_a_limit_on_the_wrong_side(self, ball_triple, monkeypatch):
        # handed the middle solution as the limit of a climb from the large
        # solution, the finish drops it, and having tried once it never
        # solves or checks a bound again
        dom, spec, alpha, gamma, small, large, middle = ball_triple
        M = field._self_ring(spec, dom)
        finish = field._NewtonFinish(M, alpha, self.EXT, tol=1e-10)
        finish.tried, finish.checked, finish.aM = True, 1.0, alpha * M
        finish.limit = (middle, finish.aM @ middle, 0.0, 0, gamma)
        calls = []
        monkeypatch.setattr(field, "_newton", lambda *args: calls.append("newton"))
        monkeypatch.setattr(field, "_contraction_bound", lambda *args: calls.append("bound"))
        assert finish(10, large, gamma, 1e-3, "up") is None
        assert finish.limit is None
        for it, change in ((11, 4e-4), (12, 1e-4), (13, 2e-5)):
            assert finish(it, large, gamma, change, "up") is None
        assert calls == []


class TestFinishCost:
    """The Newton finish fires when the Picard steps left cost more than it.

    The vapor launch is one of the petit-r15 benchmark's mass matches
    (R=15, n=64, unit Yukawa, alpha*l1 = 31, CS-extended): it climbs at
    a steady change ratio near 0.82, below any fixed threshold of 0.9,
    and takes about 90 plain Picard steps.
    """

    ALPHA = 31.0 / kernels.l1_norm_r3(SPEC_Y)
    GAMMA_VAPOR = -4.11284831609255
    EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)

    @staticmethod
    def _spy(monkeypatch):
        """Record each `field._newton` call and each contraction bound."""
        solves, bounds = [], []
        newton, bound = field._newton, field._contraction_bound

        def newton_spy(*args):
            solves.append(args)
            return newton(*args)

        def bound_spy(*args):
            result = bound(*args)
            bounds.append(result[0])
            return result

        monkeypatch.setattr(field, "_newton", newton_spy)
        monkeypatch.setattr(field, "_contraction_bound", bound_spy)
        return solves, bounds

    def test_slow_vapor_launch_fires_and_keeps_its_certificate(self, monkeypatch):
        dom = field.make_domain(15.0, n=64)
        solves, bounds = self._spy(monkeypatch)
        report = field.minimal_solution(SPEC_Y, self.ALPHA, self.GAMMA_VAPOR, dom,
                                        model=self.EXT)
        assert len(solves) == 1
        assert bounds and bounds[-1] < 1.0  # the limit was taken with its certificate
        assert (report.branch_label, report.monotone_direction) == ("minimal", "up")

        # the same launch with the finish turned away at every step; run
        # to a change of 1e-12, so that its own distance from the limit,
        # change q/(1 - q) at q = 0.82, stays near 5e-12
        offered = []
        monkeypatch.setattr(field._NewtonFinish, "__call__",
                            lambda self, it, *rest: offered.append(it))
        plain = field.minimal_solution(SPEC_Y, self.ALPHA, self.GAMMA_VAPOR, dom,
                                       model=self.EXT, tol=1e-12)
        assert len(solves) == 1 and offered
        assert float(np.max(np.abs(report.field.values - plain.field.values))) <= 1e-10
        assert report.iterations < 0.25 * plain.iterations

    def test_fast_launch_does_not_fire(self, monkeypatch):
        # the hard-sphere solve of test_fast_solve_iteration_counts_unchanged
        # at n=256: every step the finish is offered predicts fewer Picard
        # steps left than a finish costs there, so no Newton solve is run
        dom = field.make_domain(4.0, n=256)
        solves, _ = self._spy(monkeypatch)
        seen = []
        real = field._NewtonFinish.__call__

        def offer(self, it, v, gamma, change, direction):
            seen.append((it, change))
            return real(self, it, v, gamma, change, direction)

        monkeypatch.setattr(field._NewtonFinish, "__call__", offer)
        report = field.minimal_solution(SPEC_Y, 15.0 / kernels.l1_norm_r3(SPEC_Y), -3.0, dom)
        assert not solves
        cost = field._finish_cost(256)
        for (_, before), (it, change) in zip(seen, seen[1:]):
            if it >= 3:
                assert math.log(1e-10 / change) / math.log(change / before) < cost
        assert report.iterations == len(seen) + 1

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_fires_where_the_steps_left_cost_more(self, n):
        # a geometric sequence at ratio 1/2 arms at step 3 and fires once
        # its change has halved, at step 4, if the steps it has left
        # there, log(tol/change)/log(1/2), cost more than a finish
        cost = field._finish_cost(n)
        v = np.full(n, 0.1)
        for left, fires in ((0.5 * cost, False), (cost - 2.0, False), (cost + 2.0, True)):
            finish = field._NewtonFinish(np.zeros((n, n)), 1.0, self.EXT, tol=1e-10)
            fired = []
            # record the firing, and fail as a solve that gives up does
            finish._solve = lambda v, gamma, ratio: fired.append(ratio)
            change_4 = 1e-10 * 2.0**left  # the change at step 4
            for it in range(1, 8):
                finish(it, v, -4.0, change_4 * 2.0 ** (4 - it), "up")
            assert fired == ([0.5] if fires else [])


@pytest.fixture(scope="module")
def ball_triple(launch_setup):
    """Criterion 6's small-ball triple: the two launches and the Newton middle."""
    dom, sg = launch_setup
    spec, alpha, gamma = (TestSubsolutionLaunch.SPEC, TestSubsolutionLaunch.ALPHA,
                          TestSubsolutionLaunch.GAMMA)
    small = field.subsolution_launch(spec, alpha, gamma, dom, "m", sg).field.values
    large = field.subsolution_launch(spec, alpha, gamma, dom, "M", sg).field.values
    roots = uniform.solve_uniform(alpha * kernels.phi_lambda(spec, dom.R), gamma)
    middle = field.newton_solve(spec, alpha, gamma,
                                field.constant_field(dom, roots.roots[1]),
                                model=eos.EosModel(mode=eos.MODE_CS_EXTENDED))
    return dom, spec, alpha, gamma, small, large, middle.field.values


class TestPredicates:
    def test_alpha_zero_gamma_zero(self, dom5):
        rep = field.predicates(SPEC_Y, 0.0, 0.0, dom5)
        assert rep.existence_sufficient
        assert rep.all_fluid_sufficient
        assert rep.uniqueness_contraction
        assert not rep.no_fluid_necessaryviolation

    def test_beyond_freezing_fires(self, dom5):
        rep = field.predicates(SPEC_Y, 0.0, eos.GAMMA_FS + 1.0, dom5)
        assert rep.no_fluid_necessaryviolation
        assert not rep.existence_sufficient

    def test_contraction_window(self, dom5):
        rep = field.predicates(SPEC_Y, 20.0 / PHI_Y5, -2.0, dom5)
        assert rep.uniqueness_contraction
        rep31 = field.predicates(SPEC_Y, 31.0 / PHI_Y5, -2.0, dom5)
        assert not rep31.uniqueness_contraction

    def test_far_below_gas_side_ideal_gas(self, dom5):
        # at gamma = -700 the uniform root lies near e^-700, well inside the
        # fluid range; the ideal-gas EOS still inverts there
        rep = field.predicates(SPEC_Y, 1.0, -700.0, dom5, model=eos.EosModel(eos.MODE_IDEAL_GAS))
        assert rep.existence_sufficient

    def test_far_below_gas_side_hard_sphere_raises_eos_error(self, dom5):
        with pytest.raises(ValueError, match="invertible bracket"):
            field.predicates(SPEC_Y, 1.0, -700.0, dom5)

    def test_negative_alpha_raises(self, dom5):
        with pytest.raises(ValueError, match="non-negative"):
            field.predicates(SPEC_Y, -1.0, -2.0, dom5)

    def test_newton_kernel_never_triple_candidate(self):
        dom = field.make_domain(1.0, n=16)
        rep = field.predicates(SPEC_N, 0.5, -2.0, dom)
        assert not rep.triple_candidate

    def test_triple_candidate_window(self, dom5):
        # whole-space L1 norm of the Yukawa kernel is 4 pi
        alpha_ok = (eos.GAMMA_FS + 2.0 - 1.0) / (4 * math.pi * eos.ETA_FCC)
        assert field.predicates(SPEC_Y, alpha_ok, -2.0, dom5).triple_candidate
        alpha_bad = (eos.GAMMA_FS + 2.0 + 1.0) / (4 * math.pi * eos.ETA_FCC)
        assert not field.predicates(SPEC_Y, alpha_bad, -2.0, dom5).triple_candidate


class TestGridConvergence:
    def test_minimal_solution_refines_at_second_order(self):
        # smooth integrands make panel quadrature far better than O(h^2);
        # the contract only demands the refinement differences shrink
        # at least that fast.  The solves run to a change of 1e-13, so
        # a profile that Picard ends and one that a Newton finish ends
        # both lie within the 1e-12 floor of their grid's solution, and
        # the differences measure the grids, not the solver's tolerance
        probe = np.linspace(0.3, 4.7, 23)
        model = eos.EosModel()
        alpha = 20.0 / PHI_Y5
        out = {}
        for n in (128, 256, 512):
            dom = field.make_domain(5.0, n=n)
            rep = field.minimal_solution(SPEC_Y, alpha, -2.0, dom, tol=1e-13)
            u = field.convolve_at(SPEC_Y, alpha, rep.field, probe)
            out[n] = np.asarray(model.wp_prime(-2.0 + u))
        d1 = np.max(np.abs(out[256] - out[128]))
        d2 = np.max(np.abs(out[512] - out[256]))
        assert d2 <= max(d1 / 3.8, 1e-12)


def _pde_residual_yukawa(spec, alpha, gamma, R, n, model):
    """Sup-norm FD residual of -lap(phi) + kappa^2 phi = 4 pi a_y eta."""
    dom = field.make_domain(R, n=n)
    rep = field.minimal_solution(spec, alpha, gamma, dom, model=model)
    h = R / (n + 1)
    r = np.linspace(h, R - h, n)
    u = field.convolve_at(spec, alpha, rep.field, r)
    pot = u / alpha
    eta = np.asarray(model.wp_prime(gamma + u))
    lap = (pot[2:] - 2 * pot[1:-1] + pot[:-2]) / h**2 \
        + (pot[2:] - pot[:-2]) / (h * r[1:-1])
    res = -lap + spec.kappa**2 * pot[1:-1] - 4 * math.pi * spec.a_y * eta[1:-1]
    return np.max(np.abs(res))


class TestPdeCrossChecks:
    def test_yukawa_interior_residual_second_order(self):
        model = eos.EosModel()
        alpha = 20.0 / PHI_Y5
        res = [_pde_residual_yukawa(SPEC_Y, alpha, -2.0, 5.0, n, model)
               for n in (128, 256, 512)]
        orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
        assert min(orders) > 1.85
        assert max(orders) < 2.4

    def test_yukawa_boundary_identity(self, dom5):
        alpha = 20.0 / PHI_Y5
        rep = field.minimal_solution(SPEC_Y, alpha, -2.0, dom5)
        lhs = field.convolve_at(SPEC_Y, alpha, rep.field, 5.0) / alpha
        v = rep.field.values
        cs = CubicSpline(np.concatenate([[0.0], dom5.nodes, [5.0]]),
                         np.concatenate([[v[0]], v, [v[-1]]]))
        integral, _ = quad(lambda s: s * math.sinh(s) * cs(s), 0.0, 5.0, limit=200)
        rhs = 4 * math.pi * math.exp(-5.0) / 5.0 * integral
        assert abs(lhs - rhs) / abs(rhs) < 1e-6

    def test_newton_kernel_poisson(self):
        # -lap(phi) = 4 pi eta with phi the Newton potential of eta
        model = eos.EosModel()
        R, alpha, gamma = 1.0, 2.0, -2.0
        res = []
        for n in (128, 256, 512):
            dom = field.make_domain(R, n=n)
            rep = field.minimal_solution(SPEC_N, alpha, gamma, dom)
            h = R / (n + 1)
            r = np.linspace(h, R - h, n)
            u = field.convolve_at(SPEC_N, alpha, rep.field, r)
            pot = u / alpha
            eta = np.asarray(model.wp_prime(gamma + u))
            lap = (pot[2:] - 2 * pot[1:-1] + pot[:-2]) / h**2 \
                + (pot[2:] - pot[:-2]) / (h * r[1:-1])
            res.append(np.max(np.abs(-lap - 4 * math.pi * eta[1:-1])))
        orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
        assert min(orders) > 1.85

    def test_newton_boundary_is_total_mass_over_R(self):
        R, alpha, gamma = 1.0, 2.0, -2.0
        dom = field.make_domain(R, n=512)
        rep = field.minimal_solution(SPEC_N, alpha, gamma, dom)
        lhs = field.convolve_at(SPEC_N, alpha, rep.field, R) / alpha
        v = rep.field.values
        cs = CubicSpline(np.concatenate([[0.0], dom.nodes, [R]]),
                         np.concatenate([[v[0]], v, [v[-1]]]))
        integral, _ = quad(lambda s: s**2 * cs(s), 0.0, R, limit=200)
        rhs = 4 * math.pi / R * integral
        assert abs(lhs - rhs) / abs(rhs) < 1e-6

    def test_ideal_gas_variant(self):
        # same elliptic identity with the exponential density map
        model = eos.EosModel(mode=eos.MODE_IDEAL_GAS)
        res = []
        for n in (128, 256, 512):
            dom = field.make_domain(5.0, n=n)
            rep = field.minimal_solution(SPEC_Y, 0.3, -3.0, dom, model=model)
            h = 5.0 / (n + 1)
            r = np.linspace(h, 5.0 - h, n)
            u = field.convolve_at(SPEC_Y, 0.3, rep.field, r)
            pot = u / 0.3
            eta = np.exp(-3.0 + u)
            lap = (pot[2:] - 2 * pot[1:-1] + pot[:-2]) / h**2 \
                + (pot[2:] - pot[:-2]) / (h * r[1:-1])
            res.append(np.max(np.abs(-lap + pot[1:-1] - 4 * math.pi * eta[1:-1])))
        orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
        assert min(orders) > 1.85


class TestCsvRoundTrip:
    def test_roundtrip(self, dom5, tmp_path):
        alpha = 20.0 / PHI_Y5
        rep = field.minimal_solution(SPEC_Y, alpha, -2.0, dom5)
        path = os.path.join(tmp_path, "field.csv")
        field.write_csv(path, rep.field, SPEC_Y, alpha, -2.0,
                        branch_label=rep.branch_label)
        back, meta = field.read_csv(path)
        assert np.array_equal(back.values, rep.field.values)
        assert np.array_equal(back.domain.nodes, rep.field.domain.nodes)
        assert meta["spec"] == SPEC_Y
        assert meta["alpha"] == alpha
        assert meta["gamma"] == -2.0
        assert meta["branch_label"] == "minimal"

    def test_roundtrip_on_wider_panels(self, tmp_path):
        # the panel size is not in the header; read_csv infers it
        dom = field.make_domain(2.0, n=64, panel=16)
        fld = field.constant_field(dom, 0.2)
        path = os.path.join(tmp_path, "field.csv")
        field.write_csv(path, fld, SPEC_Y, 1.0, -2.0)
        back, _ = field.read_csv(path)
        assert np.array_equal(back.domain.nodes, dom.nodes)
        assert np.array_equal(back.domain.weights, dom.weights)
        assert np.array_equal(back.values, fld.values)

    def test_header_is_self_describing(self, dom5, tmp_path):
        path = os.path.join(tmp_path, "field.csv")
        field.write_csv(path, field.constant_field(dom5, 0.2), SPEC_Y, 1.0, -2.0)
        head = Path(path).read_text().splitlines()[:7]
        assert head[0].startswith("# R=")
        assert head[1] == "# n=512"
        assert head[6] == "r,eta"

    def test_tampered_grid_rejected(self, dom5, tmp_path):
        path = os.path.join(tmp_path, "field.csv")
        field.write_csv(path, field.constant_field(dom5, 0.2), SPEC_Y, 1.0, -2.0)
        lines = Path(path).read_text().splitlines()
        r, eta = lines[8].split(",")
        lines[8] = f"{float(r) + 0.01},{eta}"
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
        with pytest.raises(ValueError, match="abscissae"):
            field.read_csv(path)
