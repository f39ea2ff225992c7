"""Tests for the radial container solver.

Oracles: closed-form ball potentials for constant densities, a point
mass for the Newton kernel far field, the equivalent semilinear
elliptic PDE checked by finite differences on an auxiliary uniform
grid, and the nonlocal boundary identity integrated independently on a
spline interpolant of the converged density.
"""

import math
import re
import sys
import threading
import time
import tracemalloc

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
            field.make_domain(1.0, n=100)

    @pytest.mark.parametrize("n", [64.0, "64", True, 0, -8, 100])
    def test_bad_node_count_is_named(self, n):
        with pytest.raises(ValueError, match=rf"^n must be a positive integer multiple of 8, "
                                             rf"got {re.escape(repr(n))}$"):
            field.make_domain(5.0, n)

    def test_numpy_integer_node_count(self):
        dom = field.make_domain(5.0, np.int64(64))
        assert np.array_equal(dom.nodes, field.make_domain(5.0, 64).nodes)

    @pytest.mark.parametrize("R", [math.inf, math.nan, -math.inf])
    def test_non_finite_radius_is_rejected(self, R):
        with pytest.raises(ValueError, match="R must be positive and finite"):
            field.make_domain(R, n=64)


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
        # matrix expression off each target's own panel, which the panel
        # split re-integrates (TestPanelSplit)
        dom = field.make_domain(4.0, n=256)
        own = np.arange(dom.n)[:, None] // field._PANEL == np.arange(dom.n) // field._PANEL
        got = field._ring_matrix(spec, dom, dom.nodes)
        assert np.array_equal(got[~own], _unsplit_rows(spec, dom, dom.nodes)[~own])


def _unsplit_rows(spec, dom, targets):
    """Ring-matrix rows with no panel split, from the textbook expression.

    Row t is (2pi/t) w s [prim(t+s) - prim(|t-s|)], prim(x) = int_0^x
    u(-V(u)) du with its terms in kernels' order; a zero target takes
    the limit row 4 pi w s^2 (-V(s)).
    """
    t = np.asarray(targets, dtype=float)
    s, w = dom.nodes, dom.weights

    def prim(x):
        vk2 = spec.varkappa**2
        return (
            0.0
            + spec.a_w / (4.0 * vk2) * (vk2 * x**2 * (2.0 + vk2 * x**2) / (1.0 + vk2 * x**2) ** 2)
            + spec.a_y * (1.0 - np.exp(-spec.kappa * x)) / spec.kappa
            + spec.a_n * x
        )

    M = np.empty((t.size, s.size))
    pos = t > 0.0
    tp = t[pos][:, None]
    M[pos] = (2.0 * math.pi / tp) * w * s * (prim(tp + s) - prim(np.abs(tp - s)))
    M[~pos] = 4.0 * math.pi * w * s**2 * (-kernels.kernel_eval(spec, s))
    return M


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


def _per_target_ring(spec, dom, targets, reference=False):
    """Ring matrix with the panel split written out one target at a time.

    reference, for targets that are the grid's own nodes, evaluates the
    Lagrange basis in the panel's reference coordinates on [-1, 1],
    with the target at its reference node, and not at the physical
    nodes; the two agree to roundoff.
    """
    t = np.asarray(targets, dtype=float)
    s = dom.nodes
    M = _unsplit_rows(spec, dom, t)
    panel = field._PANEL
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
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        row = np.zeros(panel)
        for lo, hi in ((a, ti), (ti, b)):
            xs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
            ws = 0.5 * (hi - lo) * wg
            ring = kernels.ring_primitive(spec, ti + xs) - kernels.ring_primitive(
                spec, np.abs(ti - xs)
            )
            if reference:
                xr = xg[i % panel]
                rlo, rhi = (-1.0, xr) if lo == a else (xr, 1.0)
                basis = _barycentric_rows(xg, 0.5 * (rhi + rlo) + 0.5 * (rhi - rlo) * xg)
            else:
                basis = _barycentric_rows(s[cols], xs)
            row += (ws * xs * ring) @ basis
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


def _mp_split_rows(spec, dom, rows):
    """Own-panel split rows of the self ring at node indices rows, in 40-digit arithmetic.

    The same 8-point Gauss rule on each target's two half-panels and the
    Lagrange basis of the panel's nodes, both taken as the grid's float
    values; only the arithmetic, the ring primitive included, is exact.
    """
    mp = pytest.importorskip("mpmath")
    xg, wg = ([mp.mpf(v) for v in a] for a in np.polynomial.legendre.leggauss(field._PANEL))
    a_w, vk, a_y, kappa, a_n = (mp.mpf(v) for v in (spec.a_w, spec.varkappa, spec.a_y,
                                                   spec.kappa, spec.a_n))

    def prim(x):
        return (a_w / (4 * vk**2) * (1 - 1 / (1 + vk**2 * x**2) ** 2) if a_w else 0) + (
            a_y * -mp.expm1(-kappa * x) / kappa if a_y else 0) + a_n * x

    out = []
    with mp.workdps(40):
        for i in rows:
            k = i // field._PANEL
            a, b, t = (mp.mpf(v) for v in (dom.edges[k], dom.edges[k + 1], dom.nodes[i]))
            nodes = [mp.mpf(v) for v in dom.nodes[k * field._PANEL:(k + 1) * field._PANEL]]
            row = [mp.mpf(0)] * field._PANEL
            for lo, hi in ((a, t), (t, b)):
                for x0, w0 in zip(xg, wg):
                    x = (hi + lo) / 2 + (hi - lo) / 2 * x0
                    f = (hi - lo) / 2 * w0 * x * (prim(t + x) - prim(abs(t - x)))
                    for j, nj in enumerate(nodes):
                        row[j] += f * mp.fprod((x - nm) / (nj - nm) for nm in nodes if nm != nj)
            out.append([float(2 * mp.pi / t * v) for v in row])
    return np.array(out)


class TestPanelSplit:
    SPECS = [
        SPEC_W, SPEC_Y, SPEC_N,
        kernels.KernelSpec(a_w=0.5, a_y=1.2, a_n=0.3, varkappa=0.7, kappa=1.3),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_self_ring_matches_the_per_target_loop(self, spec):
        dom = field.make_domain(4.0, n=256)
        got = field._ring_matrix(spec, dom, dom.nodes)
        expected = _per_target_ring(spec, dom, dom.nodes, reference=True)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("spec", SPECS)
    def test_convolve_at_matches_the_per_target_loop(self, spec):
        dom = field.make_domain(4.0, n=256)
        s = dom.nodes
        radii = np.concatenate((
            [0.0, dom.edges[7], 4.0, 6.0],  # center, a panel edge, R, 1.5 R
            0.5 * (s[1:] + s[:-1])[::5],  # off-node radii inside panels
            [_radius_hitting_a_node(dom)],  # a Gauss point on a node; 3e-16 off it in tau
        ))
        fld = field.DensityField(dom, 0.2 + 0.1 * np.cos(s))
        got = field.convolve_at(spec, 1.5, fld, radii)
        expected = 1.5 * (_per_target_ring(spec, dom, radii) @ fld.values)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_off_node_rows_do_not_depend_on_their_block(self):
        # 200 radii span four blocks of split targets; each row keeps the bits it has alone
        dom = field.make_domain(4.0, n=64)
        radii = np.random.default_rng(3).uniform(0.0, 4.5, 200)
        radii[[0, 70, 150]] = 0.0, dom.edges[5], dom.nodes[9]
        spec = self.SPECS[-1]
        M = field._ring_matrix(spec, dom, radii)
        alone = np.vstack([field._ring_matrix(spec, dom, radii[i:i + 1]) for i in range(200)])
        assert np.array_equal(M, alone)

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("R,n", [(4.0, 256), (15.0, 1024), (30.0, 512)])
    def test_split_rows_match_a_40_digit_oracle(self, spec, R, n):
        # the first and last panels' ends and a seeded sample in between;
        # each row to 2e-13 of its largest entry
        dom = field.make_domain(R, n=n)
        rows = np.concatenate(([0, 3, 7, n - 8, n - 4, n - 1],
                               np.random.default_rng(n).choice(np.arange(8, n - 8), 6,
                                                               replace=False)))
        want = _mp_split_rows(spec, dom, rows)
        own = field._split(spec, dom, np.arange(n // field._PANEL)[:, None], field._GAUSS[0])
        got = own.reshape(n, field._PANEL)[rows]
        assert np.all(np.max(np.abs(got - want), axis=1)
                      <= 2e-13 * np.max(np.abs(want), axis=1))

    def test_split_basis_has_no_gauss_point_on_a_node(self):
        # a point on a node would take the node's unit row (the exact-hit rule)
        x, wg = np.polynomial.legendre.leggauss(field._PANEL)
        lo = np.stack((-np.ones_like(x), x), axis=1)[:, :, None]
        hi = np.stack((x, np.ones_like(x)), axis=1)[:, :, None]
        points = (0.5 * (hi + lo) + 0.5 * (hi - lo) * x).reshape(field._PANEL, -1)
        assert np.min(np.abs(points[..., None] - x)) > 5e-4  # 7.9e-4 next to a node
        basis = field._lagrange(x, points)
        assert np.max(np.abs(basis.sum(axis=-1) - 1.0)) <= 1e-14
        assert np.array_equal(field._lagrange(x, x[[2, 5]]), np.eye(field._PANEL)[[2, 5]])
        # the self ring's own-panel rows are the halves' weighted ring values, contracted
        # with that basis of the reference points, bit for bit
        dom = field.make_domain(4.0, n=64)
        k = dom.n // field._PANEL
        t, a, b = (v.reshape(k, field._PANEL, 1, 1) for v in (
            dom.nodes, np.repeat(dom.edges[:-1], field._PANEL),
            np.repeat(dom.edges[1:], field._PANEL)))
        lo, hi = np.concatenate((a, t), axis=-2), np.concatenate((t, b), axis=-2)
        xs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        for spec in self.SPECS:
            ring = kernels.ring_primitive(spec, t + xs) - kernels.ring_primitive(
                spec, np.abs(t - xs))
            f = (0.5 * (hi - lo) * wg * xs * ring).reshape(k, field._PANEL, -1)
            want = (2.0 * math.pi / t[..., 0]) * np.matmul(f.transpose(1, 0, 2),
                                                           basis).transpose(1, 0, 2)
            M = field._ring_matrix(spec, dom, dom.nodes).reshape(k, field._PANEL, k, -1)
            assert np.array_equal(M[np.arange(k), :, np.arange(k)], want)

    def test_dense_self_ring_blocks_are_the_operators_split(self):
        spec = kernels.KernelSpec(a_y=0.7, kappa=2.0, a_n=0.3)
        dom = field.make_domain(15.0, n=1024)
        op, M = field._self_ring(spec, dom), field._self_ring(spec, dom, dense=True)
        assert isinstance(op, field.RingOperator)
        blocks = np.einsum("kikj->kij", M.reshape(dom.n // field._PANEL, field._PANEL, -1,
                                                 field._PANEL))
        assert np.array_equal(blocks, op._split)

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
        # a profile and an (n, k) block of signed columns
        dom = field.make_domain(R, n=n)
        M = field._ring_matrix(spec, dom, dom.nodes)
        op = field.RingOperator(spec, dom)
        profile = 0.2 + 0.1 * np.cos(dom.nodes)
        block = np.random.default_rng(n).standard_normal((n, 4))
        _assert_applies(op @ profile, M, profile)
        _assert_applies(op @ block, M, block)

    def test_finite_where_sinh_overflows(self):
        # kappa R = 1000: sinh(kappa s) overflows past kappa s = 710, so the
        # discounted sums run in more than one scaled segment
        spec = kernels.KernelSpec(a_y=1.0, kappa=1000.0 / 30.0)
        dom = field.make_domain(30.0, n=1024)
        M = field._ring_matrix(spec, dom, dom.nodes)
        op = field.RingOperator(spec, dom)
        assert all(len(sums.bounds) > 1 for sums in op._sums[0])
        x = np.random.default_rng(0).standard_normal((dom.n, 3))
        _assert_applies(op @ x, M, x)

    def test_apply_spans_several_segments_with_a_newton_part(self):
        # kappa R = 1500: three segments of the discounted sums, and the
        # Newton term through the same sums
        spec = kernels.KernelSpec(a_y=1.0, kappa=50.0, a_n=0.01)
        dom = field.make_domain(30.0, n=1024)
        M = field._ring_matrix(spec, dom, dom.nodes)
        op = field.RingOperator(spec, dom)
        assert all(len(sums.bounds) >= 3 for sums in op._sums[0])
        x = np.random.default_rng(3).standard_normal((dom.n, 3))
        _assert_applies(op @ x, M, x)
        _assert_applies(op @ x[:, 0], M, x[:, 0])

    @pytest.mark.parametrize("spec", [SPEC_Y, SPEC_N, SPEC_YN], ids=["Y", "N", "YN"])
    def test_each_column_has_the_bits_it_has_alone(self, spec):
        dom = field.make_domain(15.0, n=1024)
        op = field.RingOperator(spec, dom)
        X = np.random.default_rng(4).uniform(0.05, 0.45, (dom.n, 5))
        block = op @ X
        for j in range(X.shape[1]):
            assert np.array_equal(block[:, j], op @ X[:, j])
            assert np.array_equal(block[:, j:j + 1], op @ X[:, j:j + 1])

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


class TestSymmetricPart:
    """M - K, K = `_Attraction.skew`, is M's D-symmetric part, D = 4 pi t^2 w."""

    SPECS = {"W": SPEC_W, "Y": SPEC_Y, "N": SPEC_N,
             "YN": kernels.KernelSpec(a_y=0.7, kappa=2.0, a_n=0.3)}

    @pytest.mark.parametrize("n", [64, 256, 512])
    @pytest.mark.parametrize("name", SPECS)
    def test_volume_weighted_part_is_symmetric(self, name, n):
        # at most 5.3e-16 of max|D M| over these kernels at R = 4, 15 and 30;
        # D M itself is up to 5e-4 from symmetric here
        dom = field.make_domain(15.0, n=n)
        attraction = field._Attraction(self.SPECS[name], 1.0, dom)
        D = functionals.volume_weights(dom)
        M = attraction.dense.copy()
        panels = np.arange(n // field._PANEL)
        M.reshape(panels.size, field._PANEL, -1, field._PANEL)[panels, :, panels] -= (
            attraction.skew)
        DS = D[:, None] * M
        assert np.max(np.abs(DS - DS.T)) <= 2e-15 * np.max(np.abs(D[:, None] * attraction.dense))

    def test_operator_and_dense_blocks_give_the_same_bits(self):
        dom = field.make_domain(15.0, n=1024)
        spec = self.SPECS["YN"]
        structured, dense = field._Attraction(spec, 1.0, dom), field._Attraction(spec, 1.0, dom)
        dense.M = dense.dense
        assert isinstance(structured.M, field.RingOperator)
        assert np.array_equal(structured.skew, dense.skew)


class TestRingSign:
    """The ring matrix has negative entries on coarse panels, so |alpha M| is not alpha M.

    The own-panel rows re-integrate a target's kink against the panel's
    Lagrange basis, whose weights can be negative.  min(M)/max(M) on the
    petit-r15 grid (R=15, n=64) and on the other grids pinned here is
    negative, so the spread term of `field._contraction_bound`, the
    negative part of alpha M applied to hi - lo, must stay (it is
    positive on every grid pinned here).  Every negative entry lies in
    an own-panel 8 x 8 block, which is what lets `_Attraction.abs_apply`
    apply |alpha M| from alpha M and those blocks.
    """

    ALPHA = 31.0 / kernels.l1_norm_r3(SPEC_Y)
    GRIDS = [
        pytest.param(SPEC_Y, 15.0, 64, -2.04e-5, id="unit-Yukawa-R15-n64"),
        pytest.param(SPEC_Y, 30.0, 128, -2.04e-5, id="unit-Yukawa-R30-n128"),
        pytest.param(SPEC_Y, 80.0, 256, -7.94e-5, id="unit-Yukawa-R80-n256"),
        pytest.param(kernels.KernelSpec(a_y=1.0, kappa=5.0), 80.0, 64, -0.218,
                     id="Yukawa-kappa5-R80-n64"),
        pytest.param(kernels.KernelSpec(a_w=1.0, varkappa=1.0), 80.0, 64, -0.0277,
                     id="vdW-R80-n64"),
    ]

    @pytest.mark.parametrize("spec,R,n,ratio", GRIDS)
    def test_coarse_panels_have_negative_entries(self, spec, R, n, ratio):
        M = field._self_ring(spec, field.make_domain(R, n=n))
        assert M.min() / M.max() == pytest.approx(ratio, rel=0.01)
        panel = np.arange(n) // field._PANEL
        own = panel[:, None] == panel[None, :]
        assert np.all(M[~own] >= 0.0)

    @pytest.mark.parametrize("spec,R,n,ratio", GRIDS)
    def test_abs_apply_equals_the_formed_absolute_value(self, spec, R, n, ratio):
        attraction = field._Attraction(spec, self.ALPHA, field.make_domain(R, n=n))
        aM = self.ALPHA * attraction.dense
        y = np.random.default_rng(n).uniform(0.1, 1.0, n)
        want = np.abs(aM) @ y
        assert np.max(np.abs(attraction.abs_apply(y) - want)) <= 1e-14 * np.max(want)
        negative = np.maximum(-aM, 0.0) @ y
        assert np.max(np.abs(attraction.neg_apply(y) - negative)) <= 1e-14 * np.max(want)
        assert negative.max() > 0.0

    def test_abs_apply_is_bit_equal_on_the_grand_r30_grid(self, dom30):
        # M has no negative entry at R=30, n=256, so |alpha M| y is alpha M y,
        # applied as Picard applies it: alpha (M @ y)
        attraction = field._Attraction(SPEC_Y, self.ALPHA, dom30)
        M = attraction.dense
        assert M.min() >= 0.0
        for y in (np.ones(dom30.n), np.random.default_rng(5).uniform(0.1, 1.0, dom30.n)):
            assert np.array_equal(attraction.abs_apply(y), self.ALPHA * (M @ y))
            assert not attraction.neg_apply(y).any()

    def test_contraction_bound_forms_no_matrix(self):
        # a check at n=256, on a grid with negative entries, traces less
        # than a tenth of one n x n array: |alpha M| is applied, not formed
        n = 256
        attraction = field._Attraction(SPEC_Y, self.ALPHA, field.make_domain(80.0, n=n))
        model = eos.EosModel(mode=eos.MODE_CS_EXTENDED)
        lo, hi = np.full(n, 0.05), np.full(n, 0.06)
        args = (attraction, -4.7, model, lo, hi, np.ones(n))
        first = field._contraction_bound(*args)  # forms alpha M and N outside the trace
        tracemalloc.start()
        try:
            again = field._contraction_bound(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n**2 * 8
        assert again[0] == first[0] and np.array_equal(again[1], first[1])


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

    @pytest.mark.parametrize("R, n", [(15.0, 64), (30.0, 256)])
    def test_unit_yukawa_ring_reproduces_the_ball_potential(self, R, n):
        # read 4.2e-15 and 2.9e-14; own-panel blocks made D-symmetric read 3.8e-6 and 2.2e-8
        dom = field.make_domain(R, n=n)
        u = field.apply_kernel(SPEC_Y, 1.0, dom, np.ones(n))
        exact = kernels.ball_potential(SPEC_Y, dom.nodes, R)
        assert np.max(np.abs(u - exact)) <= 1e-13 * np.max(exact)

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
        assert abs(u0 - 2.0 * 0.3 * kernels.phi_lambda(SPEC_Y, 5.0)) < 1e-9
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

    def test_non_convergence_reports_the_change_ratio(self, dom5, monkeypatch):
        # the budget error is a ValueError, an evaluation a Newton on gamma
        # retreats from, and a RuntimeError; it names the ratio of the last
        # two changes, read here off a 2-step and a 3-step run
        start = field.constant_field(dom5, float(eos.g2_inverse(-2.0)))
        reported = []
        for steps in (2, 3):
            monkeypatch.setattr(field, "_PICARD_STEPS", steps)
            with pytest.raises(field.NoConvergence) as excinfo:
                field.picard_iterate(SPEC_Y, 20.0 / PHI_Y5, -2.0, start)
            assert isinstance(excinfo.value, ValueError)
            assert isinstance(excinfo.value, RuntimeError)
            m = re.search(r"sup-norm change (\S+), change ratio (\S+)$", str(excinfo.value))
            reported.append((float(m[1]), float(m[2])))
        (before, _), (last, ratio) = reported
        assert ratio == pytest.approx(last / before, rel=1e-3)

    def test_certified_fluid_flag(self, dom5):
        rep = field.minimal_solution(SPEC_Y, 10.0 / PHI_Y5, -2.0, dom5)
        assert rep.certified_fluid
        assert np.all(rep.field.values < eos.ETA_FS_LO)

    def test_reported_residual_is_recomputed_bit_for_bit(self, dom5):
        # wp' is a pure function of gamma, so the closing check's residual
        # is the one a caller recomputes from the returned profile
        alpha = 10.0 / PHI_Y5
        rep = field.minimal_solution(SPEC_Y, alpha, -2.0, dom5)
        v = rep.field.values
        u = alpha * (field._self_ring(SPEC_Y, dom5) @ v)
        res = float(np.max(np.abs(np.asarray(eos.EosModel().wp_prime(-2.0 + u)) - v)))
        assert rep.residual == res
        assert res < 1e-9


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


@pytest.fixture(scope="module")
def launch_setup():
    dom = field.make_domain(TestSubsolutionLaunch.R, n=512)
    sg, _ = kernels.optimal_scaling(
        TestSubsolutionLaunch.SPEC,
        2 * TestSubsolutionLaunch.R,
        4 * math.pi * TestSubsolutionLaunch.R**3 / 3,
    )
    return dom, sg


class TestNeighbourStarts:
    """Extremal launches started from the same branch's solution at a nearby gamma.

    Through `field.extremal_pairs`, which takes one (below, above) pair
    of neighbours per gamma.  Hard-sphere mode at alpha Phi = 45 on R=5:
    the freezing fraction is the maximal launch's ceiling up to gamma
    -6.84 and the middle algebraic root above it, which falls as gamma
    rises.
    """

    ALPHA = 45.0 / PHI_Y5

    @pytest.fixture(scope="class")
    def dom(self):
        return field.make_domain(5.0, n=64)

    @pytest.fixture(scope="class")
    def solved(self, dom):
        lo = {g: field.minimal_solution(SPEC_Y, self.ALPHA, g, dom) for g in (-7.0, -6.0)}
        hi = {g: field.maximal_solution(SPEC_Y, self.ALPHA, g, dom) for g in (-7.0, -5.5)}
        return lo, hi

    def _launch(self, dom, branch, gamma, neighbour):
        """The branch's launch of the pair at gamma, with neighbour on that branch's side."""
        side = (neighbour, None) if branch == "minimal" else (None, neighbour)
        [pair] = field.extremal_pairs(SPEC_Y, self.ALPHA, [gamma], dom, neighbours=[side])
        return pair[branch == "maximal"]

    def test_warm_launch_matches_cold(self, dom, solved):
        lo, hi = solved
        for branch, gamma, neighbour in (("minimal", -6.9, (-7.0, lo[-7.0])),
                                         ("maximal", -7.1, (-7.0, hi[-7.0]))):
            warm = self._launch(dom, branch, gamma, neighbour)
            cold = getattr(field, f"{branch}_solution")(SPEC_Y, self.ALPHA, gamma, dom)
            assert np.max(np.abs(warm.field.values - cold.field.values)) <= 1e-9
            assert warm.iterations <= cold.iterations
            assert (warm.branch_label, warm.certification, warm.monotone_direction) == \
                (cold.branch_label, cold.certification, cold.monotone_direction)

    def test_bad_neighbours_raise(self, dom, solved):
        lo, hi = solved
        coarse = field.make_domain(5.0, n=128)
        other_grid = field.minimal_solution(SPEC_Y, self.ALPHA, -7.0, coarse)
        cases = [
            ("minimal", -6.5, (-6.0, lo[-6.0]), "the neighbour must lie below gamma"),
            ("minimal", -6.5, (-7.0, hi[-7.0]), "the neighbour is a maximal solution"),
            ("minimal", -6.5, (-7.0, other_grid), r"the neighbour was solved on another grid "
             r"\(R 5.0, n 128\), not \(R 5.0, n 64\)"),
            ("maximal", -6.5, (-7.0, hi[-7.0]), "the neighbour must lie above gamma"),
        ]
        for branch, gamma, neighbour, fault in cases:
            where = f"{branch} launch at gamma {gamma} from a neighbour at gamma {neighbour[0]}"
            with pytest.raises(ValueError, match=f"^{where}: {fault}$"):
                self._launch(dom, branch, gamma, neighbour)

    @pytest.mark.parametrize("gamma", [-7.5, -6.0])
    def test_lower_ceiling_neighbour_starts_cold(self, dom, solved, gamma):
        # the maximal solution at -5.5 descended from the algebraic root
        # 0.08, below the ceiling at -7.5 (the freezing fraction 0.49) and
        # at -6.0 (the root 0.10): the launch passes it over
        hi = solved[1][-5.5]
        ceilings = [field._ceiling(SPEC_Y, self.ALPHA, g, dom, eos.EosModel())[0]
                    for g in (gamma, -5.5)]
        assert ceilings[1] < ceilings[0]
        warm = self._launch(dom, "maximal", gamma, (-5.5, hi))
        _assert_same_report(warm, field.maximal_solution(SPEC_Y, self.ALPHA, gamma, dom))


class TestLaunchDirection:
    def test_warm_launch_from_a_fixed_point_reads_up(self):
        # the neighbour at -18 is already the fixed point at -18 + 4e-12 to
        # roundoff, so the warm launch's one step moves by under 1e-14;
        # comparison still says the climb goes up, as the cold one reads
        ext = eos.EosModel(mode=eos.MODE_CS_EXTENDED)
        dom = field.make_domain(0.5, n=256)
        below = field.minimal_solution(SPEC_Y, 100.0, -18.0, dom, model=ext)
        gamma = -18.0 + 4e-12
        [(warm, _)] = field.extremal_pairs(SPEC_Y, 100.0, [gamma], dom, model=ext,
                                           neighbours=[((-18.0, below), None)])
        cold = field.minimal_solution(SPEC_Y, 100.0, gamma, dom, model=ext)
        assert warm.iterations == 1
        assert warm.monotone_direction == cold.monotone_direction == "up"


def _assert_same_report(got, want):
    assert np.array_equal(got.field.values, want.field.values)
    assert got.field.domain is want.field.domain
    for name in ("iterations", "residual", "monotone_direction", "branch_label",
                 "certified_fluid", "certification"):
        assert getattr(got, name) == getattr(want, name), name


class TestExtremalPairs:
    """Every launch of a gamma grid as the columns of one block.

    Each pair must be minimal_solution and maximal_solution at its
    gamma bit for bit, whatever other gammas share the block.
    """

    # the grid of the benchmark's cli-scan at its first radius, unshifted
    CLI_ALPHA, CLI_GAMMAS = 15.0 / kernels.l1_norm_r3(SPEC_Y), (-3.0, -1.0, 1.0, 3.0)
    EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)

    @staticmethod
    def _assert_pairs_are_single_launches(spec, alpha, gammas, dom, model, tol):
        pairs = field.extremal_pairs(spec, alpha, gammas, dom, model=model, tol=tol)
        assert len(pairs) == len(gammas)
        for gamma, (lo, hi) in zip(gammas, pairs):
            _assert_same_report(lo, field.minimal_solution(spec, alpha, gamma, dom,
                                                           model=model, tol=tol))
            _assert_same_report(hi, field.maximal_solution(spec, alpha, gamma, dom,
                                                           model=model, tol=tol))
        return pairs

    def test_cli_scan_grid_equals_single_launches(self):
        assert self.CLI_ALPHA == 1.1936620731892151
        dom = field.make_domain(4.0, n=1024)
        self._assert_pairs_are_single_launches(SPEC_Y, self.CLI_ALPHA, self.CLI_GAMMAS, dom,
                                               eos.EosModel(), 1e-12)

    def test_small_ball_grid_equals_single_launches(self):
        # the CLI tests' small ball: dense M at n=256, applied column by column
        dom = field.make_domain(0.5, n=256)
        pairs = self._assert_pairs_are_single_launches(
            SPEC_Y, 100.0, (-20.0, -18.0, -16.0), dom, self.EXT, 1e-12)
        assert [hi.certification for _, hi in pairs] == ["algebraic-ceiling"] * 3

    def test_finishing_columns_equal_single_launches(self, monkeypatch):
        # around the petit-r15 vapor (R=15, n=64, alpha*l1 = 31) every launch
        # is slow enough for its own Newton finish
        alpha = 31.0 / kernels.l1_norm_r3(SPEC_Y)
        gammas = (-4.6, -4.4, -4.2, -4.0)
        solved = []
        newton = field._newton
        monkeypatch.setattr(field, "_newton",
                            lambda *args: (solved.append(args[1]), newton(*args))[1])
        dom = field.make_domain(15.0, n=64)
        pairs = field.extremal_pairs(SPEC_Y, alpha, gammas, dom, model=self.EXT)
        assert sorted(solved) == sorted(2 * gammas)
        monkeypatch.setattr(field, "_newton", newton)
        for gamma, (lo, hi) in zip(gammas, pairs):
            _assert_same_report(lo, field.minimal_solution(SPEC_Y, alpha, gamma, dom,
                                                           model=self.EXT))
            _assert_same_report(hi, field.maximal_solution(SPEC_Y, alpha, gamma, dom,
                                                           model=self.EXT))

    def test_warm_pair_equals_one_column_launches(self):
        # the locator's pair at the petit-r15 crossing (R=15, n=64), warm
        # from the minimal solution below it and the maximal one above:
        # each column has the bits of its launch alone from the same start
        alpha = 31.0 / kernels.l1_norm_r3(SPEC_Y)
        dom = field.make_domain(15.0, n=64)
        [(below, _), (_, above)] = field.extremal_pairs(SPEC_Y, alpha, (-4.68, -4.6), dom,
                                                       model=self.EXT)
        gamma, sides = -4.655290873521921, ((-4.68, below), (-4.6, above))
        [(lo, hi)] = field.extremal_pairs(SPEC_Y, alpha, [gamma], dom, model=self.EXT,
                                          neighbours=[sides])
        starts = (field._minimal_start(SPEC_Y, alpha, gamma, dom, self.EXT, sides[0]),
                  field._maximal_start(SPEC_Y, alpha, gamma, dom, self.EXT, sides[1])[0])
        for got, start, label in ((lo, starts[0], "minimal"), (hi, starts[1], "maximal")):
            [alone] = field._picard(SPEC_Y, alpha, [gamma], start[:, None], dom, 1e-10,
                                    self.EXT)
            assert np.array_equal(got.field.values, alone.field.values)
            assert (got.iterations, got.residual) == (alone.iterations, alone.residual)
            assert got.branch_label == label
        cold_lo, cold_hi = (field.minimal_solution(SPEC_Y, alpha, gamma, dom, model=self.EXT),
                            field.maximal_solution(SPEC_Y, alpha, gamma, dom, model=self.EXT))
        assert np.max(np.abs(lo.field.values - cold_lo.field.values)) <= 1e-9
        assert np.max(np.abs(hi.field.values - cold_hi.field.values)) <= 1e-9
        assert hi.certification == cold_hi.certification

    def test_pair_finishes_share_one_attraction(self, monkeypatch):
        # both launches of the petit-r15 crossing's pair end in a Newton
        # finish; both solves get the same alpha M, formed once
        alpha = 31.0 / kernels.l1_norm_r3(SPEC_Y)
        dom = field.make_domain(15.0, n=64)
        matrices, newton = [], field._newton
        monkeypatch.setattr(field, "_newton",
                            lambda *args: (matrices.append(args[0]), newton(*args))[1])
        field.extremal_pairs(SPEC_Y, alpha, [-4.655290873521921], dom, model=self.EXT)
        assert len(matrices) == 2 and matrices[0] is matrices[1]

    @pytest.mark.parametrize("n", [64, 1024])
    def test_a_pair_does_not_depend_on_its_company(self, n):
        dom = field.make_domain(4.0, n=n)
        model = eos.EosModel()
        grid = field.extremal_pairs(SPEC_Y, self.CLI_ALPHA, self.CLI_GAMMAS, dom, model=model)
        reverse = field.extremal_pairs(SPEC_Y, self.CLI_ALPHA, self.CLI_GAMMAS[::-1], dom,
                                       model=model)
        for pair, other in zip(grid, reverse[::-1]):
            for got, want in zip(pair, other):
                _assert_same_report(got, want)
        [alone] = field.extremal_pairs(SPEC_Y, self.CLI_ALPHA, self.CLI_GAMMAS[1:2], dom,
                                       model=model)
        for got, want in zip(alone, grid[1]):
            _assert_same_report(got, want)

    @pytest.mark.parametrize("gammas, count", [((-4.0, -3.0), 1), ((-4.0,), 2)],
                             ids=["fewer-neighbours", "more-neighbours"])
    def test_neighbour_count_must_match_gammas(self, gammas, count):
        dom = field.make_domain(2.0, n=64)
        with pytest.raises(ValueError, match=rf"^neighbours has length {count} but gammas "
                                             rf"has length {len(gammas)}$"):
            field.extremal_pairs(SPEC_Y, self.CLI_ALPHA, gammas, dom,
                                 neighbours=[(None, None)] * count)

    def test_non_convergence_names_the_failing_gamma(self, monkeypatch):
        # at gamma -20 both launches stop within 3 steps; at -3 neither does
        monkeypatch.setattr(field, "_PICARD_STEPS", 3)
        dom = field.make_domain(4.0, n=1024)
        with pytest.raises(RuntimeError, match=r"^no convergence within 3 iterations: "
                           r"last gamma -3\.0, sup-norm change"):
            field.extremal_pairs(SPEC_Y, self.CLI_ALPHA, (-20.0, -3.0), dom)


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


def _record_newton_residuals(monkeypatch):
    """The residual after each accepted step of every `field._newton` run."""
    residuals, newton = [], field._newton

    def recorder(*args, **kwargs):
        return newton(*args, callback=lambda k, r: residuals.append(r), **kwargs)

    monkeypatch.setattr(field, "_newton", recorder)
    return residuals


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

    def test_quadratic_convergence(self, triple, monkeypatch):
        dom, model, roots = triple
        hist = _record_newton_residuals(monkeypatch)
        field.newton_solve(self.SPEC, self.ALPHA, self.GAMMA,
                           field.constant_field(dom, roots.roots[1]),
                           model=model)
        # each step roughly squares the residual until roundoff
        for prev, nxt in zip(hist, hist[1:]):
            if prev < 1e-13 or nxt < 1e-15:
                break
            assert nxt < 0.5 * prev**1.7

    def test_stall_raises_early(self, monkeypatch):
        # at the R=15 grand crossing the solve from the middle root stalls
        # near residual 0.038 from step 12 on; it used to take 37 steps
        # before the line search failed
        spec = kernels.KernelSpec(a_y=1.0, kappa=1.0)
        alpha, gamma = 31.0 / kernels.l1_norm_r3(spec), -4.8481
        dom = field.make_domain(15.0, n=64)
        roots = uniform.solve_uniform(alpha * kernels.phi_lambda(spec, 15.0), gamma)
        steps = _record_newton_residuals(monkeypatch)
        with pytest.raises(RuntimeError, match=r"stalled at gamma -4\.8481"):
            field.newton_solve(spec, alpha, gamma,
                               field.constant_field(dom, roots.roots[1]),
                               model=eos.EosModel(mode=eos.MODE_CS_EXTENDED))
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
        new = np.asarray(model.wp_prime(gamma + alpha * (M @ v)))
        change = float(np.max(np.abs(new - v)))
        if it == 1:
            scale = 1e-14 * max(1.0, float(np.max(np.abs(v))))
            if change > scale and np.all(new >= v - scale):
                direction = "up"
            elif change > scale and np.all(new <= v + scale):
                direction = "down"
        v = new
        if change < tol:
            eta = model.wp_prime(gamma + alpha * (M @ v))
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


class TestAttraction:
    """`field._Attraction`, the one place where alpha M is applied and solved."""

    ALPHA = 31.0 / kernels.l1_norm_r3(SPEC_Y)
    EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)

    def _system(self, n):
        """The attraction, alpha times its dense ring as the consumers formed it, and a wp''."""
        dom = field.make_domain(15.0, n=n)
        attraction = field._Attraction(SPEC_Y, self.ALPHA, dom)
        aM = self.ALPHA * field._self_ring(SPEC_Y, dom, dense=True)
        v = field.minimal_solution(SPEC_Y, self.ALPHA, -4.6, dom, model=self.EXT).field.values
        return dom, attraction, aM, self.EXT.response_at(v)

    @pytest.mark.parametrize("n", [64, 256])
    def test_solve_has_the_bits_of_the_mass_slope_system(self, n):
        # the mass slope's system as it was written out: eye(n) - c aM; LU
        # gives its bits at n=64, and G^-1 elimination at n=256 leaves a
        # residual of at most 1e-12 of max(|A| |x|) against the same A
        _, attraction, aM, c = self._system(n)
        A = np.eye(n) - c[:, None] * aM
        x = attraction.solve(c, c)
        assert attraction.structured is (n == 256)
        if attraction.structured:
            self._assert_backward_error(A, x, c)
            assert attraction._work is None
        else:
            assert np.array_equal(self.ALPHA * attraction.dense, aM)
            assert np.array_equal(x, np.linalg.solve(A, c))

    @pytest.mark.parametrize("n", [64, 256])
    def test_bordered_solve_has_the_bits_of_newtons_jacobian(self, n):
        # the bordered Jacobian as the Newton loop formed it in place; LU
        # gives its bits at n=64, and G^-1 elimination at n=256 the same
        # backward error as the plain system
        dom, attraction, aM, c = self._system(n)
        D = functionals.volume_weights(dom)
        w = D / np.sum(D)
        J = np.empty((n + 1, n + 1))
        np.multiply(-c[:, None], aM, out=J[:n, :n])
        J[np.arange(n), np.arange(n)] += 1.0
        J[:n, n], J[n, :n], J[n, n] = -c, w, 0.0
        b = np.random.default_rng(3).standard_normal(n + 1)
        x = attraction.solve(c, b, w)
        assert attraction.structured is (n == 256)
        if attraction.structured:
            self._assert_backward_error(J, x, b)
            assert attraction._work is None
        else:
            assert np.array_equal(x, np.linalg.solve(J, b))

    @staticmethod
    def _assert_backward_error(matrix, x, b):
        assert np.max(np.abs(matrix @ x - b)) <= 1e-12 * np.max(np.abs(matrix) @ np.abs(x))

    @staticmethod
    def _assert_backward_errors(attraction, aM, c, seed):
        # a plain and a bordered solve each leave a residual of at most 1e-12
        # of max(|A| |x|) against the dense A, as LU would
        n = c.size
        w = functionals.volume_weights(attraction.domain)
        w = w / np.sum(w)
        A = np.eye(n) - c[:, None] * aM
        J = np.zeros((n + 1, n + 1))
        J[:n, :n], J[:n, n], J[n, :n] = A, -c, w
        rng = np.random.default_rng(seed)
        for matrix, b, border in ((A, c, None), (J, rng.standard_normal(n + 1), w)):
            TestAttraction._assert_backward_error(matrix, attraction.solve(c, b, border), b)

    # a Yukawa kernel's maximal launch near the liquid fold, a Newton
    # kernel's where it slides through the ghost of its fold, and a Yukawa
    # kernel at kappa R = 1000, each at alpha l1 = 31 or the same alpha Phi
    NEAR_FOLDS = {
        "yukawa": (SPEC_Y, 1.0, -4.88),
        "newton": (SPEC_N, kernels.phi_lambda(SPEC_Y, 30.0) / kernels.phi_lambda(SPEC_N, 30.0),
                   -4.16),
        "kappa-R-1000": (kernels.KernelSpec(a_y=1.0, kappa=1000.0 / 30.0), (1000.0 / 30.0) ** 2,
                         -4.88),
    }

    @pytest.mark.parametrize("n", [128, 512, 1024])
    @pytest.mark.parametrize("case", list(NEAR_FOLDS))
    def test_structured_solve_near_a_fold(self, case, n):
        spec, scale, gamma = self.NEAR_FOLDS[case]
        alpha = self.ALPHA * scale
        dom = field.make_domain(30.0, n=n)
        v = field.maximal_solution(spec, alpha, gamma, dom, model=self.EXT).field.values
        attraction = field._Attraction(spec, alpha, dom)
        assert attraction.structured
        self._assert_backward_errors(attraction, alpha * field._self_ring(spec, dom, dense=True),
                                     self.EXT.response_at(v), n)

    def test_structured_solve_raises_on_a_non_finite_system(self):
        # a NaN slope reaches no pivot check, and the solve names it as LU's
        # singular systems are named, so `_newton` reports a singular Jacobian
        attraction = field._Attraction(SPEC_Y, self.ALPHA, field.make_domain(15.0, n=128))
        with pytest.raises(np.linalg.LinAlgError):
            attraction.solve(np.full(128, np.nan), np.ones(128))

    def test_lu_keeps_its_bits_where_g_is_not_rank_one(self):
        # Yukawa plus Newton and van der Waals kernels at n=256, and a Yukawa
        # kernel below 16 panels, are still LU-factored, bit for bit
        mixed = kernels.KernelSpec(a_y=1.0, kappa=1.0, a_n=0.01)
        rng = np.random.default_rng(5)
        for spec, n in ((mixed, 256), (SPEC_W, 256), (SPEC_Y, 64), (SPEC_Y, 120)):
            dom = field.make_domain(15.0, n=n)
            attraction = field._Attraction(spec, self.ALPHA, dom)
            assert not attraction.structured
            c, b = rng.uniform(0.0, 0.02, n), rng.standard_normal(n + 1)
            w = functionals.volume_weights(dom)
            J = np.zeros((n + 1, n + 1))
            J[:n, :n] = np.eye(n) - c[:, None] * (self.ALPHA * field._self_ring(spec, dom))
            J[:n, n], J[n, :n] = -c, w
            assert np.array_equal(attraction.solve(c, b[:n]), np.linalg.solve(J[:n, :n], b[:n]))
            assert np.array_equal(attraction.solve(c, b, w), np.linalg.solve(J, b))
        for spec in (SPEC_Y, SPEC_N):
            assert field._Attraction(spec, 1.0, field.make_domain(15.0, n=128)).structured

    @pytest.mark.parametrize("n", [64, 1024])
    def test_later_solves_allocate_no_matrix(self, n):
        # LU at n=64 writes into the workspace the first solve sized for the
        # bordered system, and G^-1 elimination at n=1024 needs none: a second
        # plain and a second bordered solve trace less than a tenth of one n x n
        # array, and above the gate no dense ring is formed at all
        dom = field.make_domain(15.0, n=n)
        attraction = field._Attraction(SPEC_Y, self.ALPHA, dom)
        v = field.minimal_solution(SPEC_Y, self.ALPHA, -4.6, dom, model=self.EXT).field.values
        c = self.EXT.response_at(v)
        w = functionals.volume_weights(dom)
        attraction.solve(c, c)
        attraction.solve(c, np.ones(n + 1), w)
        tracemalloc.start()
        try:
            attraction.solve(c, c)
            attraction.solve(c, np.ones(n + 1), w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n**2 * 8
        assert attraction.structured is (n == 1024)
        assert ((SPEC_Y, False) in dom._rings) is (n == 64)

    def test_workspace_keeps_no_border_between_solves(self):
        # a plain solve after a bordered one, and a bordered one after a
        # plain one, each have the bits of a fresh attraction's solve
        dom, attraction, _, c = self._system(64)
        w = functionals.volume_weights(dom)
        b = np.random.default_rng(6).standard_normal(dom.n + 1)

        def fresh(*args):
            return field._Attraction(SPEC_Y, self.ALPHA, dom).solve(*args)

        attraction.solve(c, b, w)
        assert np.array_equal(attraction.solve(c, c), fresh(c, c))
        assert np.array_equal(attraction.solve(c, b, w), fresh(c, b, w))
        assert np.array_equal(attraction.solve(c, c), fresh(c, c))

    @pytest.mark.parametrize("n", [64, 1024])
    def test_apply_gives_each_column_its_own_bits(self, n):
        dom = field.make_domain(4.0, n=n)
        attraction = field._Attraction(SPEC_Y, self.ALPHA, dom)
        V = np.random.default_rng(4).uniform(0.01, 0.4, (n, 3))
        got = attraction.apply(V)
        for j in range(3):
            want = self.ALPHA * (field._self_ring(SPEC_Y, dom) @ V[:, j])
            assert np.array_equal(got[:, j], want)

    def test_dense_ring_is_formed_on_first_use_only(self):
        # above the gate the iteration applies the structured operator, and
        # no n x n matrix exists until the dense ring is asked for; then it
        # is formed once, unscaled, and cached on the domain
        dom = field.make_domain(4.0, n=1024)
        attraction = field._Attraction(SPEC_Y, self.ALPHA, dom)
        attraction.apply(np.full((dom.n, 1), 0.1))
        assert isinstance(attraction.M, field.RingOperator)
        assert list(dom._rings) == [(SPEC_Y, True)]
        assert attraction.dense is attraction.dense
        assert attraction.dense.shape == (dom.n, dom.n)
        assert list(dom._rings) == [(SPEC_Y, True), (SPEC_Y, False)]

    def test_newton_finishes_stop_at_the_dense_gate(self):
        for n, finishable in ((field._DENSE_MAX, True), (field._DENSE_MAX + 8, False)):
            dom = field.make_domain(4.0, n=n)
            assert field._Attraction(SPEC_Y, self.ALPHA, dom).finishable is finishable


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
    def test_fast_solve_iteration_counts_unchanged(self, n, monkeypatch):
        # a cli-scan-sized hard-sphere solve: plain Picard takes 22 and 26
        # steps.  cli-scan's n=1024 lies above the finish gate, so those
        # counts stand; at n=512, the largest node count the finish is
        # offered at, both launches still have more than _FINISH_COST
        # steps left at step 3 and end in certified finishes on plain
        # Picard's limits
        dom = field.make_domain(4.0, n=n)
        alpha = 15.0 / kernels.l1_norm_r3(SPEC_Y)
        launches = (field.minimal_solution, field.maximal_solution)
        reports = [launch(SPEC_Y, alpha, -3.0, dom) for launch in launches]
        assert [r.iterations for r in reports] == ([6, 8] if n == 512 else [22, 26])
        monkeypatch.setattr(field._NewtonFinish, "__call__", lambda *args: None)
        assert [launch(SPEC_Y, alpha, -3.0, dom).iterations for launch in launches] == [22, 26]
        for launch, report in zip(launches, reports):
            plain = launch(SPEC_Y, alpha, -3.0, dom, tol=1e-12)
            assert float(np.max(np.abs(report.field.values - plain.field.values))) <= 1e-10

    def test_bound_at_the_maximal_solution_is_its_spectral_radius(self, dom30):
        report = field.maximal_solution(SPEC_Y, self.ALPHA, self.GAMMA, dom30,
                                        model=self.EXT)
        v = report.field.values
        rho = 2.0 * functionals.p_stability(
            SPEC_Y, self.ALPHA, self.GAMMA, report.field,
            model=self.EXT).extremal_eigenvalue + 1.0
        attraction = field._Attraction(SPEC_Y, self.ALPHA, dom30)
        # each call stops its power steps once the bound is below 1;
        # calling on from the vector reached, until it moves by at most
        # the 1e-10 that ends a call, runs them down toward rho(K)
        y, moved = np.ones(dom30.n), 1.0
        while moved > 1e-10:
            bound, z = field._contraction_bound(attraction, self.GAMMA, self.EXT, v, v, y)
            y, moved = z, float(np.max(np.abs(z - y)))
            assert bound >= rho
        assert rho <= bound <= rho + 1e-6
        assert bound < 1.0

    def test_bound_reaches_one_around_the_middle_solution(self, ball_triple):
        # the Newton middle solution is unstable, so no interval holding
        # it can certify a unique fixed point
        dom, spec, alpha, gamma, small, large, middle = ball_triple
        attraction = field._Attraction(spec, alpha, dom)
        assert np.all(small <= middle) and np.all(middle <= large)
        for lo, hi in ((middle, middle), (small, middle), (middle, large), (small, large)):
            for y in (np.ones(dom.n), middle, large):
                bound, _ = field._contraction_bound(attraction, gamma, self.EXT, lo, hi, y)
                assert bound >= 1.0

    def test_bound_stops_where_no_vector_can_certify(self, ball_triple, monkeypatch):
        # across the whole triple every ratio (By)_i/y_i at y = ones is
        # at least 1, a lower bound on rho(B), so the first power step
        # settles it: the call gives what a one-step call gives
        dom, spec, alpha, gamma, small, large, _ = ball_triple
        attraction = field._Attraction(spec, alpha, dom)
        full = field._contraction_bound(attraction, gamma, self.EXT, small, large, np.ones(dom.n))
        with monkeypatch.context() as patch:
            patch.setattr(field, "_POWER_STEPS", 1)
            one = field._contraction_bound(attraction, gamma, self.EXT, small, large,
                                           np.ones(dom.n))
        assert full[0] == one[0] >= 1.0
        assert np.array_equal(full[1], one[1])

    def test_finish_refuses_a_limit_it_cannot_certify(self, ball_triple):
        # handed the middle solution as its Newton limit below a
        # descending iterate, the finish keeps iterating
        dom, spec, alpha, gamma, small, large, middle = ball_triple
        finish = field._NewtonFinish(field._Attraction(spec, alpha, dom), self.EXT)
        finish.tried, finish.checked = True, 1.0
        finish.limit = (middle, finish.attraction.apply(middle), 0.0, 0, gamma)
        assert finish(10, large, gamma, 1e-3, "down") is None
        assert finish.limit is not None  # on the right side, so kept for re-checks

    def test_finish_drops_a_limit_on_the_wrong_side(self, ball_triple, monkeypatch):
        # handed the middle solution as the limit of a climb from the large
        # solution, the finish drops it, and having tried once it never
        # solves or checks a bound again
        dom, spec, alpha, gamma, small, large, middle = ball_triple
        finish = field._NewtonFinish(field._Attraction(spec, alpha, dom), self.EXT, tol=1e-10)
        finish.tried, finish.checked = True, 1.0
        finish.limit = (middle, finish.attraction.apply(middle), 0.0, 0, gamma)
        calls = []
        monkeypatch.setattr(field, "_newton", lambda *args: calls.append("newton"))
        monkeypatch.setattr(field, "_contraction_bound", lambda *args: calls.append("bound"))
        assert finish(10, large, gamma, 1e-3, "up") is None
        assert finish.limit is None
        for it, change in ((11, 4e-4), (12, 1e-4), (13, 2e-5)):
            assert finish(it, large, gamma, change, "up") is None
        assert calls == []


class TestSecantCertificate:
    """Certified finishes next to the liquid spinodal.

    There the Picard map's secant slopes come close to 1, and the
    peak of wp'' over the order interval keeps the Collatz-Wielandt
    bound of `_contraction_bound` above 1 for many checks after the
    Newton limit is found.  Oracle: plain Picard run to a change of
    1e-13.
    """

    ALPHA = 31.0 / kernels.l1_norm_r3(SPEC_Y)
    EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)

    def _launch_and_plain(self, dom, gamma):
        """The maximal launch at gamma, after checking it against plain Picard; Picard's steps."""
        report = field.maximal_solution(SPEC_Y, self.ALPHA, gamma, dom, model=self.EXT)
        start = field.constant_field(
            dom, field._ceiling(SPEC_Y, self.ALPHA, gamma, dom, self.EXT)[0])
        values, _, steps, _ = _plain_monotone_picard(SPEC_Y, self.ALPHA, gamma, start,
                                                     self.EXT, tol=1e-13)
        assert float(np.max(np.abs(report.field.values - values))) <= 1e-10
        assert (report.branch_label, report.monotone_direction) == ("maximal", "down")
        return report, steps

    def test_petit_grid_limit_is_the_picard_limit(self):
        # the maximal launch at gamma -4.7 on the petit-r15 grid (R=15,
        # n=64), where M has a negative entry
        report, steps = self._launch_and_plain(field.make_domain(15.0, n=64), -4.7)
        assert report.iterations < steps

    def test_fold_launch_certified_within_208_iterations(self, dom30, monkeypatch):
        # grand-r30's low bracket end: the maximal launch contracts at
        # 0.987 and its Newton limit is found at step 6, but the bound
        # first falls below 1 at the check of step 200 (208 with the 8
        # Newton steps), far below plain Picard's count
        finished = []
        real = field._NewtonFinish.__call__

        def spy(finish, *args):
            limit = real(finish, *args)
            finished.append(limit is not None)
            return limit

        monkeypatch.setattr(field._NewtonFinish, "__call__", spy)
        report, steps = self._launch_and_plain(dom30, -4.88)
        assert finished[-1]  # the launch ended on its certified Newton limit
        assert report.iterations <= 208 < steps // 4

    @pytest.mark.parametrize("R,n,gamma", [(30.0, 256, -4.88), (30.0, 256, -4.7),
                                           (15.0, 64, -4.7)])
    def test_finished_residual_is_picards_product(self, R, n, gamma, monkeypatch):
        # grand-r30's low bracket end, and two launches where a residual taken
        # with a separately rounded alpha M reads 1-2 ulp off: the certified
        # finish reports max|wp'(gamma + alpha (M @ eta)) - eta| at its profile,
        # recomputed with Picard's product, bit for bit, as the plain launch does
        dom = field.make_domain(R, n=n)
        M = field._self_ring(SPEC_Y, dom)

        def launch():
            return field.maximal_solution(SPEC_Y, self.ALPHA, gamma, dom, model=self.EXT)

        def residual(report):
            eta = report.field.values
            u = self.ALPHA * (M @ eta)
            return float(np.max(np.abs(np.asarray(self.EXT.wp_prime(gamma + u)) - eta)))

        finished = launch()
        monkeypatch.setattr(field._NewtonFinish, "__call__", lambda self, *args: None)
        plain = launch()
        assert finished.iterations < plain.iterations  # the finish fired
        for report in (finished, plain):
            assert report.residual == residual(report)


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
        # a hard-sphere solve at n=256 (R=4, alpha*l1 = 5, gamma -1) that
        # takes 12 Picard steps: every step the finish is offered predicts
        # fewer Picard steps left than a finish costs, so no Newton solve
        # is run
        dom = field.make_domain(4.0, n=256)
        solves, _ = self._spy(monkeypatch)
        seen = []
        real = field._NewtonFinish.__call__

        def offer(self, it, v, gamma, change, direction):
            seen.append((it, change))
            return real(self, it, v, gamma, change, direction)

        monkeypatch.setattr(field._NewtonFinish, "__call__", offer)
        report = field.minimal_solution(SPEC_Y, 5.0 / kernels.l1_norm_r3(SPEC_Y), -1.0, dom)
        assert not solves
        ratios = [(change, change / before)
                  for (_, before), (it, change) in zip(seen, seen[1:]) if it >= 3]
        assert ratios
        for change, ratio in ratios:
            assert 0.0 < ratio < 1.0
            assert math.log(1e-10 / change) / math.log(ratio) < field._FINISH_COST
        assert report.iterations == len(seen) + 1 == 12

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_fires_where_the_steps_left_cost_more(self, n):
        # a geometric sequence at ratio 1/2 arms at step 3 and fires once
        # its change has halved, at step 4, if the steps it has left
        # there, log(tol/change)/log(1/2), cost more than a finish: one
        # price, _FINISH_COST Picard steps, at every n
        cost = field._FINISH_COST
        v, dom = np.full(n, 0.1), field.make_domain(4.0, n=n)
        for left, fires in ((0.5 * cost, False), (cost - 2.0, False), (cost + 2.0, True)):
            finish = field._NewtonFinish(field._Attraction(SPEC_Y, 1.0, dom), self.EXT,
                                         tol=1e-10)
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
