"""Equation-of-state tests.

Expected numbers marked 'frozen' were produced by an independent
50-digit mpmath evaluation of the same closed forms (derivatives cross
checked against mpmath.diff, the solid chemical potential against
arbitrary-precision quadrature of g3'(x)/x).
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hardball import eos

# Frozen oracle values.
G1_AT_FREEZE = 5.95623847539785
G1P_AT_FREEZE = 51.8454959431361
GAMMA_FS = 15.2084825898272
G2P_AT_FREEZE = 105.807134577829
ETA_WR = 0.130443884192454
GAMMA_WR = -0.672438951348869
K_GAMMA_FS = 0.0471643515668619
G2P3_AT_0130 = 1235.2203884458
G2P1_AT_0130 = 21.2025752600149
G3_AT_MELT = 5.92853223304399
G3_AT_073 = 154.41762578992
ALDER_K0 = -3.43450345864662
ALDER_K1 = 0.829482259031036
G4_VALUES = {0.6: 21.1120945803137, 0.65: 31.3106626979191, 0.73: 225.423664048153}


class TestFluidBranch:
    def test_pressure_examples(self):
        assert eos.g1(1e-8) / 1e-8 == pytest.approx(1.0, abs=1e-6)
        assert eos.g1(0.49) == pytest.approx(5.9562, abs=1e-4)
        assert eos.g1(0.49) == pytest.approx(G1_AT_FREEZE, rel=1e-12)
        grid = np.linspace(1e-4, 0.9999, 1000)
        assert np.all(np.diff(eos.g1(grid)) > 0)

    def test_chemical_potential_examples(self):
        assert eos.g2(0.49) == pytest.approx(15.208, abs=1e-3)
        assert eos.g2(0.49) == pytest.approx(GAMMA_FS, rel=1e-12)
        assert eos.g2(1e-10) - np.log(1e-10) == pytest.approx(0.0, abs=1e-8)
        assert eos.g2(0.130) == pytest.approx(-0.67, abs=0.02)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                eos.g1(bad)
            with pytest.raises(ValueError):
                eos.g2(bad)

    def test_derivative_values(self):
        assert eos.g2_derivs(0.130, 1) == pytest.approx(21.20, abs=0.1)
        assert eos.g2_derivs(0.130, 1) == pytest.approx(G2P1_AT_0130, rel=1e-12)
        assert eos.g2_derivs(ETA_WR, 2) == pytest.approx(0.0, abs=1e-8)
        assert eos.g2_derivs(0.130, 3) == pytest.approx(1235.22, abs=2)
        assert eos.g2_derivs(0.130, 3) == pytest.approx(G2P3_AT_0130, rel=1e-12)
        assert eos.g2_derivs(0.49, 1) == pytest.approx(G2P_AT_FREEZE, rel=1e-12)
        with pytest.raises(ValueError):
            eos.g2_derivs(0.3, 4)

    @settings(deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.9))
    def test_derivatives_match_finite_differences(self, eta):
        h = 1e-6
        fd1 = (eos.g2(eta + h) - eos.g2(eta - h)) / (2 * h)
        fd2 = (eos.g2_derivs(eta + h, 1) - eos.g2_derivs(eta - h, 1)) / (2 * h)
        fd3 = (eos.g2_derivs(eta + h, 2) - eos.g2_derivs(eta - h, 2)) / (2 * h)
        assert fd1 == pytest.approx(eos.g2_derivs(eta, 1), rel=1e-6)
        assert fd2 == pytest.approx(eos.g2_derivs(eta, 2), rel=1e-6, abs=1e-4)
        assert fd3 == pytest.approx(eos.g2_derivs(eta, 3), rel=1e-5, abs=1e-2)

    def test_pressure_derivative_matches_finite_differences(self):
        h = 1e-7
        for eta in (0.05, 0.2, 0.45, 0.7):
            fd = (eos.g1(eta + h) - eos.g1(eta - h)) / (2 * h)
            assert fd == pytest.approx(eos.g1_prime(eta), rel=1e-6)
        assert eos.g1_prime(0.49) == pytest.approx(G1P_AT_FREEZE, rel=1e-12)


class TestG2Inverse:
    def test_examples(self):
        assert eos.g2_inverse(15.208) == pytest.approx(0.49, abs=1e-4)
        assert eos.g2_inverse(-0.67) == pytest.approx(0.130, abs=0.002)

    def test_roundtrip_and_residual(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(1e-6, 0.99, size=1000)
        gamma = eos.g2(x)
        back = eos.g2_inverse(gamma)
        assert np.allclose(back, x, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(eos.g2(back) - gamma) / np.maximum(1.0, np.abs(gamma))) < 1e-12

    def test_monotone(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-20.0, 30.0, size=1000)
        b = a + rng.uniform(1e-6, 5.0, size=1000)
        assert np.all(eos.g2_inverse(a) < eos.g2_inverse(b))

    def test_out_of_bracket(self):
        with pytest.raises(ValueError):
            eos.g2_inverse(-100.0)
        with pytest.raises(ValueError):
            eos.g2_inverse(np.inf)

    def test_low_density_limit(self):
        ratio = eos.g2_inverse(-15.0) / math.exp(-15.0)
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_shape_preserved(self):
        out = eos.g2_inverse(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert out.shape == (2, 2)
        assert isinstance(eos.g2_inverse(0.0), float)


def _count_sweeps(monkeypatch):
    """Count the calls of each inversion's fn and the lanes they evaluate."""
    counts = {"sweeps": 0, "lanes": 0}
    solve = eos._solve_increasing

    def counted(fn, *args, **kwargs):
        def sweep(x):
            counts["sweeps"] += 1
            counts["lanes"] += np.size(x)
            return fn(x)

        return solve(sweep, *args, **kwargs)

    monkeypatch.setattr(eos, "_solve_increasing", counted)
    return counts


def _reference_solve(fn, dfn, target, lo, hi, x0):
    """eos._solve_increasing without its whole-batch first sweep: every lane tracked from the start.

    The reference that the fast return must match bit for bit, in its
    results and in the sweeps and lanes it evaluates.
    """
    shape = np.shape(target)
    t, lo_a, hi_a = (np.ravel(a) for a in (target, lo, hi))
    x = np.ravel(x0).copy()
    if not x.size:
        return x.reshape(shape)
    tol = eos._RESIDUAL_TOL * np.maximum(1.0, np.abs(t))
    lanes = np.arange(t.size)
    xa = x
    f = fn(xa) - t
    for sweep in range(eos._MAX_SWEEPS):
        lo_a = np.where(f < 0.0, xa, lo_a)
        hi_a = np.where(f > 0.0, xa, hi_a)
        with np.errstate(all="ignore"):
            xn = xa - f / dfn(xa)
        inside = (xn > lo_a) & (xn < hi_a) if sweep else (xn >= lo_a) & (xn <= hi_a)
        xa = np.where(inside, xn, 0.5 * (lo_a + hi_a))
        f = fn(xa) - t
        done = np.abs(f) < tol
        if sweep >= eos._SLOW_SWEEPS:
            done |= hi_a - lo_a <= 4.0 * np.spacing(hi_a)
        x[lanes[done]] = xa[done]
        keep = ~done
        if not keep.any():
            return x.reshape(shape)
        lanes, xa, t, tol, f, lo_a, hi_a = (a[keep] for a in (lanes, xa, t, tol, f, lo_a, hi_a))
    raise RuntimeError("inversion did not reach the residual tolerance")


class TestSolveAgainstReference:
    @staticmethod
    def _both(monkeypatch, run):
        """run() with eos._solve_increasing, then with the reference; results and counts of each."""
        got = []
        for solve in (eos._solve_increasing, _reference_solve):
            monkeypatch.setattr(eos, "_solve_increasing", solve)
            counts = _count_sweeps(monkeypatch)
            got.append((np.asarray(run()), counts))
            monkeypatch.undo()
        return got

    @pytest.mark.parametrize("mode", [eos.MODE_CS_EXTENDED, eos.MODE_HARD_SPHERE])
    def test_table_starts(self, mode, monkeypatch):
        # a dense sample with pole lanes, which take the lane-tracking loop
        model = eos.EosModel(mode=mode)
        lo, hi = model.gamma_range()
        gamma = np.concatenate([np.linspace(lo, 100.0, 20001), np.geomspace(100.0, hi, 2001),
                                [eos.GAMMA_FS, 1e20 if mode == eos.MODE_CS_EXTENDED
                                 else 0.999 * eos._G4_HI]])
        (got, counts), (want, want_counts) = self._both(monkeypatch, lambda: model.wp_prime(gamma))
        assert np.array_equal(got, want)
        assert counts == want_counts
        assert counts["sweeps"] > 2

    def test_far_and_near_starts(self, monkeypatch):
        # starts anywhere in (0, 1), whose first steps leave the bracket so
        # that lanes bisect, and starts so near their roots that one step
        # leaves every residual below 1e-9 but most above the tolerance
        rng = np.random.default_rng(3)
        far = rng.uniform(0.0, 1.0, (2, 3000))
        near = rng.uniform(0.05, 0.45, 1000)
        for eta, start in (far, (near, near * (1.0 - 3e-6))):
            lo, hi = np.full_like(eta, eos._BRACKET_LO), np.full_like(eta, eos._BRACKET_HI)
            args = (eos._g2(eta), lo, hi, start)
            (got, counts), (want, want_counts) = self._both(
                monkeypatch, lambda: eos._solve_increasing(eos._g2, eos._g2_prime, *args))
            assert np.array_equal(got, want)
            assert counts == want_counts


class TestInversionWork:
    GAMMA = np.linspace(-5.0, 8.0, 514)[1:-1]  # 512 targets inside (-5, 8)

    def test_sweeps_bounded(self, monkeypatch):
        counts = _count_sweeps(monkeypatch)
        eta = eos.g2_inverse(self.GAMMA)
        assert counts["sweeps"] <= 10
        scale = np.maximum(1.0, np.abs(self.GAMMA))
        assert np.max(np.abs(eos.g2(eta) - self.GAMMA) / scale) < 1e-12

    def test_converged_lanes_are_not_evaluated_again(self, monkeypatch):
        gamma = self.GAMMA.copy()
        gamma[0] = 1e20  # one lane so near the pole that it stops on its bracket width
        counts = _count_sweeps(monkeypatch)
        eos.g2_inverse(gamma)
        assert counts["sweeps"] > 2
        # two sweeps see every lane, each later one only the slow lane
        assert counts["lanes"] == 2 * gamma.size + counts["sweeps"] - 2

    def test_seeds_on_the_wrong_side_still_converge(self):
        model = eos.EosModel()
        gamma = np.linspace(eos.GAMMA_FS - 3.0, eos.GAMMA_FS + 3.0, 61)
        fluid = gamma <= eos.GAMMA_FS
        eta = model.wp_prime(gamma)
        back = np.where(fluid, eos.g2(np.where(fluid, eta, 0.3)),
                        eos.speedy_g4(np.where(fluid, 0.6, eta)))
        scale = np.maximum(1.0, np.abs(gamma))
        assert np.max(np.abs(back - gamma) / scale) < 1e-12
        assert isinstance(model.wp_prime(eos.GAMMA_FS + 1.0), float)

    def test_range_ends_invert(self):
        # near the poles one ulp of eta moves g2 or g4 by more than the
        # residual tolerance; the ends of each accepted range still invert
        for mode in (eos.MODE_CS_EXTENDED, eos.MODE_HARD_SPHERE):
            model = eos.EosModel(mode=mode)
            lo, hi = model.gamma_range()
            eta = model.wp_prime(np.array([lo, 1e3, 1e9, hi]))
            assert np.all(np.diff(eta) > 0.0)
            assert eta[0] == pytest.approx(1e-12, rel=1e-9)
            assert eta[-1] == pytest.approx(1.0 if mode == eos.MODE_CS_EXTENDED
                                            else eos.ETA_FCC, rel=1e-11)

    def test_seeded_shape_preserved(self):
        gamma = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = eos.g2_inverse(gamma)
        assert out.shape == (2, 2)
        assert np.array_equal(out, eos.g2_inverse(gamma.ravel()).reshape(2, 2))

    @pytest.mark.parametrize("mode", eos.MODES)
    def test_empty_targets(self, mode, monkeypatch):
        counts = _count_sweeps(monkeypatch)
        for shape in ((0,), (3, 0)):
            empty = np.zeros(shape)
            assert eos.EosModel(mode=mode).wp_prime(empty).shape == shape
            assert eos.g2_inverse(empty).shape == shape
            assert eos.g4_inverse(empty).shape == shape
        assert counts == {"sweeps": 0, "lanes": 0}

    @pytest.mark.parametrize("mode", eos.MODES)
    def test_dense_sample_meets_the_tolerance_in_two_evaluations(self, mode, monkeypatch):
        model = eos.EosModel(mode=mode)
        lo, hi = model.gamma_range()
        # above 1e4 on the solid branch one ulp of eta moves g4 by more
        # than the tolerance, and those lanes stop on their bracket width
        top = {eos.MODE_CS_EXTENDED: 1e6, eos.MODE_HARD_SPHERE: 1e4}[mode]
        fs = eos.GAMMA_FS
        inner = np.concatenate([np.linspace(-27.0, 100.0, 20001)[1:],
                                np.geomspace(100.0, top, 2001)[1:-1],
                                [fs, np.nextafter(fs, -np.inf), np.nextafter(fs, np.inf)]])
        gamma = np.concatenate([inner, [lo, np.nextafter(lo, np.inf),
                                        np.nextafter(hi, -np.inf), hi]])
        eta = np.asarray(model.wp_prime(gamma))
        # wp' maps into (0, 1), so no Picard iterate leaves the volume fractions
        assert np.all((eta > 0.0) & (eta < 1.0))
        scale = np.maximum(1.0, np.abs(gamma))
        assert np.max(np.abs(model.gamma_at(eta) - gamma) / scale) < 1e-12
        counts = _count_sweeps(monkeypatch)
        assert np.array_equal(model.wp_prime(inner), eta[:inner.size])
        assert counts["lanes"] == 2 * inner.size

    @pytest.mark.parametrize("invert, fn, gamma, pole", [
        (eos.g2_inverse, eos.g2, np.linspace(-27.0, 100.0, 20001), 1e20),
        (eos.g4_inverse, eos.speedy_g4, np.linspace(eos.GAMMA_FS, 100.0, 20001),
         0.999 * eos._G4_HI),
    ])
    def test_fast_return_and_loop_agree(self, invert, fn, gamma, pole, monkeypatch):
        counts = _count_sweeps(monkeypatch)
        alone = invert(gamma)
        # every lane meets the absolute tolerance after the first sweep,
        # so this batch returns whole
        assert np.all(np.abs(fn(alone) - gamma) < 1e-12)
        assert counts["sweeps"] == 2
        # one pole lane sends the batch through the lane-tracking loop
        mid = gamma.size // 2
        counts["sweeps"] = 0
        batch = invert(np.insert(gamma, mid, pole))
        assert counts["sweeps"] > 2
        assert np.array_equal(np.delete(batch, mid), alone)

    @pytest.mark.parametrize("mode", eos.MODES)
    def test_lanes_are_independent(self, mode):
        # wp' is a pure function of gamma: no lane depends on its batch
        model = eos.EosModel(mode=mode)
        gamma = np.random.default_rng(5).uniform(-27.0, 40.0, 512)
        gamma[:3] = 1e20 if mode == eos.MODE_CS_EXTENDED else 30.0, eos.GAMMA_FS, -27.0
        batch = model.wp_prime(gamma)
        alone = np.array([model.wp_prime(float(g)) for g in gamma])
        assert np.array_equal(batch, alone)


# what a finite gamma out of range raises: the error, its message's prefix and
# the ends of the bracket that the message names along with that gamma
_BRACKET = (ValueError, "gamma outside the invertible bracket", (eos._G2_LO, eos._G2_HI))
_SOLID = (ValueError, "gamma outside the solid branch", (eos.GAMMA_FS, eos._G4_HI))
# each inversion entry point, with finite gammas out of its range and what they raise
_OUT_OF_RANGE = {
    "g2_inverse": (eos.g2_inverse, {-100.0: _BRACKET, 1e37: _BRACKET}),
    "g4_inverse": (eos.g4_inverse, {15.0: _SOLID, 1e14: _SOLID}),
    eos.MODE_CS_EXTENDED: (eos.EosModel(eos.MODE_CS_EXTENDED).wp_prime,
                           {-100.0: _BRACKET, 1e37: _BRACKET}),
    eos.MODE_HARD_SPHERE: (eos.EosModel(eos.MODE_HARD_SPHERE).wp_prime,
                           {-100.0: _BRACKET, 1e14: _SOLID}),
}


def _out_of_range_message(g, prefix, ends):
    """The whole message for gamma g out of range: the prefix, then g and the bracket's ends."""
    return f"{prefix}: gamma {g!r} is not in [{ends[0]!r}, {ends[1]!r}]"


class TestInversionErrors:
    @pytest.mark.parametrize("name", list(_OUT_OF_RANGE))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma(self, name, bad):
        invert, outside = _OUT_OF_RANGE[name]
        # next to a finite lane out of range, the non-finite one still names
        # the error, in every mode: hard-sphere mode sends NaN and +inf to
        # the solid branch and a finite lane below it to the fluid one
        batches = [bad, np.array([20.0, bad])] + [np.array([g, bad]) for g in outside]
        for gamma in batches:
            with pytest.raises(ValueError, match="^gamma must be finite$"):
                invert(gamma)

    @pytest.mark.parametrize("name", list(_OUT_OF_RANGE))
    def test_finite_gamma_out_of_range(self, name):
        invert, outside = _OUT_OF_RANGE[name]
        for g, (error, prefix, ends) in outside.items():
            message = re.escape(_out_of_range_message(g, prefix, ends))
            for gamma in (g, np.array([20.0, g])):
                with pytest.raises(error, match=f"^{message}$"):
                    invert(gamma)

    def test_first_gamma_out_of_range_is_named(self):
        # with both ends of the bracket left, the message names the first
        # lane out of range, in row-major order for a 2D batch
        error, prefix, ends = _BRACKET
        batch = np.array([[20.0, 1e37], [-100.0, 0.0]])
        with pytest.raises(error, match="^" + re.escape(
                _out_of_range_message(1e37, prefix, ends)) + "$"):
            eos.g2_inverse(batch)
        with pytest.raises(error, match="^" + re.escape(
                _out_of_range_message(-100.0, prefix, ends)) + "$"):
            eos.g2_inverse(batch.T)


class TestSolidBranch:
    def test_pressure_monotone_and_pole(self):
        grid = np.linspace(0.54, 0.73, 400)
        assert np.all(np.diff(eos.speedy_g3(grid)) > 0)
        assert eos.speedy_g3(eos.ETA_FCC - 1e-6) > 1e6
        assert eos.speedy_g3(0.54) == pytest.approx(G3_AT_MELT, rel=1e-12)
        assert eos.speedy_g3(0.73) == pytest.approx(G3_AT_073, rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.5, eos.ETA_FCC, 0.99):
            with pytest.raises(ValueError):
                eos.speedy_g3(bad)
            with pytest.raises(ValueError):
                eos.speedy_g4(bad)

    def test_alder_expansion(self):
        # Extract the first two expansion constants of g3/eta_fcc - 3/(1-y)
        # near close packing and compare with the coarse literature values.
        e1, e2 = 1e-4, 2e-4

        def tail(e):
            return eos.speedy_g3(eos.ETA_FCC * (1.0 - e)) / eos.ETA_FCC - 3.0 / e

        k1 = (tail(e2) - tail(e1)) / (e2 - e1)
        k0 = tail(e1) - k1 * e1
        assert k0 == pytest.approx(-3.44, abs=0.01)
        assert k1 == pytest.approx(1.0, abs=0.2)
        assert k0 == pytest.approx(ALDER_K0, abs=1e-6)
        assert k1 == pytest.approx(ALDER_K1, abs=1e-3)

    def test_chemical_potential_values(self):
        assert eos.speedy_g4(0.54) == pytest.approx(15.208, abs=1e-3)
        assert eos.speedy_g4(0.54) == pytest.approx(eos.GAMMA_FS, abs=1e-14)
        for eta, expected in G4_VALUES.items():
            assert eos.speedy_g4(eta) == pytest.approx(expected, rel=1e-12)
        grid = np.linspace(0.54, 0.73, 400)
        assert np.all(np.diff(eos.speedy_g4(grid)) > 0)

    def test_chemical_potential_against_quadrature(self):
        # Independent route: adaptive quadrature of g3'(x)/x with g3'
        # itself taken by finite differences of the public pressure.
        def g3_prime(x, h=1e-7):
            return (eos.speedy_g3(x + h) - eos.speedy_g3(x - h)) / (2 * h)

        val, err = quad(lambda x: g3_prime(x) / x, 0.54, 0.68, epsabs=1e-11, epsrel=1e-11)
        assert eos.speedy_g4(0.68) == pytest.approx(eos.GAMMA_FS + val, rel=1e-7)

    def test_density_relation(self):
        # eta * g4'(eta) = g3'(eta), both sides by central differences.
        h = 1e-7
        for eta in (0.55, 0.6, 0.68, 0.72):
            g4p = (eos.speedy_g4(eta + h) - eos.speedy_g4(eta - h)) / (2 * h)
            g3p = (eos.speedy_g3(eta + h) - eos.speedy_g3(eta - h)) / (2 * h)
            assert eta * g4p == pytest.approx(g3p, rel=1e-6)

    def test_inverse_roundtrip(self):
        grid = np.linspace(0.54, 0.735, 50)
        back = eos.g4_inverse(eos.speedy_g4(grid))
        assert np.allclose(back, grid, rtol=1e-10, atol=1e-12)
        with pytest.raises(ValueError):
            eos.g4_inverse(eos.GAMMA_FS - 1.0)


class TestInflection:
    def test_values(self):
        eta_wr, gamma_wr, k = eos.find_inflection()
        assert eta_wr == pytest.approx(0.130, abs=0.002)
        assert gamma_wr == pytest.approx(-0.67, abs=0.02)
        assert k == pytest.approx(0.047, abs=0.002)
        assert eta_wr == pytest.approx(ETA_WR, rel=1e-10)
        assert gamma_wr == pytest.approx(GAMMA_WR, rel=1e-10)
        assert k == pytest.approx(K_GAMMA_FS, rel=1e-10)

    def test_definition(self):
        eta_wr, _, k = eos.find_inflection()
        assert k * eos.g2_derivs(eta_wr, 1) == pytest.approx(1.0, abs=1e-10)
        assert eos.g2_derivs(eta_wr - 1e-4, 2) < 0 < eos.g2_derivs(eta_wr + 1e-4, 2)


class TestThermodynamicIdentity:
    def test_fluid_identity(self):
        rng = np.random.default_rng(3)
        eta = rng.uniform(1e-6, 0.49, size=1000)
        lhs = eta * eos.g2_derivs(eta, 1)
        assert np.max(np.abs(lhs - eos.g1_prime(eta))) < 1e-10


class TestEosModel:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            eos.EosModel(mode="none-such")
        # the paper's two equations of state, and no ideal gas
        assert eos.MODES == (eos.MODE_HARD_SPHERE, eos.MODE_CS_EXTENDED)
        with pytest.raises(ValueError, match="^unknown mode 'ideal-gas'"):
            eos.EosModel(mode="ideal-gas")

    def test_only_mode_is_settable(self):
        with pytest.raises(TypeError):
            eos.EosModel(gamma_fs=1.0)

    def test_constants(self):
        assert eos.GAMMA_FS == pytest.approx(eos.g2(eos.ETA_FS_LO), abs=1e-14)
        assert eos.GAMMA_FS == pytest.approx(eos.speedy_g4(eos.ETA_FS_HI), abs=1e-9)
        assert 0 < eos.ETA_WR < eos.ETA_FS_LO
        assert eos.K_GAMMA_FS == pytest.approx(K_GAMMA_FS, rel=1e-10)

    def test_wp_continuity_at_kink(self):
        model = eos.EosModel()
        below = model.wp(eos.GAMMA_FS - 1e-9)
        above = model.wp(eos.GAMMA_FS + 1e-9)
        assert abs(below - above) < 1e-6
        assert model.wp(eos.GAMMA_FS) == pytest.approx(G1_AT_FREEZE, rel=1e-10)

    def test_wp_convex_across_kink(self):
        model = eos.EosModel()
        grid = np.linspace(10.0, 20.0, 2001)
        vals = model.wp(grid)
        assert np.all(np.diff(vals, n=2) > -1e-9)

    def test_wp_prime_sides(self):
        # the kink takes the left derivative, the fluid's freezing fraction
        model = eos.EosModel()
        assert model.wp_prime(eos.GAMMA_FS) == pytest.approx(0.49, abs=1e-12)

    def test_wp_prime_fluid_roundtrip(self):
        model = eos.EosModel()
        x = np.linspace(1e-3, 0.49, 200)
        assert np.allclose(model.wp_prime(eos.g2(x)), x, rtol=1e-9, atol=1e-12)

    def test_wp_prime_positive_nondecreasing(self):
        model = eos.EosModel()
        grid = np.linspace(-20.0, 25.0, 3000)
        vals = model.wp_prime(grid)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) > -1e-15)

    def test_density_response_peaks_at_inflection(self):
        model = eos.EosModel()
        grid = np.linspace(-10.0, eos.GAMMA_FS - 1e-6, 4000)
        resp = model.wp_double_prime(grid)
        assert np.all(resp <= eos.K_GAMMA_FS + 1e-9)
        assert model.wp_double_prime(eos.GAMMA_WR) == pytest.approx(
            eos.K_GAMMA_FS, rel=1e-10
        )

    def test_density_response_kink_error(self):
        model = eos.EosModel()
        with pytest.raises(ValueError):
            model.wp_double_prime(eos.GAMMA_FS)

    def test_cs_extended_is_smooth(self):
        model = eos.EosModel(mode=eos.MODE_CS_EXTENDED)
        below = model.wp_prime(eos.GAMMA_FS - 1e-9)
        above = model.wp_prime(eos.GAMMA_FS + 1e-9)
        assert abs(above - below) < 1e-6
        assert model.wp_prime(30.0) > 0.49

    def test_branch_restriction(self):
        assert eos.g2_inverse(eos.GAMMA_FS + 0.1) > 0.49


@pytest.mark.parametrize("mode", eos.MODES)
def test_wp_is_the_pressure_at_wp_prime_bit_for_bit(mode):
    # oracle: wp composed branch by branch from the inversions, with the
    # kink on the fluid side and the solid pressure shifted to meet it
    model = eos.EosModel(mode)
    lo, hi = model.gamma_range()
    fs = eos.GAMMA_FS
    gamma = np.concatenate([
        np.linspace(lo, 100.0, 25001)[1:],
        np.geomspace(100.0, hi, 1001)[1:-1],
        [fs, np.nextafter(fs, -np.inf), np.nextafter(fs, np.inf)],
    ])
    solid = gamma > fs if mode == eos.MODE_HARD_SPHERE else np.zeros(gamma.shape, bool)
    shift = float(eos.g1(eos.ETA_FS_LO)) - float(eos.speedy_g3(eos.ETA_FS_HI))
    want = np.empty_like(gamma)
    want[~solid] = eos.g1(eos.g2_inverse(gamma[~solid]))
    if solid.any():
        want[solid] = shift + eos.speedy_g3(eos.g4_inverse(gamma[solid]))
    assert np.array_equal(model.wp(gamma), want)
    for g, w in zip(gamma[::997], want[::997]):
        assert model.wp(float(g)) == w
    assert model.wp(fs) == want[-3]


@settings(deadline=None)
@given(st.floats(min_value=-25.0, max_value=14.0))
def test_model_density_matches_free_inverse(gamma):
    model = eos.EosModel()
    assert model.wp_prime(gamma) == pytest.approx(eos.g2_inverse(gamma), rel=1e-12)
