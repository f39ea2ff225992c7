"""Tests for phase transitions in the container.

Oracles: the zero-interaction limit (a mass-constrained solve must
recover the constant profile with chemical potential g2(N/V)), exact
mass accounting for trial profiles, the thermodynamic identity
dF/dN = Gamma checked by centered differences, equimeasurability of
the decreasing rearrangement under arbitrary integrands, and the
algebraic coexistence point as the large-container limit of the
finite-container transition.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from hardball import eos, field, functionals, kernels, phase, uniform

SPEC_Y = kernels.KernelSpec(a_y=1.0, kappa=1.0)
PHI_Y5 = kernels.phi_lambda(SPEC_Y, 5.0)
PHI_Y_HALF = kernels.phi_lambda(SPEC_Y, 0.5)
L1_Y = kernels.l1_norm_r3(SPEC_Y)

# attraction tuned so alpha * l1_norm = 31, inside the droplet regime
ALPHA_31 = 31.0 / L1_Y
EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)

# mass of the last vapor profile at R = 15, n = 256 (the vapor fold)
N_HAT_15 = 453.4086905340539


@pytest.fixture(scope="module")
def dom5():
    return field.make_domain(5.0, n=256)


@pytest.fixture(scope="module")
def dom15():
    return field.make_domain(15.0, n=256)


@pytest.fixture(scope="module")
def dom_small():
    return field.make_domain(0.5, n=256)


def total_mass(dom, fld):
    return float(functionals.volume_weights(dom) @ fld.values)


def named_inputs(excinfo, alpha, dom, ends):
    """The two gaps a transition error names, after checking its other inputs."""
    m = re.search(r"\(alpha (\S+), R (\S+), n (\d+); bracket ends (\S+) and (\S+), "
                  r"gaps (\S+) and (\S+)\)$", str(excinfo.value))
    assert m is not None, str(excinfo.value)
    assert (float(m[1]), float(m[2]), int(m[3])) == (alpha, dom.R, dom.n)
    assert (float(m[4]), float(m[5])) == ends
    return float(m[6]), float(m[7])


def named_point(excinfo, alpha, dom, ends):
    """The located point and the gap left there that a transition error names."""
    m = re.search(r"\(alpha (\S+), R (\S+), n (\d+); bracket ends (\S+) and (\S+), "
                  r"located at (\S+), gap left (\S+)\)$", str(excinfo.value))
    assert m is not None, str(excinfo.value)
    assert (float(m[1]), float(m[2]), int(m[3])) == (alpha, dom.R, dom.n)
    assert (float(m[4]), float(m[5])) == ends
    return float(m[6]), float(m[7])


def record_launches(monkeypatch):
    """Every extremal launch from here on, as (branch, gamma, its neighbour's gamma or None).

    Launches come one at a time (`field.minimal_solution` and
    `maximal_solution`) or as pairs (`field.extremal_pairs`, the
    locator's route, which takes the neighbours).
    """
    launched = []
    for branch in ("minimal", "maximal"):
        real = getattr(field, f"{branch}_solution")

        def spy(spec, alpha, gamma, *args, _real=real, _branch=branch, **kwargs):
            launched.append((_branch, float(gamma), None))
            return _real(spec, alpha, gamma, *args, **kwargs)

        monkeypatch.setattr(field, f"{branch}_solution", spy)
    real_pairs = field.extremal_pairs

    def pairs(spec, alpha, gammas, *args, neighbours=None, **kwargs):
        for g, sides in zip(gammas, neighbours or [(None, None)] * len(gammas)):
            for branch, side in zip(("minimal", "maximal"), sides):
                launched.append((branch, float(g), None if side is None else side[0]))
        return real_pairs(spec, alpha, gammas, *args, neighbours=neighbours, **kwargs)

    monkeypatch.setattr(field, "extremal_pairs", pairs)
    return launched


class TestDropletCriterion:
    def test_reference_values(self):
        rep = phase.droplet_criterion(SPEC_Y, ALPHA_31)
        assert rep["lhs"] == pytest.approx(31.0, abs=1e-12)
        assert rep["eta_hat_M"] == pytest.approx(0.41, abs=0.01)
        assert rep["eta_hat_m"] == pytest.approx(0.045, abs=0.003)
        assert rep["rhs"] == pytest.approx(28.75, abs=0.2)
        assert rep["volume_ratio"] == pytest.approx(9.0, abs=0.5)
        assert rep["fires"] is True

    def test_weak_attraction_does_not_fire(self):
        for atau in (21.25, 23.0):
            rep = phase.droplet_criterion(SPEC_Y, atau / L1_Y)
            assert rep["fires"] is False
            assert rep["rhs"] > rep["lhs"]

    def test_requires_triple_roots(self):
        with pytest.raises(ValueError):
            phase.droplet_criterion(SPEC_Y, 21.0 / L1_Y)
        with pytest.raises(ValueError):
            phase.droplet_criterion(SPEC_Y, uniform.ALPHA_TAU_MIN / L1_Y)


class TestNHat:
    def test_vapor_fold_mass(self, dom15):
        # the vapor-fold mass: N of the minimal solution at gamma_hat
        D = functionals.volume_weights(dom15)
        gamma_hat = uniform.gamma_boundaries(ALPHA_31 * L1_Y)[1]
        fold = field.minimal_solution(SPEC_Y, ALPHA_31, gamma_hat, dom15, model=EXT)
        got = float(D @ fold.field.values)
        assert got == pytest.approx(N_HAT_15, rel=1e-8)
        # the minimal branch's mass still rises up to gamma_hat
        below = field.minimal_solution(SPEC_Y, ALPHA_31, gamma_hat - 0.01, dom15, model=EXT)
        assert got > float(D @ below.field.values)


class TestConstrainedSolve:
    def test_zero_interaction_recovers_constant(self, dom5):
        vol = float(functionals.volume_weights(dom5).sum())
        target = 0.2 * vol
        bp = phase.constrained_solve(SPEC_Y, 0.0, dom5, target)
        assert bp.gamma == pytest.approx(float(eos.g2(0.2)), abs=1e-9)
        assert np.max(np.abs(bp.solution.field.values - 0.2)) < 1e-9
        assert bp.functionals.N == pytest.approx(target, rel=1e-9)
        assert bp.solution.branch_label == "minimal"

    def test_mass_matches_target(self, dom5):
        alpha = 20.0 / PHI_Y5
        vol = float(functionals.volume_weights(dom5).sum())
        bp = phase.constrained_solve(SPEC_Y, alpha, dom5, 0.1 * vol)
        assert bp.functionals.N == pytest.approx(0.1 * vol, rel=1e-8)
        assert bp.solution.residual < 1e-9

    def test_gamma_monotone_in_mass(self, dom5):
        # the vapor branch carries more mass at higher chemical potential
        alpha = 20.0 / PHI_Y5
        vol = float(functionals.volume_weights(dom5).sum())
        gammas = [
            phase.constrained_solve(SPEC_Y, alpha, dom5, f * vol).gamma
            for f in (0.05, 0.10, 0.15)
        ]
        assert gammas[0] < gammas[1] < gammas[2]

    def test_df_dn_equals_gamma(self, dom5):
        alpha = 20.0 / PHI_Y5
        vol = float(functionals.volume_weights(dom5).sum())
        N0, h = 0.1 * vol, 0.0002 * vol
        mid = phase.constrained_solve(SPEC_Y, alpha, dom5, N0)
        up = phase.constrained_solve(SPEC_Y, alpha, dom5, N0 + h)
        dn = phase.constrained_solve(SPEC_Y, alpha, dom5, N0 - h)
        fd = (up.functionals.F - dn.functionals.F) / (2 * h)
        assert fd == pytest.approx(mid.gamma, rel=1e-6)

    def test_middle_branch_cold_and_warm(self, dom_small):
        # the middle branch at fixed mass is droplet_solve's
        roots = uniform.solve_uniform(100.0 * PHI_Y_HALF, -7.0).roots
        mid = field.newton_solve(
            SPEC_Y, 100.0, -7.0,
            field.constant_field(dom_small, roots[1]), model=EXT,
        )
        n_mid = total_mass(dom_small, mid.field)
        bp = phase.droplet_solve(SPEC_Y, 100.0, dom_small, 1.02 * n_mid, model=EXT)
        assert bp.solution.branch_label == "middle"
        assert bp.functionals.N == pytest.approx(1.02 * n_mid, rel=1e-8)
        # the middle branch loses mass as gamma grows
        assert bp.gamma < -7.0
        # oracle: Newton at the droplet's gamma from the middle algebraic root
        roots = uniform.solve_uniform(100.0 * PHI_Y_HALF, bp.gamma).roots
        saddle = field.newton_solve(
            SPEC_Y, 100.0, bp.gamma,
            field.constant_field(dom_small, roots[1]), model=EXT,
        )
        assert np.max(np.abs(saddle.field.values - bp.solution.field.values)) < 1e-10
        warm = phase.droplet_solve(
            SPEC_Y, 100.0, dom_small, 1.05 * n_mid,
            start=bp.solution.field, model=EXT,
        )
        assert warm.functionals.N == pytest.approx(1.05 * n_mid, rel=1e-8)

    def test_middle_branch_needs_triplicity(self, dom5):
        # alpha too weak for three uniform roots anywhere
        with pytest.raises(ValueError):
            phase.droplet_solve(SPEC_Y, 1.0 / PHI_Y5, dom5, 5.0)

    def test_mass_beyond_vapor_fold(self, dom15):
        with pytest.raises(ValueError):
            phase.constrained_solve(
                SPEC_Y, ALPHA_31, dom15, 1.4 * N_HAT_15, model=EXT,
            )

    @pytest.mark.parametrize("spec", [
        kernels.KernelSpec(a_n=1.0), kernels.KernelSpec(a_y=1.0, a_n=0.5),
    ], ids=["newton", "yukawa-newton"])
    def test_newton_part_has_no_whole_space_folds(self, spec):
        # a kernel with a Newton part has no whole-space norm, so no
        # algebraic folds: the window is the model's invertible range
        dom = field.make_domain(2.0, n=64)
        N = 0.1 * float(functionals.volume_weights(dom).sum())
        bp = phase.constrained_solve(spec, 0.01, dom, N)
        assert total_mass(dom, bp.solution.field) == pytest.approx(N, rel=1e-9)
        launch = field.minimal_solution(spec, 0.01, bp.gamma, dom)
        assert np.array_equal(bp.solution.field.values, launch.field.values)

    def test_branch_jump_raises(self, monkeypatch):
        # the third launch lands on the liquid, far beyond ten times the
        # step predicted from the first two
        dom = field.make_domain(15.0, n=64)
        launched = []
        real = field.minimal_solution

        def spy(spec, alpha, gamma, *args, **kwargs):
            launched.append(gamma)
            solve = field.maximal_solution if len(launched) == 3 else real
            return solve(spec, alpha, gamma, *args, **kwargs)

        monkeypatch.setattr(field, "minimal_solution", spy)
        with pytest.raises(phase.BranchLostError) as excinfo:
            phase.constrained_solve(SPEC_Y, ALPHA_31, dom, 0.966 * N_HAT_15, model=EXT)
        assert len(launched) == 3
        assert str(excinfo.value) == (f"minimal branch lost near gamma {launched[2]:.6f}: "
                                      "sup-norm step exceeds ten times the prediction")

    def test_invalid_inputs(self, dom5):
        vol = float(functionals.volume_weights(dom5).sum())
        with pytest.raises(ValueError):
            phase.constrained_solve(SPEC_Y, 0.0, dom5, 0.0)
        with pytest.raises(ValueError):
            phase.constrained_solve(SPEC_Y, 0.0, dom5, 1.1 * vol)


class TestConstrainedWork:
    """Inner solves per constrained_solve, and the exact slope it steps on."""

    @pytest.fixture
    def inner_calls(self, monkeypatch):
        calls = []
        for name in ("minimal_solution", "maximal_solution", "newton_solve"):
            def counted(*args, _solve=getattr(field, name), _name=name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(field, name, counted)
        return calls

    def test_minimal_branch_inner_solves(self, dom5, inner_calls):
        alpha = 20.0 / PHI_Y5
        vol = float(functionals.volume_weights(dom5).sum())
        for f in (0.05, 0.10, 0.15):
            inner_calls.clear()
            phase.constrained_solve(SPEC_Y, alpha, dom5, f * vol)
            assert 1 <= len(inner_calls) <= 6
            assert set(inner_calls) == {"minimal_solution"}

    def test_exact_slope_matches_centred_difference(self, dom5, monkeypatch):
        alpha, gamma, h = 20.0 / PHI_Y5, -2.9, 1e-4
        vol = float(functionals.volume_weights(dom5).sum())
        seen = {}

        class Probed(Exception):
            pass

        def probe(evaluate, *args):
            seen["slope"] = evaluate(gamma)[1]
            raise Probed

        monkeypatch.setattr(phase, "_newton_on_gamma", probe)
        with pytest.raises(Probed):
            phase.constrained_solve(SPEC_Y, alpha, dom5, 0.1 * vol)

        def mass(g):
            rep = field.minimal_solution(SPEC_Y, alpha, g, dom5)
            return total_mass(dom5, rep.field)

        centred = (mass(gamma + h) - mass(gamma - h)) / (2.0 * h)
        assert seen["slope"] == pytest.approx(centred, rel=1e-6)


class TestNewtonOnGamma:
    """phase._newton_on_gamma on closed-form monotone functions."""

    @staticmethod
    def xtol(g):
        return 1e-14

    def test_decreasing_root(self):
        def evaluate(g):
            return 2.0 - g**3, -3.0 * g**2, g

        g, f, payload = phase._newton_on_gamma(
            evaluate, 1.0, (0.5, 4.0), 0.0, self.xtol, "unused", 100,
        )
        assert g == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
        assert payload == g
        assert abs(f) <= 1e-14

    def test_root_beyond_window_raises_message(self):
        def evaluate(g):
            return g - 5.0, 1.0, None

        with pytest.raises(ValueError, match="^beyond the window$"):
            phase._newton_on_gamma(
                evaluate, 0.0, (-1.0, 3.0), 0.0, self.xtol, "beyond the window", 100,
            )

    def test_failed_evaluation_retreats(self):
        # f = exp(g) - 2 steps from g = -3 to about 16, where it is undefined
        asked = []

        def evaluate(g):
            asked.append(g)
            if g > 1.0:
                raise ValueError("undefined here")
            return math.exp(g) - 2.0, math.exp(g), None

        g, f, _ = phase._newton_on_gamma(
            evaluate, -3.0, (-10.0, 30.0), 1e-12, self.xtol, "unused", 100,
        )
        assert asked[1] > 1.0
        assert -3.0 < asked[2] < asked[1]
        assert g == pytest.approx(math.log(2.0), abs=1e-12)

    def test_launch_out_of_steps_retreats(self):
        # a launch still open after its step budget is an evaluation not to
        # be had: f = 2 - g^3 fails once, at the first Newton step from 1
        asked = []

        def evaluate(g):
            asked.append(g)
            if len(asked) == 2:
                raise field.NoConvergence(f"no convergence within 20000 iterations: last "
                                          f"gamma {g!r}")
            return 2.0 - g**3, -3.0 * g**2, g

        g, f, payload = phase._newton_on_gamma(
            evaluate, 1.0, (0.5, 4.0), 0.0, self.xtol, "unused", 100,
        )
        assert asked[:3] == [1.0, 4.0 / 3.0, 0.5 * (1.0 + 4.0 / 3.0)]
        assert g == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
        assert payload == g

    def test_failed_first_evaluation_raises(self):
        def evaluate(g):
            raise ValueError("no start")

        with pytest.raises(ValueError, match="no start"):
            phase._newton_on_gamma(
                evaluate, 0.0, (-1.0, 1.0), 0.0, self.xtol, "unused", 100,
            )


class TestDropletTrial:
    def test_mass_is_exact(self, dom15):
        D = functionals.volume_weights(dom15)
        for N, frac in ((100.0, 0.3), (400.0, 0.9), (1.0, 0.05)):
            trial = phase.droplet_trial(dom15, N, frac)
            assert float(D @ trial.values) == pytest.approx(N, rel=1e-12)

    def test_two_level_structure(self, dom15):
        trial = phase.droplet_trial(dom15, 300.0, 0.4)
        levels = np.unique(trial.values)
        assert levels.size == 2
        assert levels[0] == pytest.approx(1e-12)
        # high level inside, low level outside
        assert trial.values[0] == levels[1]
        assert trial.values[-1] == levels[0]

    def test_overpacking_rejected(self, dom15):
        vol = float(functionals.volume_weights(dom15).sum())
        with pytest.raises(ValueError):
            phase.droplet_trial(dom15, vol * 0.2, 0.2)

    def test_bad_fraction(self, dom15):
        for frac in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                phase.droplet_trial(dom15, 10.0, frac)


class TestDropletSolve:
    def test_lands_on_droplet(self, dom15):
        N = 0.97 * N_HAT_15
        bp = phase.droplet_solve(SPEC_Y, ALPHA_31, dom15, N, model=EXT)
        v = bp.solution.field.values
        assert bp.functionals.N == pytest.approx(N, rel=1e-9)
        assert bp.solution.residual < 1e-9
        assert np.all(np.diff(v) <= 1e-12)
        assert v[0] > 5 * v[-1]
        assert bp.solution.certified_fluid
        # distinct from the vapor profile at the same chemical potential
        vap = field.minimal_solution(SPEC_Y, ALPHA_31, bp.gamma, dom15, model=EXT)
        assert np.max(np.abs(v - vap.field.values)) > 0.05

    def test_droplet_is_free_energy_stable(self, dom15):
        bp = phase.droplet_solve(SPEC_Y, ALPHA_31, dom15, 440.0, model=EXT)
        rep = functionals.f_stability(SPEC_Y, ALPHA_31, bp.solution.field, seed=7)
        assert rep.label == "stable"
        assert rep.probe_failures == 0

    def test_low_mass_collapses_to_vapor(self, dom15):
        N = 0.7 * N_HAT_15
        with pytest.raises(phase.BranchLostError,
                           match=rf"vapor branch at N {N!r}, gamma -4\.\d+"):
            phase.droplet_solve(SPEC_Y, ALPHA_31, dom15, N, model=EXT)

    def test_warm_start_stays_on_branch(self, dom15):
        cold = phase.droplet_solve(SPEC_Y, ALPHA_31, dom15, 440.0, model=EXT)
        warm = phase.droplet_solve(
            SPEC_Y, ALPHA_31, dom15, 435.0,
            start=cold.solution.field, model=EXT,
        )
        assert warm.functionals.N == pytest.approx(435.0, rel=1e-9)
        v = warm.solution.field.values
        assert np.all(np.diff(v) <= 1e-12)
        assert v[0] > 5 * v[-1]
        # shedding mass raises the droplet's chemical potential
        assert warm.gamma > cold.gamma


def _droplet_and_plain_run(dom, N, monkeypatch):
    """droplet_solve at N, and its fixed-point loop rerun with no finish.

    Returns the droplet's BranchPoint and the plain run's (report, gamma)
    from the same start, mass-matching rule, tolerance and step limit.
    The collapse check is off, so the droplet's loop is the only one.
    """
    calls = []
    real = field._fixed_point

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(field, "_fixed_point", spy)
    point = phase.droplet_solve(SPEC_Y, ALPHA_31, dom, N, model=EXT,
                                check_collapse=False)
    monkeypatch.setattr(field, "_fixed_point", real)
    [finish] = calls[0][-1]  # the loop runs one column, with one finish
    assert len(calls) == 1 and isinstance(finish, field._NewtonFinish)
    [plain] = real(*calls[0][:-1])
    return point, plain


class TestDropletFinish:
    """The bordered Newton finish of the mass-matched droplet iteration.

    At R=15, n=256 and 0.97 N_hat the iteration from the ball trial
    converges at a steady change ratio near 0.9 and takes 246 steps.
    """

    N = 0.97 * N_HAT_15

    def test_matches_the_plain_iteration(self, dom15, monkeypatch):
        point, (plain, gamma) = _droplet_and_plain_run(dom15, self.N, monkeypatch)
        values = point.solution.field.values
        assert float(np.max(np.abs(values - plain.field.values))) <= 1e-10
        assert abs(point.gamma - gamma) <= 1e-10
        assert point.solution.residual < 1e-9
        assert point.functionals.N == pytest.approx(self.N, rel=1e-9)

    def test_iterations_fall_below_half(self, dom15, monkeypatch):
        point, (plain, _) = _droplet_and_plain_run(dom15, self.N, monkeypatch)
        assert point.solution.iterations < 0.5 * plain.iterations

    def test_failed_solve_gives_the_plain_result(self, dom15, monkeypatch):
        def fail(*args):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(field, "_newton", fail)
        point, (plain, gamma) = _droplet_and_plain_run(dom15, self.N, monkeypatch)
        assert np.array_equal(point.solution.field.values, plain.field.values)
        assert point.gamma == gamma
        assert point.solution.iterations == plain.iterations

    def test_limit_off_the_predicted_path_is_refused(self, dom15, monkeypatch):
        # the solve fires at a change near 6.8e-4 and a ratio near 0.901,
        # so twice the remaining tail of changes is about 0.0124; a limit
        # 0.02 off the true one lies beyond it, and the iteration runs on
        real = field._newton
        limits = []

        def shifted(*args):
            star, u, res, steps, gamma = real(*args)
            limits.append(star)
            return star + 0.02, u, res, steps, gamma

        monkeypatch.setattr(field, "_newton", shifted)
        point, (plain, gamma) = _droplet_and_plain_run(dom15, self.N, monkeypatch)
        assert len(limits) == 1
        assert np.array_equal(point.solution.field.values, plain.field.values)
        assert point.gamma == gamma
        assert point.solution.iterations == plain.iterations

    def test_solve_fires_at_the_step_the_finish_arms(self, dom15, monkeypatch):
        # the one bordered solve runs at the first step from _FINISH_FROM whose
        # change ratio exceeds _FINISH_RATIO, with no wait for the change to
        # halve, and its limit ends the iteration there
        offers, fired = [], []
        offer, newton = field._NewtonFinish.__call__, field._newton

        def offered(self, it, v, gamma, change, direction):
            offers.append((it, change))
            return offer(self, it, v, gamma, change, direction)

        def spy(*args):
            fired.append(offers[-1][0])
            return newton(*args)

        monkeypatch.setattr(field._NewtonFinish, "__call__", offered)
        monkeypatch.setattr(field, "_newton", spy)
        point = phase.droplet_solve(SPEC_Y, ALPHA_31, dom15, self.N, model=EXT,
                                    check_collapse=False)
        armed = next(it for (_, before), (it, change) in zip(offers, offers[1:])
                     if it >= field._FINISH_FROM and change > field._FINISH_RATIO * before)
        assert fired == [armed] and offers[-1][0] == armed
        assert armed < point.solution.iterations < armed + 10


class TestMassMatch:
    """phase._gamma_for_mass in each EOS mode, on a fixed potential u."""

    # (mode, potential, gamma the target mass is built at)
    CASES = [
        (eos.MODE_CS_EXTENDED, np.linspace(0.0, 8.0, 64), -4.0),
        # gamma + u runs from 10 to 20, across the freezing point ~15.2
        (eos.MODE_HARD_SPHERE, np.linspace(0.0, 10.0, 64), 10.0),
        (eos.MODE_IDEAL_GAS, np.linspace(0.0, 3.0, 64), -3.0),
    ]
    D = functionals.volume_weights(field.make_domain(15.0, n=64))

    def target(self, mode, u, gamma):
        model = eos.EosModel(mode=mode)
        eta = np.asarray(model.wp_prime(gamma + u), dtype=float)
        return model, eta, float(self.D @ eta)

    @pytest.mark.parametrize("mode,u,gamma", CASES)
    def test_mass_matched_from_crude_seeds(self, mode, u, gamma):
        model, _, N = self.target(mode, u, gamma)
        if mode == eos.MODE_HARD_SPHERE:
            assert np.any(gamma + u > eos.GAMMA_FS) and np.any(gamma + u < eos.GAMMA_FS)
        for seed in (np.full(u.size, 0.3), np.full(u.size, 0.01)):
            g, eta = phase._gamma_for_mass(model, self.D, u, N, seed)
            mass = float(self.D @ np.asarray(model.wp_prime(g + u)))
            assert abs(mass - N) <= 1e-9 * N
            assert abs(float(self.D @ eta) - N) <= 1e-9 * N
            assert g == pytest.approx(gamma, abs=1e-9)

    @pytest.mark.parametrize("mode,u,gamma", CASES)
    def test_seed_holding_the_mass_costs_at_most_two_inversions(
        self, mode, u, gamma, monkeypatch
    ):
        model, eta, N = self.target(mode, u, gamma)
        calls = []
        wp_prime = eos.EosModel.wp_prime

        def counted(self, *args, **kwargs):
            calls.append(args)
            return wp_prime(self, *args, **kwargs)

        monkeypatch.setattr(eos.EosModel, "wp_prime", counted)
        g, held = phase._gamma_for_mass(model, self.D, u, N, eta)
        assert len(calls) <= 2
        assert g == pytest.approx(gamma, abs=1e-9)
        assert abs(float(self.D @ held) - N) <= 1e-9 * N

    @pytest.mark.parametrize("mode,u,gamma", CASES)
    def test_unreachable_targets_raise(self, mode, u, gamma):
        model, eta, _ = self.target(mode, u, gamma)
        volume = float(np.sum(self.D))
        # below a density of 1e-12 everywhere; for the fluid modes, above eta = 1
        targets = [1e-14 * volume]
        if mode != eos.MODE_IDEAL_GAS:
            targets.append(volume)
        for N in targets:
            with pytest.raises(ValueError, match="outside the gamma window"):
                phase._gamma_for_mass(model, self.D, u, N, eta)

    def test_mass_in_the_freezing_gap_raises_with_names(self):
        # at a constant potential every lane jumps from fluid 0.494 to
        # solid 0.545 at gamma_fs, so a mean fraction of 0.52 has no profile
        model = eos.EosModel(mode=eos.MODE_HARD_SPHERE)
        N = 0.52 * float(np.sum(self.D))
        with pytest.raises(RuntimeError, match=(
                rf"cannot be matched .*: N {N!r}, last gamma 15\.2\d*, mass gap \d")):
            phase._gamma_for_mass(model, self.D, np.zeros(self.D.size), N,
                                  np.full(self.D.size, 0.3))


def assert_middle_is_a_lower_saddle(tr, domain):
    """Newton from the uniform middle root at gamma_gl converges to a third
    solution whose pressure lies below the equal P(gas) = P(liquid)."""
    roots = uniform.solve_uniform(100.0 * PHI_Y_HALF, tr.gamma_gl).roots
    assert len(roots) == 3
    middle = field.newton_solve(SPEC_Y, 100.0, tr.gamma_gl,
                                field.constant_field(domain, roots[1]), model=EXT)
    assert middle.residual < 1e-8
    for point in (tr.gas, tr.liquid):
        assert np.max(np.abs(middle.field.values
                             - point.solution.field.values)) > 1e-6
    P = functionals.pressure_functional(SPEC_Y, 100.0, tr.gamma_gl,
                                        middle.field, model=EXT)
    assert P < min(tr.gas.functionals.P, tr.liquid.functionals.P)


class TestGrandTransition:
    def test_small_container(self, dom_small):
        tr = phase.grand_canonical_transition(
            SPEC_Y, 100.0, dom_small, (-22.0, -14.0), model=EXT,
        )
        assert tr.gas.gamma == tr.gamma_gl
        assert tr.liquid.gamma == tr.gamma_gl
        scale = max(1.0, abs(tr.gas.functionals.P))
        assert abs(tr.gas.functionals.P - tr.liquid.functionals.P) < 1e-8 * scale
        assert tr.delta_N > 0
        # the uniform middle root relaxes to a saddle with lower pressure
        assert_middle_is_a_lower_saddle(tr, dom_small)
        lo, hi = uniform.gamma_boundaries(100.0 * PHI_Y_HALF)
        assert lo < tr.gamma_gl < hi

    def test_no_dense_matrix_above_the_gate(self, monkeypatch):
        # the transition solves only the launches, which apply the
        # structured ring operator at n=1024: no Newton solve, no n x n array
        calls = []
        newton_solve = field.newton_solve

        def spy(*args, **kwargs):
            calls.append(args)
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr(field, "newton_solve", spy)
        dom = field.make_domain(0.5, n=1024)
        phase.grand_canonical_transition(
            SPEC_Y, 100.0, dom, (-22.0, -14.0), model=EXT,
        )
        assert calls == []
        assert list(dom._rings) == [(SPEC_Y, True)]
        assert isinstance(dom._rings[SPEC_Y, True], field.RingOperator)

    def test_dense_consumers_above_the_gate(self, dom_small):
        # at n=1024 the launches apply the structured ring operator, while
        # a Newton solve from the middle root and f_stability take the
        # dense matrix; the small ball is resolved at n=256 already
        dom = field.make_domain(0.5, n=1024)
        tr = phase.grand_canonical_transition(
            SPEC_Y, 100.0, dom, (-22.0, -14.0), model=EXT,
        )
        assert isinstance(field._self_ring(SPEC_Y, dom), field.RingOperator)
        coarse = phase.grand_canonical_transition(
            SPEC_Y, 100.0, dom_small, (-22.0, -14.0), model=EXT,
        )
        assert tr.gamma_gl == pytest.approx(coarse.gamma_gl, abs=1e-10)
        assert tr.delta_N == pytest.approx(coarse.delta_N, rel=1e-10)
        assert_middle_is_a_lower_saddle(tr, dom)
        for point in (tr.gas, tr.liquid):
            fld = point.solution.field
            assert functionals.p_stability(SPEC_Y, 100.0, tr.gamma_gl, fld,
                                           model=EXT).label == "stable"
            assert functionals.f_stability(SPEC_Y, 100.0, fld).label == "stable"

    def test_crossing_slope_is_the_mass_jump(self, dom_small):
        # dP/dgamma = N on each branch, so the gap's slope that the
        # locator's Newton steps take is N_max - N_min
        launch = phase._launch_memo(SPEC_Y, 100.0, dom_small, EXT)
        D = functionals.volume_weights(dom_small)
        g, h = -18.0, 1e-4
        _, _, lo, hi = launch(g)
        slope = float(D @ (hi.field.values - lo.field.values))
        difference = (launch(g + h)[0] - launch(g - h)[0]) / (2.0 * h)
        assert difference == pytest.approx(slope, rel=1e-5)

    def test_moderate_container(self, dom15):
        tr = phase.grand_canonical_transition(
            SPEC_Y, ALPHA_31, dom15, (-4.70, -4.50), model=EXT,
        )
        assert -4.70 < tr.gamma_gl < -4.50
        assert tr.delta_N > 0
        assert tr.gas.functionals.N < tr.liquid.functionals.N

    def test_coincident_bracket_rejected(self, dom15):
        # the launches coincide at both ends, so no Newton can start
        with pytest.raises(ValueError, match="no pressure-gap sign change") as excinfo:
            phase.grand_canonical_transition(
                SPEC_Y, ALPHA_31, dom15, (-5.30, -5.10), model=EXT,
            )
        gaps = named_inputs(excinfo, ALPHA_31, dom15, (-5.30, -5.10))
        assert max(map(abs, gaps)) < 1e-8

    def test_one_signed_bracket_rejected(self, dom15):
        with pytest.raises(ValueError, match="sign") as excinfo:
            phase.grand_canonical_transition(
                SPEC_Y, ALPHA_31, dom15, (-4.45, -4.30), model=EXT,
            )
        gaps = named_inputs(excinfo, ALPHA_31, dom15, (-4.45, -4.30))
        for g, gap in zip((-4.45, -4.30), gaps):
            cold = phase._launch_gap(SPEC_Y, ALPHA_31, g, dom15, EXT)[0]
            assert gap == pytest.approx(cold, rel=1e-6)
        assert min(gaps) > 0.0

    def test_coincident_low_end_is_passed_over(self):
        # the launches coincide at -4.75, so the Newton starts from the
        # top end and retreats out of the coincident stretch; it finds the
        # crossing that a sub-bracket with distinct ends of opposite sign
        # gives.  delta_N agrees to the launches' tolerance only: the two
        # calls warm-start the pair at gamma_gl from different neighbours
        dom = field.make_domain(15.0, n=64)
        assert phase._launch_gap(SPEC_Y, ALPHA_31, -4.75, dom, EXT)[1] < phase._DISTINCT
        sub_bracket = (-4.675, -4.6375)
        gaps = [phase._launch_gap(SPEC_Y, ALPHA_31, g, dom, EXT)[:2] for g in sub_bracket]
        assert min(sep for _, sep in gaps) >= phase._DISTINCT
        assert gaps[0][0] < 0.0 < gaps[1][0]
        tr = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, (-4.75, -4.45), model=EXT)
        sub = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, sub_bracket, model=EXT)
        assert tr.gamma_gl == pytest.approx(sub.gamma_gl, rel=1e-12)
        assert tr.delta_N == pytest.approx(sub.delta_N, rel=1e-8)
        again = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, (-4.75, -4.45), model=EXT)
        assert (again.gamma_gl, again.delta_N) == (tr.gamma_gl, tr.delta_N)
        for name in ("gas", "liquid"):
            assert np.array_equal(getattr(again, name).solution.field.values,
                                  getattr(tr, name).solution.field.values)

    def test_each_gamma_launched_once(self, dom_small, monkeypatch):
        # the top end is launched first; the root finder starts there and
        # every launch is a gamma it evaluates, the low end only if asked
        asked = set()  # what the root finder evaluates
        root_finder = phase._newton_on_gamma

        def recording_root_finder(evaluate, gamma, window, *args, **kwargs):
            def objective(g):
                asked.add(float(g))
                return evaluate(g)

            return root_finder(objective, gamma, window, *args, **kwargs)

        launched = record_launches(monkeypatch)
        monkeypatch.setattr(phase, "_newton_on_gamma", recording_root_finder)
        phase.grand_canonical_transition(
            SPEC_Y, 100.0, dom_small, (-22.0, -14.0), model=EXT,
        )
        gammas = [g for branch, g, _ in launched if branch == "maximal"]
        assert gammas[0] == -14.0
        assert len(gammas) == len(set(gammas))
        assert set(gammas) == asked

    def test_grand_r30_never_launches_the_low_end(self, monkeypatch):
        # the Newton from the top end never reaches -4.88, next to the
        # liquid spinodal, and finds the crossing that a sub-bracket with
        # distinct ends of opposite sign gives
        dom = field.make_domain(30.0, n=256)
        sub_bracket = (-4.85, -4.845)
        gaps = [phase._launch_gap(SPEC_Y, ALPHA_31, g, dom, EXT)[:2] for g in sub_bracket]
        assert min(sep for _, sep in gaps) >= phase._DISTINCT
        assert gaps[0][0] < 0.0 < gaps[1][0]
        sub = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, sub_bracket, model=EXT)
        launched = record_launches(monkeypatch)
        tr = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, (-4.88, -4.15), model=EXT)
        gammas = [g for branch, g, _ in launched if branch == "maximal"]
        assert gammas[0] == -4.15 and -4.88 not in gammas
        assert tr.gamma_gl == pytest.approx(sub.gamma_gl, rel=1e-12)

    def test_coincident_top_end_falls_back_to_the_low_end(self, monkeypatch):
        # the launches coincide at -3.9, so the Newton starts from the low
        # end, launched second, and finds the sub-bracket's crossing
        dom = field.make_domain(15.0, n=64)
        assert phase._launch_gap(SPEC_Y, ALPHA_31, -3.9, dom, EXT)[1] < phase._DISTINCT
        sub = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, (-4.675, -4.6375),
                                               model=EXT)
        launched = record_launches(monkeypatch)
        tr = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, (-4.675, -3.9), model=EXT)
        gammas = [g for branch, g, _ in launched if branch == "maximal"]
        assert gammas[:2] == [-3.9, -4.675]
        assert len(gammas) == len(set(gammas))
        assert tr.gamma_gl == pytest.approx(sub.gamma_gl, rel=1e-12)

    def test_gap_left_open_raises_with_names(self, monkeypatch):
        # a Newton allowed one evaluation stops at the top end, whose
        # pressure gap is far from closed
        dom = field.make_domain(15.0, n=64)
        newton = phase._newton_on_gamma

        def one_step(evaluate, gamma, window, ftol, xtol, message, steps, *rest):
            return newton(evaluate, gamma, window, ftol, xtol, message, 1, *rest)

        monkeypatch.setattr(phase, "_newton_on_gamma", one_step)
        with pytest.raises(RuntimeError, match="pressure gap at the located crossing "
                                               "is too wide") as excinfo:
            phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, (-4.75, -4.45), model=EXT)
        at, gap = named_point(excinfo, ALPHA_31, dom, (-4.75, -4.45))
        assert at == -4.45
        assert gap == pytest.approx(phase._launch_gap(SPEC_Y, ALPHA_31, at, dom, EXT)[0],
                                    rel=1e-6)

    def test_launch_out_of_steps_is_stepped_back_from(self, monkeypatch):
        # the pair launched at the first Newton step's gamma cannot finish;
        # the Newton retreats halfway to the top end, its last good gamma,
        # and locates the crossing it locates with every launch finishing
        dom = field.make_domain(15.0, n=64)
        ends = (-4.75, -4.45)
        launched = record_launches(monkeypatch)
        plain = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, ends, model=EXT)
        first_step = [g for branch, g, _ in launched if branch == "maximal"][1]
        asked = []
        pairs = field.extremal_pairs

        def stalling(spec, alpha, gammas, *args, **kwargs):
            asked.append(float(gammas[0]))
            if asked[-1] == first_step:
                raise field.NoConvergence(f"no convergence within 20000 iterations: last "
                                          f"gamma {first_step!r}")
            return pairs(spec, alpha, gammas, *args, **kwargs)

        monkeypatch.setattr(field, "extremal_pairs", stalling)
        tr = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, ends, model=EXT)
        assert asked[:3] == [-4.45, first_step, 0.5 * (first_step - 4.45)]
        assert abs(tr.gamma_gl - plain.gamma_gl) <= 1e-12 + 8.9e-16 * abs(plain.gamma_gl)
        assert tr.delta_N > 0.0

    @pytest.mark.slow
    def test_large_container_limit(self):
        # the finite-container transition approaches the algebraic
        # coexistence point from above as the container grows
        gamma_alg = uniform.coexistence_gamma(31.0)
        cases = [
            (20.0, 256, (-4.80, -4.65)),
            (40.0, 384, (-4.90, -4.82)),
            (80.0, 512, (-4.965, -4.955)),
        ]
        gaps = []
        for R, n, bracket in cases:
            dom = field.make_domain(R, n=n)
            tr = phase.grand_canonical_transition(
                SPEC_Y, ALPHA_31, dom, bracket, model=EXT,
            )
            assert tr.delta_N > 0
            gaps.append(tr.gamma_gl - gamma_alg)
        assert gaps[0] > gaps[1] > gaps[2] > 0


@pytest.mark.parametrize("ends", [(-40.0, -4.45), (-4.75, 1e40)])
@pytest.mark.parametrize("locator", ["grand", "petit"])
def test_bracket_outside_the_eos_range_is_named_before_any_launch(
        ends, locator, monkeypatch):
    # either end outside model.gamma_range() is refused with the inputs
    # named, before any fixed-point launch, by both locators
    dom = field.make_domain(15.0, n=64)

    def launch(*args):
        raise AssertionError("launched")

    monkeypatch.setattr(field, "_fixed_point", launch)
    lo, hi = EXT.gamma_range()
    message = (f"gamma bracket [{ends[0]!r}, {ends[1]!r}] leaves the EOS range "
               f"[{lo!r}, {hi!r}] (alpha {ALPHA_31!r}, R 15.0, n 64)")
    with pytest.raises(ValueError) as excinfo:
        if locator == "grand":
            phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, ends, model=EXT)
        else:
            phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, model=EXT,
                                             gamma_bracket=ends)
    assert str(excinfo.value) == message


class TestDefaultBand:
    """Without a gamma bracket the locator searches the algebraic band.

    At R=30 the band's low end lies where the launches coincide, and the
    crossing sits in a narrow stretch of negative gap next to the low
    edge of the window of distinct launches.  Oracle: the crossing
    located between the two neighbours of a 161-point scan of the band
    whose gaps change sign.
    """

    @pytest.fixture(scope="class")
    def dom30(self):
        return field.make_domain(30.0, n=256)

    @pytest.mark.parametrize("alpha_l1,scan_bracket", [
        (30.0, (-4.6815, -4.6731)),
        (60.0, (-11.167, -11.099)),
    ])
    def test_crossing_matches_the_dense_scan(self, dom30, alpha_l1, scan_bracket):
        alpha = alpha_l1 / L1_Y
        low = phase._launch_gap(SPEC_Y, alpha, uniform.gamma_boundaries(alpha_l1)[0] + 1e-6,
                                dom30, EXT)
        assert low[1] < phase._DISTINCT
        ends = [phase._launch_gap(SPEC_Y, alpha, g, dom30, EXT)[:2] for g in scan_bracket]
        assert min(sep for _, sep in ends) >= phase._DISTINCT
        assert ends[0][0] < 0.0 < ends[1][0]
        tr = phase.grand_canonical_transition(SPEC_Y, alpha, dom30, model=EXT)
        oracle = phase.grand_canonical_transition(SPEC_Y, alpha, dom30, scan_bracket, model=EXT)
        assert tr.gamma_gl == pytest.approx(oracle.gamma_gl, rel=1e-12)

    def test_band_is_clamped_to_the_invertible_range(self, dom30):
        # above alpha l1 of about 90 the band's low end lies below the
        # EOS floor; the locator starts from the floor instead
        floor = EXT.gamma_range()[0]
        assert uniform.gamma_boundaries(100.0)[0] < floor
        tr = phase.grand_canonical_transition(SPEC_Y, 100.0 / L1_Y, dom30, model=EXT)
        assert floor < tr.gamma_gl < uniform.gamma_boundaries(100.0)[1]
        assert tr.delta_N > 0.0

    def test_crossing_below_the_invertible_range_is_named(self, dom30):
        # at alpha l1 = 120 the gap stays positive down to the EOS floor
        alpha = 120.0 / L1_Y
        g_check, g_hat = uniform.gamma_boundaries(120.0)
        floor = EXT.gamma_range()[0]
        assert g_check < floor
        with pytest.raises(ValueError, match="no pressure-gap sign change") as excinfo:
            phase.grand_canonical_transition(SPEC_Y, alpha, dom30, model=EXT)
        gaps = named_inputs(excinfo, alpha, dom30, (floor + 1e-6, g_hat - 1e-6))
        assert min(gaps) > 0.0

    @pytest.mark.slow
    def test_large_ball(self):
        dom = field.make_domain(160.0, n=256)
        tr = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, model=EXT)
        assert uniform.gamma_boundaries(31.0)[0] < tr.gamma_gl < uniform.gamma_boundaries(31.0)[1]
        assert tr.delta_N > 0.0


class TestWarmLaunches:
    """The locator's memo starts each launch from the nearest gamma solved on its side.

    Oracle: the cold launch at each gamma.  By comparison the minimal
    solution at a lower gamma lies below the minimal solution here and
    the maximal one at a higher gamma above the maximal one here, so a
    warm launch ends at the same extremal solution with the same labels.
    """

    LADDERS = {
        "small": (100.0, [-22.0, -19.0, -18.0, -17.0, -14.0]),
        "15": (ALPHA_31, [-4.75, -4.68, -4.655, -4.6, -4.45]),
    }

    @staticmethod
    def orders(ladder):
        # ascending, descending, and inward from both ends as a bisection goes
        return [ladder, ladder[::-1], [ladder[i] for i in (0, 4, 2, 1, 3)]]

    @staticmethod
    def neighbours(launched, branch):
        """The gamma of every launch of branch and its neighbour's gamma, in order."""
        return [(g, near) for b, g, near in launched if b == branch]

    @staticmethod
    def assert_same_launch(warm, cold):
        assert np.max(np.abs(warm.field.values - cold.field.values)) <= 1e-9
        assert (warm.branch_label, warm.certification, warm.monotone_direction) == \
            (cold.branch_label, cold.certification, cold.monotone_direction)

    @pytest.mark.parametrize("case", list(LADDERS))
    def test_ladder_matches_cold_launches(self, case, dom_small, dom15, monkeypatch):
        dom = dom_small if case == "small" else dom15
        alpha, ladder = self.LADDERS[case]
        cold = {g: phase._launch_gap(SPEC_Y, alpha, g, dom, EXT) for g in ladder}
        launched = record_launches(monkeypatch)
        for order in self.orders(ladder):
            launched.clear()
            launch = phase._launch_memo(SPEC_Y, alpha, dom, EXT)
            for g in order:
                _, _, lo, hi = launch(g)
                self.assert_same_launch(lo, cold[g][2])
                self.assert_same_launch(hi, cold[g][3])
            # each launch started from the nearest gamma already solved on its side
            for i, g in enumerate(order):
                below = [x for x in order[:i] if x < g]
                above = [x for x in order[:i] if x > g]
                assert self.neighbours(launched, "minimal")[i] == \
                    (g, max(below) if below else None)
                assert self.neighbours(launched, "maximal")[i] == \
                    (g, min(above) if above else None)

    def test_launch_next_to_a_solved_gamma(self, dom15):
        # on grand-r30 the root finder's last two gammas lie 3.9e-12 apart
        launch = phase._launch_memo(SPEC_Y, ALPHA_31, dom15, EXT)
        for g in (-4.655, -4.655 + 4e-12, -4.655 - 4e-12):
            _, _, lo, hi = launch(g)
            _, _, cold_lo, cold_hi = phase._launch_gap(SPEC_Y, ALPHA_31, g, dom15, EXT)
            for warm, cold in ((lo, cold_lo), (hi, cold_hi)):
                assert np.max(np.abs(warm.field.values - cold.field.values)) <= 1e-9
                assert (warm.branch_label, warm.certification) == \
                    (cold.branch_label, cold.certification)

    def test_unfit_maximal_neighbours_start_cold(self, dom5, monkeypatch):
        # hard-sphere mode at alpha Phi = 45: the freezing fraction is the
        # ceiling up to gamma -6.84, above it the middle algebraic root,
        # which falls as gamma rises; a neighbour across that edge has
        # another certification, one above it a lower ceiling
        alpha, hs = 45.0 / PHI_Y5, eos.EosModel()
        ladder = [-5.5, -6.0, -7.0, -7.5]
        launched = record_launches(monkeypatch)
        launch = phase._launch_memo(SPEC_Y, alpha, dom5, hs)
        pairs = [launch(g) for g in ladder]
        assert self.neighbours(launched, "maximal") == [(-5.5, None), (-6.0, None), (-7.0, None), (-7.5, -7.0)]
        certifications = [p[3].certification for p in pairs]
        assert certifications == ["algebraic-ceiling"] * 2 + ["fluid-ceiling"] * 2
        for g, (_, _, lo, hi) in zip(ladder, pairs):
            cold = phase._launch_gap(SPEC_Y, alpha, g, dom5, hs)
            self.assert_same_launch(lo, cold[2])
            self.assert_same_launch(hi, cold[3])


class TestPressureCrossingBracket:
    def test_sub_bracket_has_distinct_launches_and_sign_change(self):
        dom = field.make_domain(0.5, n=64)
        lo, hi = phase.pressure_crossing_bracket(
            SPEC_Y, 100.0, dom, (-22.0, -14.0), model=EXT,
        )
        assert -22.0 <= lo < hi <= -14.0
        gaps = []
        for g in (lo, hi):
            gas = field.minimal_solution(SPEC_Y, 100.0, g, dom, model=EXT)
            liquid = field.maximal_solution(SPEC_Y, 100.0, g, dom, model=EXT)
            assert np.max(np.abs(liquid.field.values - gas.field.values)) >= 1e-7
            gaps.append(
                functionals.pressure_functional(
                    SPEC_Y, 100.0, g, liquid.field, model=EXT)
                - functionals.pressure_functional(
                    SPEC_Y, 100.0, g, gas.field, model=EXT)
            )
        assert (gaps[0] < 0.0) != (gaps[1] < 0.0)

    def test_coincident_launches_rejected(self):
        dom = field.make_domain(15.0, n=64)
        with pytest.raises(ValueError, match="no pressure-gap sign change") as excinfo:
            phase.pressure_crossing_bracket(
                SPEC_Y, ALPHA_31, dom, (-5.30, -5.10), model=EXT,
            )
        gaps = named_inputs(excinfo, ALPHA_31, dom, (-5.30, -5.10))
        assert max(map(abs, gaps)) < 1e-8


@pytest.fixture(scope="module")
def transition(dom15):
    return phase.petit_canonical_transition(
        SPEC_Y, ALPHA_31, dom15,
        N_bracket=(0.93 * N_HAT_15, N_HAT_15),
        model=EXT, gamma_bracket=(-4.75, -4.45),
    )


class TestPetitTransition:
    def test_equal_free_energy(self, transition):
        fv, fd = transition.vapor.functionals.F, transition.droplet.functionals.F
        assert abs(fv - fd) < 1e-8 * max(1.0, abs(fv))
        assert transition.vapor.functionals.N == pytest.approx(
            transition.N_vd, rel=1e-6)
        assert transition.droplet.functionals.N == pytest.approx(
            transition.N_vd, rel=1e-6)

    def test_gamma_jumps_down(self, transition):
        assert transition.delta_Gamma < -0.1

    def test_energy_and_entropy_jump_down(self, transition):
        assert transition.delta_E < 0
        assert transition.delta_S < 0

    def test_embedded_in_grand_interval(self, transition):
        assert transition.embedding_ok
        n_gas = transition.gas.functionals.N
        n_liq = transition.liquid.functionals.N
        assert n_gas <= transition.N_vd < n_liq
        assert -4.75 < transition.gamma_gl < -4.45

    def test_rearrangement_crossings(self, transition):
        assert transition.crossings == 1

    @pytest.mark.slow
    def test_r80_band_bracket(self):
        # at R=80 the vapor mass matches run next to the vapor fold, each
        # from the mass-bordered Newton solve off the vapor before it
        dom = field.make_domain(80.0, n=256)
        tr = phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, model=EXT,
                                              gamma_bracket=(-4.965, -4.955))
        assert tr.N_vd == pytest.approx(27430.744063677765, rel=1e-9)
        assert tr.embedding_ok
        assert tr.crossings == 1

    def test_requires_droplet_regime(self, dom15):
        with pytest.raises(ValueError):
            phase.petit_canonical_transition(
                SPEC_Y, 23.0 / L1_Y, dom15, N_bracket=(100.0, 200.0), model=EXT,
            )

    def test_no_crossing_in_bracket(self, dom15):
        # both endpoints sit below the droplet branch, so the gap
        # keeps the collapse sign at both ends
        N_bracket = (0.35 * N_HAT_15, 0.60 * N_HAT_15)
        message = "free-energy gap does not change sign"
        with pytest.raises(ValueError, match=message) as excinfo:
            phase.petit_canonical_transition(
                SPEC_Y, ALPHA_31, dom15, N_bracket=N_bracket,
                model=EXT, gamma_gl=-4.655291,
            )
        assert max(named_inputs(excinfo, ALPHA_31, dom15, N_bracket)) < 0.0

    def test_ghost_fold_launch_spends_at_most_one_failed_solve(self, dom15, monkeypatch):
        # the maximal launch at the bracket's low end slides through a
        # ghost fold: its changes fall slowly at ratios rising to 0.99,
        # then fast.  The finish fires on the slide, its Newton solve
        # fails, and Picard finishes alone, uncertified by Newton
        solves, failed = [], []
        real = field._newton

        def spy(*args):
            solves.append(args)
            try:
                return real(*args)
            except RuntimeError:
                failed.append(args)
                raise

        monkeypatch.setattr(field, "_newton", spy)
        report = field.maximal_solution(SPEC_Y, ALPHA_31, -4.75, dom15, model=EXT)
        assert len(solves) <= 1 and len(failed) == len(solves)
        monkeypatch.setattr(field._NewtonFinish, "__call__", lambda self, *args: None)
        plain = field.maximal_solution(SPEC_Y, ALPHA_31, -4.75, dom15, model=EXT)
        assert np.array_equal(report.field.values, plain.field.values)
        assert report.iterations == plain.iterations
        assert (report.branch_label, report.certification) == \
            (plain.branch_label, plain.certification)


class TestFinishTraffic:
    """How often the benchmark transitions solve, certify and iterate.

    The grand transition on grand-r30's inputs and the petit transition
    on petit-r15's: Newton solves, Jacobian solves, contraction-bound
    checks and fixed-point steps (every launch's reported iterations,
    Newton steps included).  A finish priced too high or too low moves
    these counts before it moves any timing.
    """

    @staticmethod
    def _counted(monkeypatch, run):
        count = dict.fromkeys(("newton", "solve", "bound", "steps"), 0)
        newton, solve, bound = field._newton, field._Attraction.solve, field._contraction_bound
        fixed_point = field._fixed_point

        def newton_spy(*args, **kwargs):
            count["newton"] += 1
            return newton(*args, **kwargs)

        def solve_spy(self, *args, **kwargs):
            count["solve"] += 1
            return solve(self, *args, **kwargs)

        def bound_spy(*args):
            count["bound"] += 1
            return bound(*args)

        def fixed_point_spy(*args, **kwargs):
            out = fixed_point(*args, **kwargs)
            count["steps"] += sum(report.iterations for report, _ in out)
            return out

        monkeypatch.setattr(field, "_newton", newton_spy)
        monkeypatch.setattr(field._Attraction, "solve", solve_spy)
        monkeypatch.setattr(field, "_contraction_bound", bound_spy)
        monkeypatch.setattr(field, "_fixed_point", fixed_point_spy)
        run()
        return count

    def test_grand_r30(self, monkeypatch):
        count = self._counted(monkeypatch, lambda: phase.grand_canonical_transition(
            SPEC_Y, ALPHA_31, field.make_domain(30.0, n=256), (-4.88, -4.15), model=EXT))
        # the Newton starts from the top end, so the 157-step maximal
        # launch at -4.88 and its certificate checks are not run
        assert (count["newton"], count["solve"], count["bound"]) == (6, 19, 6)
        assert count["steps"] <= 170

    def test_petit_r15(self, monkeypatch):
        count = self._counted(monkeypatch, lambda: phase.petit_canonical_transition(
            SPEC_Y, ALPHA_31, field.make_domain(15.0, n=64),
            N_bracket=(0.965 * N_HAT_15, 0.968 * N_HAT_15),
            model=EXT, gamma_gl=-4.655290873521921))
        # 5 of the Newton solves are droplets' bordered finishes, fired at arming
        # (the first, from the ball trial, takes 4 Jacobian solves), 5 are the
        # vapor mass matches' bordered solves, of 5, 3, 2, 1 and 1 steps, and 2
        # finish the gas/liquid pair at gamma_gl; each vapor is its bordered
        # profile, certified, with no launch, so the 7 bounds are those 5
        # certificates and the pair's 2 finishes
        assert (count["newton"], count["bound"]) == (12, 7)
        assert count["solve"] <= 32 and count["steps"] <= 66


def test_van_der_waals_transition_agrees_across_grids():
    # a van der Waals grand transition (R=15, alpha*l1 = 31, default
    # band) at n=256 and n=512: the grids resolve the same delta_N, and
    # neither keeps the tail error of a slow launch left to plain Picard
    spec = kernels.KernelSpec(a_w=1.0, varkappa=1.0)
    alpha = 31.0 / kernels.l1_norm_r3(spec)
    coarse, fine = (phase.grand_canonical_transition(
        spec, alpha, field.make_domain(15.0, n=n), model=EXT).delta_N for n in (256, 512))
    assert abs(fine - coarse) <= 1e-12 * abs(coarse)


def test_mass_slope_forms_one_matrix():
    # I - diag(c) alpha M is never formed as eye(n) - c alpha M: on top of
    # the attraction's dense ring, formed before the trace, one slope at
    # n=512 holds at most one n x n array (the LU path's workspace; this
    # Yukawa slope is eliminated through G^-1 and holds none), where it held two
    n = 512
    dom = field.make_domain(30.0, n=n)
    attraction = field._Attraction(SPEC_Y, ALPHA_31, dom)
    assert attraction.dense.shape == (n, n)
    v, D = np.linspace(0.01, 0.3, n), functionals.volume_weights(dom)
    tracemalloc.start()
    try:
        slope = phase._mass_slope(EXT, attraction, D, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(slope)
    assert peak < 1.5 * n * n * 8


def test_mass_match_forms_no_dense_matrix_above_the_gate(monkeypatch):
    # at n=1024 the vapor's mass slopes are eliminated through G^-1 from the
    # ring operator's panel blocks: the whole mass match, the operator's build
    # included, traces less than one n x n array
    n = 1024
    gas = field.minimal_solution(SPEC_Y, 100.0, -10.0, field.make_domain(0.5, n=n), model=EXT)
    N = 1.01 * total_mass(gas.field.domain, gas.field)
    slopes = []
    mass_slope = phase._mass_slope

    def spy(model, attraction, D, v):
        slopes.append(attraction.structured)
        return mass_slope(model, attraction, D, v)

    monkeypatch.setattr(phase, "_mass_slope", spy)
    dom = field.make_domain(0.5, n=n)
    tracemalloc.start()
    try:
        point = phase.constrained_solve(SPEC_Y, 100.0, dom, N, model=EXT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slopes and all(slopes)
    assert abs(point.functionals.N - N) <= 1e-9  # the mass rule, 1e-9 max(1, N)
    assert peak < n * n * 8


def test_newton_solve_forms_no_dense_matrix_above_the_gate():
    # a unit-Yukawa Newton solve at n=1024 from the middle uniform root:
    # its residuals apply alpha M by the ring operator, built before the
    # trace, and its steps are eliminated through G^-1, so the whole solve
    # traces less than one n x n array
    n, gamma = 1024, -18.0
    dom = field.make_domain(0.5, n=n)
    assert isinstance(field._self_ring(SPEC_Y, dom), field.RingOperator)
    roots = uniform.solve_uniform(100.0 * PHI_Y_HALF, gamma).roots
    assert len(roots) == 3
    tracemalloc.start()
    try:
        middle = field.newton_solve(SPEC_Y, 100.0, gamma, field.constant_field(dom, roots[1]),
                                    model=EXT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert middle.residual < 1e-12
    assert peak < n * n * 8


class TestPetitLaunchesAtGammaGl:
    """petit_canonical_transition given gamma_gl launches the pair there once."""

    def test_pair_launched_once_and_vapor_at_gas_mass_is_the_gas(self, monkeypatch):
        dom = field.make_domain(15.0, n=64)
        bracket = phase.pressure_crossing_bracket(
            SPEC_Y, ALPHA_31, dom, (-4.75, -4.45), model=EXT)
        gt = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, bracket, model=EXT)
        launched = record_launches(monkeypatch)
        result = phase.petit_canonical_transition(
            SPEC_Y, ALPHA_31, dom, model=EXT, gamma_gl=gt.gamma_gl)
        at_gl = sorted(branch for branch, g, _ in launched if g == gt.gamma_gl)
        assert at_gl == ["maximal", "minimal"]
        assert result.gamma_gl == gt.gamma_gl
        # petit runs the pair cold, bit for bit; the locator warm-started
        # gt's pair from launches at nearby gammas, which lands on the
        # same extremal solutions to the launches' tolerance
        _, _, lo, hi = phase._launch_gap(SPEC_Y, ALPHA_31, gt.gamma_gl, dom, EXT)
        for name, cold in (("gas", lo), ("liquid", hi)):
            got = getattr(result, name).solution.field.values
            assert np.array_equal(got, cold.field.values)
            warm = getattr(gt, name).solution.field.values
            assert np.max(np.abs(got - warm)) <= 1e-9


class TestVaporSeed:
    """Each vapor mass match of one petit transition starts from the vapor solved before it."""

    # petit-r15's inputs
    KWARGS = dict(N_bracket=(0.965 * N_HAT_15, 0.968 * N_HAT_15), model=EXT,
                  gamma_gl=-4.655290873521921)

    @staticmethod
    def launches(monkeypatch):
        launched = []
        real = field.minimal_solution

        def spy(spec, alpha, gamma, *args, **kwargs):
            launched.append(float(gamma))
            return real(spec, alpha, gamma, *args, **kwargs)

        monkeypatch.setattr(field, "minimal_solution", spy)
        return launched

    @staticmethod
    def mass_match_evaluations(monkeypatch):
        """The gammas each constrained_solve's Newton evaluates, one list per call."""
        calls = []
        root_finder = phase._newton_on_gamma

        def recording_root_finder(evaluate, *args):
            if not args[4].startswith("N_target"):  # not a mass match
                return root_finder(evaluate, *args)
            calls.append([])

            def objective(g):
                calls[-1].append(float(g))
                return evaluate(g)

            return root_finder(objective, *args)

        monkeypatch.setattr(phase, "_newton_on_gamma", recording_root_finder)
        return calls

    def test_no_gamma_launched_twice(self, monkeypatch):
        dom = field.make_domain(15.0, n=64)
        launched = self.launches(monkeypatch)
        phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, **self.KWARGS)
        assert len(launched) == len(set(launched))

    def test_vapors_equal_cold_launches(self, monkeypatch):
        # each vapor, read off its bordered solve, lies within 1e-9 (sup
        # norm) of the cold launch at its gamma, and holds its target mass
        # to 1e-12 relative, where a launch holds it only to 1e-9: the vapor
        # at the crossing holds N_vd as the droplet does, so the F gap the
        # locator closes compares F at one mass
        dom = field.make_domain(15.0, n=64)
        vapors = []
        real = phase.constrained_solve

        def spy(*args, **kwargs):
            vapors.append((args[3], real(*args, **kwargs)))
            return vapors[-1][1]

        monkeypatch.setattr(phase, "constrained_solve", spy)
        result = phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, **self.KWARGS)
        assert len(vapors) >= 2 and any(p is result.vapor for _, p in vapors)
        for point in (result.vapor, result.droplet):
            assert abs(point.functionals.N - result.N_vd) <= 1e-12 * result.N_vd
        for N, point in vapors:
            cold = field.minimal_solution(SPEC_Y, ALPHA_31, point.gamma, dom, model=EXT)
            assert np.max(np.abs(point.solution.field.values - cold.field.values)) <= 1e-9
            assert abs(point.functionals.N - N) <= 1e-12 * N
            assert point.solution.residual < field._RESIDUAL_TOL
            assert (point.solution.branch_label, point.solution.monotone_direction) == \
                ("minimal", "up")

    @staticmethod
    def bordered_gamma(dom, seed, N):
        """The gamma of the mass-bordered Newton solve from seed = (gamma, report) to mass N."""
        return field._newton(field._Attraction(SPEC_Y, ALPHA_31, dom), seed[0], EXT,
                             seed[1].field.values, field._NEWTON_TOL, field._NEWTON_STEPS,
                             border=(functionals.volume_weights(dom), N))[4]

    def direct_and_seed(self, monkeypatch):
        """An unseeded match at 0.966 N_HAT_15 on petit-r15's grid, its evaluations, and a seed.

        Returns (dom, N, direct, evaluated, seed, calls, launched), the
        seed the cold launch at the direct match's first gamma; calls
        and launched record from here on.
        """
        dom = field.make_domain(15.0, n=64)
        N = 0.966 * N_HAT_15
        calls = self.mass_match_evaluations(monkeypatch)
        launched = self.launches(monkeypatch)
        direct = phase.constrained_solve(SPEC_Y, ALPHA_31, dom, N, model=EXT)
        [evaluated] = calls
        assert launched == evaluated and len(launched) >= 2
        seed = (evaluated[0], field.minimal_solution(SPEC_Y, ALPHA_31, evaluated[0], dom,
                                                     model=EXT))
        calls.clear()
        launched.clear()
        return dom, N, direct, evaluated, seed, calls, launched

    def test_direct_solve_launches_at_every_evaluation(self, monkeypatch):
        # without a seed each Newton evaluation launches; seeded with the
        # cold launch at its first gamma, the solve reads the seed first,
        # evaluates the bordered solve's gamma second, certifies the
        # bordered profile there as the minimal solution and launches nowhere
        dom, N, direct, evaluated, seed, calls, launched = self.direct_and_seed(monkeypatch)
        bordered = self.bordered_gamma(dom, seed, N)
        seeded = phase.constrained_solve(SPEC_Y, ALPHA_31, dom, N, model=EXT, seed=seed)
        assert calls == [[evaluated[0], bordered]] and launched == []
        assert seeded.gamma == bordered
        cold = field.minimal_solution(SPEC_Y, ALPHA_31, seeded.gamma, dom, model=EXT)
        assert np.max(np.abs(seeded.solution.field.values - cold.field.values)) <= 1e-9
        assert abs(seeded.functionals.N - N) <= 1e-12 * N
        # the direct match holds the mass to 1e-9 N (4.4e-7), and N moves
        # about 1400 per unit gamma here: the two gammas read 1.0e-10 apart
        assert abs(seeded.gamma - direct.gamma) <= 1e-9

    def test_failed_bordered_solve_runs_the_plain_match(self, monkeypatch):
        # a bordered solve that raises leaves the match as it runs without
        # one: from the seed it evaluates the unseeded match's gammas,
        # launches at all but the seed's and gives the same bits
        dom, N, direct, evaluated, seed, calls, launched = self.direct_and_seed(monkeypatch)
        newton = field._newton

        def failing(*args, **kwargs):
            if kwargs.get("border") is not None:
                raise RuntimeError("bordered solve failed")
            return newton(*args, **kwargs)

        monkeypatch.setattr(field, "_newton", failing)
        seeded = phase.constrained_solve(SPEC_Y, ALPHA_31, dom, N, model=EXT, seed=seed)
        assert calls == [evaluated] and launched == evaluated[1:]
        assert seeded.gamma == direct.gamma
        assert np.array_equal(seeded.solution.field.values, direct.solution.field.values)
        assert seeded.functionals == direct.functionals

    @staticmethod
    def refusals(monkeypatch):
        """The conditions `field._certificate` fails on, None where it certifies, in call order."""
        failed = []
        real = field._certificate

        def spy(*args):
            out = real(*args)
            failed.append(None if out[0] is None else out[0][0])
            return out

        monkeypatch.setattr(field, "_certificate", spy)
        return failed

    def test_moved_bordered_profile_is_refused(self, monkeypatch):
        # a bordered profile moved 1e-6 off at the bordered gamma fails its
        # certificate on its residual, once, and the one match retreats
        # halfway toward the seed, its last good gamma, and steps on from
        # there by launches to the cold launch at the gamma it returns
        dom, N, direct, evaluated, seed, calls, launched = self.direct_and_seed(monkeypatch)
        newton = field._newton

        def moved(*args, **kwargs):
            eta, *rest = newton(*args, **kwargs)
            return (eta + 1e-6 if kwargs.get("border") is not None else eta, *rest)

        bordered = self.bordered_gamma(dom, seed, N)
        monkeypatch.setattr(field, "_newton", moved)
        failed = self.refusals(monkeypatch)
        seeded = phase.constrained_solve(SPEC_Y, ALPHA_31, dom, N, model=EXT, seed=seed)
        [evaluated_seeded] = calls
        assert evaluated_seeded[:3] == [seed[0], bordered, 0.5 * (bordered + seed[0])]
        assert evaluated_seeded.count(bordered) == 1 and seeded.gamma != bordered
        assert launched == evaluated_seeded[2:] and failed[0] == "residual"
        cold = field.minimal_solution(SPEC_Y, ALPHA_31, seeded.gamma, dom, model=EXT)
        assert np.array_equal(seeded.solution.field.values, cold.field.values)
        assert abs(seeded.functionals.N - N) <= phase._MASS_RTOL * N

    def test_certified_seeded_vapors_launch_nowhere(self, monkeypatch):
        # petit-r15's five vapors: each mass match certifies its bordered
        # profile, at the gamma it returns, and launches nowhere
        dom = field.make_domain(15.0, n=64)
        launched = self.launches(monkeypatch)
        failed = self.refusals(monkeypatch)
        per_match, vapors = [], []
        real = phase.constrained_solve

        def spy(*args, **kwargs):
            before = len(launched)
            vapors.append(real(*args, **kwargs))
            per_match.append(launched[before:])
            return vapors[-1]

        monkeypatch.setattr(phase, "constrained_solve", spy)
        phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, **self.KWARGS)
        assert len(vapors) == 5 and per_match == [[]] * 5
        assert failed and set(failed) == {None}

    def test_uncertified_bordered_profile_retreats_to_launches(self, monkeypatch):
        # next to the vapor fold of a large ball (R=320 on 64 nodes, a
        # coarse grid that keeps the test quick) the contraction bound over
        # [wp'(gamma), v*] is not below 1 (it reads 1.0013): the bordered
        # profile is refused, the match retreats halfway toward the seed and
        # returns the cold launch at its gamma, bit for bit
        dom = field.make_domain(320.0, n=64)
        gamma_hat = uniform.gamma_boundaries(ALPHA_31 * L1_Y)[1]
        top = total_mass(dom, field.minimal_solution(SPEC_Y, ALPHA_31, gamma_hat - 1e-9, dom,
                                                     model=EXT).field)
        point = phase.constrained_solve(SPEC_Y, ALPHA_31, dom, 0.99 * top, model=EXT)
        seed, N = (point.gamma, point.solution), 0.999 * top
        bordered = self.bordered_gamma(dom, seed, N)
        calls = self.mass_match_evaluations(monkeypatch)
        launched = self.launches(monkeypatch)
        failed = self.refusals(monkeypatch)
        seeded = phase.constrained_solve(SPEC_Y, ALPHA_31, dom, N, model=EXT, seed=seed)
        [evaluated] = calls
        assert evaluated[:3] == [seed[0], bordered, 0.5 * (bordered + seed[0])]
        assert failed[0] == "bound" and launched == evaluated[2:]
        cold = field.minimal_solution(SPEC_Y, ALPHA_31, seeded.gamma, dom, model=EXT)
        assert np.array_equal(seeded.solution.field.values, cold.field.values)
        assert abs(seeded.functionals.N - N) <= phase._MASS_RTOL * N

    def test_ideal_gas_is_never_certified(self):
        # the certificate's bound takes wp'' at its peak, which the ideal
        # gas's exponential lacks: its own minimal solution, handed over as
        # a bordered profile, is refused before any bound is formed
        dom, ideal = field.make_domain(15.0, n=64), eos.EosModel(mode=eos.MODE_IDEAL_GAS)
        alpha, gamma = 0.1 / L1_Y, -7.0
        cold = field.minimal_solution(SPEC_Y, alpha, gamma, dom, model=ideal)
        attraction = field._Attraction(SPEC_Y, alpha, dom)
        with pytest.raises(ValueError, match=r"^the bordered profile at gamma -7\.0 is not "
                                             r"certified minimal: the ideal gas"):
            phase._certified_vapor(attraction, ideal, gamma, cold.field.values, 0)

    def test_seed_at_its_own_mass_returns_without_launching(self, monkeypatch):
        dom = field.make_domain(15.0, n=64)
        N = 0.966 * N_HAT_15
        direct = phase.constrained_solve(SPEC_Y, ALPHA_31, dom, N, model=EXT)
        launched = self.launches(monkeypatch)
        again = phase.constrained_solve(SPEC_Y, ALPHA_31, dom, direct.functionals.N,
                                        model=EXT, seed=(direct.gamma, direct.solution))
        assert launched == []
        assert again.gamma == direct.gamma and again.solution is direct.solution
        assert again.functionals == direct.functionals

    def test_seed_on_another_grid_raises(self):
        coarse, fine = field.make_domain(15.0, n=64), field.make_domain(15.0, n=128)
        N = 0.966 * N_HAT_15
        point = phase.constrained_solve(SPEC_Y, ALPHA_31, coarse, N, model=EXT)
        with pytest.raises(ValueError, match=r"another grid \(R 15.0, n 64\), not "
                                             r"\(R 15.0, n 128\)"):
            phase.constrained_solve(SPEC_Y, ALPHA_31, fine, N, model=EXT,
                                    seed=(point.gamma, point.solution))

    def test_seed_of_another_branch_raises(self):
        # the maximal launch at its own mass is no vapor, and keeps its label
        dom = field.make_domain(0.5, n=64)
        liquid = field.maximal_solution(SPEC_Y, 100.0, -18.0, dom, model=EXT)
        with pytest.raises(ValueError, match=r"^minimal mass match from a seed at gamma "
                                             r"-18\.0: the seed is a maximal solution$"):
            phase.constrained_solve(SPEC_Y, 100.0, dom, total_mass(dom, liquid.field),
                                    model=EXT, seed=(-18.0, liquid))
        assert liquid.branch_label == "maximal"

    def test_first_vapor_steps_from_the_gas(self, monkeypatch):
        # with the default mass bracket the vapor at the gas's mass reads
        # the gas and returns; the next vapor reads it again, then launches
        # at the gamma of the bordered solve from the gas to its mass, to
        # the bit, and that launch meets the mass
        dom = field.make_domain(15.0, n=64)
        kwargs = dict(self.KWARGS)
        del kwargs["N_bracket"]
        calls = self.mass_match_evaluations(monkeypatch)
        targets = []
        real = phase.constrained_solve

        def spy(spec, alpha, domain, N_target, *args, **kw):
            targets.append(N_target)
            return real(spec, alpha, domain, N_target, *args, **kw)

        monkeypatch.setattr(phase, "constrained_solve", spy)
        result = phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, **kwargs)
        gas, gamma_gl = result.gas, result.gamma_gl
        assert targets[0] == gas.functionals.N and calls[0] == [gamma_gl]
        bordered = self.bordered_gamma(dom, (gamma_gl, gas.solution), targets[1])
        assert calls[1] == [gamma_gl, bordered]


class TestHatLaunch:
    """The vapor at gamma_hat is launched only for the default mass bracket's top."""

    @pytest.mark.parametrize("given, hat_launches", [(True, 0), (False, 1)],
                             ids=["given-bracket", "default-bracket"])
    def test_launches_at_gamma_hat(self, monkeypatch, given, hat_launches):
        dom = field.make_domain(15.0, n=64)
        kwargs = dict(TestVaporSeed.KWARGS)
        if not given:
            del kwargs["N_bracket"]
        gamma_hat = uniform.gamma_boundaries(ALPHA_31 * L1_Y)[1]
        launched = TestVaporSeed.launches(monkeypatch)
        phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, **kwargs)
        assert launched.count(gamma_hat) == hat_launches


class TestPetitPolish:
    """The Newton on the mass after the petit crossing's brentq closes a gap it is handed."""

    KWARGS = TestVaporSeed.KWARGS  # petit-r15's inputs

    @staticmethod
    def off_by_a_step(monkeypatch, roots):
        brentq = phase.brentq

        def off(*args, **kw):
            roots.append(brentq(*args, **kw))
            return roots[-1] + 0.3

        monkeypatch.setattr(phase, "brentq", off)

    def test_root_off_by_a_step_is_polished_onto_the_crossing(self, monkeypatch):
        # at petit-r15's inputs brentq's root already closes the F gap, so
        # the Newton only steps when handed a root 0.3 off the crossing
        dom = field.make_domain(15.0, n=64)
        exact = phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, **self.KWARGS)
        roots = []
        self.off_by_a_step(monkeypatch, roots)
        polished = phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, **self.KWARGS)
        assert roots == [exact.N_vd]
        fv, fd = polished.vapor.functionals.F, polished.droplet.functionals.F
        assert abs(fv - fd) <= 1e-8 * max(1.0, abs(fv))
        # brentq's own xtol is 1e-4 in the mass
        assert abs(polished.N_vd - exact.N_vd) <= 1e-4
        for point in (polished.vapor, polished.droplet):
            assert point.functionals.N == pytest.approx(polished.N_vd, rel=1e-8)

    def test_gap_left_open_raises(self, monkeypatch):
        # the closing Newton allowed one evaluation cannot close a gap 0.3 off
        dom = field.make_domain(15.0, n=64)
        roots = []
        self.off_by_a_step(monkeypatch, roots)
        newton = phase._newton_on_gamma

        def one_step(evaluate, gamma, window, ftol, xtol, message, steps, *rest):
            if message.startswith("the free-energy crossing"):
                steps = 1
            return newton(evaluate, gamma, window, ftol, xtol, message, steps, *rest)

        monkeypatch.setattr(phase, "_newton_on_gamma", one_step)
        with pytest.raises(RuntimeError, match="free-energy gap failed to close") as excinfo:
            phase.petit_canonical_transition(SPEC_Y, ALPHA_31, dom, **self.KWARGS)
        at, gap = named_point(excinfo, ALPHA_31, dom, self.KWARGS["N_bracket"])
        assert at == roots[0] + 0.3 and gap != 0.0


class TestDefaultModel:
    """Every solver and functional defaults to the hard-sphere model."""

    def test_omitted_model_is_hard_sphere(self, dom5):
        hs = eos.EosModel()
        alpha, gamma = 20.0 / PHI_Y5, -2.0
        rep = field.minimal_solution(SPEC_Y, alpha, gamma, dom5)
        ref = field.minimal_solution(SPEC_Y, alpha, gamma, dom5, model=hs)
        assert np.array_equal(rep.field.values, ref.field.values)
        assert (rep.iterations, rep.residual) == (ref.iterations, ref.residual)
        assert functionals.functional_values(
            SPEC_Y, alpha, gamma, rep.field
        ) == functionals.functional_values(SPEC_Y, alpha, gamma, rep.field, model=hs)
        N = 0.1 * float(functionals.volume_weights(dom5).sum())
        bp = phase.constrained_solve(SPEC_Y, alpha, dom5, N)
        ref_bp = phase.constrained_solve(SPEC_Y, alpha, dom5, N, model=hs)
        assert bp.gamma == ref_bp.gamma
        assert np.array_equal(bp.solution.field.values, ref_bp.solution.field.values)
        assert bp.functionals == ref_bp.functionals
        eta = np.array([0.05, 0.2, 0.4])
        assert np.array_equal(uniform.pi_uniform(10.0, -3.0, eta),
                              uniform.pi_uniform(10.0, -3.0, eta, model=hs))


class TestRearrangement:
    def test_equimeasurable_sums(self, dom15):
        r = dom15.nodes
        v = 0.2 + 0.15 * np.sin(7.0 * r) * np.exp(-r / 5.0)
        fld = field.DensityField(dom15, v)
        sorted_v, sorted_w = phase.decreasing_rearrangement(fld)
        D = functionals.volume_weights(dom15)
        assert np.all(np.diff(sorted_v) <= 0)
        assert sorted_w.sum() == pytest.approx(float(D.sum()), rel=1e-13)
        for f in (lambda x: x, np.log, np.square, eos.g1):
            direct = float(D @ f(v))
            rearranged = float(sorted_w @ f(sorted_v))
            assert rearranged == pytest.approx(direct, rel=1e-12)

    def test_identical_fields_never_cross(self, dom15):
        fld = field.constant_field(dom15, 0.2)
        assert phase.rearrangement_intersections(fld, fld) == 0

    def test_ordered_constants_never_cross(self, dom15):
        a = field.constant_field(dom15, 0.2)
        b = field.constant_field(dom15, 0.3)
        assert phase.rearrangement_intersections(a, b) == 0

    def test_ramp_crosses_its_mean_once(self, dom15):
        ramp = field.DensityField(
            dom15, 0.1 + 0.3 * (1.0 - dom15.nodes / dom15.R))
        D = functionals.volume_weights(dom15)
        mean = float(D @ ramp.values) / float(D.sum())
        flat = field.constant_field(dom15, mean)
        assert phase.rearrangement_intersections(ramp, flat) == 1

    def test_mismatched_domains_rejected(self):
        a = field.constant_field(field.make_domain(2.0, n=64), 0.2)
        b = field.constant_field(field.make_domain(3.0, n=64), 0.2)
        with pytest.raises(ValueError):
            phase.rearrangement_intersections(a, b)
