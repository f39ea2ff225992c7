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
        got = phase.n_hat(SPEC_Y, ALPHA_31, dom15, model=EXT)
        assert got == pytest.approx(N_HAT_15, rel=1e-8)
        # the minimal branch's mass still rises up to gamma_hat
        gamma_hat = uniform.gamma_boundaries(ALPHA_31 * L1_Y)[1]
        below = field.minimal_solution(SPEC_Y, ALPHA_31, gamma_hat - 0.01, dom15, model=EXT)
        assert got > functionals.n_functional(below.field)


class TestConstrainedSolve:
    def test_zero_interaction_recovers_constant(self, dom5):
        vol = float(functionals.volume_weights(dom5).sum())
        target = 0.2 * vol
        bp = phase.constrained_solve(SPEC_Y, 0.0, dom5, target, "minimal")
        assert bp.gamma == pytest.approx(float(eos.g2(0.2)), abs=1e-9)
        assert np.max(np.abs(bp.solution.field.values - 0.2)) < 1e-9
        assert bp.functionals.N == pytest.approx(target, rel=1e-9)
        assert bp.solution.branch_label == "minimal"

    def test_mass_matches_target(self, dom5):
        alpha = 20.0 / PHI_Y5
        vol = float(functionals.volume_weights(dom5).sum())
        bp = phase.constrained_solve(SPEC_Y, alpha, dom5, 0.1 * vol, "minimal")
        assert bp.functionals.N == pytest.approx(0.1 * vol, rel=1e-8)
        assert bp.solution.residual < 1e-9

    def test_gamma_monotone_in_mass(self, dom5):
        # the vapor branch carries more mass at higher chemical potential
        alpha = 20.0 / PHI_Y5
        vol = float(functionals.volume_weights(dom5).sum())
        gammas = [
            phase.constrained_solve(SPEC_Y, alpha, dom5, f * vol, "minimal").gamma
            for f in (0.05, 0.10, 0.15)
        ]
        assert gammas[0] < gammas[1] < gammas[2]

    def test_df_dn_equals_gamma(self, dom5):
        alpha = 20.0 / PHI_Y5
        vol = float(functionals.volume_weights(dom5).sum())
        N0, h = 0.1 * vol, 0.0002 * vol
        mid = phase.constrained_solve(SPEC_Y, alpha, dom5, N0, "minimal")
        up = phase.constrained_solve(SPEC_Y, alpha, dom5, N0 + h, "minimal")
        dn = phase.constrained_solve(SPEC_Y, alpha, dom5, N0 - h, "minimal")
        fd = (up.functionals.F - dn.functionals.F) / (2 * h)
        assert fd == pytest.approx(mid.gamma, rel=1e-6)

    def test_maximal_branch(self, dom_small):
        liq = field.maximal_solution(SPEC_Y, 100.0, -7.0, dom_small, model=EXT)
        n_liq = total_mass(dom_small, liq.field)
        bp = phase.constrained_solve(
            SPEC_Y, 100.0, dom_small, 0.98 * n_liq, "maximal",
            model=EXT, gamma_seed=-7.0,
        )
        assert bp.solution.branch_label == "maximal"
        assert bp.functionals.N == pytest.approx(0.98 * n_liq, rel=1e-8)
        assert bp.gamma < -7.0

    def test_middle_branch_cold_and_warm(self, dom_small):
        roots = uniform.solve_uniform(100.0 * PHI_Y_HALF, -7.0).roots
        mid = field.newton_solve(
            SPEC_Y, 100.0, -7.0,
            field.constant_field(dom_small, roots[1]), model=EXT,
        )
        n_mid = total_mass(dom_small, mid.field)
        bp = phase.constrained_solve(
            SPEC_Y, 100.0, dom_small, 1.02 * n_mid, "middle",
            model=EXT, gamma_seed=-7.0,
        )
        assert bp.solution.branch_label == "middle"
        assert bp.functionals.N == pytest.approx(1.02 * n_mid, rel=1e-8)
        # the middle branch loses mass as gamma grows
        assert bp.gamma < -7.0
        warm = phase.constrained_solve(
            SPEC_Y, 100.0, dom_small, 1.05 * n_mid, "middle",
            model=EXT, start=bp.solution.field, gamma_seed=bp.gamma,
        )
        assert warm.functionals.N == pytest.approx(1.05 * n_mid, rel=1e-8)

    def test_middle_branch_needs_triplicity(self, dom5):
        # alpha too weak for three uniform roots anywhere
        with pytest.raises(ValueError):
            phase.constrained_solve(SPEC_Y, 1.0 / PHI_Y5, dom5, 5.0, "middle")

    def test_mass_beyond_vapor_fold(self, dom15):
        with pytest.raises(ValueError):
            phase.constrained_solve(
                SPEC_Y, ALPHA_31, dom15, 1.4 * N_HAT_15, "minimal", model=EXT,
            )

    def test_invalid_inputs(self, dom5):
        vol = float(functionals.volume_weights(dom5).sum())
        with pytest.raises(ValueError):
            phase.constrained_solve(SPEC_Y, 0.0, dom5, 1.0, "liquid")
        with pytest.raises(ValueError):
            phase.constrained_solve(SPEC_Y, 0.0, dom5, 0.0, "minimal")
        with pytest.raises(ValueError):
            phase.constrained_solve(SPEC_Y, 0.0, dom5, 1.1 * vol, "minimal")


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
            phase.constrained_solve(SPEC_Y, alpha, dom5, f * vol, "minimal")
            assert 1 <= len(inner_calls) <= 6
            assert set(inner_calls) == {"minimal_solution"}

    def test_maximal_branch_inner_solves(self, dom_small, inner_calls):
        liq = field.maximal_solution(SPEC_Y, 100.0, -7.0, dom_small, model=EXT)
        n_liq = total_mass(dom_small, liq.field)
        inner_calls.clear()
        phase.constrained_solve(
            SPEC_Y, 100.0, dom_small, 0.98 * n_liq, "maximal",
            model=EXT, gamma_seed=-7.0,
        )
        assert 1 <= len(inner_calls) <= 5
        assert set(inner_calls) == {"maximal_solution"}

    def test_middle_branch_inner_solves(self, dom_small, inner_calls):
        roots = uniform.solve_uniform(100.0 * PHI_Y_HALF, -7.0).roots
        mid = field.newton_solve(
            SPEC_Y, 100.0, -7.0,
            field.constant_field(dom_small, roots[1]), model=EXT,
        )
        n_mid = total_mass(dom_small, mid.field)
        inner_calls.clear()
        phase.constrained_solve(
            SPEC_Y, 100.0, dom_small, 1.02 * n_mid, "middle",
            model=EXT, gamma_seed=-7.0,
        )
        assert 1 <= len(inner_calls) <= 4
        assert set(inner_calls) == {"newton_solve"}

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
            phase.constrained_solve(SPEC_Y, alpha, dom5, 0.1 * vol, "minimal")

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
            trial = phase.droplet_trial(SPEC_Y, ALPHA_31, dom15, N, frac)
            assert float(D @ trial.values) == pytest.approx(N, rel=1e-12)

    def test_two_level_structure(self, dom15):
        trial = phase.droplet_trial(SPEC_Y, ALPHA_31, dom15, 300.0, 0.4)
        levels = np.unique(trial.values)
        assert levels.size == 2
        assert levels[0] == pytest.approx(1e-12)
        # high level inside, low level outside
        assert trial.values[0] == levels[1]
        assert trial.values[-1] == levels[0]

    def test_overpacking_rejected(self, dom15):
        vol = float(functionals.volume_weights(dom15).sum())
        with pytest.raises(ValueError):
            phase.droplet_trial(SPEC_Y, ALPHA_31, dom15, vol * 0.2, 0.2)

    def test_bad_fraction(self, dom15):
        for frac in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                phase.droplet_trial(SPEC_Y, ALPHA_31, dom15, 10.0, frac)


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
    assert len(calls) == 1 and isinstance(calls[0][-1], field._NewtonFinish)
    return point, real(*calls[0][:-1])


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
        # the solve fires at a change near 3e-4 and a ratio near 0.906,
        # so twice the remaining tail of changes is about 0.0065; a limit
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
        with pytest.raises(ValueError, match="coincide"):
            phase.grand_canonical_transition(
                SPEC_Y, ALPHA_31, dom15, (-5.30, -5.10), model=EXT,
            )

    def test_one_signed_bracket_rejected(self, dom15):
        with pytest.raises(ValueError, match="sign"):
            phase.grand_canonical_transition(
                SPEC_Y, ALPHA_31, dom15, (-4.45, -4.30), model=EXT,
            )

    def test_each_gamma_launched_once(self, dom_small, monkeypatch):
        # the end checks, the root finder and the final pair share one
        # launch per gamma
        gammas = []
        asked = {-22.0, -14.0}  # the bracket ends, then what the root finder evaluates
        maximal = field.maximal_solution
        root_finder = phase._newton_on_gamma

        def recorder(spec, alpha, gamma, *args, **kwargs):
            gammas.append(float(gamma))
            return maximal(spec, alpha, gamma, *args, **kwargs)

        def recording_root_finder(evaluate, gamma, window, *args, **kwargs):
            def objective(g):
                asked.add(float(g))
                return evaluate(g)

            return root_finder(objective, gamma, window, *args, **kwargs)

        monkeypatch.setattr(field, "maximal_solution", recorder)
        monkeypatch.setattr(phase, "_newton_on_gamma", recording_root_finder)
        phase.grand_canonical_transition(
            SPEC_Y, 100.0, dom_small, (-22.0, -14.0), model=EXT,
        )
        assert len(gammas) == len(set(gammas))
        assert set(gammas) == asked

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
        with pytest.raises(ValueError, match="no pressure-gap sign change"):
            phase.pressure_crossing_bracket(
                SPEC_Y, ALPHA_31, dom, (-5.30, -5.10), model=EXT,
            )


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

    def test_requires_droplet_regime(self, dom15):
        with pytest.raises(ValueError):
            phase.petit_canonical_transition(
                SPEC_Y, 23.0 / L1_Y, dom15, N_bracket=(100.0, 200.0), model=EXT,
            )

    def test_no_crossing_in_bracket(self, dom15):
        # both endpoints sit below the droplet branch, so the gap
        # keeps the collapse sign at both ends
        with pytest.raises(ValueError, match="sign"):
            phase.petit_canonical_transition(
                SPEC_Y, ALPHA_31, dom15,
                N_bracket=(0.35 * N_HAT_15, 0.60 * N_HAT_15),
                model=EXT, gamma_gl=-4.655291,
            )

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


class TestPetitLaunchesAtGammaGl:
    """petit_canonical_transition given gamma_gl launches the pair there once."""

    def test_pair_launched_once_and_vapor_at_gas_mass_is_the_gas(self, monkeypatch):
        dom = field.make_domain(15.0, n=64)
        bracket = phase.pressure_crossing_bracket(
            SPEC_Y, ALPHA_31, dom, (-4.75, -4.45), model=EXT)
        gt = phase.grand_canonical_transition(SPEC_Y, ALPHA_31, dom, bracket, model=EXT)
        launched = []
        for name in ("minimal_solution", "maximal_solution"):
            real = getattr(field, name)

            def spy(spec, alpha, gamma, *args, _real=real, _name=name, **kwargs):
                launched.append((_name, gamma))
                return _real(spec, alpha, gamma, *args, **kwargs)

            monkeypatch.setattr(field, name, spy)
        result = phase.petit_canonical_transition(
            SPEC_Y, ALPHA_31, dom, model=EXT, gamma_gl=gt.gamma_gl)
        at_gl = sorted(name for name, g in launched if g == gt.gamma_gl)
        assert at_gl == ["maximal_solution", "minimal_solution"]
        assert result.gamma_gl == gt.gamma_gl
        for name in ("gas", "liquid"):
            a, b = getattr(result, name), getattr(gt, name)
            assert a.functionals.N == b.functionals.N
            assert np.array_equal(a.solution.field.values, b.solution.field.values)


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
        bp = phase.constrained_solve(SPEC_Y, alpha, dom5, N, "minimal")
        ref_bp = phase.constrained_solve(SPEC_Y, alpha, dom5, N, "minimal", model=hs)
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
