"""The benchmark's workloads: grand-r30, petit-r15 and cli-scan.

Each workload builds fresh inputs for every round (set-up, untimed, so
no ring matrix cached on a grid carries over), runs a fixed list of
operations through hardball's entry points (timed), and checks the last
round's results with the computations in ``checks`` (untimed).  The
seed only picks the stability-probe seeds and shifts the cli-scan radii
and gamma grid; the transition inputs are fixed, cut down from the
project's reference cases as bench/README.md explains.
"""

import contextlib
import csv
import io
import os
import random
from pathlib import Path

import numpy as np

import hardball
from hardball import cli, eos, field, functionals, kernels, phase, uniform

import checks

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC not in Path(hardball.__file__).resolve().parents:
    raise ImportError(f"hardball was imported from {hardball.__file__}, not from {_SRC}")

SPEC_Y = kernels.KernelSpec(a_y=1.0, kappa=1.0)
L1_Y = kernels.l1_norm_r3(SPEC_Y)
ALPHA_31 = 31.0 / L1_Y
EXT = eos.EosModel(mode=eos.MODE_CS_EXTENDED)

# acceptance criterion 8's recorded golden and tolerance (R=30, n=512)
GAMMA_GL_GOLDEN = -4.848100784705362
GOLDEN_TOL = 1e-6
# vapor-fold mass at R=15, n=256, as in tests/test_phase.py
N_HAT_15 = 453.4086905340539
# grand crossing at R=15, n=256, as located by that file's petit transition
# from the gamma bracket (-4.75, -4.45); passing it in skips the gamma scan,
# and the P(gas) = P(liquid) check confirms it
GAMMA_GL_15 = -4.655290873521921


class GrandR30:
    """Grand canonical transition at R=30, then P-stability of both branches."""

    name = "grand-r30"

    def __init__(self, seed, out_dir, smoke=False):
        self.probe_seed = random.Random(seed).randrange(2**31)
        self.smoke = smoke
        if smoke:  # the small container of tests/test_phase.py
            self.R, self.n, self.alpha, self.bracket = 0.5, 64, 100.0, (-22.0, -14.0)
        else:
            self.R, self.n, self.alpha, self.bracket = 30.0, 256, ALPHA_31, (-4.88, -4.15)

    def setup(self):
        return {"domain": field.make_domain(self.R, n=self.n)}

    def operations(self, inp, out):
        def transition():
            out["grand"] = phase.grand_canonical_transition(
                SPEC_Y, self.alpha, inp["domain"], self.bracket, model=EXT)

        def stability(branch):
            def op():
                grand = out["grand"]
                out[f"{branch}.stability"] = functionals.p_stability(
                    SPEC_Y, self.alpha, grand.gamma_gl,
                    getattr(grand, branch).solution.field,
                    model=EXT, seed=self.probe_seed)
            return op

        return [("grand transition", transition),
                ("p_stability gas", stability("gas")),
                ("p_stability liquid", stability("liquid"))]

    def fingerprint(self, out):
        grand = out.get("grand")
        return None if grand is None else (grand.gamma_gl, grand.delta_N)

    def check(self, inp, out, report):
        checks.ring_matches_ball(report, "grid", SPEC_Y, inp["domain"])
        grand = out.get("grand")
        if grand is None:
            return
        g = grand.gamma_gl
        values = {}
        for branch in ("gas", "liquid"):
            fld = getattr(grand, branch).solution.field
            checks.fixed_point(report, branch, SPEC_Y, self.alpha, g, fld)
            values[branch] = checks.thermo(SPEC_Y, self.alpha, g, fld)
            checks.point_agrees(report, branch, getattr(grand, branch), values[branch])
            stab = out.get(f"{branch}.stability")
            if stab is not None:
                report.add(f"{branch}: P-stable", stab.label == "stable",
                           f"{stab.label}, largest eigenvalue {stab.extremal_eigenvalue:.3e}")
        report.close("P(gas) = P(liquid)", values["gas"]["P"], values["liquid"]["P"], 1e-8,
                     checks.thermo_scale(values["liquid"]))
        gas = grand.gas.solution.field.values
        liquid = grand.liquid.solution.field.values
        report.add("minimal <= maximal at every node", np.all(gas <= liquid),
                   f"largest excess {float(np.max(gas - liquid)):.1e}")
        if not self.smoke:
            g_alg = uniform.coexistence_gamma(ALPHA_31 * L1_Y)
            report.add("gamma_gl above the algebraic coexistence point", g > g_alg,
                       f"{g!r} vs {g_alg!r}")
            err = abs(g - GAMMA_GL_GOLDEN)
            report.add("gamma_gl within the criterion-8 tolerance of its golden",
                       err <= GOLDEN_TOL, f"off by {err:.1e} (limit {GOLDEN_TOL:.0e})")


class PetitR15:
    """Petit canonical transition at R=15, then F-stability of both profiles."""

    name = "petit-r15"

    def __init__(self, seed, out_dir, smoke=False):
        self.probe_seed = random.Random(seed).randrange(2**31)
        self.R = 15.0
        self.n, self.mass = 64, (0.966, 0.967) if smoke else (0.965, 0.968)

    def setup(self):
        return {"domain": field.make_domain(self.R, n=self.n)}

    def operations(self, inp, out):
        def transition():
            out["petit"] = phase.petit_canonical_transition(
                SPEC_Y, ALPHA_31, inp["domain"],
                N_bracket=(self.mass[0] * N_HAT_15, self.mass[1] * N_HAT_15),
                model=EXT, gamma_gl=GAMMA_GL_15)

        def stability(branch):
            def op():
                point = getattr(out["petit"], branch)
                out[f"{branch}.stability"] = functionals.f_stability(
                    SPEC_Y, ALPHA_31, point.solution.field, seed=self.probe_seed)
            return op

        return [("petit transition", transition),
                ("f_stability droplet", stability("droplet")),
                ("f_stability vapor", stability("vapor"))]

    def fingerprint(self, out):
        petit = out.get("petit")
        return None if petit is None else (petit.N_vd, petit.gamma_gl, petit.delta_Gamma)

    def check(self, inp, out, report):
        checks.ring_matches_ball(report, "grid", SPEC_Y, inp["domain"])
        petit = out.get("petit")
        if petit is None:
            return
        values = {}
        for branch in ("vapor", "droplet", "gas", "liquid"):
            point = getattr(petit, branch)
            fld = point.solution.field
            checks.fixed_point(report, branch, SPEC_Y, ALPHA_31, point.gamma, fld)
            values[branch] = checks.thermo(SPEC_Y, ALPHA_31, point.gamma, fld)
            checks.point_agrees(report, branch, point, values[branch])
        vap, dro = values["vapor"], values["droplet"]
        report.close("F(vapor) = F(droplet) at N_vd", vap["F"], dro["F"], 1e-8,
                     checks.thermo_scale(vap))
        for branch in ("vapor", "droplet"):
            report.close(f"{branch} holds mass N_vd", values[branch]["N"], petit.N_vd, 1e-8)
        report.add("Gamma jumps down", petit.droplet.gamma < petit.vapor.gamma,
                   f"{petit.droplet.gamma - petit.vapor.gamma:.4f}")
        report.add("E jumps down", dro["E"] < vap["E"], f"{dro['E'] - vap['E']:.4f}")
        report.add("S jumps down", dro["S"] < vap["S"], f"{dro['S'] - vap['S']:.4f}")
        report.add("N_vd inside [N(gas), N(liquid))",
                   values["gas"]["N"] <= petit.N_vd < values["liquid"]["N"])
        report.close("P(gas) = P(liquid) at gamma_gl",
                     values["gas"]["P"], values["liquid"]["P"], 1e-8,
                     checks.thermo_scale(values["liquid"]))
        drop = petit.droplet.solution.field.values
        report.add("droplet profile decreasing", np.all(np.diff(drop) <= 1e-12),
                   f"largest rise {float(np.max(np.diff(drop))):.1e}")
        stab = out.get("droplet.stability")
        if stab is not None:
            report.add("droplet F-stable with zero probe failures",
                       stab.label == "stable" and stab.probe_failures == 0,
                       f"{stab.label}, {stab.probe_failures} probe failures")


class CliScan:
    """hardball spectral and hardball solve over a gamma grid, per radius."""

    name = "cli-scan"
    BASE_RADII = (4.0, 15.0, 26.0)
    RADIUS_SHIFT = 0.25  # each radius moves by up to this much
    BASE_GAMMAS = (-3.0, -1.0, 1.0, 3.0)
    GAMMA_SHIFT = 0.1  # the whole grid moves by up to this much
    ALPHA = 15.0 / L1_Y

    def __init__(self, seed, out_dir, smoke=False):
        rng = random.Random(seed)
        base = (4.0, 8.0) if smoke else self.BASE_RADII
        self.radii = [r + rng.uniform(-self.RADIUS_SHIFT, self.RADIUS_SHIFT) for r in base]
        shift = rng.uniform(-self.GAMMA_SHIFT, self.GAMMA_SHIFT)
        self.gammas = [g + shift for g in self.BASE_GAMMAS]
        self.nodes = 128 if smoke else 1024
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        self.root = Path(out_dir) / self.name

    def _config(self, index):
        directory = self.root / f"r{index}"
        grid = ", ".join(repr(g) for g in self.gammas)
        return directory, (
            "[eos]\nmode = hard-sphere\n"
            "[kernel]\na_y = 1.0\nkappa = 1.0\n"
            f"[run]\nalpha = {self.ALPHA!r}\nradius = {self.radii[index]!r}\n"
            f"nodes = {self.nodes}\nout = {directory}\njobs = {self.jobs}\n"
            f"[grid]\ngamma = {grid}\n")

    def setup(self):
        paths = []
        for index in range(len(self.radii)):
            directory, text = self._config(index)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / "run.ini"
            path.write_text(text)
            paths.append(path)
        return {"configs": paths}

    @staticmethod
    def _cli(command, config):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(config)])
        if code != 0:
            raise RuntimeError(f"hardball {command} exited with {code}")

    def operations(self, inp, out):
        ops = []
        for index, config in enumerate(inp["configs"]):
            for command in ("spectral", "solve"):
                def op(command=command, config=config, index=index):
                    self._cli(command, config)
                    out[(command, index)] = True
                ops.append((f"{command} R={self.radii[index]:.3f}", op))
        return ops

    @staticmethod
    def _files(directory):
        return {name: (directory / name).read_bytes()
                for name in ("solve_summary.csv", "spectral_summary.csv",
                             "spectral_eigenfield.csv")
                if (directory / name).exists()}

    def fingerprint(self, out):
        return [self._files(self.root / f"r{i}") for i in range(len(self.radii))]

    @staticmethod
    def _table(path):
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
        return rows[0], rows[1:]

    def check(self, inp, out, report):
        spectral_radii = []
        for index, radius in enumerate(self.radii):
            directory = self.root / f"r{index}"
            label = f"R={radius:.3f}"
            if out.get(("solve", index)):
                self._check_solve(report, label, directory / "solve_summary.csv")
            if out.get(("spectral", index)):
                _, rows = self._table(directory / "spectral_summary.csv")
                vals = {k: float(v) for k, v in rows}
                report.add(f"{label}: spectral radius inside its bounds",
                           vals["lower_bound"] <= vals["v_lambda"] < vals["upper_bound"],
                           f"{vals['lower_bound']:.6f} <= {vals['v_lambda']:.6f}"
                           f" < {vals['upper_bound']:.6f}")
                spectral_radii.append(vals["v_lambda"])
            if index == 0 and out.get(("solve", 0)):
                self._check_profile(report, label, directory / "solve_summary.csv")
        if len(spectral_radii) == len(self.radii):
            report.add("spectral radius rises with R",
                       all(a < b for a, b in zip(spectral_radii, spectral_radii[1:])))
        # rerun the first threaded sweep in place: the same input gives the same bytes
        if out.get(("solve", 0)):
            summary = self.root / "r0" / "solve_summary.csv"
            before = summary.read_bytes()
            self._cli("solve", inp["configs"][0])
            report.add("rerun of solve gives a byte-identical CSV file",
                       summary.read_bytes() == before)

    def _check_solve(self, report, label, path):
        header, rows = self._table(path)
        cols = {name: i for i, name in enumerate(header)}
        masses = []
        for row in rows:
            get = {name: float(row[i]) for name, i in cols.items()}
            gamma = get["gamma"]
            for key in ("N", "P", "F"):
                report.close(f"{label} gamma={gamma:.4f}: minimal {key} = maximal {key}",
                             get[f"{key}_minimal"], get[f"{key}_maximal"], 1e-8)
            report.add(f"{label} gamma={gamma:.4f}: residuals below 1e-9",
                       max(get["residual_minimal"], get["residual_maximal"]) < 1e-9)
            masses.append(get["N_minimal"])
        report.add(f"{label}: N rises with gamma", all(a < b for a, b in zip(masses, masses[1:])))

    def _check_profile(self, report, label, path):
        """Solve the first grid point apart from the CLI and check it.

        The CLI's grids are private to each call; this one has the same
        radius and nodes, so its ring matrix is the one the CLI used.
        """
        gamma = self.gammas[0]
        domain = field.make_domain(self.radii[0], n=self.nodes)
        rep = field.minimal_solution(SPEC_Y, self.ALPHA, gamma, domain, model=eos.EosModel())
        checks.ring_matches_ball(report, label, SPEC_Y, domain)
        checks.fixed_point(report, f"{label} gamma={gamma:.4f}", SPEC_Y, self.ALPHA, gamma,
                           rep.field, hard_sphere=True)
        header, rows = self._table(path)
        n_cli = float(rows[0][header.index("N_minimal")])
        n_mine = float(checks.volume_weights(domain) @ rep.field.values)
        report.close(f"{label} gamma={gamma:.4f}: CLI mass matches sum 4 pi s^2 w eta",
                     n_cli, n_mine, 1e-9)


WORKLOADS = {w.name: w for w in (GrandR30, PetitR15, CliScan)}


def make(name, seed, out_dir, smoke=False):
    return WORKLOADS[name](seed, out_dir, smoke=smoke)
