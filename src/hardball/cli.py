"""Batch front end: config files, subcommands, CSV output.

Every subcommand is a pure function of its configuration: outputs carry
a header block echoing the full configuration, floats are written with
round-trip repr, and sweep results are aggregated in grid order, so a
rerun with the same config reproduces the bytes exactly.
Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

import argparse
import configparser
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import eos, field, functionals, kernels, phase, spectral, uniform


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configuration."""


_MODES = {
    "hard-sphere": eos.MODE_HARD_SPHERE,
    "cs-extended": eos.MODE_CS_EXTENDED,
    "ideal-gas": eos.MODE_IDEAL_GAS,
}

UNITS_PAGE = """\
Dimensionless units

All quantities are reduced with the microscopic ball volume |b| and the
inverse temperature beta = 1/(kB*T).  eta is the volume fraction of the
balls, so the particle number in a region is the integral of eta over
it divided by |b|.  To restore dimensional quantities substitute:

  quantity                      dimensionless -> dimensional
  positions and all lengths     r        ->  r / |b|^(1/3)
  inverse interaction range     varkappa ->  |b|^(1/3) * varkappa
  coupling : temperature        alpha    ->  beta * alpha
  chemical potential per        gamma    ->  beta * mu
    particle : temperature                     - ln(lambda_dB^3 / |b|)
  pressure : temperature        p        ->  |b| * beta * p
  particle density              eta      ->  |b| * rho

lambda_dB is the thermal de Broglie wavelength and rho the number
density.  In the entropy integrand, ln eta(r) becomes
ln(rho(r) / rho_dB) with rho_dB = (2*pi*m*kB*T)^(3/2) / h^3.
"""


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, plus provenance for headers."""

    mode: str = "hard-sphere"
    a_y: float = 1.0
    a_w: float = 0.0
    a_n: float = 0.0
    kappa: float = 1.0
    varkappa: float = 1.0
    alpha: float = None
    gamma: float = None
    alpha_grid: tuple = ()
    gamma_grid: tuple = ()
    radius: float = 5.0
    nodes: int = 256
    tol: float = 1e-12
    gamma_lo: float = None
    gamma_hi: float = None
    mass_lo: float = None
    mass_hi: float = None
    petit: bool = True
    out: str = "."
    jobs: int = 1

    def validate(self):
        if self.mode not in _MODES:
            raise ConfigError(
                f"eos.mode: unknown mode {self.mode!r}; "
                f"choose one of {sorted(_MODES)}")
        for name in ("a_y", "a_w", "a_n"):
            if getattr(self, name) < 0:
                raise ConfigError(f"kernel.{name}: must be non-negative")
        if self.a_y == self.a_w == self.a_n == 0:
            raise ConfigError(
                "kernel: at least one amplitude must be positive")
        if self.kappa <= 0 or self.varkappa <= 0:
            raise ConfigError("kernel: inverse ranges must be positive")
        if not self.radius > 0:
            raise ConfigError("run.radius: must be positive")
        if self.nodes < 8 or self.nodes % 8 != 0:
            raise ConfigError("run.nodes: must be a positive multiple of 8")
        if not self.tol > 0:
            raise ConfigError("run.tol: tolerance must be positive")
        if self.jobs < 1:
            raise ConfigError("run.jobs: must be at least 1")
        if self.alpha is not None and not self.alpha >= 0:
            raise ConfigError("run.alpha: must be non-negative")
        for lo, hi in (("gamma_lo", "gamma_hi"), ("mass_lo", "mass_hi")):
            a, b = getattr(self, lo), getattr(self, hi)
            if (a is None) != (b is None):
                unset, given = (hi, lo) if b is None else (lo, hi)
                raise ConfigError(f"transition.{unset}: required together "
                                  f"with transition.{given}")
            if a is not None and not a < b:
                raise ConfigError(
                    f"transition.{lo}: must be below transition.{hi}")
        for name in ("alpha_grid", "gamma_grid"):
            grid = getattr(self, name)
            if grid == ():
                continue
            if len(grid) == 0:
                raise ConfigError(f"grid.{name}: grid must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(
                    f"grid.{name}: grid must be strictly increasing")
        if self.alpha_grid and not self.alpha_grid[0] >= 0:
            raise ConfigError("grid.alpha: must be non-negative")
        return self

    def kernel_spec(self):
        return kernels.KernelSpec(
            a_w=self.a_w, a_y=self.a_y, a_n=self.a_n,
            varkappa=self.varkappa, kappa=self.kappa)

    def eos_model(self):
        return eos.EosModel(mode=_MODES[self.mode])

    def domain(self):
        return field.make_domain(self.radius, n=self.nodes)

    def require(self, name):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"run.{name}: required by this subcommand")
        return value


_SECTIONS = {
    "eos": {"mode": str},
    "kernel": {"a_y": float, "a_w": float, "a_n": float,
               "kappa": float, "varkappa": float},
    "run": {"alpha": float, "gamma": float, "radius": float, "nodes": int,
            "tol": float, "out": str, "jobs": int},
    "grid": {"alpha": "grid", "gamma": "grid"},
    "transition": {"gamma_lo": float, "gamma_hi": float,
                   "mass_lo": float, "mass_hi": float, "petit": bool},
}

# config key -> RunConfig field, where the names differ
_RENAMES = {("grid", "alpha"): "alpha_grid",
            ("grid", "gamma"): "gamma_grid"}


def _parse_value(kind, raw, where):
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "yes", "true", "on"):
                return True
            if lowered in ("0", "no", "false", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "grid":
            items = [piece for piece in raw.split(",") if piece.strip()]
            if not items:
                raise ValueError("empty grid")
            return tuple(float(piece) for piece in items)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path):
    """Parse an INI run file into a RunConfig; diagnostics name the key."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    updates = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in section [{section}]")
            target = _RENAMES.get((section, key), key)
            updates[target] = _parse_value(
                known[key], raw, f"{path}: [{section}] {key}")
    return replace(RunConfig(), **updates).validate()


# where and how a run happens, not what it computes: kept out of headers
# so the same physics gives the same bytes in any directory
_UNECHOED = ("out", "jobs")


def _header(cfg, command):
    lines = [f"# hardball {command}"]
    for spec_field in fields(RunConfig):
        if spec_field.name in _UNECHOED:
            continue
        value = getattr(cfg, spec_field.name)
        lines.append(f"# {spec_field.name} = {value!r}")
    return "".join(line + "\n" for line in lines)


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(cfg, command, name, columns, rows):
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    with open(path, "w", newline="\n") as handle:
        handle.write(_header(cfg, command))
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(
                item if isinstance(item, str) else _fmt(item)
                for item in row) + "\n")
    return path


def _sweep(items, worker, jobs):
    # executor.map preserves input order, so aggregation stays sorted
    # by grid index no matter how the workers interleave
    if jobs == 1:
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


def cmd_eos_table(cfg):
    """Tabulate (eta, p, gamma) over fluid, tie line, and solid branches."""
    rows = []
    for eta in np.linspace(0.01, eos.ETA_FS_LO, 97):
        rows.append(("fluid", eta, eos.g1(eta), eos.g2(eta)))
    p_f = float(eos.g1(eos.ETA_FS_LO))
    p_s = float(eos.speedy_g3(eos.ETA_FS_HI))
    for t in np.linspace(0.0, 1.0, 6):
        eta = eos.ETA_FS_LO + t * (eos.ETA_FS_HI - eos.ETA_FS_LO)
        rows.append(("segment", eta, p_f + t * (p_s - p_f), eos.GAMMA_FS))
    for eta in np.linspace(eos.ETA_FS_HI, 0.74, 41):
        rows.append(("solid", eta, eos.speedy_g3(eta), eos.speedy_g4(eta)))
    return [_write_csv(cfg, "eos-table", "eos_table.csv",
                       ("branch", "eta", "p", "gamma"), rows)]


def _launch_pair(cfg, spec, model, domain, gamma):
    lo = field.minimal_solution(
        spec, cfg.alpha, gamma, domain, tol=cfg.tol, model=model)
    hi = field.maximal_solution(
        spec, cfg.alpha, gamma, domain, tol=cfg.tol, model=model)
    return lo, hi


def cmd_solve(cfg):
    """Run the bracketing launches at one gamma or across a gamma grid."""
    cfg.require("alpha")
    spec, model, domain = cfg.kernel_spec(), cfg.eos_model(), cfg.domain()
    if cfg.gamma_grid:
        def worker(indexed):
            index, gamma = indexed
            lo, hi = _launch_pair(cfg, spec, model, domain, gamma)
            row = [index, gamma]
            for rep in (lo, hi):
                vals = functionals.functional_values(
                    spec, cfg.alpha, gamma, rep.field, model=model)
                row += [vals.N, vals.P, vals.F, rep.iterations, rep.residual]
            return tuple(row)

        rows = _sweep(list(enumerate(cfg.gamma_grid)), worker, cfg.jobs)
        return [_write_csv(
            cfg, "solve", "solve_summary.csv",
            ("index", "gamma",
             "N_minimal", "P_minimal", "F_minimal",
             "iters_minimal", "residual_minimal",
             "N_maximal", "P_maximal", "F_maximal",
             "iters_maximal", "residual_maximal"),
            rows)]

    gamma = cfg.require("gamma")
    lo, hi = _launch_pair(cfg, spec, model, domain, gamma)
    rows = [(r, a, b) for r, a, b in
            zip(domain.nodes, lo.field.values, hi.field.values)]
    return [_write_csv(cfg, "solve", "solve_profile.csv",
                       ("r", "eta_minimal", "eta_maximal"), rows)]


def cmd_phase_diagram(cfg):
    """Tabulate the algebraic transition landmarks across attractions."""
    alphas = cfg.alpha_grid or (cfg.require("alpha"),)
    spec = cfg.kernel_spec()
    norm = kernels.l1_norm_r3(spec)

    def worker(indexed):
        index, alpha = indexed
        atau = alpha * norm
        g_check = g_hat = g_coex = rhs = math.nan
        fires = False
        if atau > uniform.ALPHA_TAU_MIN:
            g_check, g_hat = uniform.gamma_boundaries(atau)
            g_coex = uniform.coexistence_gamma(atau)
            crit = phase.droplet_criterion(spec, alpha)
            rhs, fires = crit["rhs"], crit["fires"]
        return (index, alpha, atau, g_check, g_hat, g_coex, rhs, fires)

    rows = _sweep(list(enumerate(alphas)), worker, cfg.jobs)
    return [_write_csv(
        cfg, "phase-diagram", "phase_diagram.csv",
        ("index", "alpha", "alpha_tau", "gamma_check", "gamma_hat",
         "gamma_coex", "criterion_rhs", "criterion_fires"),
        rows)]


def cmd_transition(cfg):
    """Locate the grand transition and, when enabled, the petit one."""
    cfg.require("alpha")
    spec, model, domain = cfg.kernel_spec(), cfg.eos_model(), cfg.domain()
    gamma_bracket = None  # phase scans the algebraic band by default
    if cfg.gamma_lo is not None:  # validate() allows only both or neither
        gamma_bracket = (cfg.gamma_lo, cfg.gamma_hi)
    elif not cfg.alpha * kernels.l1_norm_r3(spec) > uniform.ALPHA_TAU_MIN:
        raise ConfigError(
            "transition: attraction too weak for a transition; "
            "set transition.gamma_lo/gamma_hi explicitly")

    if cfg.petit:
        mass_bracket = None
        if cfg.mass_lo is not None:
            mass_bracket = (cfg.mass_lo, cfg.mass_hi)
        result = phase.petit_canonical_transition(
            spec, cfg.alpha, domain, N_bracket=mass_bracket,
            model=model, gamma_bracket=gamma_bracket)
        labels = ("gas", "liquid", "vapor", "droplet")
        quantities = ("N_vd", "delta_Gamma", "delta_E", "delta_S",
                      "embedding_ok", "crossings")
    else:
        result = phase._scan_and_locate(
            spec, cfg.alpha, domain, gamma_bracket, model)
        labels, quantities = ("gas", "liquid"), ()
    summary = [("gamma_gl", result.gamma_gl),
               ("delta_N", result.liquid.functionals.N
                - result.gas.functionals.N)]
    summary += [(name, getattr(result, name)) for name in quantities]
    profile_cols, profile_data = ["r"], [domain.nodes]
    for label in labels:
        point = getattr(result, label)
        summary += [(f"gamma_{label}", point.gamma),
                    (f"N_{label}", point.functionals.N),
                    (f"P_{label}", point.functionals.P),
                    (f"F_{label}", point.functionals.F)]
        profile_cols.append(f"eta_{label}")
        profile_data.append(point.solution.field.values)

    paths = [_write_csv(cfg, "transition", "transition_summary.csv",
                        ("quantity", "value"), summary)]
    rows = list(zip(*profile_data))
    paths.append(_write_csv(cfg, "transition", "transition_profiles.csv",
                            tuple(profile_cols), rows))
    return paths


def cmd_spectral(cfg):
    """Emit the interaction operator's spectral radius and eigenfield."""
    spec, domain = cfg.kernel_spec(), cfg.domain()
    report = spectral.spectral_radius(spec, domain)
    rows = [("v_lambda", report.v_lambda),
            ("lower_bound", report.lower_bound),
            ("upper_bound", report.upper_bound),
            ("iterations", report.iterations)]
    if cfg.alpha is not None:
        alpha_v = cfg.alpha * report.v_lambda
        rows.append(("alpha_v", alpha_v))
        if alpha_v > uniform.ALPHA_TAU_MIN:
            rows.append(("gamma_hat_spinodal",
                         spectral.spinodal_gamma_hat(alpha_v)))
    paths = [_write_csv(cfg, "spectral", "spectral_summary.csv",
                        ("quantity", "value"), rows)]
    paths.append(_write_csv(
        cfg, "spectral", "spectral_eigenfield.csv", ("r", "xi"),
        list(zip(domain.nodes, report.eigenfield))))
    return paths


def _check_rows(cfg):
    eta_wr, gamma_wr, slope_inv = eos.find_inflection()
    checks = [
        ("inflection_eta", eta_wr, 0.128, 0.132),
        ("inflection_gamma", gamma_wr, -0.69, -0.65),
        ("inflection_inverse_slope", slope_inv, 0.045, 0.049),
        ("gamma_fs_fluid", float(eos.g2(eos.ETA_FS_LO)), 15.207, 15.210),
        ("gamma_fs_solid", float(eos.speedy_g4(eos.ETA_FS_HI)),
         15.198, 15.219),
        # derivative values are quoted at the rounded inflection 0.130
        ("slope_at_inflection", float(eos.g2_derivs(0.130, 1)),
         21.10, 21.30),
        ("third_derivative_at_inflection", float(eos.g2_derivs(0.130, 3)),
         1233.22, 1237.22),
    ]
    etas = np.linspace(1e-4, 0.9, 1000)
    gap = np.max(np.abs(etas * eos.g2_derivs(etas, 1) - eos.g1_prime(etas)))
    checks.append(("pressure_potential_identity", float(gap), 0.0, 1e-10))

    spec, model, domain = cfg.kernel_spec(), cfg.eos_model(), cfg.domain()
    report = field.minimal_solution(
        spec, 0.5, -2.0, domain, tol=cfg.tol, model=model)
    checks.append(("solver_residual", report.residual, 0.0, 1e-9))
    vals = functionals.functional_values(
        spec, 0.5, -2.0, report.field, model=model)
    legendre = abs(vals.P - (-2.0 * vals.N - vals.F)) / max(
        1.0, abs(vals.P), abs(vals.F))
    checks.append(("legendre_identity", legendre, 0.0, 1e-8))

    spec_report = spectral.spectral_radius(spec, domain)
    margin = (spec_report.v_lambda - spec_report.lower_bound) / max(
        spec_report.upper_bound - spec_report.lower_bound, 1e-300)
    checks.append(("spectral_bracket_position", margin, 0.0, 1.0))
    return checks


def cmd_check(cfg):
    """Run the constants and invariant suite; exit 0 iff all pass."""
    checks = _check_rows(cfg)
    rows, all_ok = [], True
    for name, value, lo, hi in checks:
        ok = lo <= value <= hi
        all_ok &= ok
        rows.append((name, value, lo, hi, "ok" if ok else "FAIL"))
    width = max(len(row[0]) for row in rows)
    for name, value, lo, hi, status in rows:
        print(f"{name:<{width}}  {value: .12e}  "
              f"[{lo:g}, {hi:g}]  {status}")
    _write_csv(cfg, "check", "check.csv",
               ("check", "value", "lower", "upper", "status"),
               [(n, v, lo, hi, s) for n, v, lo, hi, s in rows])
    return all_ok


_COMMANDS = {
    "eos-table": cmd_eos_table,
    "solve": cmd_solve,
    "phase-diagram": cmd_phase_diagram,
    "transition": cmd_transition,
    "spectral": cmd_spectral,
    "check": cmd_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hardball",
        description="Density-functional solver for attracting hard balls "
                    "in a spherical container.")
    parser.add_argument("--units", action="store_true",
                        help="print the unit conversion table and exit")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="INI run file")
    shared.add_argument("--jobs", type=int, metavar="N",
                        help="worker threads for sweeps")
    shared.add_argument("--out", metavar="DIR",
                        help="output directory")
    shared.add_argument("--alpha", type=float,
                        help="attraction strength override")
    shared.add_argument("--gamma", type=float,
                        help="chemical potential override")
    shared.add_argument("--radius", type=float,
                        help="container radius override")
    shared.add_argument("--nodes", type=int,
                        help="quadrature node count override")
    subparsers = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        subparsers.add_parser(name, parents=[shared])
    return parser


def _configure(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for name in ("jobs", "out", "alpha", "gamma", "radius", "nodes"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.units:
        print(UNITS_PAGE, end="")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("hardball: error: a subcommand is required", file=sys.stderr)
        return 2
    try:
        cfg = _configure(args)
        result = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"hardball: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"hardball: solver failure: {exc}", file=sys.stderr)
        return 1
    if args.command == "check":
        return 0 if result else 1
    for path in result:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
