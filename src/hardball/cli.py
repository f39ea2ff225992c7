"""Batch front end: config files, subcommands, CSV output, profile read-back.

Every subcommand is a pure function of its configuration: outputs carry
a header block echoing the full configuration, floats are written with
round-trip repr, and sweep results are aggregated in grid order, so a
rerun with the same config reproduces the bytes exactly.
Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

import argparse
import ast
import configparser
import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import eos, field, functionals, kernels, phase, spectral, uniform


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configuration."""


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


def _setting(default, key, flag=None, echo=True, rule=None):
    """Declare a RunConfig field and all that the front end derives from it.

    key is its INI "section.key", which every diagnostic names; flag, if
    given, is the help of its `--<field name>` override; echo puts it in
    output headers; rule = (predicate, complaint) is what a set value, or
    each entry of a grid, must pass.
    """
    return dataclasses.field(default=default, metadata={
        "key": key, "flag": flag, "echo": echo, "rule": rule})


_NON_NEGATIVE = (lambda value: value >= 0, "must be non-negative")
_POSITIVE = (lambda value: value > 0, "must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, plus provenance for headers.

    Each field's declaration is the one place its setting is described:
    a float must be finite, a tuple is a strictly increasing grid read
    as comma-separated floats, and None means unset.  out and jobs say
    where and how a run happens, not what it computes, so they are kept
    out of headers: the same physics gives the same bytes anywhere.
    """

    mode: str = _setting(eos.MODE_HARD_SPHERE, "eos.mode", rule=(
        eos.MODES.__contains__, f"must be one of {sorted(eos.MODES)}"))
    a_y: float = _setting(1.0, "kernel.a_y", rule=_NON_NEGATIVE)
    a_w: float = _setting(0.0, "kernel.a_w", rule=_NON_NEGATIVE)
    a_n: float = _setting(0.0, "kernel.a_n", rule=_NON_NEGATIVE)
    kappa: float = _setting(1.0, "kernel.kappa", rule=_POSITIVE)
    varkappa: float = _setting(1.0, "kernel.varkappa", rule=_POSITIVE)
    alpha: float = _setting(None, "run.alpha", "attraction strength override",
                            rule=_NON_NEGATIVE)
    gamma: float = _setting(None, "run.gamma", "chemical potential override")
    alpha_grid: tuple = _setting((), "grid.alpha", rule=_NON_NEGATIVE)
    gamma_grid: tuple = _setting((), "grid.gamma")
    radius: float = _setting(5.0, "run.radius", "container radius override",
                             rule=_POSITIVE)
    nodes: int = _setting(256, "run.nodes", "quadrature node count override", rule=(
        lambda n: n >= 8 and n % 8 == 0, "must be a positive multiple of 8"))
    tol: float = _setting(1e-12, "run.tol", rule=_POSITIVE)
    gamma_lo: float = _setting(None, "transition.gamma_lo")
    gamma_hi: float = _setting(None, "transition.gamma_hi")
    mass_lo: float = _setting(None, "transition.mass_lo")
    mass_hi: float = _setting(None, "transition.mass_hi")
    petit: bool = _setting(True, "transition.petit")
    out: str = _setting(".", "run.out", "output directory", echo=False)
    jobs: int = _setting(1, "run.jobs", "worker threads for phase-diagram", echo=False,
                         rule=(lambda n: n >= 1, "must be at least 1"))

    def validate(self):
        for spec_field in fields(self):
            value, key = getattr(self, spec_field.name), spec_field.metadata["key"]
            if value is None:
                continue
            entries = value if spec_field.type is tuple else (value,)  # a grid, or one value
            if spec_field.type in (float, tuple) and not all(map(math.isfinite, entries)):
                raise ConfigError(f"{key}: must be finite")
            if any(b <= a for a, b in zip(entries, entries[1:])):
                raise ConfigError(f"{key}: grid must be strictly increasing")
            rule = spec_field.metadata["rule"]
            if rule and not all(map(rule[0], entries)):
                raise ConfigError(f"{key}: {rule[1]}")
        if self.a_y == self.a_w == self.a_n == 0:
            raise ConfigError(f"{_KEYS['a_y']}, {_KEYS['a_w']}, {_KEYS['a_n']}: "
                              "at least one amplitude must be positive")
        for lo, hi in (("gamma_lo", "gamma_hi"), ("mass_lo", "mass_hi")):
            a, b = getattr(self, lo), getattr(self, hi)
            if (a is None) != (b is None):
                unset, given = (hi, lo) if b is None else (lo, hi)
                raise ConfigError(
                    f"{_KEYS[unset]}: required together with {_KEYS[given]}")
            if a is not None and not a < b:
                raise ConfigError(f"{_KEYS[lo]}: must be below {_KEYS[hi]}")
        return self

    def kernel_spec(self):
        return kernels.KernelSpec(
            a_w=self.a_w, a_y=self.a_y, a_n=self.a_n,
            varkappa=self.varkappa, kappa=self.kappa)

    def eos_model(self):
        return eos.EosModel(mode=self.mode)

    def domain(self):
        return field.make_domain(self.radius, n=self.nodes)

    def require(self, name):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"{_KEYS[name]}: required by this subcommand")
        return value


# field name -> "section.key", and (section, key) -> field
_KEYS = {spec_field.name: spec_field.metadata["key"] for spec_field in fields(RunConfig)}
_FIELDS = {tuple(spec_field.metadata["key"].split(".")): spec_field
           for spec_field in fields(RunConfig)}


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
        if kind is tuple:
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
        if section not in {known for known, _ in _FIELDS}:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _FIELDS:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in section [{section}]")
            spec_field = _FIELDS[section, key]
            updates[spec_field.name] = _parse_value(
                spec_field.type, raw, f"{path}: {section}.{key}")
    return replace(RunConfig(), **updates).validate()


def _header(cfg, command):
    lines = [f"# hardball {command}"]
    for spec_field in fields(RunConfig):
        if spec_field.metadata["echo"]:
            lines.append(f"# {spec_field.name} = {getattr(cfg, spec_field.name)!r}")
    return "".join(line + "\n" for line in lines)


def _fmt(value):
    if type(value) is float:  # the profile columns, handed over by .tolist()
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(cfg, command, name, columns, rows):
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    lines = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
    with open(path, "w", newline="\n") as handle:
        handle.write(_header(cfg, command) + "\n".join(lines) + "\n")
    return path


def read_profiles(path):
    """Read back a `solve` or `transition` profile file: (RunConfig, {column: DensityField}).

    The header's `# key = repr` lines give the config the run echoed,
    whose grid is rebuilt; the file's r column must match its nodes to
    1e-12 R.  Every eta_* column becomes a DensityField on that grid.
    A malformed file raises ValueError, an echoed config that does not
    validate ConfigError.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    names = {spec_field.name for spec_field in fields(RunConfig)}
    echoed = {}
    for line in lines:
        if line.startswith("# ") and " = " in line:  # not "# hardball <command>"
            key, _, value = line[2:].partition(" = ")
            if key not in names:
                raise ValueError(f"{path}: header key {key!r} is not a RunConfig field")
            echoed[key] = ast.literal_eval(value)
    columns, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    profiles = [name for name in columns if name.startswith("eta_")]
    if "r" not in columns:
        raise ValueError(f"{path}: no r column")
    if not profiles:
        raise ValueError(f"{path}: no eta_* column")
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"{path}: a row's width differs from the column count")
    cfg = replace(RunConfig(), **echoed).validate()
    domain = cfg.domain()
    data = {name: np.array([float(row[i]) for row in rows])
            for i, name in enumerate(columns)}
    r = data["r"]
    if r.shape != domain.nodes.shape or np.max(np.abs(r - domain.nodes)) > 1e-12 * cfg.radius:
        raise ValueError(f"{path}: the r column does not match the nodes of the "
                         f"rebuilt grid (radius {cfg.radius!r}, nodes {cfg.nodes!r})")
    return cfg, {name: field.DensityField(domain, data[name]) for name in profiles}


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


def cmd_solve(cfg):
    """Run the bracketing launches at one gamma or across a gamma grid.

    The launches of all gammas run as one block (`field.extremal_pairs`)
    in the calling thread; jobs does not apply.
    """
    cfg.require("alpha")
    spec, model, domain = cfg.kernel_spec(), cfg.eos_model(), cfg.domain()
    gammas = cfg.gamma_grid or (cfg.require("gamma"),)
    pairs = field.extremal_pairs(spec, cfg.alpha, gammas, domain, model=model, tol=cfg.tol)
    if cfg.gamma_grid:
        rows = []
        for index, (gamma, pair) in enumerate(zip(gammas, pairs)):
            row = [index, gamma]
            for rep in pair:
                vals = functionals.functional_values(
                    spec, cfg.alpha, gamma, rep.field, model=model)
                row += [vals.N, vals.P, vals.F, rep.iterations, rep.residual]
            rows.append(tuple(row))
        return [_write_csv(
            cfg, "solve", "solve_summary.csv",
            ("index", "gamma",
             "N_minimal", "P_minimal", "F_minimal",
             "iters_minimal", "residual_minimal",
             "N_maximal", "P_maximal", "F_maximal",
             "iters_maximal", "residual_maximal"),
            rows)]

    [(lo, hi)] = pairs
    rows = list(zip(domain.nodes.tolist(), lo.field.values.tolist(), hi.field.values.tolist()))
    return [_write_csv(cfg, "solve", "solve_profile.csv",
                       ("r", "eta_minimal", "eta_maximal"), rows)]


def cmd_phase_diagram(cfg):
    """Tabulate the algebraic transition landmarks across attractions."""
    alphas = cfg.alpha_grid or (cfg.require("alpha"),)
    spec = cfg.kernel_spec()
    if spec.a_n > 0:
        raise ConfigError(f"{_KEYS['a_n']}: the landmarks need a kernel integrable over "
                          "R^3, and the Newton part is not")
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
    gamma_bracket = None  # phase searches the algebraic band by default
    if cfg.gamma_lo is not None:  # validate() allows only both or neither
        gamma_bracket = (cfg.gamma_lo, cfg.gamma_hi)
    if spec.a_n > 0:
        # the algebraic band and the droplet criterion rest on the L1 norm over R^3
        unset = [] if gamma_bracket else [f"{_KEYS['gamma_lo']} and {_KEYS['gamma_hi']}"]
        unset += [f"{_KEYS['petit']} = no"] if cfg.petit else []
        if unset:
            raise ConfigError(
                f"{_KEYS['a_n']}: the Newton part is not integrable over R^3, so there is "
                "no algebraic band to bracket the grand transition by and no droplet "
                f"criterion for the petit one; set {', and '.join(unset)}")
    elif gamma_bracket is None and not (
            cfg.alpha * kernels.l1_norm_r3(spec) > uniform.ALPHA_TAU_MIN):
        raise ConfigError(
            "transition: attraction too weak for a transition; set "
            f"{_KEYS['gamma_lo']} and {_KEYS['gamma_hi']} explicitly")

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
        result = phase.grand_canonical_transition(
            spec, cfg.alpha, domain, gamma_bracket, model)
        labels, quantities = ("gas", "liquid"), ()
    summary = [("gamma_gl", result.gamma_gl),
               ("delta_N", result.liquid.functionals.N
                - result.gas.functionals.N)]
    summary += [(name, getattr(result, name)) for name in quantities]
    profile_cols, profile_data = ["r"], [domain.nodes.tolist()]
    for label in labels:
        point = getattr(result, label)
        summary += [(f"gamma_{label}", point.gamma),
                    (f"N_{label}", point.functionals.N),
                    (f"P_{label}", point.functionals.P),
                    (f"F_{label}", point.functionals.F)]
        profile_cols.append(f"eta_{label}")
        profile_data.append(point.solution.field.values.tolist())

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
        list(zip(domain.nodes.tolist(), report.eigenfield.tolist()))))
    return paths


def _check_rows(cfg):
    checks = [
        ("inflection_eta", eos.ETA_WR, 0.128, 0.132),
        ("inflection_gamma", eos.GAMMA_WR, -0.69, -0.65),
        ("inflection_inverse_slope", eos.K_GAMMA_FS, 0.045, 0.049),
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
    for spec_field in fields(RunConfig):
        if spec_field.metadata["flag"]:
            shared.add_argument(f"--{spec_field.name}", type=spec_field.type,
                                help=spec_field.metadata["flag"])
    subparsers = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        subparsers.add_parser(name, parents=[shared])
    return parser


def _configure(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {name: value for name, value in vars(args).items()
                 if name in _KEYS and value is not None}
    return replace(cfg, **overrides).validate()


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
