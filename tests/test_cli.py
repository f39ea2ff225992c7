"""Tests for the batch front end.

Oracles: the frozen fluid-solid constants for the eos table endpoints,
the small-container transition location recomputed by the phase module
tests, byte comparison for determinism, and exit codes checked against
the documented contract (0 success, 1 solver failure, 2 config error).
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hardball import cli, field, functionals, phase

SMALL_BALL = """\
[eos]
mode = cs-extended

[kernel]
a_y = 1.0
kappa = 1.0

[run]
alpha = 100.0
radius = 0.5
nodes = 256
"""


def read_csv(path):
    header, columns, rows = [], None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows


def column(rows, columns, name, rowfilter=None):
    idx = columns.index(name)
    picked = [row for row in rows if rowfilter is None or rowfilter(row)]
    return [row[idx] for row in picked]


class TestParsing:
    def test_units_page(self, capsys):
        assert cli.main(["--units"]) == 0
        page = capsys.readouterr().out
        assert "dimensionless -> dimensional" in page
        for fragment in ("r / |b|^(1/3)", "beta * alpha", "beta * mu",
                         "|b| * beta * p", "|b| * rho"):
            assert fragment in page

    def test_subcommand_required(self, capsys):
        assert cli.main([]) == 2
        assert "subcommand" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["check", "--config", str(tmp_path / "absent.ini")])
        assert rc == 2
        assert "absent.ini" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[solver]\nx = 1\n")
        assert cli.main(["check", "--config", str(bad)]) == 2
        assert "[solver]" in capsys.readouterr().err

    def test_unknown_key_and_bad_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nradiusx = 1\n")
        assert cli.main(["check", "--config", str(bad)]) == 2
        assert "radiusx" in capsys.readouterr().err
        bad.write_text("[run]\nradius = wide\n")
        assert cli.main(["check", "--config", str(bad)]) == 2
        message = capsys.readouterr().err
        assert "radius" in message and "wide" in message

    def test_mass_grid_is_not_a_key(self, tmp_path, capsys):
        # no subcommand sweeps a mass grid, so the key is rejected
        bad = tmp_path / "bad.ini"
        bad.write_text("[grid]\nmass = 1.0\n")
        assert cli.main(["check", "--config", str(bad)]) == 2
        assert "unknown key 'mass'" in capsys.readouterr().err

    def test_unsorted_grid_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[grid]\ngamma = -1.0, -3.0, -2.0\n")
        assert cli.main(["solve", "--config", str(bad)]) == 2
        assert "increasing" in capsys.readouterr().err

    def test_grid_errors_name_the_ini_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[grid]\ngamma = 1, 0\n")
        assert cli.main(["solve", "--config", str(bad)]) == 2
        assert "config error: grid.gamma: grid must be strictly increasing" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("text,named", [
        pytest.param("[run]\ntol = inf\n", "run.tol", id="tol"),
        pytest.param("[run]\nradius = inf\n", "run.radius", id="radius"),
        pytest.param("[transition]\ngamma_lo = -inf\ngamma_hi = -14\n",
                     "transition.gamma_lo", id="gamma_lo"),
        pytest.param("[grid]\ngamma = 1, nan\n", "grid.gamma", id="grid"),
    ])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["transition", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {named}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_nodes_rejected(self, capsys):
        assert cli.main(["check", "--nodes", "100"]) == 2
        assert "nodes" in capsys.readouterr().err

    def test_missing_required_value(self, tmp_path, capsys):
        assert cli.main(["solve", "--out", str(tmp_path)]) == 2
        assert "alpha" in capsys.readouterr().err


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    out = tmp_path_factory.mktemp("eos")
    assert cli.main(["eos-table", "--out", str(out)]) == 0
    return read_csv(out / "eos_table.csv")


class TestEosTable:
    def test_fluid_branch_ends_at_freezing(self, table):
        _, columns, rows = table
        fluid = [row for row in rows if row[0] == "fluid"]
        assert float(fluid[-1][columns.index("eta")]) == 0.49
        gamma = float(fluid[-1][columns.index("gamma")])
        assert gamma == pytest.approx(15.208, abs=1e-3)

    def test_solid_branch_starts_at_melting(self, table):
        _, columns, rows = table
        solid = [row for row in rows if row[0] == "solid"]
        assert float(solid[0][columns.index("eta")]) == 0.54
        gamma = float(solid[0][columns.index("gamma")])
        assert gamma == pytest.approx(15.208, abs=1e-2)

    def test_pressure_increases_within_branches(self, table):
        _, columns, rows = table
        for branch in ("fluid", "solid"):
            p = [float(x) for x in column(
                rows, columns, "p", lambda row, b=branch: row[0] == b)]
            assert all(b > a for a, b in zip(p, p[1:]))

    def test_header_echoes_config(self, table):
        header, _, _ = table
        assert header[0] == "# hardball eos-table"
        assert any(line.startswith("# mode = ") for line in header)

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "t"
        assert cli.main(["eos-table", "--out", str(out)]) == 0
        first = (out / "eos_table.csv").read_bytes()
        assert cli.main(["eos-table", "--out", str(out)]) == 0
        assert (out / "eos_table.csv").read_bytes() == first


def _per_value_csv(header, columns, rows):
    """A CSV file's text as the writer wrote it one value at a time, each through its old format."""

    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    return header + ",".join(columns) + "\n" + "".join(
        ",".join(item if isinstance(item, str) else fmt(item) for item in row) + "\n"
        for row in rows)


class TestCsvWriter:
    def test_one_pass_writer_keeps_the_per_value_bytes(self, tmp_path):
        row = ("label", True, False, np.bool_(True), np.bool_(False), 7, -2, np.int64(-3),
               np.uint8(200), 0.1, -2.5e-300, 1e22, np.float64(1.0 / 3.0), np.float64(-0.0),
               math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf))
        rows = [row, row[::-1], tuple(np.linspace(0.0, 4.0, len(row)).tolist())]
        columns = [f"c{i}" for i in range(len(row))]
        cfg = cli.RunConfig(out=str(tmp_path))
        path = cli._write_csv(cfg, "check", "mixed.csv", columns, rows)
        want = _per_value_csv(cli._header(cfg, "check"), columns, rows)
        assert Path(path).read_bytes() == want.encode()


class TestCheck:
    def test_defaults_pass(self, tmp_path, capsys):
        assert cli.main(["check", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "FAIL" not in printed
        _, columns, rows = read_csv(tmp_path / "check.csv")
        status = column(rows, columns, "status")
        assert status and all(s == "ok" for s in status)
        names = column(rows, columns, "check")
        assert "pressure_potential_identity" in names
        assert "legendre_identity" in names


class TestSolve:
    @pytest.fixture()
    def config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_BALL)
        return path

    def test_profile_output(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["solve", "--config", str(config),
                       "--gamma", "-18.0", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert str(out / "solve_profile.csv") in printed
        header, columns, rows = read_csv(out / "solve_profile.csv")
        assert columns == ["r", "eta_minimal", "eta_maximal"]
        assert any(line == "# alpha = 100.0" for line in header)
        lo = np.array([float(x) for x in column(rows, columns, "eta_minimal")])
        hi = np.array([float(x) for x in column(rows, columns, "eta_maximal")])
        assert lo.size == 256
        assert np.all(lo <= hi + 1e-15)

    def test_grid_sweep_is_order_stable(self, config, tmp_path):
        grid = config.read_text() + "\n[grid]\ngamma = -20.0, -18.0, -16.0\n"
        cfg = tmp_path / "grid.ini"
        cfg.write_text(grid)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["solve", "--config", str(cfg), "--jobs", "3",
                         "--out", str(out_a)]) == 0
        assert cli.main(["solve", "--config", str(cfg), "--jobs", "1",
                         "--out", str(out_b)]) == 0
        _, columns_a, rows_a = read_csv(out_a / "solve_summary.csv")
        _, columns_b, rows_b = read_csv(out_b / "solve_summary.csv")
        assert columns_a == columns_b
        assert rows_a == rows_b
        assert column(rows_a, columns_a, "index") == ["0", "1", "2"]
        gammas = [float(g) for g in column(rows_a, columns_a, "gamma")]
        assert gammas == [-20.0, -18.0, -16.0]

    def test_grid_sweep_bytes_ignore_jobs_and_out(self, config, tmp_path):
        # out and jobs pick where and how a run happens, not what it computes
        grid = config.read_text() + "\n[grid]\ngamma = -20.0, -18.0\n"
        cfg = tmp_path / "grid.ini"
        cfg.write_text(grid)
        out_a, out_b = tmp_path / "a", tmp_path / "b-longer-name"
        assert cli.main(["solve", "--config", str(cfg), "--jobs", "3",
                         "--out", str(out_a)]) == 0
        assert cli.main(["solve", "--config", str(cfg), "--jobs", "1",
                         "--out", str(out_b)]) == 0
        first = (out_a / "solve_summary.csv").read_bytes()
        assert (out_b / "solve_summary.csv").read_bytes() == first
        assert b"# out" not in first and b"# jobs" not in first

    def test_grid_rows_are_the_single_launches(self, config, tmp_path):
        # the grid runs as one block; each row still holds, to the last
        # bit, minimal_solution and maximal_solution at its gamma
        cfg = tmp_path / "grid.ini"
        cfg.write_text(config.read_text() + "\n[grid]\ngamma = -20.0, -18.0, -16.0\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "solve_summary.csv")
        run = cli.load_config(cfg)
        spec, model, domain = run.kernel_spec(), run.eos_model(), run.domain()
        for row, gamma in zip(rows, run.gamma_grid):
            want = [0, gamma]
            for solve in (field.minimal_solution, field.maximal_solution):
                rep = solve(spec, run.alpha, gamma, domain, model=model, tol=run.tol)
                vals = functionals.functional_values(spec, run.alpha, gamma, rep.field,
                                                     model=model)
                want += [vals.N, vals.P, vals.F, rep.iterations, rep.residual]
            assert row[1:] == [cli._fmt(value) for value in want[1:]]

    def test_solve_starts_no_thread(self, config, tmp_path, monkeypatch):
        # jobs threads only phase-diagram; solve runs in the calling thread
        def refuse(*args, **kwargs):
            raise AssertionError("solve must not start a thread pool or a sweep")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(cli, "_sweep", refuse)
        cfg = tmp_path / "grid.ini"
        cfg.write_text(config.read_text() + "\n[grid]\ngamma = -20.0, -18.0\n")
        assert cli.main(["solve", "--config", str(cfg), "--jobs", "3",
                         "--out", str(tmp_path / "out")]) == 0

    def test_rerun_is_byte_identical(self, config, tmp_path):
        out = tmp_path / "out"
        args = ["solve", "--config", str(config), "--gamma", "-18.0",
                "--out", str(out)]
        assert cli.main(args) == 0
        first = (out / "solve_profile.csv").read_bytes()
        assert cli.main(args) == 0
        assert (out / "solve_profile.csv").read_bytes() == first


class TestPhaseDiagram:
    def test_landmark_columns(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "pd.ini"
        cfg.write_text(
            "[kernel]\na_y = 1.0\nkappa = 1.0\n"
            "[grid]\nalpha = 1.0, 2.0, 2.4669016\n")
        assert cli.main(["phase-diagram", "--config", str(cfg),
                         "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "phase_diagram.csv")
        assert columns[:3] == ["index", "alpha", "alpha_tau"]
        # alpha_tau = 4 pi alpha for the unit Yukawa kernel
        taus = [float(x) for x in column(rows, columns, "alpha_tau")]
        assert taus[0] == pytest.approx(4 * np.pi, rel=1e-12)
        # below the inflection slope there are no landmarks
        assert column(rows, columns, "gamma_coex")[0] == "nan"
        assert column(rows, columns, "criterion_fires") == ["0", "0", "1"]
        coex = float(column(rows, columns, "gamma_coex")[2])
        assert coex == pytest.approx(-5.015952690808389, abs=1e-6)
        check = float(column(rows, columns, "gamma_check")[2])
        hat = float(column(rows, columns, "gamma_hat")[2])
        assert check < coex < hat

    def test_alpha_grid_bytes_ignore_jobs(self, tmp_path):
        # jobs threads the phase-diagram sweep; rows stay in grid order
        cfg = tmp_path / "pd.ini"
        alphas = ", ".join(repr(float(a)) for a in np.linspace(1.0, 5.0, 9))
        cfg.write_text(f"[kernel]\na_y = 1.0\nkappa = 1.0\n[grid]\nalpha = {alphas}\n")
        written = []
        for jobs in ("1", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["phase-diagram", "--config", str(cfg), "--jobs", jobs,
                             "--out", str(out)]) == 0
            written.append((out / "phase_diagram.csv").read_bytes())
        assert written[0] == written[1]
        _, columns, rows = read_csv(tmp_path / "jobs3" / "phase_diagram.csv")
        assert column(rows, columns, "index") == [str(i) for i in range(9)]
        assert b"# jobs" not in written[0]

    def test_newton_kernel_is_config_error(self, tmp_path, capsys):
        # the landmarks rest on the kernel's L1 norm over R^3, which a
        # Newton part does not have
        out = tmp_path / "out"
        cfg = tmp_path / "pd.ini"
        cfg.write_text("[kernel]\na_n = 1.0\n[run]\nalpha = 1.0\n")
        assert cli.main(["phase-diagram", "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hardball: config error: kernel.a_n: ")
        assert "solver failure" not in err
        assert not out.exists()

    def test_negative_grid_alpha_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "pd.ini"
        cfg.write_text("[kernel]\na_y = 1.0\nkappa = 1.0\n[grid]\nalpha = -5, -4\n")
        assert cli.main(["phase-diagram", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert "grid.alpha" in capsys.readouterr().err
        assert not out.exists()


class TestTransition:
    @pytest.fixture()
    def config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_BALL + "\n[transition]\n"
                        "gamma_lo = -22.0\ngamma_hi = -14.0\npetit = no\n")
        return path

    def test_grand_only_summary(self, config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["transition", "--config", str(config),
                         "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "transition_summary.csv")
        values = dict(zip(column(rows, columns, "quantity"),
                          column(rows, columns, "value")))
        assert float(values["gamma_gl"]) == pytest.approx(-18.8386, abs=1e-3)
        assert float(values["delta_N"]) > 0.3
        assert float(values["gamma_gas"]) == float(values["gamma_liquid"])
        _, pcolumns, prows = read_csv(out / "transition_profiles.csv")
        assert pcolumns == ["r", "eta_gas", "eta_liquid"]
        gas = [float(x) for x in column(prows, pcolumns, "eta_gas")]
        liq = [float(x) for x in column(prows, pcolumns, "eta_liquid")]
        assert min(b - a for a, b in zip(gas, liq)) > 0

    def test_launches_only_the_ends_and_the_newton_gammas(self, config, tmp_path,
                                                           monkeypatch):
        # the top end is launched first and every launch is a gamma the
        # Newton evaluates: the low end only if it asks for it
        gammas, asked = [], set()
        pairs = field.extremal_pairs
        root_finder = phase._newton_on_gamma

        def recorder(spec, alpha, launched, *args, **kwargs):
            gammas.extend(map(float, launched))
            return pairs(spec, alpha, launched, *args, **kwargs)

        def recording_root_finder(evaluate, *args):
            def objective(g):
                asked.add(float(g))
                return evaluate(g)

            return root_finder(objective, *args)

        monkeypatch.setattr(field, "extremal_pairs", recorder)
        monkeypatch.setattr(phase, "_newton_on_gamma", recording_root_finder)
        assert cli.main(["transition", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0
        assert gammas[0] == -14.0
        assert len(gammas) == len(set(gammas))
        assert set(gammas) == asked

    def test_default_band_above_the_critical_coupling(self, tmp_path):
        # alpha l1 = 40 at R=30: the band's low end has coincident launches
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_BALL.replace("alpha = 100.0", "alpha = 3.183098861837907")
                       .replace("radius = 0.5", "radius = 30.0")
                       + "\n[transition]\npetit = no\n")
        out = tmp_path / "out"
        assert cli.main(["transition", "--config", str(cfg), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "transition_summary.csv")
        values = dict(zip(column(rows, columns, "quantity"),
                          column(rows, columns, "value")))
        assert float(values["gamma_gl"]) == pytest.approx(-6.5515003, abs=1e-6)
        assert float(values["delta_N"]) > 0.0

    @pytest.mark.parametrize("transition,unset", [
        pytest.param("petit = no\n", ["transition.gamma_lo and transition.gamma_hi"],
                     id="grand"),
        pytest.param("", ["transition.gamma_lo and transition.gamma_hi",
                          "transition.petit = no"], id="petit"),
        pytest.param("gamma_lo = -5.0\ngamma_hi = -3.0\n", ["transition.petit = no"],
                     id="petit-bracketed"),
    ])
    def test_newton_kernel_is_config_error(self, tmp_path, capsys, transition, unset):
        # a Newton part has no L1 norm over R^3: no algebraic band to
        # bracket by, and no droplet criterion
        cfg = tmp_path / "run.ini"
        cfg.write_text("[kernel]\na_n = 1.0\n[run]\nalpha = 1.0\nradius = 2.0\n"
                       "nodes = 64\n[transition]\n" + transition)
        out = tmp_path / "out"
        rc = cli.main(["transition", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("hardball: config error: kernel.a_n: ")
        assert err.rstrip().endswith("; set " + ", and ".join(unset))
        assert not out.exists()

    def test_weak_attraction_without_bracket_is_config_error(self, tmp_path,
                                                             capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_BALL.replace("alpha = 100.0", "alpha = 1.0")
                       + "\n[transition]\npetit = no\n")
        rc = cli.main(["transition", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "attraction too weak" in capsys.readouterr().err

    @pytest.mark.parametrize("keys,named", [
        pytest.param("gamma_lo = -10.0\n", "transition.gamma_hi", id="gamma_lo-only"),
        pytest.param("gamma_hi = -14.0\n", "transition.gamma_lo", id="gamma_hi-only"),
        pytest.param("mass_lo = 0.1\n", "transition.mass_hi", id="mass_lo-only"),
        pytest.param("mass_hi = 0.2\n", "transition.mass_lo", id="mass_hi-only"),
        pytest.param("gamma_lo = -14.0\ngamma_hi = -22.0\n", "transition.gamma_lo",
                     id="gamma-reversed"),
        pytest.param("mass_lo = 0.2\nmass_hi = 0.1\n", "transition.mass_lo",
                     id="mass-reversed"),
    ])
    def test_half_set_or_reversed_pair_is_config_error(self, tmp_path, capsys,
                                                       keys, named):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_BALL + "\n[transition]\n" + keys + "petit = no\n")
        rc = cli.main(["transition", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_negative_alpha_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_BALL.replace("alpha = 100.0", "alpha = -5"))
        rc = cli.main(["transition", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "run.alpha" in capsys.readouterr().err

    def test_one_signed_bracket_is_solver_failure(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_BALL + "\n[transition]\n"
                       "gamma_lo = -10.0\ngamma_hi = -8.0\npetit = no\n")
        rc = cli.main(["transition", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "solver failure" in capsys.readouterr().err

    def test_petit_default_reads_back_the_in_process_transition(self, tmp_path):
        # petit = yes and no gamma bracket: the grand crossing is located in
        # the algebraic band, then the vapor/droplet crossing in the mass bracket
        alpha, n_hat = 31.0 / (4.0 * np.pi), 453.4086905340539
        mass = (0.965 * n_hat, 0.968 * n_hat)
        config = tmp_path / "run.ini"
        config.write_text(
            "[eos]\nmode = cs-extended\n[kernel]\na_y = 1\nkappa = 1\n"
            f"[run]\nalpha = {alpha!r}\nradius = 15\nnodes = 64\n"
            f"[transition]\nmass_lo = {mass[0]!r}\nmass_hi = {mass[1]!r}\n")
        out = tmp_path / "out"
        assert cli.main(["transition", "--config", str(config),
                         "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "transition_summary.csv")
        values = dict(zip(column(rows, columns, "quantity"),
                          column(rows, columns, "value")))
        labels = ("gas", "liquid", "vapor", "droplet")
        assert list(values) == [
            "gamma_gl", "delta_N", "N_vd", "delta_Gamma", "delta_E", "delta_S",
            "embedding_ok", "crossings",
            *(f"{q}_{label}" for label in labels for q in ("gamma", "N", "P", "F"))]
        assert float(values["N_vd"]) == pytest.approx(438.1945, abs=1e-3)
        assert float(values["gamma_gl"]) == pytest.approx(-4.6552909, abs=1e-6)
        assert (values["embedding_ok"], values["crossings"]) == ("1", "1")

        cfg, profiles = cli.read_profiles(out / "transition_profiles.csv")
        assert (cfg.alpha, cfg.petit, (cfg.mass_lo, cfg.mass_hi)) == (alpha, True, mass)
        result = phase.petit_canonical_transition(
            cfg.kernel_spec(), alpha, cfg.domain(), N_bracket=mass,
            model=cfg.eos_model())
        assert float(values["N_vd"]) == result.N_vd
        assert sorted(profiles) == sorted(f"eta_{label}" for label in labels)
        for label in labels:
            expected = getattr(result, label).solution.field.values
            assert np.array_equal(profiles[f"eta_{label}"].values, expected)


class TestSpectral:
    def test_summary_and_eigenfield(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["spectral", "--radius", "1.0", "--nodes", "64",
                         "--alpha", "50.0", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "spectral_summary.csv")
        values = dict(zip(column(rows, columns, "quantity"),
                          column(rows, columns, "value")))
        v = float(values["v_lambda"])
        assert float(values["lower_bound"]) <= v < float(values["upper_bound"])
        assert float(values["alpha_v"]) == pytest.approx(50.0 * v, rel=1e-12)
        _, ecolumns, erows = read_csv(out / "spectral_eigenfield.csv")
        xi = [float(x) for x in column(erows, ecolumns, "xi")]
        assert len(xi) == 64 and min(xi) > 0

    def test_values_ignore_run_tol(self, tmp_path):
        data = []
        for tol in ("1e-6", "1e-12"):
            config = tmp_path / f"tol{tol}.ini"
            config.write_text("[kernel]\na_y = 1.0\nkappa = 1.0\n\n"
                              f"[run]\nradius = 5.0\nnodes = 128\ntol = {tol}\n")
            out = tmp_path / tol
            assert cli.main(["spectral", "--config", str(config), "--out", str(out)]) == 0
            data.append([read_csv(out / name)[1:] for name in
                         ("spectral_summary.csv", "spectral_eigenfield.csv")])
        assert data[0] == data[1]


class TestReadProfiles:
    @pytest.fixture()
    def config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_BALL)
        return path

    @pytest.fixture()
    def solve_profile(self, config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config),
                         "--gamma", "-18.0", "--out", str(out)]) == 0
        return out / "solve_profile.csv"

    def test_solve_profiles_equal_a_fresh_solve(self, config, solve_profile):
        cfg, profiles = cli.read_profiles(solve_profile)
        assert cfg == replace(cli.load_config(config), gamma=-18.0)
        assert sorted(profiles) == ["eta_maximal", "eta_minimal"]
        spec, model, domain = cfg.kernel_spec(), cfg.eos_model(), cfg.domain()
        lo = field.minimal_solution(spec, cfg.alpha, cfg.gamma, domain,
                                    model=model, tol=cfg.tol)
        hi = field.maximal_solution(spec, cfg.alpha, cfg.gamma, domain,
                                    model=model, tol=cfg.tol)
        for name, rep in (("eta_minimal", lo), ("eta_maximal", hi)):
            assert np.array_equal(profiles[name].domain.nodes, domain.nodes)
            assert np.array_equal(profiles[name].values, rep.field.values)

    def test_transition_profiles_equal_the_located_pair(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_BALL + "\n[transition]\n"
                          "gamma_lo = -22.0\ngamma_hi = -14.0\npetit = no\n")
        out = tmp_path / "out"
        assert cli.main(["transition", "--config", str(config),
                         "--out", str(out)]) == 0
        cfg, profiles = cli.read_profiles(out / "transition_profiles.csv")
        assert cfg == cli.load_config(config)
        assert sorted(profiles) == ["eta_gas", "eta_liquid"]
        result = phase.grand_canonical_transition(
            cfg.kernel_spec(), cfg.alpha, cfg.domain(), (cfg.gamma_lo, cfg.gamma_hi),
            model=cfg.eos_model())
        _, columns, rows = read_csv(out / "transition_summary.csv")
        values = dict(zip(column(rows, columns, "quantity"),
                          column(rows, columns, "value")))
        assert float(values["gamma_gl"]) == result.gamma_gl
        assert float(values["delta_N"]) == result.delta_N
        for label in ("gas", "liquid"):
            fld = profiles[f"eta_{label}"]
            assert np.array_equal(fld.domain.nodes, cfg.domain().nodes)
            expected = getattr(result, label).solution.field.values
            assert np.array_equal(fld.values, expected)

    def test_shifted_r_is_rejected(self, solve_profile):
        lines = solve_profile.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("r,")) + 5
        r, rest = lines[row].split(",", 1)
        lines[row] = f"{float(r) + 1e-9!r},{rest}"
        solve_profile.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="r column does not match"):
            cli.read_profiles(solve_profile)

    def test_short_row_is_rejected(self, solve_profile):
        lines = solve_profile.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        solve_profile.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="width"):
            cli.read_profiles(solve_profile)

    def test_unknown_header_key_is_rejected(self, solve_profile):
        text = solve_profile.read_text()
        solve_profile.write_text(text.replace("# alpha = ", "# bogus = 1\n# alpha = "))
        with pytest.raises(ValueError, match="'bogus' is not a RunConfig field"):
            cli.read_profiles(solve_profile)

    def test_files_without_profiles_are_rejected(self, config, solve_profile,
                                                 tmp_path):
        text = solve_profile.read_text()
        solve_profile.write_text(text.replace("r,eta_minimal,eta_maximal",
                                              "r,xi_minimal,xi_maximal"))
        with pytest.raises(ValueError, match="no eta_"):
            cli.read_profiles(solve_profile)
        grid = tmp_path / "grid.ini"
        grid.write_text(config.read_text() + "\n[grid]\ngamma = -20.0, -18.0\n")
        out = tmp_path / "grid"
        assert cli.main(["solve", "--config", str(grid), "--out", str(out)]) == 0
        with pytest.raises(ValueError, match="no r column"):
            cli.read_profiles(out / "solve_summary.csv")


# imports the package, then runs each command in turn and prints the scipy
# modules loaded after each step
_FOOTPRINT = """
import json, sys
import hardball, hardball.cli
loaded = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
for step in json.loads(sys.argv[1]):
    assert hardball.cli.main(step) == 0
    loaded[step[0]] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def test_commands_without_stability_load_no_scipy(tmp_path):
    # the root finder is the package's own; scipy's eigensolvers load on
    # first use, so start-up and the solve paths pay for no scipy module
    config = tmp_path / "run.ini"
    config.write_text(SMALL_BALL.replace("nodes = 256", "nodes = 64") + "\n[transition]\n"
                      "gamma_lo = -22.0\ngamma_hi = -14.0\npetit = no\n")
    steps = [[cmd, "--config", str(config), "--out", str(tmp_path / cmd), *extra]
             for cmd, extra in (("solve", ["--gamma", "-18.0"]), ("transition", []),
                                ("spectral", []))]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(steps)], env=env,
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["solve"] == []
    assert loaded["transition"] == []
    assert "scipy.sparse.linalg" in loaded["spectral"]
    assert "scipy.optimize" not in loaded["spectral"]
