"""Tests for the batch front end.

Oracles: the frozen fluid-solid constants for the eos table endpoints,
the small-container transition location recomputed by the phase module
tests, byte comparison for determinism, and exit codes checked against
the documented contract (0 success, 1 solver failure, 2 config error).
"""

import numpy as np
import pytest

from hardball import cli, field, phase

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

    def test_scan_and_locate_launch_each_gamma_once(self, config, tmp_path,
                                                    monkeypatch):
        # the scan's sub-bracket ends are not solved again by the locator
        gammas, asked, brackets = [], set(), []
        maximal = field.maximal_solution
        root_finder = phase._newton_on_gamma

        def recorder(spec, alpha, gamma, *args, **kwargs):
            gammas.append(float(gamma))
            return maximal(spec, alpha, gamma, *args, **kwargs)

        def recording_root_finder(evaluate, gamma, window, *args, **kwargs):
            brackets.append(window)

            def objective(g):
                asked.add(float(g))
                return evaluate(g)

            return root_finder(objective, gamma, window, *args, **kwargs)

        monkeypatch.setattr(field, "maximal_solution", recorder)
        monkeypatch.setattr(phase, "_newton_on_gamma", recording_root_finder)
        assert cli.main(["transition", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0
        # the scan visits its grid up to the sub-bracket it hands to the root finder
        [(_, right)] = brackets
        grid = np.linspace(-22.0, -14.0, phase._SCAN_POINTS)
        asked |= {float(g) for g in grid if g <= right}
        assert len(gammas) == len(set(gammas))
        assert set(gammas) == asked

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
