import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tzlab.cli
import tzlab.experiments
from tzlab import ExpUnderflow, ScalarField, Solution, build_grid
from tzlab.cli import (EXIT_CHECKFAIL, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                       _write_csv, _write_solution, main)

from conftest import node_coordinates


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "unknown command" in capsys.readouterr().err

    def test_bad_grid_parameter_reports_key(self, tmp_path, capsys):
        rc = main(["solve", "--rho1", "1", "--rho2", "1", "--n", "63",
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "--n" in capsys.readouterr().err

    def test_bad_recipe_reports_key(self, tmp_path, capsys):
        rc = main(["solve", "--rho1", "1", "--rho2", "1", "--h1", "1+bogus(x)",
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "--h1" in capsys.readouterr().err

    def test_missing_required_rho(self, tmp_path, capsys):
        rc = main(["solve", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "--rho1" in capsys.readouterr().err

    def test_subnormal_weight_is_config_error(self, tmp_path, capsys):
        # the weight's exponential integrals would descend on subnormals
        rc = main(["solve", "--rho1", "5", "--rho2", "3", "--n", "64",
                   "--h1", "1e-320", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--h1" in err and "smallest normal" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [("--h1", "1e-320"), ("--rho1", "-1")])
    def test_params_rejection_names_its_flag(self, tmp_path, capsys, flag, value):
        rc = main(["solve", "--rho1", "5", "--rho2", "3", "--n", "16",
                   f"{flag}={value}", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"tzlab: {flag}: ")
        assert [f for f in ("--rho1", "--rho2", "--h1", "--h2") if f in err] == [flag]

    @pytest.mark.parametrize("recipe", ["(" * 400 + "1" + ")" * 400, "-" * 3000 + "1",
                                        "+".join(["x"] * 3000)],
                             ids=["parentheses", "unary-minus", "long-sum"])
    def test_deep_recipe_is_config_error(self, tmp_path, capsys, recipe):
        rc = main(["solve", "--rho1", "5", "--rho2", "3", "--n", "16",
                   "--h1=" + recipe, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("tzlab: --h1: ")

    def test_numerical_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        def underflow(*args, **kwargs):
            raise ExpUnderflow("exponential integral underflowed to zero")

        monkeypatch.setattr(tzlab.cli, "minimize", underflow)
        rc = main(["solve", "--rho1", "5", "--rho2", "3", "--n", "16",
                   "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("tzlab: ")
        assert "underflowed" in err[0]

    @pytest.mark.parametrize("argv", [
        ["asymptotics", "--n", "64", "--lambdas", "400,25"],
        ["asymptotics", "--n", "256", "--lambdas", "400,25"],
        ["bubble-sweep", "--n", "64", "--lambdas", "25,inf"],
        ["mt-scan", "--n", "64", "--lambdas", "0,25"],
        ["mt-scan", "--n", "64", "--lambdas", "25,nan"],
        ["asymptotics", "--n", "64", "--lambdas", "25,25"],
    ], ids=["decreasing-n64", "decreasing-n256", "infinite", "zero", "nan", "repeated"])
    def test_bad_lambdas_rejected_before_any_bubble(self, tmp_path, capsys,
                                                    monkeypatch, argv):
        def no_bubble(*args):
            raise AssertionError("a bubble was built")

        monkeypatch.setattr(tzlab.experiments, "build_bubble", no_bubble)
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
        assert "--lambdas" in capsys.readouterr().err

    def test_bad_lambdas_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[asymptotics]\nlambdas = 400,25\n")
        rc = main(["--config", str(cfg), "asymptotics", "--n", "256",
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "--lambdas" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--step", "7e-4"],
        ["--step", "3e-4"],
        ["--r-max", "2", "--step", "3e-4"],
        ["--step", "0"],
        ["--r-max", "inf"],
    ], ids=["7e-4-overshoots", "3e-4-undershoots", "r-max-2", "zero-step", "infinite-r-max"])
    def test_step_not_dividing_r_max_is_config_error(self, tmp_path, capsys,
                                                     monkeypatch, argv):
        def no_shoot(*args):
            raise AssertionError("a trajectory was shot")

        monkeypatch.setattr(tzlab.experiments, "shoot", no_shoot)
        rc = main(["radial-sweep", "--alphas", "2"] + argv + ["--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("tzlab: --step: ")
        assert not (tmp_path / "radial-sweep.csv").exists()

    def test_check_failure_exits_two(self, tmp_path):
        # lambda 400 on a 64-node grid violates the adequacy rule: the sweep
        # is skipped, the check fails
        rc = main(["bubble-sweep", "--n", "64", "--lambdas", "100,400",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["passed"] is False
        assert summary["checks"]["grid_adequate"] is False


class TestSolve:
    def test_documented_invocation(self, tmp_path):
        rc = main(["solve", "--rho1", "12.566", "--rho2", "6.283",
                   "--h1", "1+0.5*cos(2*pi*x)", "--n", "64",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        sol = json.loads((tmp_path / "solution.json").read_text())
        assert sol["converged"] is True
        assert sol["residual_norm"] < 1e-8
        assert sol["config"]["rho1"] == 12.566
        assert "versions" in sol

    def test_summary_reports_descent_counters(self, tmp_path):
        main(["solve", "--rho1", "12.566", "--rho2", "6.283", "--n", "32",
              "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())["summary"]
        assert summary["energy_evals"] == 1 + summary["iterations"] + summary["backtracks"]
        assert read_csv(tmp_path / "solution.csv")[0] == ["x", "y", "u"]

    def test_streamed_dump_matches_write_csv(self, tmp_path):
        grid = build_grid(8)
        values = np.linspace(-3.0, 3.0, 64).reshape(8, 8)
        values[0, :5] = [-0.0, 5e-324, 1e-300, 1e300, -1e300]
        values[3, 3] = 0.1 + 0.2
        sol = Solution(ScalarField(grid, values), 0.0, 0.0, 0, True, 1, 0)
        _write_solution(tmp_path, argparse.Namespace(), sol)
        ref = tmp_path / "ref.csv"
        X, Y = node_coordinates(grid)
        _write_csv(ref, ["x", "y", "u"], zip(X.ravel(), Y.ravel(), values.ravel()))
        assert (tmp_path / "solution.csv").read_bytes() == ref.read_bytes()

    def test_solution_csv_row_major_x_fastest(self, tmp_path):
        main(["solve", "--rho1", "1", "--rho2", "1", "--n", "8",
              "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "solution.csv")
        assert rows[0] == ["x", "y", "u"]
        assert len(rows) == 1 + 64
        xs = [float(r[0]) for r in rows[1:10]]
        ys = [float(r[1]) for r in rows[1:10]]
        assert xs[:8] == pytest.approx([i / 8 for i in range(8)])  # x varies first
        assert ys[:8] == pytest.approx([0.0] * 8)

    def test_outside_coercive_region_fails(self, tmp_path):
        # a discrete minimizer exists at any rho, so convergence alone
        # must not pass the command
        with pytest.warns(UserWarning, match="coercive"):
            rc = main(["solve", "--rho1", "2000", "--rho2", "0", "--n", "16",
                       "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["coercive_regime"] is False


class TestImports:
    def test_cli_import_pulls_no_scipy(self):
        src = str(Path(tzlab.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import tzlab.cli, sys; "
                "assert not any(m.startswith('scipy') for m in sys.modules)")
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestQuantizationTable:
    def test_rows_satisfy_relation(self, tmp_path):
        rc = main(["quantization-table", "--m-min", "-3", "--m-max", "3",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "quantization-table.csv")
        assert rows[0] == ["family", "m", "sigma1", "sigma2"]
        for _, _, s1, s2 in rows[1:]:
            s1, s2 = int(s1), int(s2)
            assert (s1 - s2) ** 2 == 4 * s1 + 2 * s2


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[quantization-table]\nm_min = -2\nm_max = 2\n")
        out1 = tmp_path / "a"
        rc = main(["--config", str(cfg), "quantization-table", "--out", str(out1)])
        assert rc == EXIT_OK
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["config"]["m_min"] == -2
        out2 = tmp_path / "b"
        rc = main(["--config", str(cfg), "quantization-table", "--m-min", "0",
                   "--out", str(out2)])
        assert rc == EXIT_OK
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["config"]["m_min"] == 0  # flag beats config

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[quantization-table]\nwibble = 3\n")
        rc = main(["--config", str(cfg), "quantization-table", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "wibble" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "nope.ini"), "quantization-table",
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE


class TestMtScanCommand:
    def test_default_scan_passes(self, tmp_path):
        rc = main(["mt-scan", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "mt-scan.csv")
        assert rows[0] == ["family", "a1", "a2", "fitted_slope",
                           "predicted_slope", "rel_error", "pass", "skipped"]
        assert len(rows) == 1 + 2 * 9  # both families over the 3x3 lattice
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["summary"]["plus_crossing"] - 8 * np.pi) < 2.0
        assert abs(summary["summary"]["minus_crossing"] - 4 * np.pi) < 1.0


class TestRadialSweepCommand:
    def test_rows_and_checks(self, tmp_path):
        rc = main(["radial-sweep", "--alphas", "0,5", "--h2-const", "0",
                   "--step", "0.0005", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "radial-sweep.csv")
        assert rows[0][0] == "alpha"
        assert len(rows) == 3

    def test_sigma_reported_at_r_max(self, tmp_path):
        # step 5e-4 divides r_max 2: the masses are the Liouville ones at r = 2
        rc = main(["radial-sweep", "--alphas", "4", "--h2-const", "0", "--r-max", "2",
                   "--step", "5e-4", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        sigma1 = float(read_csv(tmp_path / "radial-sweep.csv")[1][1])
        mu2 = np.exp(4.0) / 8.0 * 2.0**2
        assert sigma1 == pytest.approx(4.0 * mu2 / (1.0 + mu2), abs=1e-8)

    def test_overflowing_row_is_typed(self, tmp_path, capsys):
        # the series start puts u(3 step) near 3e292: the first exp overflows
        rc = main(["radial-sweep", "--alphas", "5", "--h1-const", "1e150",
                   "--h2-const", "0", "--step", "1e-3", "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        rows = read_csv(tmp_path / "radial-sweep.csv")
        assert len(rows) == 2
        assert rows[1][rows[0].index("error")].startswith("TrajectoryOverflow: ")
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "[FAIL] radial-sweep: all_rows_computed" in captured.out


class TestDeterminism:
    def test_identical_csv_bytes_and_thread_independence(self, tmp_path, monkeypatch):
        args = ["asymptotics", "--n", "64", "--lambdas", "10,20,40"]
        monkeypatch.setenv("TZLAB_THREADS", "1")
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        monkeypatch.setenv("TZLAB_THREADS", "4")
        main(args + ["--out", str(tmp_path / "c")])
        ref = (tmp_path / "a" / "asymptotics.csv").read_bytes()
        assert (tmp_path / "b" / "asymptotics.csv").read_bytes() == ref
        assert (tmp_path / "c" / "asymptotics.csv").read_bytes() == ref

    def test_csv_headers_everywhere(self, tmp_path):
        main(["bubble-sweep", "--n", "64", "--lambdas", "10,20",
              "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "bubble-sweep.csv")
        assert rows[0] == ["lambda", "energy"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert {"command", "config", "versions", "checks", "passed"} <= set(summary)


VERIFY_ALL_CHECKS = [
    "quantization.hyperbola_exact", "quantization.divisibility",
    "quantization.origin_excluded", "radial.all_rows_computed",
    "radial.pohozaev_small", "radial.order_at_least_3_5",
    "radial.liouville_mass", "radial.liouville_class_is_type_I_1",
    "mt_scan.all_cells_pass", "mt_scan.plus_crossing_at_sharp",
    "mt_scan.minus_crossing_at_sharp", "asymptotics.gradient_slope",
    "asymptotics.log_int_plus_slope", "asymptotics.log_int_minus_slope",
    "asymptotics.mean_slope", "bubble_sweep.slope_matches",
    "bubble_sweep.grid_adequate", "bubble_sweep.diverges",
    "solve.coercive_grid_converges", "solve.gradient_fd_consistent",
]
VERIFY_ALL_CSVS = ["asymptotics.csv", "bubble-sweep.csv", "mt-scan.csv",
                   "quantization-table.csv", "radial-sweep.csv", "solution.csv",
                   "solve.csv"]


class TestVerifyAll:
    def test_thread_independent_csvs_and_check_order(self, tmp_path, monkeypatch, capsys):
        outs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("TZLAB_THREADS", threads)
            outs[threads] = tmp_path / threads
            main(["verify-all", "--n", "64", "--out", str(outs[threads])])
            names = [line.split("verify-all: ", 1)[1]
                     for line in capsys.readouterr().out.splitlines()]
            assert names == VERIFY_ALL_CHECKS
        csvs = sorted(p.name for p in outs["1"].glob("*.csv"))
        assert csvs == VERIFY_ALL_CSVS
        for name in csvs:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()
