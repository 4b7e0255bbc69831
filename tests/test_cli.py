import argparse
import csv
import json
import os
import subprocess
import sys
import threading
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


@pytest.fixture
def no_bubble(monkeypatch):
    """Fail the test if a sweep builds a bubble."""
    def refuse(*args):
        raise AssertionError("a bubble was built")

    monkeypatch.setattr(tzlab.experiments, "_bubble_exps", refuse)


@pytest.fixture
def no_shoot(monkeypatch):
    """Fail the test if a radial trajectory is shot."""
    def refuse(*args):
        raise AssertionError("a trajectory was shot")

    monkeypatch.setattr(tzlab.radial, "shoot", refuse)


@pytest.fixture
def no_descent(monkeypatch):
    """Fail the test if a descent starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("a descent was started")

    monkeypatch.setattr(tzlab.cli, "minimize", refuse)


@pytest.fixture
def no_work(no_bubble, no_shoot, no_descent):
    """Fail the test if a command builds a bubble, shoots or descends."""


def assert_usage_error(rc, capsys, prefix, out=None):
    """Exit 1 with exactly one stderr line, which starts with ``prefix``,
    and no ``out`` directory left behind; the line."""
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    assert out is None or not out.exists()
    return err[0]


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_help_lists_every_command(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        for command in ("solve", "mt-scan", "bubble-sweep", "asymptotics",
                        "radial-sweep", "quantization-table", "verify-all"):
            assert command in out

    def test_config_after_command_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["quantization-table", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "cannot read" not in err
        assert not out.exists()

    def test_empty_m_range_names_m_min(self, tmp_path, capsys):
        rc = main(["quantization-table", "--m-min", "3", "--m-max", "1",
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("tzlab: --m-min: ")
        assert not (tmp_path / "quantization-table.csv").exists()

    def test_config_error_leaves_no_out_directory(self, tmp_path, capsys):
        argv = ["quantization-table", "--m-min", "3", "--m-max", "1", "--out"]
        assert main(argv + [str(tmp_path / "qq")]) == EXIT_USAGE
        assert not (tmp_path / "qq").exists()
        existing = tmp_path / "kept"
        existing.mkdir()
        assert main(argv + [str(existing)]) == EXIT_USAGE
        assert existing.is_dir() and not any(existing.iterdir())

    def test_nested_out_is_created_at_first_write(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["quantization-table", "--out", str(out)]) == EXIT_OK
        assert (out / "quantization-table.csv").exists() and (out / "summary.json").exists()

    @pytest.mark.parametrize("argv,value", [
        (["solve", "--rho1", "1", "--rho2", "1"], "63"), (["mt-scan"], "0"),
        (["bubble-sweep"], "6"), (["asymptotics"], "x"), (["verify-all"], "0"),
        (["verify-all"], "63"),
    ], ids=["solve-63", "mt-scan-0", "bubble-sweep-6", "asymptotics-x", "verify-all-0",
            "verify-all-63"])
    def test_bad_grid_parameter_reports_key(self, tmp_path, capsys, no_work, argv, value):
        # --n is checked as it is parsed: verify-all writes no stage's CSV
        rc = main(argv + ["--n", value, "--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, "tzlab: --n: ", tmp_path / "o")

    def test_overflowing_recipe_is_one_stderr_line(self, tmp_path):
        src = str(Path(tzlab.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "tzlab.cli", "solve", "--rho1", "1", "--rho2", "1",
             "--h1", "1e308*10", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "tzlab: --h1: field values must be finite\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("argv,flag,value", [
        (["solve", "--rho1", "5", "--rho2", "3", "--n", "16"], "--h1", "1e-320"),
        (["solve", "--rho1", "5", "--rho2", "3", "--n", "16"], "--rho1", "-1"),
        (["solve", "--rho1", "5", "--rho2", "3", "--n", "16"], "--rho2", "3,nan"),
        (["solve", "--rho1", "5", "--rho2", "3", "--n", "16"], "--rho1", "5,inf"),
        (["bubble-sweep", "--n", "64"], "--rho1", "-1"),
        (["bubble-sweep", "--n", "64"], "--rho2", "inf"),
        (["bubble-sweep", "--n", "64"], "--h2", "1e-320"),
    ], ids=["--h1-1e-320", "--rho1--1", "--rho2-list-nan", "--rho1-list-inf",
            "bubble-sweep-rho1-negative", "bubble-sweep-rho2-inf", "bubble-sweep-h2-1e-320"])
    def test_params_rejection_names_its_flag(self, tmp_path, capsys, no_work,
                                             argv, flag, value):
        rc = main(argv + [f"{flag}={value}", "--out", str(tmp_path / "o")])
        err = assert_usage_error(rc, capsys, f"tzlab: {flag}: ", tmp_path / "o")
        assert [f for f in ("--rho1", "--rho2", "--h1", "--h2") if f in err] == [flag]

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "16", "--rho1", "1", "--rho2", "1"],
        ["bubble-sweep", "--n", "16", "--lambdas", "1,2"],
    ], ids=["solve", "bubble-sweep"])
    def test_weight_whose_integral_overflows_names_its_flag(self, tmp_path, capsys,
                                                            no_work, argv):
        # 1e308 on each of 16^2 cells sums past the largest double: the
        # integral would overflow, which is no numerical failure of the run
        rc = main(argv + ["--h1", "1e308", "--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, "tzlab: --h1: h1 must be at most the largest double",
                           tmp_path / "o")

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "16", "--rho1", "1", "--rho2", "1"],
        ["bubble-sweep", "--n", "16", "--lambdas", "1,2"],
    ], ids=["solve", "bubble-sweep"])
    def test_weight_whose_integral_overflows_is_one_stderr_line(self, tmp_path, argv):
        src = str(Path(tzlab.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "tzlab.cli", *argv, "--h1", "1e308",
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("tzlab: --h1: h1 must be at most the largest double")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_sweep_integral_exits_three(self, tmp_path, capsys):
        # a weight just inside Params' bound times a bubble's e^phi > 1
        rc = main(["bubble-sweep", "--n", "64", "--lambdas", "25,50", "--h1", "4e304",
                   "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert err == ["tzlab: numerical failure: exponential integral overflowed"]

    @pytest.mark.parametrize("recipe", ["(" * 400 + "1" + ")" * 400, "-" * 3000 + "1",
                                        "+".join(["x"] * 3000)],
                             ids=["parentheses", "unary-minus", "long-sum"])
    def test_deep_recipe_is_config_error(self, tmp_path, capsys, recipe):
        rc = main(["solve", "--rho1", "5", "--rho2", "3", "--n", "16",
                   "--h1=" + recipe, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("tzlab: --h1: ")

    def test_library_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        # only ConfigError means usage; a ValueError from inside a command
        # is a program fault and propagates
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(tzlab.cli, "alpha_sweep", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["radial-sweep", "--out", str(tmp_path)])

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
        ["asymptotics", "--n", "64", "--lambdas", "25"],
        ["bubble-sweep", "--n", "64", "--lambdas", "25"],
        ["mt-scan", "--n", "64", "--lambdas", "25"],
    ], ids=["decreasing-n64", "decreasing-n256", "infinite", "zero", "nan", "repeated",
            "one-asymptotics", "one-bubble-sweep", "one-mt-scan"])
    def test_bad_lambdas_rejected_before_any_bubble(self, tmp_path, capsys, no_work, argv):
        rc = main(argv + ["--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, "tzlab: --lambdas: ", tmp_path / "o")

    @pytest.mark.parametrize("command", ["asymptotics", "bubble-sweep", "mt-scan"])
    def test_no_bubble_guard_sees_the_sweeps(self, tmp_path, no_bubble, command):
        # the guard above is real: a valid sweep under it builds a bubble
        with pytest.raises(AssertionError, match="a bubble was built"):
            main([command, "--n", "64", "--lambdas", "10,20", "--out", str(tmp_path)])

    @pytest.mark.parametrize("guard,argv", [
        ("no_shoot", ["radial-sweep", "--alphas", "2", "--step", "1e-3"]),
        ("no_descent", ["solve", "--rho1", "1", "--rho2", "1", "--n", "8"]),
    ], ids=["shoot", "descent"])
    def test_shoot_and_descent_guards_see_the_work(self, request, tmp_path, guard, argv):
        request.getfixturevalue(guard)
        with pytest.raises(AssertionError, match="was (shot|started)"):
            main(argv + ["--out", str(tmp_path)])

    @pytest.mark.parametrize("out", ["kept.txt", "kept.txt/sub"],
                             ids=["existing-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, out):
        kept = tmp_path / "kept.txt"
        kept.write_text("kept\n")
        rc = main(["quantization-table", "--out", str(tmp_path / out)])
        assert_usage_error(rc, capsys, "tzlab: --out: ")
        assert kept.read_text() == "kept\n"

    def test_bad_lambdas_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[asymptotics]\nlambdas = 400,25\n")
        rc = main(["--config", str(cfg), "asymptotics", "--n", "256",
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "--lambdas" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("asymptotics", "lambdas", "25"), ("bubble-sweep", "lambdas", "25"),
        ("mt-scan", "lambdas", "25"), ("mt-scan", "a1", "25"), ("mt-scan", "a2", "12.5"),
    ])
    def test_one_value_fit_list_in_config_file(self, tmp_path, capsys, no_bubble,
                                               command, key, value):
        # a slope fit over one lambda is 0/0; a crossing needs two coefficients
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{command}]\n{key} = {value}\n")
        rc = main(["--config", str(cfg), command, "--n", "64", "--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, f"tzlab: config [{command}] {key} (--{key}): ",
                           tmp_path / "o")

    @pytest.mark.parametrize("argv", [
        ["solve", "--rho1", "1", "--rho2", "1", "--seed=-1"],
        ["solve", "--rho1", "1", "--rho2", "1", "--seed=0,-1"],
        ["solve", "--rho1", "1", "--rho2", "1", "--seed=1.5"],
        ["verify-all", "--seed=-1"],
    ], ids=["solve", "solve-list", "solve-fraction", "verify-all"])
    def test_bad_seed_names_the_flag_and_writes_nothing(self, tmp_path, capsys, no_work, argv):
        rc = main(argv + ["--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, "tzlab: --seed: ", tmp_path / "o")

    # a step need not divide --r-max (see TestRadialSweepCommand); these
    # take no positive whole number of steps, or more than 10^7
    @pytest.mark.parametrize("argv", [
        ["--step", "0"],
        ["--step", "1e-9"],
        ["--step", "nan"],
        ["--step", "-1e-4"],
        ["--step", "inf"],
    ], ids=["zero-step", "1e-9-too-many", "nan-step", "negative-step", "inf-step"])
    def test_step_not_dividing_r_max_is_config_error(self, tmp_path, capsys, no_work, argv):
        rc = main(["radial-sweep", "--alphas", "2"] + argv + ["--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, "tzlab: --step: ", tmp_path / "o")

    @pytest.mark.parametrize("flag,value", [
        ("--alphas", "nan"), ("--alphas", "2,inf"), ("--h1-const", "nan"),
        ("--h1-const", "0"), ("--h1-const", "inf"), ("--h2-const", "-1"),
        ("--h2-const", "nan"), ("--r-max", "nan"), ("--r-max", "inf"), ("--r-max", "-1"),
        ("--h2-const", "0,-1"), ("--alphas", "1,x"), ("--alphas", ","), ("--h1-const", "-1"),
    ])
    def test_bad_radial_input_names_its_flag(self, tmp_path, capsys, no_work, flag, value):
        rc = main(["radial-sweep", "--alphas", "2", f"{flag}={value}",
                   "--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, f"tzlab: {flag}: ", tmp_path / "o")

    @pytest.mark.parametrize("command", ["bubble-sweep", "asymptotics"])
    @pytest.mark.parametrize("argv,flag", [
        (["--s", "nan"], "--s"), (["--s", "1.5"], "--s"), (["--k", "0"], "--k"),
        (["--k", "5"], "--k"), (["--l", "-1"], "--l"), (["--l", "5"], "--l"),
        (["--k", "3", "--l", "2"], "--k"),
    ], ids=["s-nan", "s-above-1", "k-zero", "k-five", "l-negative", "l-five", "k-plus-l-five"])
    def test_bad_join_names_its_flag(self, tmp_path, capsys, no_work, command, argv, flag):
        rc = main([command, "--n", "64"] + argv + ["--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, f"tzlab: {flag}: ", tmp_path / "o")

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "inf"),
        ("--max-iters", "-5"), ("--max-iters", "1.5"),
    ], ids=["tol-nan", "tol-negative", "tol-zero", "tol-inf", "max-iters-negative",
            "max-iters-fraction"])
    def test_bad_solve_stopping_rule_is_config_error(self, tmp_path, capsys, no_work,
                                                     flag, value):
        rc = main(["solve", "--rho1", "5", "--rho2", "3", "--n", "16",
                   f"{flag}={value}", "--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, f"tzlab: {flag}: ", tmp_path / "o")

    @pytest.mark.parametrize("flag,value", [
        ("--a1", "nan"), ("--a1", "-5,1"), ("--a2", "4,inf"), ("--a2", "-0.5"),
        ("--a1", "27.13,25.13,23.13"), ("--a2", "12,12"), ("--a1", "25"), ("--a2", "12.5"),
    ], ids=["a1-nan", "a1-negative", "a2-infinite", "a2-negative",
            "a1-descending", "a2-repeated", "a1-one", "a2-one"])
    def test_bad_mt_coefficients_rejected_before_any_bubble(self, tmp_path, capsys,
                                                            no_work, flag, value):
        rc = main(["mt-scan", "--n", "64", f"{flag}={value}", "--out", str(tmp_path / "o")])
        assert_usage_error(rc, capsys, f"tzlab: {flag}: ", tmp_path / "o")

    def test_bad_mt_coefficients_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[mt-scan]\na1 = nan\n")
        rc = main(["--config", str(cfg), "mt-scan", "--n", "64", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "--a1" in capsys.readouterr().err

    def test_check_failure_exits_two(self, tmp_path):
        # lambda 400 on a 64-node grid violates the adequacy rule: the sweep
        # is skipped, the check fails
        rc = main(["bubble-sweep", "--n", "64", "--lambdas", "100,400",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["passed"] is False
        assert summary["checks"]["grid_adequate"] is False

    def test_overflowed_slope_prediction_fails(self, tmp_path):
        # 16 pi - 2 rho1 overflows to -inf, and max(0.5, 10% of inf) would
        # let any fit pass
        rc = main(["bubble-sweep", "--n", "8", "--lambdas", "1,2", "--rho1", "1e308",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["slope_matches"] is False

    @pytest.mark.parametrize("argv,check", [
        (["bubble-sweep", "--n", "8", "--lambdas", "1e-300,2e-300"], "slope_matches"),
        (["asymptotics", "--n", "8", "--lambdas", "1e-300,2e-300"], "gradient_slope"),
        (["mt-scan", "--n", "8", "--a1", "0,1e308"], "plus_crossing_at_sharp"),
        # measured cells: the values and their fits overflow too, but not the crossing
        (["mt-scan", "--n", "64", "--lambdas", "1,2", "--a1", "0,1e308"], None),
    ], ids=["bubble-sweep-0/0", "asymptotics-0/0", "mt-scan-skipped", "mt-scan-measured"])
    def test_nan_slope_or_crossing_fails_without_warning(self, tmp_path, capsys, argv, check):
        # every log(lambda + 1) rounds to 0, so the fit is 0/0; or a
        # coefficient near the largest double overflows J's slopes.  Under
        # filterwarnings = error a numpy warning would raise; the command
        # fails, stderr stays empty, and the NaN or inf value is null
        rc = main(argv + ["--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "summary.json").read_text())
        if check:
            assert summary["checks"][check] is False
            assert summary["values"][check]["value"] is None
        else:
            # the slopes 7.31 and -2.72e307 change sign inside [0, 1e308]:
            # the crossing, 26.8566, is finite
            offset = summary["values"]["plus_crossing_at_sharp"]["value"]
            assert offset == pytest.approx(26.856620197063357 - 8.0 * np.pi, rel=1e-12)


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
        sol = json.loads((tmp_path / "solution.json").read_text())
        assert sol["energy_evals"] == 1 + sol["iterations"] + sol["backtracks"]
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

    def test_outside_coercive_region_fails(self, tmp_path, capsys):
        # a discrete minimizer exists at any rho, so convergence alone
        # must not pass the command; the check alone reports it, and under
        # filterwarnings = error a warning would raise
        rc = main(["solve", "--rho1", "2000", "--rho2", "0", "--n", "16",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["coercive_regime"] is False

    def test_lists_run_rho1_outermost_seed_innermost(self, tmp_path):
        rc = main(["solve", "--rho1", "1,2", "--rho2", "3,4", "--seed", "5,6", "--n", "8",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "solve.csv")
        assert rows[0] == ["rho1", "rho2", "seed", "converged", "residual_norm",
                           "energy", "iterations"]
        assert [tuple(r[:3]) for r in rows[1:]] == [
            (rho1, rho2, seed) for rho1 in ("1.0", "2.0") for rho2 in ("3.0", "4.0")
            for seed in ("5", "6")]
        # solution.* are the last solve's, at its scalar config
        config = json.loads((tmp_path / "solution.json").read_text())["config"]
        assert (config["rho1"], config["rho2"], config["seed"]) == (2.0, 4.0, 6)
        last = tmp_path / "last"
        main(["solve", "--rho1", "2", "--rho2", "4", "--seed", "6", "--n", "8",
              "--out", str(last)])
        for name in ("solution.csv", "solution.json"):
            ref = (last / name).read_text().replace(str(last), str(tmp_path))
            assert (tmp_path / name).read_text() == ref
        assert read_csv(last / "solve.csv")[1] == rows[-1]

    def test_residual_check_recomputes_the_residual(self, tmp_path, monkeypatch):
        # a descent that returns its start field unchanged but reports it solved
        def claims_converged(params, u0, **kwargs):
            return Solution(u0, 0.0, 0.0, 0, True, 1, 0)

        monkeypatch.setattr(tzlab.cli, "minimize", claims_converged)
        rc = main(["solve", "--rho1", "5", "--rho2", "3", "--n", "16",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["converged"] is True
        assert summary["checks"]["residual_below_tol"] is False
        assert summary["values"]["residual_below_tol"]["value"] > 1e-3
        # the CSV keeps the descent's own figure
        assert read_csv(tmp_path / "solve.csv")[1][4] == "0.0"

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_residual_check_uses_the_descent_formula(self, tmp_path, n):
        # with no iteration the descent's spectrum is the start's fresh one,
        # so the check's recomputed norm is the descent's, bit for bit
        rc = main(["solve", "--n", str(n), "--rho1", repr(6.0 * np.pi),
                   "--rho2", repr(3.0 * np.pi), "--seed", "0,1,2,3", "--max-iters", "0",
                   "--h1", "1+0.5*cos(2*pi*x)", "--h2", "1+0.5*sin(2*pi*y)",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        summary = json.loads((tmp_path / "summary.json").read_text())
        norms = [float(row[4]) for row in read_csv(tmp_path / "solve.csv")[1:]]
        assert len(norms) == 4
        assert summary["values"]["residual_below_tol"]["value"] == max(norms)

    @pytest.mark.parametrize("rho1,rho2", [("2000,1", "1"), ("1,2000", "1"), ("1", "1,20,2")],
                             ids=["rho1-first", "rho1-last", "rho2-middle"])
    def test_one_noncoercive_pair_fails_the_list(self, tmp_path, capsys, rho1, rho2):
        rc = main(["solve", "--rho1", rho1, "--rho2", rho2, "--n", "16",
                   "--max-iters", "50", "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        assert capsys.readouterr().err == ""
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

    @pytest.mark.parametrize("content", [
        b"m_min = -2\n",
        b"[quantization-table]\nm_min = -2\nm_min = -3\n",
        b"[quantization-table]\nm_min\n",
        b"[quantization-table]\nm_min = -2\xff\n",
        b"[quantization-table]\nm_min = %(nowhere)s\n",
        # [DEFAULT] keys would reach only the commands that have a section:
        # without one they were ignored, with one they were unknown keys
        b"[DEFAULT]\nn = 6\n",
        b"[DEFAULT]\nn = 64\n[quantization-table]\nm_min = -2\n",
    ], ids=["no-section", "repeated-key", "no-value", "not-utf8", "interpolation",
            "default-only", "default-and-section"])
    def test_malformed_config_file_is_one_line(self, tmp_path, capsys, content):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(content)
        rc = main(["--config", str(cfg), "quantization-table", "--out", str(tmp_path / "out")])
        assert_usage_error(rc, capsys, f"tzlab: --config: {str(cfg)!r}: ", tmp_path / "out")


# (section, key, value): a value its flag's type rejects as it is parsed
CONFIG_BAD_VALUES = [
    ("solve", "n", "63"), ("solve", "rho1", "-1"), ("solve", "rho2", "3,nan"),
    ("solve", "tol", "nan"), ("solve", "max_iters", "-5"), ("solve", "seed", "0,-1"),
    ("mt-scan", "n", "0"), ("mt-scan", "a1", "27,25"), ("mt-scan", "a2", "-1,1"),
    ("mt-scan", "lambdas", "25"),
    ("bubble-sweep", "n", "6"), ("bubble-sweep", "rho1", "inf"),
    ("bubble-sweep", "rho2", "-1"), ("bubble-sweep", "lambdas", "0,25"),
    ("asymptotics", "n", "x"), ("asymptotics", "lambdas", "400,25"),
    ("radial-sweep", "alphas", "nan"), ("radial-sweep", "h1_const", "0"),
    ("radial-sweep", "h2_const", "0,-1"), ("radial-sweep", "r_max", "inf"),
    ("radial-sweep", "step", "0"),
    ("verify-all", "n", "63"), ("verify-all", "seed", "1.5"),
]


class TestParsersBuiltOnce:
    """Each command's parser is built at import; main parses through it and
    neither builds nor changes a parser."""

    @pytest.fixture
    def parser_inits(self, monkeypatch):
        calls = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return calls

    @pytest.mark.parametrize("argv", [
        ["quantization-table"],
        ["--config", "{cfg}", "quantization-table"],
        ["verify-all", "--n", "64"],
    ], ids=["plain", "config", "verify-all"])
    def test_main_constructs_no_parser(self, tmp_path, capsys, parser_inits, argv):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[quantization-table]\nm_min = -2\n")
        argv = [a.format(cfg=cfg) for a in argv] + ["--out", str(tmp_path / "out")]
        assert main(argv) in (EXIT_OK, EXIT_CHECKFAIL)
        assert (tmp_path / "out" / "summary.json").exists()
        assert parser_inits == []

    def _m_min(self, out):
        return json.loads((out / "summary.json").read_text())["config"]["m_min"]

    def test_config_values_do_not_leak_into_later_calls(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[quantization-table]\nm_min = -2\n")
        assert main(["--config", str(cfg), "quantization-table",
                     "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["quantization-table", "--out", str(tmp_path / "b")]) == EXIT_OK
        assert self._m_min(tmp_path / "a") == -2
        assert self._m_min(tmp_path / "b") == -6

    def test_concurrent_calls_keep_their_own_config(self, tmp_path, monkeypatch):
        # both calls are inside main at once: each waits for the other
        # before building its table
        barrier = threading.Barrier(2, timeout=60)
        table = tzlab.cli.quantization_table

        def meeting(*args):
            barrier.wait()
            return table(*args)

        monkeypatch.setattr(tzlab.cli, "quantization_table", meeting)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[quantization-table]\nm_min = -2\n")
        argvs = {"a": ["--config", str(cfg), "quantization-table"],
                 "b": ["quantization-table"]}
        results = {}
        workers = [threading.Thread(target=lambda k=k, argv=argv: results.__setitem__(
            k, main(argv + ["--out", str(tmp_path / k)]))) for k, argv in argvs.items()]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert results == {"a": EXIT_OK, "b": EXIT_OK}
        assert self._m_min(tmp_path / "a") == -2
        assert self._m_min(tmp_path / "b") == -6

    @pytest.mark.parametrize("section,line,key", [
        ("quantization-table", "m_min = x", " m_min (--m-min): "),
        ("quantization-table", "wibble = 3", ": unknown key 'wibble'"),
        # a prefix of --max-iters: keys are exact, argparse expands no abbreviation
        ("solve", "max = 10", ": unknown key 'max'"),
        # one bad value for each flag whose type holds its rule
        *[(section, f"{key} = {value}", f" {key} (--{key.replace('_', '-')}): ")
          for section, key, value in CONFIG_BAD_VALUES],
    ], ids=["bad-value", "unknown-key", "prefix-key",
            *[f"{section}-{key}" for section, key, _ in CONFIG_BAD_VALUES]])
    def test_config_error_names_key_and_section(self, tmp_path, capsys, no_work,
                                                section, line, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        rc = main(["--config", str(cfg), section, "--out", str(tmp_path / "out")])
        assert_usage_error(rc, capsys, f"tzlab: config [{section}]{key}", tmp_path / "out")


COMMAND_HELP = {
    "solve": "minimize the mean-field energy",
    "mt-scan": "sharp-constant deficit slope scan",
    "bubble-sweep": "energy of the bubble family",
    "asymptotics": "component slopes of the bubble family",
    "radial-sweep": "central-value sweep of the radial solver",
    "quantization-table": "admissible blow-up mass pairs",
    "verify-all": "run every check at default scale",
}


@pytest.mark.parametrize("command", [None, *COMMAND_HELP])
def test_help_in_a_fresh_interpreter(command):
    # the parsers are built at import: a fault there would break every command
    src = str(Path(tzlab.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["--help"] if command is None else [command, "--help"]
    proc = subprocess.run([sys.executable, "-m", "tzlab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    expected = COMMAND_HELP.items() if command is None else [(command, COMMAND_HELP[command])]
    for name, line in expected:
        assert name in proc.stdout and line in proc.stdout


class TestMtScanCommand:
    def test_default_scan_passes(self, tmp_path):
        rc = main(["mt-scan", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "mt-scan.csv")
        assert rows[0] == ["family", "a1", "a2", "fitted_slope",
                           "predicted_slope", "rel_error", "pass", "skipped"]
        assert len(rows) == 1 + 2 * 9  # both families over the 3x3 lattice
        values = json.loads((tmp_path / "summary.json").read_text())["values"]
        assert abs(values["plus_crossing_at_sharp"]["value"]) < 2.0
        assert abs(values["minus_crossing_at_sharp"]["value"]) < 1.0

    def test_custom_ascending_lists_pass(self, tmp_path):
        # the same lists in descending order are a usage error (exit 1); in
        # ascending order each crossing lies within one cell of the sharp value
        rc = main(["mt-scan", "--a1", "23.13,25.13,27.13", "--a2", "11.57,12.57,13.57",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert all(summary["checks"].values())
        assert abs(summary["values"]["plus_crossing_at_sharp"]["value"]) < 2.0
        assert abs(summary["values"]["minus_crossing_at_sharp"]["value"]) < 1.0


class TestRadialSweepCommand:
    def test_rows_and_checks(self, tmp_path):
        rc = main(["radial-sweep", "--alphas", "0,5", "--h2-const", "0",
                   "--step", "0.0005", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "radial-sweep.csv")
        assert rows[0][0] == "alpha"
        assert len(rows) == 3

    def test_h2_list_runs_h2_major(self, tmp_path):
        rc = main(["radial-sweep", "--alphas", "0,5", "--h2-const", "0,1",
                   "--step", "0.0005", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "radial-sweep.csv")
        assert [(r[0], float(r[2]) > 0.0) for r in rows[1:]] == [
            ("0.0", False), ("5.0", False), ("0.0", True), ("5.0", True)]

    def test_sigma_reported_at_r_max(self, tmp_path):
        # the masses are the Liouville ones at r = 2
        rc = main(["radial-sweep", "--alphas", "4", "--h2-const", "0", "--r-max", "2",
                   "--step", "5e-4", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        sigma1 = float(read_csv(tmp_path / "radial-sweep.csv")[1][1])
        mu2 = np.exp(4.0) / 8.0 * 2.0**2
        assert sigma1 == pytest.approx(4.0 * mu2 / (1.0 + mu2), abs=1e-8)

    @pytest.mark.parametrize("argv, steps", [
        (["--step", "7e-4"], 1429), (["--step", "3e-4"], 3333),
        (["--r-max", "2", "--step", "3e-4"], 6667), (["--r-max", "3e-4", "--step", "1e-4"], 3),
    ], ids=["7e-4", "3e-4", "r-max-2", "3-steps"])
    def test_step_takes_round_r_max_over_step(self, monkeypatch, tmp_path, argv, steps):
        shot, real = [], tzlab.radial.shoot

        def counted(*args):
            shot.append(real(*args))
            return shot[-1]

        monkeypatch.setattr(tzlab.radial, "shoot", counted)
        rc = main(["radial-sweep", "--alphas", "2", "--h2-const", "0"] + argv
                  + ["--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert [len(p.r) - 1 for p in shot] == [steps]

    def test_large_alphas_are_computed(self, tmp_path):
        # at the default step the r-form guard refused alpha = 20 at both h2
        rc = main(["radial-sweep", "--alphas", "0,20", "--h2-const", "0,1",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        header, *rows = read_csv(tmp_path / "radial-sweep.csv")
        assert [row[header.index("error")] for row in rows] == [""] * 4
        assert all(float(row[header.index("pohozaev_max_rel")]) < 1e-6 for row in rows)
        sigma1 = float(rows[1][header.index("sigma1")])
        assert abs(sigma1 - tzlab.liouville_mass(20.0, 1.0)) < 1e-8

    def test_too_coarse_a_step_fails_a_check(self, tmp_path):
        # 20 steps in log r cannot follow the tower at alpha = 8: the
        # Pohozaev residual (or an overflow) fails the run, not a pass
        rc = main(["radial-sweep", "--alphas", "8", "--h2-const", "1", "--step", "0.05",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL

    def test_overflowing_row_is_typed(self, tmp_path, capsys):
        # h2 e^{-2u} lifts u from 349 out of the window [-700, 350]
        rc = main(["radial-sweep", "--alphas", "349", "--h1-const", "1e-160",
                   "--h2-const", "1e300", "--r-max", "100", "--step", "0.05",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CHECKFAIL
        rows = read_csv(tmp_path / "radial-sweep.csv")
        assert len(rows) == 2
        assert rows[1][rows[0].index("error")].startswith("TrajectoryOverflow: ")
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "[FAIL] radial-sweep: all_rows_computed" in captured.out


def _main_in_worker_thread(argv):
    """main(argv) on a thread other than the main one; its exit status."""
    result = []
    worker = threading.Thread(target=lambda: result.append(main(argv)))
    worker.start()
    worker.join(timeout=300)
    assert not worker.is_alive() and len(result) == 1
    return result[0]


class TestDeterminism:
    def test_identical_csv_bytes_and_thread_independence(self, tmp_path):
        args = ["asymptotics", "--n", "64", "--lambdas", "10,20,40"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        _main_in_worker_thread(args + ["--out", str(tmp_path / "c")])
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


def _strict_json(path):
    """The JSON document at ``path``; NaN and Infinity, which JSON lacks, raise."""
    def refuse(token):
        raise ValueError(f"{path.name}: non-JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictJson:
    @pytest.mark.parametrize("argv,nulls", [
        # 16 pi - 2 rho1 overflows: the slope offset and its bound are infinite
        (["bubble-sweep", "--n", "8", "--lambdas", "1,2", "--rho1", "1e308"],
         {"slope_matches": {"value": None, "bound": None}}),
        # at n = 64 the bubble sweeps are skipped: no energy falls, the drop is NaN
        (["verify-all", "--n", "64"], {"bubble_sweep.diverges": {"value": None, "bound": 30.0}}),
    ], ids=["bubble-sweep-overflow", "verify-all-64"])
    def test_non_finite_numbers_are_null(self, tmp_path, argv, nulls):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_CHECKFAIL
        summary = _strict_json(tmp_path / "summary.json")
        for name, entry in nulls.items():
            assert summary["values"][name] == entry
            assert summary["checks"][name] is False
        if argv[0] == "verify-all":
            assert _strict_json(tmp_path / "solution.json")["converged"] is True

    def test_writer_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            tzlab.cli._write_json(tmp_path / "x.json", {"value": float("nan")})


def _count(value, bound):
    return isinstance(value, int) and bound == 0 and value <= bound


# the comparison each check's passed states: the name after verify-all's prefix
CHECK_RULES = {
    **dict.fromkeys(["hyperbola_exact", "divisibility", "origin_excluded", "all_rows_computed",
                     "all_cells_pass", "coercive_regime", "converged"], _count),
    **dict.fromkeys(["pohozaev_small", "liouville_mass", "gradient_fd_consistent"],
                    lambda value, bound: value < bound),
    **dict.fromkeys(["residual_below_tol", "grid_adequate", "liouville_class_is_type_I_1"],
                    lambda value, bound: value <= bound),
    **dict.fromkeys(["order_at_least_3_5", "diverges"], lambda value, bound: value >= bound),
    **dict.fromkeys(["plus_crossing_at_sharp", "minus_crossing_at_sharp", "slope_matches",
                     "gradient_slope", "log_int_plus_slope", "log_int_minus_slope",
                     "mean_slope"], lambda value, bound: abs(value) <= bound),
}


class TestCheckValues:
    @pytest.mark.parametrize("argv", [
        ["solve", "--rho1", "1,2", "--rho2", "1", "--n", "8"],
        ["solve", "--rho1", "1", "--rho2", "1", "--n", "8", "--max-iters", "0"],
        ["mt-scan", "--n", "64", "--lambdas", "5,10,20"],
        ["bubble-sweep", "--n", "64", "--lambdas", "10,20"],
        ["asymptotics", "--n", "64", "--lambdas", "10,20,40"],
        ["radial-sweep", "--alphas", "0,5", "--step", "5e-4"],
        ["quantization-table", "--m-min", "-2", "--m-max", "2"],
        # at n = 64 the bubble sweeps are skipped, at 256 they are measured
        ["verify-all", "--n", "64"],
        ["verify-all", "--n", "256"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
    def test_each_check_carries_value_and_bound(self, tmp_path, argv):
        rc = main([*argv, "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "summary" not in summary
        checks, values = summary["checks"], summary["values"]
        assert list(values) == list(checks)
        for name, passed in checks.items():
            value, bound = values[name]["value"], values[name]["bound"]
            assert bound is not None, name
            holds = value is not None and CHECK_RULES[name.split(".")[-1]](value, bound)
            assert passed is holds, (name, value, bound, passed)
        assert summary["passed"] is all(checks.values())
        assert rc == (EXIT_OK if summary["passed"] else EXIT_CHECKFAIL)


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
    "solve.coercive_regime", "solve.converged", "solve.residual_below_tol",
    "solve.gradient_fd_consistent",
]
VERIFY_ALL_CSVS = ["asymptotics.csv", "bubble-sweep.csv", "mt-scan.csv",
                   "quantization-table.csv", "radial-sweep.csv", "solution.csv",
                   "solve.csv"]


class TestVerifyAll:
    def test_thread_independent_csvs_and_check_order(self, tmp_path, capsys):
        # a rerun, on a worker thread, writes the same bytes
        outs = {}
        for where, run in (("main", main), ("worker", _main_in_worker_thread)):
            outs[where] = tmp_path / where
            run(["verify-all", "--n", "64", "--out", str(outs[where])])
            names = [line.split("verify-all: ", 1)[1]
                     for line in capsys.readouterr().out.splitlines()]
            assert names == VERIFY_ALL_CHECKS
        csvs = sorted(p.name for p in outs["main"].glob("*.csv"))
        assert csvs == VERIFY_ALL_CSVS
        for name in csvs:
            assert (outs["main"] / name).read_bytes() == (outs["worker"] / name).read_bytes()

    def test_solution_json_echoes_the_solve_it_dumps(self, tmp_path, capsys):
        main(["verify-all", "--n", "64", "--out", str(tmp_path / "all")])
        config = json.loads((tmp_path / "all" / "solution.json").read_text())["config"]
        assert config["command"] == "solve" and config["seed"] == 194
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in config.items()
                 if key not in ("command", "out")]
        assert main(["solve", *flags, "--out", str(tmp_path / "solve")]) == EXIT_OK
        dump = (tmp_path / "solve" / "solution.csv").read_bytes()
        assert dump == (tmp_path / "all" / "solution.csv").read_bytes()

    def test_stages_are_the_commands(self, tmp_path):
        # verify-all's solve and radial stages, run as commands, write its bytes
        main(["verify-all", "--n", "64", "--out", str(tmp_path / "all")])
        pi = np.pi
        main(["solve", "--n=64", "--h1=1+0.5*cos(2*pi*x)", "--h2=1+0.5*sin(2*pi*y)",
              f"--rho1={2 * pi!r},{4 * pi!r},{6 * pi!r}", f"--rho2={pi!r},{2 * pi!r},{3 * pi!r}",
              "--seed=0,97,194", "--out", str(tmp_path / "solve")])
        main(["radial-sweep", "--alphas", "0,5,8", "--h2-const", "0,1",
              "--out", str(tmp_path / "radial")])
        for out, name in (("solve", "solve.csv"), ("solve", "solution.csv"),
                          ("radial", "radial-sweep.csv")):
            assert (tmp_path / out / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def _order_check():
    """verify-all's radial order check, run alone."""
    (check,) = [c for c in tzlab.cli._radial_oracle(None, None)
                if c.name == "order_at_least_3_5"]
    return check


class TestRadialOracle:
    def test_rk4_reads_fourth_order(self):
        # the worst Pohozaev residual at steps 1e-3 and 5e-4 falls 2^3.987
        # at h2 = 1 and 2^4.000 at h2 = 0
        check = _order_check()
        assert check.passed and 3.95 < check.value < 4.05

    def test_third_order_error_fails(self, monkeypatch):
        real = tzlab.radial.shoot

        def third_order(alpha, h1, h2, r_max, step):
            # a mass error 1e5 step^3 r^2, far above the RK4 residual at
            # step 1e-3
            p = real(alpha, h1, h2, r_max, step)
            p.sigma1 = p.sigma1 + 1e5 * step**3 * p.r**2
            return p

        monkeypatch.setattr(tzlab.radial, "shoot", third_order)
        check = _order_check()
        assert not check.passed and 2.9 < check.value < 3.1
