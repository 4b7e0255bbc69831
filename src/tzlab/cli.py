"""Command-line front end: experiment dispatch, CSV/JSON emission, pass/fail.

Each command has one parser, built at import and never changed:
``tzlab --help`` lists the commands with their one-line descriptions,
``tzlab <command> --help`` a command's flags.  verify-all runs
quantization-table, mt-scan, asymptotics and bubble-sweep at their
defaults through those parsers, the radial-sweep Pohozaev rows for h2 in
{0, 1}, and its own oracles (RK4 order, Liouville mass, bubble
divergence, coercive solve grid, gradient check), under one exit status.

Outputs are deterministic for a fixed config and seed: CSV floats use the
shortest round-trip decimal representation and summaries echo the full
config.  Exit status: 0 all checks passed, 1 usage or configuration
error, 2 at least one check failed, 3 a numerical failure (an
exponential integral underflowed or a radial trajectory overflowed).
The output directory is created at the first file written.

Config files are INI sections named after the command; a key is a long
flag name with dashes replaced by underscores, exactly.  ``--config PATH``
goes before the command.  The section becomes ``--flag=value`` tokens that
the command's parser reads before the command line's flags, so a file
value is converted and checked as its flag is, and flags win.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bubbles import liouville_mass
from .descent import minimize
from .energy import ExpUnderflow, Params, energy_J, residual_J
from .experiments import (DEFAULT_LAMBDAS, alpha_sweep, bubble_energy_sweep,
                          component_asymptotics_sweep, default_join_config,
                          mt_threshold_scan)
from .radial import (TrajectoryOverflow, classify_mass_pair, limit_mass_relation,
                     pohozaev_residual_profile, quantization_table, shoot,
                     step_count)
from .recipes import field_from_recipe
from .surface import ScalarField, build_grid, field_from_function, integrate

EXIT_OK, EXIT_USAGE, EXIT_CHECKFAIL, EXIT_NUMERIC = 0, 1, 2, 3

_A1_DEFAULT = tuple(8.0 * np.pi + d for d in (-2.0, 0.0, 2.0))
_A2_DEFAULT = tuple(4.0 * np.pi + d for d in (-1.0, 0.0, 1.0))
_RHO1_GRID = tuple(np.pi * m for m in (2.0, 4.0, 6.0))
_RHO2_GRID = tuple(np.pi * m for m in (1.0, 2.0, 3.0))


class ConfigError(Exception):
    """Bad configuration; message names the offending key."""


def _float_list(text: str):
    try:
        vals = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _increasing(vals) -> bool:
    return all(a < b for a, b in zip(vals, vals[1:]))


def _coefficient_list(text: str):
    # mt-scan takes the widest gap of the list as the crossing's cell width
    vals = _float_list(text)
    if not all(0.0 <= v < np.inf for v in vals) or not _increasing(vals):
        raise argparse.ArgumentTypeError(
            f"coefficients must be finite, nonnegative and strictly increasing: {text!r}")
    return vals


def _lambda_list(text: str):
    vals = _float_list(text)
    if not all(0.0 < v < np.inf for v in vals) or not _increasing(vals):
        raise argparse.ArgumentTypeError(
            f"lambdas must be finite, positive and strictly increasing: {text!r}")
    return vals


def _fmt(value) -> str:
    """Shortest round-trip, locale-independent cell text."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _create(path: Path, **kwargs):
    """Open ``path`` for writing, making its directory first: ``--out`` is
    created at the first write, so a command that fails before writing
    leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", **kwargs)


def _write_csv(path: Path, header, rows):
    with _create(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload):
    with _create(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _versions():
    return {
        "tzlab": __version__,
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _config_echo(args) -> dict:
    skip = {"func", "config", "flags"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _flag(flag, fn, *args):
    """fn(*args), with a ValueError re-raised as a ConfigError naming ``flag``.

    With ``flag`` None the message's first word names it: "h1 must be ..."
    is reported under --h1.
    """
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"{flag or '--' + str(exc).split()[0]}: {exc}") from exc


def _build_params(args, grid) -> Params:
    h1 = _flag("--h1", field_from_recipe, args.h1, grid)
    h2 = _flag("--h2", field_from_recipe, args.h2, grid)
    # Params messages open with the field at fault: "h1 must be ..."
    return _flag(None, Params, args.rho1, args.rho2, h1, h2)


def _random_start(grid, seed: float, amplitude: float = 0.1) -> ScalarField:
    rng = np.random.default_rng(int(seed))
    vals = amplitude * rng.standard_normal((grid.n, grid.n))
    return ScalarField(grid, vals - vals.mean())


# ---------------------------------------------------------------- commands


def _write_solution(outdir: Path, args, sol):
    """solution.csv (row-major field dump, x fastest) and solution.json.

    The dump is streamed one grid row at a time; its bytes are those of
    ``_write_csv(path, ["x", "y", "u"], rows)``.
    """
    grid = sol.u.grid
    xs = [repr(x) for x in grid.axis_points.tolist()]
    with _create(outdir / "solution.csv", newline="") as fh:
        fh.write("x,y,u\r\n")
        for y, row in zip(grid.axis_points.tolist(), sol.u.values):
            y = repr(y)
            fh.write("".join(f"{x},{y},{v!r}\r\n" for x, v in zip(xs, row.tolist())))
    _write_json(outdir / "solution.json", {
        "config": _config_echo(args),
        "versions": _versions(),
        "converged": bool(sol.converged),
        "energy": sol.energy,
        "residual_norm": sol.residual_norm,
        "iterations": sol.iterations,
        "field_csv": "solution.csv",
    })


def cmd_solve(args, outdir: Path):
    if args.rho1 is None or args.rho2 is None:
        raise ConfigError("--rho1 and --rho2 are required (flag or config file)")
    if not 0.0 < args.tol < np.inf:
        raise ConfigError(f"--tol: must be finite and positive, got {args.tol!r}")
    if args.max_iters < 0:
        raise ConfigError(f"--max-iters: must be nonnegative, got {args.max_iters!r}")
    grid = _flag("--n", build_grid, args.n)
    params = _build_params(args, grid)
    sol = minimize(params, _random_start(grid, args.seed), max_iters=args.max_iters,
                   tol_residual=args.tol)
    _write_solution(outdir, args, sol)
    checks = {
        # on a finite grid a discrete minimizer exists for any rho, so
        # convergence alone does not back a solution outside this region
        "coercive_regime": params.coercive,
        "converged": bool(sol.converged),
        "residual_below_tol": bool(sol.residual_norm <= args.tol),
    }
    summary = {
        "energy": sol.energy,
        "residual_norm": sol.residual_norm,
        "iterations": sol.iterations,
        "energy_evals": sol.energy_evals,
        "backtracks": sol.backtracks,
    }
    return checks, summary


def cmd_mt_scan(args, outdir: Path):
    grid = _flag("--n", build_grid, args.n)
    scan = mt_threshold_scan(args.a1, args.a2, grid, tuple(args.lambdas))
    rows = []
    all_pass = True
    for i, a1 in enumerate(scan.a1_list):
        for j, a2 in enumerate(scan.a2_list):
            for family, cell in (("plus", scan.plus[i][j]), ("minus", scan.minus[i][j])):
                rows.append((family, a1, a2, cell.fitted_slope, cell.predicted_slope,
                             cell.rel_error, cell.passed, cell.skipped))
                all_pass &= bool(cell.passed)
    _write_csv(outdir / "mt-scan.csv",
               ["family", "a1", "a2", "fitted_slope", "predicted_slope",
                "rel_error", "pass", "skipped"], rows)
    sharp1, sharp2 = 8.0 * np.pi, 4.0 * np.pi
    cell1 = max(np.diff(scan.a1_list)) if len(scan.a1_list) > 1 else 1.0
    cell2 = max(np.diff(scan.a2_list)) if len(scan.a2_list) > 1 else 1.0
    checks = {
        "all_cells_pass": all_pass,
        "plus_crossing_at_sharp": bool(
            scan.plus_crossing is not None and abs(scan.plus_crossing - sharp1) <= cell1),
        "minus_crossing_at_sharp": bool(
            scan.minus_crossing is not None and abs(scan.minus_crossing - sharp2) <= cell2),
    }
    summary = {"plus_crossing": scan.plus_crossing, "minus_crossing": scan.minus_crossing}
    return checks, summary


def cmd_bubble_sweep(args, outdir: Path):
    grid = _flag("--n", build_grid, args.n)
    params = _build_params(args, grid)
    # default_join_config messages open with the parameter at fault: "s ..."
    zeta = _flag(None, default_join_config, grid, args.k, args.l, args.s)
    sweep = bubble_energy_sweep(zeta, params, tuple(args.lambdas))
    _write_csv(outdir / "bubble-sweep.csv", ["lambda", "energy"],
               zip(sweep.lambdas, sweep.values))
    drop = float(sweep.values[0] - sweep.values[-1]) if not sweep.skipped else float("nan")
    checks = {
        "slope_matches": bool(sweep.passed),
        "grid_adequate": not sweep.skipped,
    }
    summary = {
        "fitted_slope": sweep.fitted_slope,
        "predicted_slope": sweep.predicted_slope,
        "rel_error": sweep.rel_error,
        "energy_drop_first_to_last": drop,
    }
    return checks, summary


def cmd_asymptotics(args, outdir: Path):
    grid = _flag("--n", build_grid, args.n)
    # default_join_config messages open with the parameter at fault: "s ..."
    zeta = _flag(None, default_join_config, grid, args.k, args.l, args.s)
    sweeps = component_asymptotics_sweep(zeta, grid, tuple(args.lambdas))
    rows = []
    for name, res in sweeps.items():
        for lam, val in zip(res.lambdas, res.values):
            rows.append((name, lam, val))
    _write_csv(outdir / "asymptotics.csv", ["component", "lambda", "value"], rows)
    checks = {f"{name}_slope": bool(res.passed) for name, res in sweeps.items()}
    summary = {
        name: {
            "fitted_slope": res.fitted_slope,
            "predicted_slope": res.predicted_slope,
            "rel_error": res.rel_error,
            "skipped": res.skipped,
        }
        for name, res in sweeps.items()
    }
    return checks, summary


def _report_alpha_rows(rows, outdir: Path):
    """Write radial-sweep.csv from alpha_sweep rows; checks and summary."""
    _write_csv(outdir / "radial-sweep.csv",
               ["alpha", "sigma1", "sigma2", "pohozaev_max_rel", "relation",
                "family", "m", "distance", "error"],
               [(r.alpha, r.sigma1, r.sigma2, r.pohozaev_max_rel, r.relation,
                 r.family, r.m, r.distance, r.error) for r in rows])
    ok_rows = [r for r in rows if r.error is None]
    checks = {
        "all_rows_computed": len(ok_rows) == len(rows),
        "pohozaev_small": bool(ok_rows) and all(r.pohozaev_max_rel < 1e-6 for r in ok_rows),
    }
    summary = {"rows": len(rows), "failed_rows": len(rows) - len(ok_rows)}
    return checks, summary


def cmd_radial_sweep(args, outdir: Path):
    if not all(-np.inf < alpha < np.inf for alpha in args.alphas):
        raise ConfigError(f"--alphas: must be finite, got {args.alphas!r}")
    if not 0.0 < args.h1_const < np.inf:
        raise ConfigError(f"--h1-const: must be finite and positive, got {args.h1_const!r}")
    if not 0.0 <= args.h2_const < np.inf:
        raise ConfigError(f"--h2-const: must be finite and nonnegative, got {args.h2_const!r}")
    if not 0.0 < args.r_max < np.inf:
        raise ConfigError(f"--r-max: must be finite and positive, got {args.r_max!r}")
    _flag("--step", step_count, args.r_max, args.step)
    rows = alpha_sweep(args.alphas, args.h1_const, args.h2_const,
                       args.r_max, args.step)
    return _report_alpha_rows(rows, outdir)


def cmd_quantization_table(args, outdir: Path):
    table = _flag("--m-min", quantization_table, args.m_min, args.m_max)
    _write_csv(outdir / "quantization-table.csv",
               ["family", "m", "sigma1", "sigma2"],
               [(mp.family, mp.m, int(mp.sigma1), int(mp.sigma2)) for mp in table])
    on_curve = all(limit_mass_relation(int(mp.sigma1), int(mp.sigma2)) == 0 for mp in table)
    divisible = all(int(mp.sigma1) % 4 == 0 and int(mp.sigma2) % 2 == 0 for mp in table)
    checks = {
        "hyperbola_exact": on_curve,
        "divisibility": divisible,
        "origin_excluded": all((mp.sigma1, mp.sigma2) != (0, 0) for mp in table),
    }
    return checks, {"pairs": len(table)}


def _gradient_fd_check(grid, n_fields: int, seed: int) -> float:
    """Worst relative error of central differences against the residual."""
    rng = np.random.default_rng(seed)
    eps = 1e-4

    def smooth(amplitude=1.0):
        # per term, in draw order: the wave vector, the phase, the coefficient
        terms = [(*rng.integers(-6, 7, size=2), rng.uniform(0.0, 2.0 * np.pi), rng.normal())
                 for _ in range(8)]
        vals = field_from_function(grid, lambda x, y: sum(
            a * np.cos(2.0 * np.pi * (kx * x + ky * y) + phase)
            for kx, ky, phase, a in terms)).values
        return ScalarField(grid, amplitude * vals / max(1.0, np.abs(vals).max()))

    worst = 0.0
    for _ in range(n_fields):
        h1 = smooth(0.3) + 1.5
        h2 = smooth(0.3) + 1.5
        p = Params(rng.uniform(0.0, 8.0 * np.pi), rng.uniform(0.0, 4.0 * np.pi), h1, h2)
        u, v = smooth(), smooth()
        fd = (energy_J(u + eps * v, p) - energy_J(u - eps * v, p)) / (2.0 * eps)
        analytic = integrate(residual_J(u, p) * v)
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    return worst


def _verify_radial(_args, outdir: Path):
    """The radial-sweep Pohozaev rows for h2 in {0, 1}, then the RK4 order
    and the Liouville blow-up mass, which no command checks."""
    rows = [row for h2c in (0.0, 1.0)
            for row in alpha_sweep((0.0, 5.0, 8.0), 1.0, h2c, 1.0, 1e-4)]
    checks, summary = _report_alpha_rows(rows, outdir)

    orders = []
    for h2c in (0.0, 1.0):
        # the residual at the boundary is pure integration error
        res_end = [abs(float(pohozaev_residual_profile(shoot(8.0, 1.0, h2c, 1.0, step))[0][-1]))
                   for step in (1e-3, 5e-4)]
        orders.append(float(np.log2(res_end[0] / res_end[1])))
    checks["order_at_least_3_5"] = all(o >= 3.5 for o in orders)

    prof = shoot(10.0, 1.0, 0.0, 1.0, 1e-4)
    sigma1_end = float(prof.sigma1[-1])
    mp = classify_mass_pair(sigma1_end, float(prof.sigma2[-1]), 0.05)
    checks["liouville_mass"] = abs(sigma1_end - liouville_mass(10.0, 1.0)) < 2e-3
    checks["liouville_class_is_type_I_1"] = (mp.family, mp.m) == ("I", 1)
    summary.update(convergence_orders=orders, liouville_sigma1=sigma1_end)
    return checks, summary


def _verify_solve(args, outdir: Path):
    """Coercive-regime minimization over the rho grid, three seeds each, and
    the finite-difference gradient check.  Each solve is solve's own config
    at that rho and seed; solution.json echoes the grid's last, which it dumps."""
    solve = _COMMANDS["solve"]
    argv = ["--n", "64", "--h1", "1+0.5*cos(2*pi*x)", "--h2", "1+0.5*sin(2*pi*y)",
            f"--out={args.out}"]
    conf = solve.parse_args(argv)
    grid64 = build_grid(conf.n)
    h1, h2 = field_from_recipe(conf.h1, grid64), field_from_recipe(conf.h2, grid64)
    solve_rows = []
    solve_ok = True
    for rho1 in _RHO1_GRID:
        for rho2 in _RHO2_GRID:
            params = Params(rho1, rho2, h1, h2)
            for k_seed in range(3):
                seed = int(args.seed) + 97 * k_seed
                sol = minimize(params, _random_start(grid64, seed), max_iters=conf.max_iters,
                               tol_residual=conf.tol)
                solve_ok &= sol.converged and sol.residual_norm < 1e-7
                solve_rows.append((rho1, rho2, seed, sol.converged,
                                   sol.residual_norm, sol.energy, sol.iterations))
    _write_csv(outdir / "solve.csv",
               ["rho1", "rho2", "seed", "converged", "residual_norm",
                "energy", "iterations"], solve_rows)
    last = solve.parse_args(argv + [f"--rho1={rho1!r}", f"--rho2={rho2!r}", f"--seed={seed}"],
                            argparse.Namespace(command="solve"))
    _write_solution(outdir, last, sol)
    worst_fd = _gradient_fd_check(grid64, 20, int(args.seed) + 5)
    checks = {"coercive_grid_converges": solve_ok,
              "gradient_fd_consistent": worst_fd < 1e-5}
    return checks, {"worst_gradient_fd_rel_error": worst_fd}


def cmd_verify_all(args, outdir: Path):
    """Run each stage in check order: a command argv, parsed by that
    command's own parser so its defaults live in one place, or one of
    verify-all's own oracle groups."""
    n = str(args.n)
    stages = (
        ("quantization", ["quantization-table"]),
        ("radial", _verify_radial),
        ("mt_scan", ["mt-scan", "--n", n]),
        ("asymptotics", ["asymptotics", "--n", n]),
        ("bubble_sweep", ["bubble-sweep", "--n", n]),
        ("solve", _verify_solve),
    )
    checks: dict[str, bool] = {}
    summary: dict = {}
    for prefix, stage in stages:
        if callable(stage):
            stage_checks, stage_summary = stage(args, outdir)
        else:
            stage_args = _COMMANDS[stage[0]].parse_args(stage[1:])
            stage_checks, stage_summary = stage_args.func(stage_args, outdir)
        if prefix == "bubble_sweep":
            # supercritical rho: the concentrating family must lose energy
            stage_checks["diverges"] = bool(stage_summary["energy_drop_first_to_last"] >= 30.0)
        checks.update({f"{prefix}.{k}": v for k, v in stage_checks.items()})
        summary[prefix] = stage_summary
    return checks, summary


# ---------------------------------------------------------------- wiring


def _command(commands: dict, name: str, func, help_line: str):
    """Add the parser of one command to ``commands``: ``help_line`` is its
    description and its line in ``tzlab --help``.  A bad value raises
    ArgumentError, so main can tell a config file's value from a flag's."""
    sp = argparse.ArgumentParser(prog=f"tzlab {name}", description=help_line,
                                 exit_on_error=False)
    sp.add_argument("--out", default=".", help="output directory (default: cwd)")
    sp.set_defaults(func=func)
    commands[name] = sp
    return sp


def _command_parsers() -> dict:
    commands = {}
    sp = _command(commands, "solve", cmd_solve, "minimize the mean-field energy")
    sp.add_argument("--n", type=int, default=64)
    sp.add_argument("--rho1", type=float, default=None, help="required (flag or config)")
    sp.add_argument("--rho2", type=float, default=None, help="required (flag or config)")
    sp.add_argument("--h1", default="1")
    sp.add_argument("--h2", default="1")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-iters", type=int, default=4000)
    sp.add_argument("--seed", type=int, default=0)

    sp = _command(commands, "mt-scan", cmd_mt_scan, "sharp-constant deficit slope scan")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--a1", type=_coefficient_list, default=list(_A1_DEFAULT),
                    help="comma-separated coefficients of the plus log-integral")
    sp.add_argument("--a2", type=_coefficient_list, default=list(_A2_DEFAULT))
    sp.add_argument("--lambdas", type=_lambda_list, default=list(DEFAULT_LAMBDAS))

    sp = _command(commands, "bubble-sweep", cmd_bubble_sweep, "energy of the bubble family")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--rho1", type=float, default=10.0 * np.pi)
    sp.add_argument("--rho2", type=float, default=5.0 * np.pi)
    sp.add_argument("--h1", default="1")
    sp.add_argument("--h2", default="1")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--s", type=float, default=0.5)
    sp.add_argument("--lambdas", type=_lambda_list, default=list(DEFAULT_LAMBDAS))

    sp = _command(commands, "asymptotics", cmd_asymptotics,
                  "component slopes of the bubble family")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--s", type=float, default=0.5)
    sp.add_argument("--lambdas", type=_lambda_list, default=list(DEFAULT_LAMBDAS))

    sp = _command(commands, "radial-sweep", cmd_radial_sweep,
                  "central-value sweep of the radial solver")
    sp.add_argument("--alphas", type=_float_list, default=[0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    sp.add_argument("--h1-const", type=float, default=1.0)
    sp.add_argument("--h2-const", type=float, default=1.0)
    sp.add_argument("--r-max", type=float, default=1.0)
    sp.add_argument("--step", type=float, default=1e-4)

    sp = _command(commands, "quantization-table", cmd_quantization_table,
                  "admissible blow-up mass pairs")
    sp.add_argument("--m-min", type=int, default=-6)
    sp.add_argument("--m-max", type=int, default=6)

    sp = _command(commands, "verify-all", cmd_verify_all, "run every check at default scale")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--seed", type=int, default=0)
    return commands


# Built once, at import, and never changed: a parse fills a namespace of
# its own, so concurrent and successive calls of main share nothing.
_COMMANDS = _command_parsers()

_TOP = argparse.ArgumentParser(
    prog="tzlab",
    description="Numerical laboratory for the Tzitzeica mean-field equation.",
    formatter_class=argparse.RawDescriptionHelpFormatter,
    epilog="commands:\n" + "\n".join(f"  {name:<20}{sp.description}"
                                      for name, sp in _COMMANDS.items()),
)
_TOP.add_argument("--config", default=None,
                  help="INI config file; sections named after commands, flags win")
_TOP.add_argument("command", choices=_COMMANDS, metavar="command",
                  help="one of the commands below")
_TOP.add_argument("flags", nargs=argparse.REMAINDER,
                  help="the command's flags: tzlab <command> --help lists them")


def _config_argv(path: str, command: str) -> list[str]:
    """The ``[command]`` section of the INI file at ``path`` as ``--flag=value``
    tokens for the command's parser.  A key must be a flag's dest exactly;
    the flag is spelled out here, so argparse never expands a prefix."""
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise ConfigError(f"--config: cannot read {path!r}")
    if command not in cfg:
        return []
    flags = {action.dest: action.option_strings[-1]
             for action in _COMMANDS[command]._actions if action.dest != "help"}
    tokens = []
    for key, raw in cfg[command].items():
        if key not in flags:
            raise ConfigError(f"config [{command}]: unknown key {key!r}")
        tokens.append(f"{flags[key]}={raw}")
    return tokens


def main(argv=None) -> int:
    try:
        args = _TOP.parse_args(argv)
        sub = _COMMANDS[args.command]
        if args.config:
            # the file's values parse first; argparse leaves a value already
            # in the namespace alone unless its flag is given, so flags win
            try:
                sub.parse_args(_config_argv(args.config, args.command), args)
            except argparse.ArgumentError as exc:
                key = exc.argument_name[2:].replace("-", "_")
                raise ConfigError(f"config [{args.command}] {key} "
                                  f"({exc.argument_name}): {exc.message}") from exc
        try:
            sub.parse_args(args.flags, args)
        except argparse.ArgumentError as exc:
            sub.error(str(exc))
    except SystemExit as exc:
        # argparse already printed the message (or the help)
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except ConfigError as exc:
        print(f"tzlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(args.out)
    try:
        checks, extra = args.func(args, outdir)
    except (ConfigError, ValueError) as exc:
        print(f"tzlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExpUnderflow, TrajectoryOverflow) as exc:
        print(f"tzlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    passed = all(checks.values())
    _write_json(outdir / "summary.json", {
        "command": args.command,
        "config": _config_echo(args),
        "versions": _versions(),
        "checks": checks,
        "passed": passed,
        "summary": extra,
    })
    for name, ok in checks.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {args.command}: {name}")
    return EXIT_OK if passed else EXIT_CHECKFAIL


if __name__ == "__main__":
    sys.exit(main())
