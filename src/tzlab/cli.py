"""Command-line front end: experiment dispatch, CSV/JSON emission, pass/fail.

Commands
--------
solve               minimize the mean-field energy, dump the solution field
mt-scan             deficit slope scan over a coefficient lattice, both families
bubble-sweep        energy of the join-bubble family against lambda
asymptotics         the four component slopes of the bubble family
radial-sweep        central-value sweep of the radial shooting solver
quantization-table  admissible blow-up mass pairs
verify-all          quantization-table, mt-scan, asymptotics and bubble-sweep at
                    their defaults, the radial-sweep Pohozaev rows for h2 in
                    {0, 1}, plus its own oracles (RK4 order, Liouville mass,
                    bubble divergence, coercive solve grid, gradient check);
                    one exit status

Outputs are deterministic for a fixed config and seed: CSV floats use the
shortest round-trip decimal representation and summaries echo the full
config.  Exit status: 0 all checks passed, 1 usage or configuration
error, 2 at least one check failed, 3 a numerical failure (an
exponential integral underflowed or a radial trajectory overflowed).
TZLAB_THREADS caps internal parallelism (0 = auto).

Config files are INI sections named after the command; keys match the
long flag names with dashes replaced by underscores.  Flags win over the
config file.
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
from .recipes import RecipeError, field_from_recipe
from .surface import ScalarField, build_grid, field_from_function, integrate
from .surface import GridError

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


def _lambda_list(text: str):
    vals = _float_list(text)
    if not all(0.0 < v < np.inf for v in vals) or any(
            b <= a for a, b in zip(vals, vals[1:])):
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


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload):
    with open(path, "w") as fh:
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
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _build_params(args, grid) -> Params:
    try:
        h1 = field_from_recipe(args.h1, grid)
    except RecipeError as exc:
        raise ConfigError(f"--h1: {exc}") from exc
    try:
        h2 = field_from_recipe(args.h2, grid)
    except RecipeError as exc:
        raise ConfigError(f"--h2: {exc}") from exc
    try:
        return Params(args.rho1, args.rho2, h1, h2)
    except ValueError as exc:
        # Params messages open with the field at fault: "h1 must be ..."
        raise ConfigError(f"--{str(exc).split()[0]}: {exc}") from exc


def _grid_or_config_error(n: int):
    try:
        return build_grid(n)
    except GridError as exc:
        raise ConfigError(f"--n: {exc}") from exc


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
    with open(outdir / "solution.csv", "w", newline="") as fh:
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
    grid = _grid_or_config_error(args.n)
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
    grid = _grid_or_config_error(args.n)
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
    grid = _grid_or_config_error(args.n)
    params = _build_params(args, grid)
    zeta = default_join_config(grid, args.k, args.l, args.s)
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
    grid = _grid_or_config_error(args.n)
    zeta = default_join_config(grid, args.k, args.l, args.s)
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
    try:
        step_count(args.r_max, args.step)
    except ValueError as exc:
        raise ConfigError(f"--step: {exc}") from exc
    rows = alpha_sweep(args.alphas, args.h1_const, args.h2_const,
                       args.r_max, args.step)
    return _report_alpha_rows(rows, outdir)


def cmd_quantization_table(args, outdir: Path):
    table = quantization_table(args.m_min, args.m_max)
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
    the finite-difference gradient check."""
    grid64 = build_grid(64)
    h1 = field_from_recipe("1+0.5*cos(2*pi*x)", grid64)
    h2 = field_from_recipe("1+0.5*sin(2*pi*y)", grid64)
    solve_rows = []
    solve_ok = True
    for rho1 in _RHO1_GRID:
        for rho2 in _RHO2_GRID:
            params = Params(rho1, rho2, h1, h2)
            for k_seed in range(3):
                seed = int(args.seed) + 97 * k_seed
                sol = minimize(params, _random_start(grid64, seed), max_iters=4000,
                               tol_residual=1e-9)
                solve_ok &= sol.converged and sol.residual_norm < 1e-7
                solve_rows.append((rho1, rho2, seed, sol.converged,
                                   sol.residual_norm, sol.energy, sol.iterations))
    _write_csv(outdir / "solve.csv",
               ["rho1", "rho2", "seed", "converged", "residual_norm",
                "energy", "iterations"], solve_rows)
    _write_solution(outdir, args, sol)
    worst_fd = _gradient_fd_check(grid64, 20, int(args.seed) + 5)
    checks = {"coercive_grid_converges": solve_ok,
              "gradient_fd_consistent": worst_fd < 1e-5}
    return checks, {"worst_gradient_fd_rel_error": worst_fd}


def cmd_verify_all(args, outdir: Path):
    """Run each stage in check order: a command argv, parsed by that
    command's own subparser so its defaults live in one place, or one of
    verify-all's own oracle groups."""
    _, commands = build_parser()
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
            stage_args = commands[stage[0]].parse_args(stage[1:])
            stage_checks, stage_summary = stage_args.func(stage_args, outdir)
        if prefix == "bubble_sweep":
            # supercritical rho: the concentrating family must lose energy
            stage_checks["diverges"] = bool(stage_summary["energy_drop_first_to_last"] >= 30.0)
        checks.update({f"{prefix}.{k}": v for k, v in stage_checks.items()})
        summary[prefix] = stage_summary
    return checks, summary


# ---------------------------------------------------------------- wiring


def _add_common(sub):
    sub.add_argument("--out", default=".", help="output directory (default: cwd)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tzlab",
        description="Numerical laboratory for the Tzitzeica mean-field equation.",
    )
    parser.add_argument("--config", default=None,
                        help="INI config file; sections named after commands, flags win")
    subs = parser.add_subparsers(dest="command", metavar="command")
    commands = {}

    sp = subs.add_parser("solve", help="minimize the mean-field energy")
    sp.add_argument("--n", type=int, default=64)
    sp.add_argument("--rho1", type=float, default=None, help="required (flag or config)")
    sp.add_argument("--rho2", type=float, default=None, help="required (flag or config)")
    sp.add_argument("--h1", default="1")
    sp.add_argument("--h2", default="1")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-iters", type=int, default=4000)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)
    commands["solve"] = sp

    sp = subs.add_parser("mt-scan", help="sharp-constant deficit slope scan")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--a1", type=_float_list, default=list(_A1_DEFAULT),
                    help="comma-separated coefficients of the plus log-integral")
    sp.add_argument("--a2", type=_float_list, default=list(_A2_DEFAULT))
    sp.add_argument("--lambdas", type=_lambda_list, default=list(DEFAULT_LAMBDAS))
    _add_common(sp)
    sp.set_defaults(func=cmd_mt_scan)
    commands["mt-scan"] = sp

    sp = subs.add_parser("bubble-sweep", help="energy of the bubble family")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--rho1", type=float, default=10.0 * np.pi)
    sp.add_argument("--rho2", type=float, default=5.0 * np.pi)
    sp.add_argument("--h1", default="1")
    sp.add_argument("--h2", default="1")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--s", type=float, default=0.5)
    sp.add_argument("--lambdas", type=_lambda_list, default=list(DEFAULT_LAMBDAS))
    _add_common(sp)
    sp.set_defaults(func=cmd_bubble_sweep)
    commands["bubble-sweep"] = sp

    sp = subs.add_parser("asymptotics", help="component slopes of the bubble family")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--s", type=float, default=0.5)
    sp.add_argument("--lambdas", type=_lambda_list, default=list(DEFAULT_LAMBDAS))
    _add_common(sp)
    sp.set_defaults(func=cmd_asymptotics)
    commands["asymptotics"] = sp

    sp = subs.add_parser("radial-sweep", help="central-value sweep of the radial solver")
    sp.add_argument("--alphas", type=_float_list, default=[0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    sp.add_argument("--h1-const", type=float, default=1.0)
    sp.add_argument("--h2-const", type=float, default=1.0)
    sp.add_argument("--r-max", type=float, default=1.0)
    sp.add_argument("--step", type=float, default=1e-4)
    _add_common(sp)
    sp.set_defaults(func=cmd_radial_sweep)
    commands["radial-sweep"] = sp

    sp = subs.add_parser("quantization-table", help="admissible blow-up mass pairs")
    sp.add_argument("--m-min", type=int, default=-6)
    sp.add_argument("--m-max", type=int, default=6)
    _add_common(sp)
    sp.set_defaults(func=cmd_quantization_table)
    commands["quantization-table"] = sp

    sp = subs.add_parser("verify-all", help="run every check at default scale")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify_all)
    commands["verify-all"] = sp

    return parser, commands


def _apply_config_file(path: str, command: str, commands: dict):
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"--config: cannot read {path!r}")
    if command not in cfg:
        return
    sub = commands[command]
    converters = {}
    valid = set()
    for action in sub._actions:
        if action.dest in ("help",):
            continue
        valid.add(action.dest)
        converters[action.dest] = action.type or str
    section = cfg[command]
    defaults = {}
    for key, raw in section.items():
        if key not in valid:
            raise ConfigError(f"config [{command}]: unknown key {key!r}")
        try:
            defaults[key] = converters[key](raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"config [{command}] {key} ({flag}): {exc}") from exc
    sub.set_defaults(**defaults)


def _probe_argv(argv):
    """Find the config path and command name without a full parse."""
    config_path, command = None, None
    skip_next = False
    for tok in argv:
        if skip_next:
            config_path = tok
            skip_next = False
            continue
        if tok == "--config":
            skip_next = True
        elif tok.startswith("--config="):
            config_path = tok.split("=", 1)[1]
        elif not tok.startswith("-") and command is None:
            command = tok
    return config_path, command


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    config_path, command = _probe_argv(argv)
    if command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if command not in commands:
        print(f"tzlab: unknown command {command!r}", file=sys.stderr)
        return EXIT_USAGE
    if config_path:
        try:
            _apply_config_file(config_path, command, commands)
        except ConfigError as exc:
            print(f"tzlab: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
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
