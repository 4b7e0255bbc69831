"""Command-line front end: experiment dispatch, CSV/JSON emission, pass/fail.

Each command has one parser, built at import and never changed:
``tzlab --help`` lists the commands with their one-line descriptions,
``tzlab <command> --help`` a command's flags.  verify-all is one table
of stages, under one exit status.  A stage is a command line, parsed as
``main`` parses one and run as that command, then an optional oracle for
what no command checks: the RK4 order and the Liouville mass after
radial-sweep, the energy divergence after bubble-sweep, the
finite-difference gradient after solve.  Every stage is parsed before the
first one runs.  solve's ``--rho1``/``--rho2``/``--seed`` and
radial-sweep's ``--h2-const`` take comma lists, so its coercive grid and
its two h2 rows are one command line each.

Each command and each oracle returns one ``_Check`` list, from which alone
``main`` prints [PASS]/[FAIL] and writes summary.json.  The JSON files
are strict: a NaN or infinite value or bound is written as null.

Outputs are deterministic for a fixed config and seed: CSV floats use the
shortest round-trip decimal representation, except solution.csv's field
column, which is written at 17 significant digits (exact for every double,
and cheaper than the shortest search), and summaries echo the full config.
Exit status: 0 all checks passed, 1 usage or configuration error, 2 at
least one check failed, 3 a numerical failure (an exponential integral
underflowed or overflowed, a descent met a non-finite value, or a radial
trajectory overflowed).  The output directory is created at the first file
written.

A rule on one flag's value is the flag's argparse type, checked as the
flag or its config-file key is parsed, before anything runs or is written.
A rule that relates flags or needs the grid lives in the command, behind
``_flag``.  Every usage error is one ``tzlab: ...`` line and exit 1, and
only a ConfigError (or an unwritable ``--out``) is one: any other
exception a command raises is a fault and propagates.

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
import operator
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bubbles import liouville_mass
from .descent import minimize
from .energy import ExpUnderflow, Params, _fresh_residual, energy_J, residual_J
from .experiments import (_MAX_LAMBDA_DX, DEFAULT_LAMBDAS, _lambda_dx,
                          bubble_energy_sweep, component_asymptotics_sweep,
                          default_join_config, mt_threshold_scan)
from .radial import (TrajectoryOverflow, alpha_sweep, limit_mass_relation,
                     quantization_table, step_count)
from .recipes import field_from_recipe
from .surface import ScalarField, build_grid, field_from_function, integrate

EXIT_OK, EXIT_USAGE, EXIT_CHECKFAIL, EXIT_NUMERIC = 0, 1, 2, 3

_A1_DEFAULT = tuple(8.0 * np.pi + d for d in (-2.0, 0.0, 2.0))
_A2_DEFAULT = tuple(4.0 * np.pi + d for d in (-1.0, 0.0, 1.0))


class ConfigError(Exception):
    """Bad configuration; message names the offending key."""


class _Check(NamedTuple):
    """One check: the measured value, the bound it is held to, the verdict.
    A value of None is a measurement that could not be made."""

    name: str
    value: float | None
    bound: float
    passed: bool


def _compare(name, value, bound, holds) -> _Check:
    """A check that passes when ``holds(value, bound)``; a missing value fails."""
    return _Check(name, value, bound, value is not None and bool(holds(value, bound)))


def _slope_check(name, sweep) -> _Check:
    """fitted - predicted slope, held to the sweep's own bound and verdict."""
    offset = None if sweep.skipped else sweep.fitted_slope - sweep.predicted_slope
    return _Check(name, offset, sweep.bound, sweep.passed)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ConfigError, so main prints each
    as one line where argparse would print its usage block and exit."""

    def error(self, message):
        raise ConfigError(message)


def _value(convert, ok, what=None):
    """An argparse type: ``convert(text)``, rejected unless ``ok(value)``
    holds, with "must be ``what``".  ``ok`` may instead be a library check
    that raises ValueError: its message, as any ValueError of ``convert``,
    is reported as it stands."""
    def parse(text):
        try:
            value = convert(text)
            passed = ok(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not passed:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


def _list(item, fit=False):
    """An argparse type: a comma list of ``item`` values.  A ``fit`` list
    feeds a slope fit or a crossing, so it needs at least two values,
    strictly increasing."""
    def increasing(vals):
        return len(vals) >= 2 and all(a < b for a, b in zip(vals, vals[1:]))
    return _value(lambda text: [item(t) for t in text.split(",") if t.strip()],
                  increasing if fit else bool,
                  "at least two values, strictly increasing" if fit else "a nonempty list")


_finite = _value(float, np.isfinite, "finite")
_positive = _value(float, lambda v: 0.0 < v < np.inf, "finite and positive")
_nonnegative = _value(float, lambda v: 0.0 <= v < np.inf, "finite and nonnegative")
# seeds too: numpy's generators take no negative seed
_count = _value(int, lambda v: v >= 0, "a nonnegative integer")
# the grid's own rule and message: "n must be even", "n must be at least 8"
_grid_size = _value(int, build_grid)
_lambdas = _list(_positive, fit=True)
# mt-scan takes the widest gap of a list as its crossing's cell width
_coefficients = _list(_nonnegative, fit=True)


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
    """Strict JSON: a NaN or an infinity raises instead of being written as
    the non-JSON token; pass such numbers through ``_json_number``."""
    with _create(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _json_number(value):
    """``value``, or None (JSON null) where it is NaN or infinite."""
    return None if value is None or not np.isfinite(value) else value


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


def _weights(args, grid):
    return (_flag("--h1", field_from_recipe, args.h1, grid),
            _flag("--h2", field_from_recipe, args.h2, grid))


def _random_start(grid, seed: int) -> ScalarField:
    vals = 0.1 * np.random.default_rng(seed).standard_normal((grid.n, grid.n))
    return ScalarField(grid, vals - vals.mean())


# ---------------------------------------------------------------- commands


def _write_solution(outdir: Path, args, sol, **echo):
    """solution.csv (row-major field dump, x fastest) and solution.json,
    whose config is that of ``args`` with ``echo``'s values in place.

    The dump is streamed one grid row at a time, each row one ``join`` of
    the x reprs and one ``%`` of its values.  Its header, x and y text are
    those of ``_write_csv(path, ["x", "y", "u"], rows)``; u is ``%.17g``,
    17 significant digits, which give every double back exactly and format
    faster than the shortest repr, whose search dominates the dump.
    """
    grid = sol.u.grid
    xs = [repr(x) for x in grid.axis_points.tolist()]
    with _create(outdir / "solution.csv", newline="") as fh:
        fh.write("x,y,u\r\n")
        for y, row in zip(grid.axis_points.tolist(), sol.u.values):
            cell = f",{y!r},%.17g\r\n"
            fh.write((cell.join(xs) + cell) % tuple(row.tolist()))
    _write_json(outdir / "solution.json", {
        "config": {**_config_echo(args), **echo},
        "versions": _versions(),
        "converged": bool(sol.converged),
        "energy": _json_number(sol.energy),
        "residual_norm": _json_number(sol.residual_norm),
        "iterations": sol.iterations,
        "energy_evals": sol.energy_evals,
        "backtracks": sol.backtracks,
        "field_csv": "solution.csv",
    })


def cmd_solve(args, outdir: Path):
    if args.rho1 is None or args.rho2 is None:
        raise ConfigError("--rho1 and --rho2 are required (flag or config file)")
    grid = build_grid(args.n)
    h1, h2 = _weights(args, grid)
    # rho1 outermost, the seed innermost; every pair is checked before the
    # first descent.  Params messages open with the field at fault: "h1 ..."
    grid_params = [_flag(None, Params, rho1, rho2, h1, h2)
                   for rho1 in args.rho1 for rho2 in args.rho2]
    rows, residuals = [], []
    for params in grid_params:
        for seed in args.seed:
            sol = minimize(params, _random_start(grid, seed), max_iters=args.max_iters,
                           tol_residual=args.tol)
            rows.append((params.rho1, params.rho2, seed, sol.converged,
                         sol.residual_norm, sol.energy, sol.iterations))
            # not the descent's word: its formula on a fresh spectrum of the field
            residuals.append(_fresh_residual(sol.u, params)[2])
    _write_csv(outdir / "solve.csv", ["rho1", "rho2", "seed", "converged",
                                      "residual_norm", "energy", "iterations"], rows)
    _write_solution(outdir, args, sol, rho1=params.rho1, rho2=params.rho2, seed=seed)
    return [
        # on a finite grid a discrete minimizer exists for any rho, so
        # convergence alone does not back a solution outside this region
        _compare("coercive_regime", sum(not p.coercive for p in grid_params), 0, operator.le),
        _compare("converged", sum(not row[3] for row in rows), 0, operator.le),
        # the worst L^2 norm of the residual at the returned fields; np.max,
        # unlike max, lets a NaN residual through to fail
        _compare("residual_below_tol", float(np.max(residuals)), args.tol, operator.le),
    ]


def cmd_mt_scan(args, outdir: Path):
    grid = build_grid(args.n)
    scan = mt_threshold_scan(args.a1, args.a2, grid, tuple(args.lambdas))
    rows = []
    for i, a1 in enumerate(scan.a1_list):
        for j, a2 in enumerate(scan.a2_list):
            for family, cell in (("plus", scan.plus[i][j]), ("minus", scan.minus[i][j])):
                rows.append((family, a1, a2, cell.fitted_slope, cell.predicted_slope,
                             cell.rel_error, cell.passed, cell.skipped))
    _write_csv(outdir / "mt-scan.csv",
               ["family", "a1", "a2", "fitted_slope", "predicted_slope",
                "rel_error", "pass", "skipped"], rows)
    failed_cells = sum(not passed for *_, passed, _skipped in rows)
    checks = [_compare("all_cells_pass", failed_cells, 0, operator.le)]
    # a crossing is held to one cell of the sharp value: the widest gap of its list
    for family, crossing, sharp, coeffs in (("plus", scan.plus_crossing, 8.0 * np.pi, scan.a1_list),
                                            ("minus", scan.minus_crossing, 4.0 * np.pi,
                                             scan.a2_list)):
        offset = None if crossing is None else crossing - sharp
        checks.append(_compare(f"{family}_crossing_at_sharp", offset, max(np.diff(coeffs)),
                               lambda value, cell: abs(value) <= cell))
    return checks


def cmd_bubble_sweep(args, outdir: Path):
    grid = build_grid(args.n)
    params = _flag(None, Params, args.rho1, args.rho2, *_weights(args, grid))
    # default_join_config messages open with the parameter at fault: "s ..."
    zeta = _flag(None, default_join_config, grid, args.k, args.l, args.s)
    sweep = bubble_energy_sweep(zeta, params, tuple(args.lambdas))
    _write_csv(outdir / "bubble-sweep.csv", ["lambda", "energy"],
               zip(sweep.lambdas, sweep.values))
    return [_slope_check("slope_matches", sweep),
            _Check("grid_adequate", _lambda_dx(grid, args.lambdas), _MAX_LAMBDA_DX,
                   not sweep.skipped)]


def cmd_asymptotics(args, outdir: Path):
    grid = build_grid(args.n)
    # default_join_config messages open with the parameter at fault: "s ..."
    zeta = _flag(None, default_join_config, grid, args.k, args.l, args.s)
    sweeps = component_asymptotics_sweep(zeta, grid, tuple(args.lambdas))
    rows = []
    for name, res in sweeps.items():
        for lam, val in zip(res.lambdas, res.values):
            rows.append((name, lam, val))
    _write_csv(outdir / "asymptotics.csv", ["component", "lambda", "value"], rows)
    return [_slope_check(f"{name}_slope", res) for name, res in sweeps.items()]


def cmd_radial_sweep(args, outdir: Path):
    _flag("--step", step_count, args.r_max, args.step)
    rows = [row for h2 in args.h2_const
            for row in alpha_sweep(args.alphas, args.h1_const, h2, args.r_max, args.step)]
    _write_csv(outdir / "radial-sweep.csv",
               ["alpha", "sigma1", "sigma2", "pohozaev_max_rel", "relation",
                "family", "m", "distance", "error"],
               [(r.alpha, r.sigma1, r.sigma2, r.pohozaev_max_rel, r.relation,
                 r.family, r.m, r.distance, r.error) for r in rows])
    residuals = [r.pohozaev_max_rel for r in rows if r.error is None]
    return [_compare("all_rows_computed", len(rows) - len(residuals), 0, operator.le),
            _compare("pohozaev_small", float(np.max(residuals)) if residuals else None, 1e-6,
                     operator.lt)]


def cmd_quantization_table(args, outdir: Path):
    table = _flag("--m-min", quantization_table, args.m_min, args.m_max)
    _write_csv(outdir / "quantization-table.csv",
               ["family", "m", "sigma1", "sigma2"],
               [(mp.family, mp.m, int(mp.sigma1), int(mp.sigma2)) for mp in table])
    off_curve = sum(limit_mass_relation(int(mp.sigma1), int(mp.sigma2)) != 0 for mp in table)
    indivisible = sum(int(mp.sigma1) % 4 != 0 or int(mp.sigma2) % 2 != 0 for mp in table)
    at_origin = sum((mp.sigma1, mp.sigma2) == (0, 0) for mp in table)
    return [_compare("hyperbola_exact", off_curve, 0, operator.le),
            _compare("divisibility", indivisible, 0, operator.le),
            _compare("origin_excluded", at_origin, 0, operator.le)]


def _gradient_oracle(args, _outdir) -> list[_Check]:
    """Worst relative error of central differences of J_rho against the
    residual, over 20 random smooth (rho, h1, h2, u, v) on solve's grid."""
    grid = build_grid(args.n)
    rng = np.random.default_rng(args.seed[0] + 5)
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
    for _ in range(20):
        h1 = smooth(0.3) + 1.5
        h2 = smooth(0.3) + 1.5
        p = Params(rng.uniform(0.0, 8.0 * np.pi), rng.uniform(0.0, 4.0 * np.pi), h1, h2)
        u, v = smooth(), smooth()
        fd = (energy_J(u + eps * v, p) - energy_J(u - eps * v, p)) / (2.0 * eps)
        analytic = integrate(residual_J(u, p) * v)
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    return [_compare("gradient_fd_consistent", worst, 1e-5, operator.lt)]


def _radial_oracle(_args, _outdir) -> list[_Check]:
    """The RK4 order and the Liouville blow-up mass, which radial-sweep does
    not check, from alpha_sweep rows: the order from the worst Pohozaev
    residual, which is pure integration error, at two steps."""
    orders = []
    for h2c in (0.0, 1.0):
        coarse, fine = (alpha_sweep((8.0,), 1.0, h2c, 1.0, step)[0].pohozaev_max_rel
                        for step in (1e-3, 5e-4))
        orders.append(float(np.log2(coarse / fine)))
    (row,) = alpha_sweep((10.0,), 1.0, 0.0, 1.0, 1e-4)
    return [_compare("order_at_least_3_5", float(np.min(orders)), 3.5, operator.ge),
            # the step-1e-4 RK4 mass reads 7.1e-15 off the closed form
            _compare("liouville_mass", abs(row.sigma1 - liouville_mass(10.0, 1.0)), 1e-8,
                     operator.lt),
            # the distance to the nearest lattice pair, within classify_mass_pair's
            # default tolerance, and that pair must be (I, 1)
            _Check("liouville_class_is_type_I_1", row.distance, 0.05,
                   (row.family, row.m) == ("I", 1))]


def _divergence_oracle(_args, outdir) -> list[_Check]:
    # supercritical rho: the energies its stage wrote must fall, first to last lambda
    with open(outdir / "bubble-sweep.csv", newline="") as fh:
        energies = [float(energy) for _, energy in list(csv.reader(fh))[1:]]
    return [_compare("diverges", energies[0] - energies[-1], 30.0, operator.ge)]


def cmd_verify_all(args, outdir: Path):
    """Run each stage in check order: its command line, parsed as ``main``
    parses one so the command's defaults live in one place, then its
    oracle, if it has one."""
    n, seed = f"--n={args.n}", args.seed
    rho1, rho2 = (",".join(repr(np.pi * m) for m in ms) for ms in ((2, 4, 6), (1, 2, 3)))
    stages = (
        ("quantization", ["quantization-table"], None),
        ("radial", ["radial-sweep", "--alphas=0,5,8", "--h2-const=0,1"], _radial_oracle),
        ("mt_scan", ["mt-scan", n], None),
        ("asymptotics", ["asymptotics", n], None),
        ("bubble_sweep", ["bubble-sweep", n], _divergence_oracle),
        # the coercive rho grid, three random starts at each point
        ("solve", ["solve", "--n=64", "--h1=1+0.5*cos(2*pi*x)", "--h2=1+0.5*sin(2*pi*y)",
                   f"--rho1={rho1}", f"--rho2={rho2}",
                   f"--seed={seed},{seed + 97},{seed + 194}"], _gradient_oracle),
    )
    parsed = [(prefix, _parse([*argv, f"--out={args.out}"]), oracle)
              for prefix, argv, oracle in stages]
    checks = []
    for prefix, stage_args, oracle in parsed:
        stage_checks = stage_args.func(stage_args, outdir)
        if oracle is not None:
            stage_checks += oracle(stage_args, outdir)
        checks += [c._replace(name=f"{prefix}.{c.name}") for c in stage_checks]
    return checks


# ---------------------------------------------------------------- wiring


def _command(commands: dict, name: str, func, help_line: str):
    """Add the parser of one command to ``commands``: ``help_line`` is its
    description and its line in ``tzlab --help``.  A bad value raises
    ArgumentError, so _parse can tell a config file's value from a flag's."""
    sp = _Parser(prog=f"tzlab {name}", description=help_line, exit_on_error=False)
    sp.add_argument("--out", default=".", help="output directory (default: cwd)")
    sp.set_defaults(func=func)
    commands[name] = sp
    return sp


def _command_parsers() -> dict:
    commands = {}
    sp = _command(commands, "solve", cmd_solve, "minimize the mean-field energy")
    sp.add_argument("--n", type=_grid_size, default=64)
    for flag in ("--rho1", "--rho2"):
        sp.add_argument(flag, type=_list(_nonnegative),
                        help="comma list; required (flag or config)")
    sp.add_argument("--h1", default="1")
    sp.add_argument("--h2", default="1")
    sp.add_argument("--tol", type=_positive, default=1e-9)
    sp.add_argument("--max-iters", type=_count, default=4000)
    sp.add_argument("--seed", type=_list(_count), default=[0], help="comma list; seed innermost")

    sp = _command(commands, "mt-scan", cmd_mt_scan, "sharp-constant deficit slope scan")
    sp.add_argument("--n", type=_grid_size, default=256)
    sp.add_argument("--a1", type=_coefficients, default=list(_A1_DEFAULT),
                    help="comma-separated coefficients of the plus log-integral")
    sp.add_argument("--a2", type=_coefficients, default=list(_A2_DEFAULT))
    sp.add_argument("--lambdas", type=_lambdas, default=list(DEFAULT_LAMBDAS))

    sp = _command(commands, "bubble-sweep", cmd_bubble_sweep, "energy of the bubble family")
    sp.add_argument("--n", type=_grid_size, default=256)
    sp.add_argument("--rho1", type=_nonnegative, default=10.0 * np.pi)
    sp.add_argument("--rho2", type=_nonnegative, default=5.0 * np.pi)
    sp.add_argument("--h1", default="1")
    sp.add_argument("--h2", default="1")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--s", type=float, default=0.5)
    sp.add_argument("--lambdas", type=_lambdas, default=list(DEFAULT_LAMBDAS))

    sp = _command(commands, "asymptotics", cmd_asymptotics,
                  "component slopes of the bubble family")
    sp.add_argument("--n", type=_grid_size, default=256)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--s", type=float, default=0.5)
    sp.add_argument("--lambdas", type=_lambdas, default=list(DEFAULT_LAMBDAS))

    sp = _command(commands, "radial-sweep", cmd_radial_sweep,
                  "central-value sweep of the radial solver")
    sp.add_argument("--alphas", type=_list(_finite), default=[0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    sp.add_argument("--h1-const", type=_positive, default=1.0)
    sp.add_argument("--h2-const", type=_list(_nonnegative), default=[1.0],
                    help="comma list; h2-major")
    sp.add_argument("--r-max", type=_positive, default=1.0)
    sp.add_argument("--step", type=_positive, default=1e-4)

    sp = _command(commands, "quantization-table", cmd_quantization_table,
                  "admissible blow-up mass pairs")
    sp.add_argument("--m-min", type=int, default=-6)
    sp.add_argument("--m-max", type=int, default=6)

    sp = _command(commands, "verify-all", cmd_verify_all, "run every check at default scale")
    sp.add_argument("--n", type=_grid_size, default=256)
    sp.add_argument("--seed", type=_count, default=0)
    return commands


# Built once, at import, and never changed: a parse fills a namespace of
# its own, so concurrent and successive calls of main share nothing.
_COMMANDS = _command_parsers()

_TOP = _Parser(
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
    try:
        if not cfg.read(path, encoding="utf-8"):
            raise ConfigError(f"--config: cannot read {path!r}")
        section = dict(cfg[command]) if command in cfg else {}  # interpolates
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span lines; the report is one
        raise ConfigError(f"--config: {path!r}: {' '.join(str(exc).split())}") from exc
    if cfg.defaults():  # they would reach only the commands that have a section
        raise ConfigError(f"--config: {path!r}: [DEFAULT] keys are not supported")
    flags = {action.dest: action.option_strings[-1]
             for action in _COMMANDS[command]._actions if action.dest != "help"}
    tokens = []
    for key, raw in section.items():
        if key not in flags:
            raise ConfigError(f"config [{command}]: unknown key {key!r}")
        tokens.append(f"{flags[key]}={raw}")
    return tokens


def _parse(argv) -> argparse.Namespace:
    """``[--config PATH] command flags...`` parsed by the top parser, then by
    the command's own.  Every error raises ConfigError: a bad value names
    its flag, or its config file's section and key."""
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
        raise ConfigError(f"{exc.argument_name}: {exc.message}") from exc
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        outdir = Path(args.out)
        checks = args.func(args, outdir)
        passed = all(c.passed for c in checks)
        _write_json(outdir / "summary.json", {
            "command": args.command,
            "config": _config_echo(args),
            "versions": _versions(),
            "checks": {c.name: c.passed for c in checks},
            "values": {c.name: {"value": _json_number(c.value), "bound": _json_number(c.bound)}
                       for c in checks},
            "passed": passed,
        })
    except SystemExit:  # argparse printed the help; its errors raise ConfigError
        return EXIT_OK
    except ConfigError as exc:
        print(f"tzlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # --out names a file, or a path through one
        print(f"tzlab: --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExpUnderflow, TrajectoryOverflow) as exc:
        print(f"tzlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {args.command}: {check.name}")
    return EXIT_OK if passed else EXIT_CHECKFAIL


if __name__ == "__main__":
    sys.exit(main())
