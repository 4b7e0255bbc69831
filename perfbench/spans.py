"""In-memory span tracer and the per-layer metrics derived from it.

The tracer wraps tzlab's public functions at the module attributes their
callers resolve (``tzlab.descent.energy_J``, ``tzlab.radial.shoot``,
``tzlab.experiments.parallel_map``, ...) and the numpy/scipy 2-D FFTs.
A wrapped call records a span -- name, start, end, parent span and the
operation it belongs to -- only inside an operation opened with
``Tracer.operation``; elsewhere it calls straight through.  Spans stay in
memory until the run writes them out.  ``uninstall`` puts every original
back.

A layer's self time is the sum, over its spans, of the span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

SPANNED = {
    "tzlab.surface": ("build_grid", "integrate", "mean", "laplacian", "grad_norm_sq",
                      "solve_helmholtz", "distance_field", "field_from_function",
                      "constant_field"),
    "tzlab.energy": ("energy_J", "residual_J", "energy_I", "mt_deficit",
                     "improved_mt_deficit"),
    "tzlab.descent": ("minimize", "precondition_gradient"),
    "tzlab.bubbles": ("build_bubble", "liouville_bubble"),
    "tzlab.radial": ("shoot", "dirichlet_alpha", "pohozaev_residual_profile",
                     "pohozaev_identity", "pohozaev_residual", "classify_mass_pair",
                     "quantization_table"),
    "tzlab.experiments": ("bubble_energy_sweep", "component_asymptotics_sweep",
                          "mt_threshold_scan", "alpha_sweep", "mt_deficit_sweep"),
    "tzlab.recipes": ("field_from_recipe",),
}
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
SWEEPS = ("bubble_energy_sweep", "component_asymptotics_sweep", "mt_threshold_scan",
          "alpha_sweep")
ENERGY_SIZES = (64, 128, 256, 512)


def _targets():
    """(module, attribute, span name) of every wrapped tzlab function."""
    for modname, names in SPANNED.items():
        for fname in names:
            yield modname, fname, f"{modname.split('.')[1]}.{fname}"
    # the stabilized exponential integral of the energy layer (scipy's
    # logsumexp at the seed), the largest single item of the descent profile
    yield "tzlab.energy", "_log_integral_exp", "energy.logsumexp"
    yield "tzlab.experiments", "parallel_map", "experiments.parallel_map"


def _minimize_info(args, out, exc):
    sol = out if exc is None else getattr(exc, "best", None)
    if sol is None:
        return None
    return {"iterations": int(sol.iterations), "converged": bool(sol.converged)}


def _shoot_info(args, out, exc):
    if out is None:
        return None
    series = getattr(sys.modules["tzlab.radial"], "_SERIES_STEPS", 0)
    return {"steps": int(len(out.r)) - 1 - int(series)}


def _energy_info(args, out, exc):
    return {"n": int(args[0].grid.n)}


def _fft_info(args, out, exc):
    return {"bytes": int(np.asarray(args[0]).nbytes + (0 if out is None else out.nbytes))}


ANNOTATE = {"descent.minimize": _minimize_info, "radial.shoot": _shoot_info,
            "energy.energy_J": _energy_info, "surface.fft2d": _fft_info}


class Tracer:
    """Spans and counters of the operations run while it is installed."""

    def __init__(self):
        self.spans = []             # (id, name, start, end, parent, op, info)
        self.counts = Counter()
        self.missing = []
        self._patches = []          # (owner, attribute, original)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- spans

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def operation(self, op_id: int, name: str):
        """Root span of one closed-loop operation."""
        st = self._stack()
        sid = next(self._ids)
        st.append((sid, op_id))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans.append((sid, name, t0, t1, None, op_id, None))

    def _wrap(self, name, fn, applies=None):
        annotate = ANNOTATE.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._stack()
            if not st or (applies is not None and not applies(args)):
                return fn(*args, **kwargs)
            parent, op = st[-1]
            sid = next(tracer._ids)
            st.append((sid, op))
            out = exc = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = time.perf_counter()
                st.pop()
                info = annotate(args, out, exc) if annotate else None
                tracer.spans.append((sid, name, t0, t1, parent, op, info))

        return traced

    def _wrap_parallel_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(work, items):
            st = tracer._stack()
            if not st:
                return fn(work, items)
            parent, op = st[-1]
            sid = next(tracer._ids)

            def adopted(item):
                # worker threads start with empty stacks: parent their spans here
                wst = tracer._stack()
                wst.append((sid, op))
                try:
                    return work(item)
                finally:
                    wst.pop()

            st.append((sid, op))
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                return fn(adopted, items)
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                st.pop()
                tracer.spans.append((sid, "experiments.parallel_map", t0, t1, parent, op,
                                     {"cpu": c1 - c0}))

        return traced

    def _count_inits(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(*args, **kwargs):
            if tracer._stack():
                with tracer._lock:
                    tracer.counts["surface.field_inits"] += 1
            return init(*args, **kwargs)

        return counted

    # ------------------------------------------------------------- patching

    def _replace(self, original, replacement, extra_owners=()):
        """Point every tzlab module attribute bound to ``original`` at the wrapper."""
        owners = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "tzlab" or name.startswith("tzlab."))]
        for owner in list(extra_owners) + owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, replacement)

    def install(self):
        import numpy.fft
        import scipy.fft

        two_d = lambda args: np.ndim(args[0]) == 2  # noqa: E731
        for lib in (numpy.fft, scipy.fft):
            for fname in FFT_NAMES:
                fn = getattr(lib, fname, None)
                if fn is not None:
                    # the n-dimensional transforms count only on 2-D input
                    applies = two_d if fname.endswith("n") else None
                    self._replace(fn, self._wrap("surface.fft2d", fn, applies), (lib,))
        self.missing = []
        for modname, fname, name in _targets():
            fn = getattr(sys.modules[modname], fname, None)
            if fn is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            if name == "experiments.parallel_map":
                self._replace(fn, self._wrap_parallel_map(fn))
            else:
                self._replace(fn, self._wrap(name, fn))
        field_cls = sys.modules["tzlab.surface"].ScalarField
        self._patches.append((field_cls, "__init__", field_cls.__init__))
        field_cls.__init__ = self._count_inits(field_cls.__init__)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "missing": self.missing,
                                 "columns": ["id", "name", "start", "end", "parent", "op", "info"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(t0, t1, intervals) -> float:
    """Length of [t0, t1] covered by the union of ``intervals``."""
    total, reach = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans, counts, ops) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    ``ops`` holds (bytes_written, rows_written) per operation.  Ratios with
    no calls behind them read 0.
    """
    by_id = {s[0]: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            kids[s[4]].append((s[2], s[3]))
    self_s = defaultdict(float)
    calls, total = Counter(), defaultdict(float)
    by_name = defaultdict(list)
    for s in spans:
        sid, name, t0, t1 = s[:4]
        self_s[name.split(".")[0]] += (t1 - t0) - _covered(t0, t1, kids.get(sid, ()))
        calls[name] += 1
        total[name] += t1 - t0
        by_name[name].append(s)

    def parent_name(s):
        p = by_id.get(s[4])
        return p[1] if p else None

    def named(name):
        return by_name.get(name, [])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["surface.fft2d_calls"] = (calls["surface.fft2d"], "count")
    m["surface.fft2d_ms"] = (1e3 * total["surface.fft2d"], "ms")
    m["surface.fft2d_bytes"] = (sum(s[6]["bytes"] for s in named("surface.fft2d")),
                                "bytes_computed")
    m["surface.field_inits"] = (counts["surface.field_inits"], "count")
    m["surface.self_ms"] = (1e3 * self_s["surface"], "ms")

    m["energy.energy_J_calls"] = (calls["energy.energy_J"], "count")
    m["energy.residual_J_calls"] = (calls["energy.residual_J"], "count")
    for n in ENERGY_SIZES:
        durs = [s[3] - s[2] for s in named("energy.energy_J") if s[6]["n"] == n]
        m[f"energy.energy_J_us.n{n}"] = (1e6 * ratio(sum(durs), len(durs)), "us")
    m["energy.logsumexp_calls"] = (calls["energy.logsumexp"], "count")
    m["energy.logsumexp_ms"] = (1e3 * total["energy.logsumexp"], "ms")
    m["energy.self_ms"] = (1e3 * self_s["energy"], "ms")

    mins = [s for s in named("descent.minimize") if s[6] is not None]
    iters = sum(s[6]["iterations"] for s in mins)
    evals = sum(1 for s in named("energy.energy_J") if parent_name(s) == "descent.minimize")
    m["descent.minimize_calls"] = (calls["descent.minimize"], "count")
    m["descent.iterations"] = (iters, "count")
    m["descent.energy_evals_per_iter"] = (ratio(evals, iters), "ratio")
    m["descent.backtracks"] = (max(0, evals - len(mins) - iters), "count")
    m["descent.converged_ratio"] = (ratio(sum(s[6]["converged"] for s in mins),
                                          calls["descent.minimize"]), "ratio")
    m["descent.self_ms"] = (1e3 * self_s["descent"], "ms")

    m["bubbles.build_bubble_calls"] = (calls["bubbles.build_bubble"], "count")
    m["bubbles.build_bubble_ms"] = (1e3 * total["bubbles.build_bubble"], "ms")
    m["bubbles.distance_field_calls"] = (
        sum(1 for s in named("surface.distance_field")
            if (parent_name(s) or "").startswith("bubbles.")), "count")

    shoots = named("radial.shoot")
    steps = sum(s[6]["steps"] for s in shoots if s[6] is not None)
    m["radial.shoot_calls"] = (len(shoots), "count")
    m["radial.rk4_steps"] = (steps, "count")
    m["radial.us_per_rk4_step"] = (1e6 * ratio(total["radial.shoot"], steps), "us")
    m["radial.dirichlet_shoots_per_solve"] = (
        ratio(sum(1 for s in shoots if parent_name(s) == "radial.dirichlet_alpha"),
              calls["radial.dirichlet_alpha"]), "ratio")
    m["radial.pohozaev_ms"] = (1e3 * sum(v for k, v in total.items()
                                         if k.startswith("radial.pohozaev")), "ms")

    pmaps = named("experiments.parallel_map")
    m["experiments.parallel_map_calls"] = (len(pmaps), "count")
    m["experiments.parallel_map_ms"] = (1e3 * total["experiments.parallel_map"], "ms")
    m["experiments.parallel_map_cpu_per_wall"] = (
        ratio(sum(s[6]["cpu"] for s in pmaps), total["experiments.parallel_map"]), "ratio")
    for sweep in SWEEPS:
        m[f"experiments.sweep_ms.{sweep}"] = (1e3 * total[f"experiments.{sweep}"], "ms")

    m["recipes.field_from_recipe_calls"] = (calls["recipes.field_from_recipe"], "count")
    m["recipes.ms"] = (1e3 * total["recipes.field_from_recipe"], "ms")

    m["cli.self_ms"] = (1e3 * self_s["cli"], "ms")
    m["cli.bytes_written"] = (sum(b for b, _ in ops), "bytes")
    m["cli.rows_written"] = (sum(r for _, r in ops), "count")
    return m
