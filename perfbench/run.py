"""tzlab benchmark: one client in a closed loop over a seeded workload.

    python3 perfbench/run.py --workload coercive-solve --seed 1 --seconds 30 --trace 0

Run from the root of a tzlab checkout; the program is imported from its
``src/`` directory and nothing else.  Each operation is an in-process
``tzlab.cli.main(argv)`` call or one public library call, generated from
the workload seed (see ``workloads.py``).  The next operation starts when
the previous one has returned.

``--trace 0`` measures the end-to-end metrics, tracing off.  Operation
times are scaled to the reference machine speed of ``calibrate.py``, by a
fixed kernel run next to each operation; the raw wall-clock figures are
printed on a ``raw`` line beside them.  Set-up time is wall clock.

* ``setup_s``: median over five fresh interpreters of the time from
  process start, through the imports, to the end of the warm-up;
* ``ops_per_s`` (median over rounds of operations per second of
  operation time), ``op_p50_ms`` and ``op_tail_ms`` (the 90th
  percentile, reported with the number of samples beyond it) over whole
  rounds, at least ``--seconds`` of raw operation time and at least 100
  operations;
* ``pass_ratio``: operations whose program checks and independent
  oracles all pass, over operations attempted (``fail_ratio`` is its
  complement and is printed too);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs a fixed number of rounds three ways -- untraced,
traced, and traced with ``TZLAB_THREADS=1`` where the workload calls
``parallel_map`` -- and reports the per-layer metrics of the traced pass,
``trace.overhead_ratio`` and ``experiments.thread_speedup``.  Spans go to
``perfbench/out/``.

Every run prints its header, each metric with its unit, the oracle
tallies and the CSV digests, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations
that raised, exited with a usage error, left unreadable output or
reported a pass the oracles contradict; a check the program reports as
failed, and the oracles confirm, is a miss: it lowers ``pass_ratio`` but
is not a failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
from workloads import WARMUP, WORKLOADS, round_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 100          # the 90th percentile then has at least 10 samples beyond it
TAIL_PERCENTILE = 90
SETUP_PROBES = 5
KERNEL_WARMUP = 5      # calibration kernels run before any is used
CAL_WINDOW = 2         # an operation is scaled by the median of the 2+2 kernels nearest it


def import_tzlab():
    """Import tzlab from the checkout's src/ only; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "tzlab" / "__init__.py").is_file():
        print(f"perfbench: no tzlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import tzlab
    import tzlab.cli
    import tzlab.radial
    if Path(tzlab.__file__).resolve().parent != (src / "tzlab").resolve():
        print(f"perfbench: tzlab imported from {tzlab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return tzlab


# ------------------------------------------------------------ one operation


@dataclass
class Record:
    op: object
    round: int
    latency: float
    verdict: object = None
    digest: str = ""
    bytes_written: int = 0
    rows_written: int = 0


def _digest_csvs(outdir: Path):
    """sha256 over every CSV the operation wrote, plus bytes and CSV rows."""
    h = hashlib.sha256()
    nbytes = rows = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        nbytes += len(data)
        if path.suffix == ".csv":
            h.update(path.name.encode() + b"\0" + data)
            rows += max(0, data.count(b"\n") - 1)
    return h.hexdigest(), nbytes, rows


def run_op(tzlab, op, workdir: Path, check=False, tracer=None, op_id=0):
    """Run one operation; returns (latency_s, verdict or None, digest, bytes, rows)."""
    if check:
        import oracles
    root = (tracer.operation(op_id, "cli.main" if op.argv else "bench.op")
            if tracer else contextlib.nullcontext())
    if not op.argv:
        p = op.params
        prof = None
        t0 = time.perf_counter()
        with root:
            try:
                alpha, prof = tzlab.radial.dirichlet_alpha(p["h1"], p["h2"], p["bracket"])
            except Exception as exc:  # noqa: BLE001 - an operation error, reported
                err = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if prof is None:
            verdict = oracles.Verdict("error", True, note=err) if check else None
            return latency, verdict, "", 0, 0
        digest = hashlib.sha256(repr(alpha).encode() + prof.u.tobytes()).hexdigest()
        return latency, oracles.check_dirichlet(p, alpha) if check else None, digest, 0, 0

    outdir = workdir / f"op{op_id}"
    argv = list(op.argv) + ["--out", str(outdir)]
    sink = io.StringIO()
    rc = -1
    t0 = time.perf_counter()
    with root, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = tzlab.cli.main(argv)
        except Exception:  # noqa: BLE001 - a traceback out of main is an operation error
            pass
    latency = time.perf_counter() - t0
    verdict = oracles.check_cli(op.kind, op.params, outdir, rc) if check else None
    digest, nbytes, rows = _digest_csvs(outdir) if outdir.is_dir() else ("", 0, 0)
    shutil.rmtree(outdir, ignore_errors=True)
    return latency, verdict, digest, nbytes, rows


def warm_up(tzlab, workload: str, workdir: Path) -> list[str]:
    return [run_op(tzlab, op, workdir, op_id=i)[2] for i, op in enumerate(WARMUP[workload])]


# ------------------------------------------------------------ set-up probes


def setup_probe(workload: str) -> int:
    """Child mode: import, warm up, print the warm-up digests, exit."""
    tzlab = import_tzlab()
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        digests = warm_up(tzlab, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(digests), flush=True)
    return 0


def measure_setups(workload: str):
    """(set-up seconds, warm-up digests) of SETUP_PROBES fresh interpreters."""
    times, digests = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        digests.append(json.loads(line))
    return times, digests


# ------------------------------------------------------------ closed loop


def run_round(tzlab, workload, seed, index, workdir, records, tracer=None, kernels=None):
    """Append the checked records of round ``index``; returns its op time.

    With ``kernels``, a calibration kernel runs right before each operation
    and its time is appended there.
    """
    busy = 0.0
    for op in round_ops(workload, seed, index):
        if kernels is not None:
            kernels.append(calibrate.kernel())
        latency, verdict, digest, nbytes, rows = run_op(
            tzlab, op, workdir, True, tracer, op_id=len(records))
        records.append(Record(op, index, latency, verdict, digest, nbytes, rows))
        busy += latency
    return busy


def closed_loop(tzlab, workload, seed, workdir, seconds):
    """Whole rounds until ``seconds`` of operation time and MIN_OPS operations.

    Returns the records and the kernel times: one before each operation
    and one after the last.
    """
    records, kernels, busy, r = [], [], 0.0, 0
    while busy < seconds or len(records) < MIN_OPS:
        busy += run_round(tzlab, workload, seed, r, workdir, records, kernels=kernels)
        r += 1
    kernels.append(calibrate.kernel())
    return records, kernels


def scaled_latencies(records, kernels):
    """Each latency at reference speed.  Kernel ``i`` ran just before
    operation ``i``; operation ``i`` is scaled by the median of the kernels
    ``i-1 .. i+2``, so that one interrupted kernel does not move it."""
    out = []
    for i, rec in enumerate(records):
        near = kernels[max(0, i + 1 - CAL_WINDOW):i + 1 + CAL_WINDOW]
        out.append(rec.latency * calibrate.REF_KERNEL_S / statistics.median(near))
    return out


def round_digest(records, index=0) -> str:
    h = hashlib.sha256()
    for rec in records:
        if rec.round == index:
            h.update(rec.digest.encode())
    return h.hexdigest()


# ------------------------------------------------------------ reporting


def cache_sizes() -> dict:
    """Data cache sizes in bytes from glibc's sysconf (CPUID on x86); 0 if unknown."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
    except (OSError, AttributeError):
        return {}
    # _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    return {name: max(0, libc.sysconf(code)) for name, code in (("L1d", 188), ("L2", 191), ("L3", 194))}


def header_lines(tzlab, workload: str) -> list[str]:
    import numpy
    import scipy

    threads = tzlab.experiments.thread_count() if hasattr(tzlab.experiments, "thread_count") else "?"
    caches = cache_sizes()
    lines = [
        f"header nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))}",
        f"header python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} tzlab={tzlab.__version__}",
        f"header TZLAB_THREADS={os.environ.get('TZLAB_THREADS')} (auto) -> {threads} threads",
        "header caches " + (" ".join(f"{k}={v // 1024}KiB" for k, v in caches.items()) or "unknown"),
    ]
    sizes = sorted({op.params["n"] for op in round_ops(workload, 0, 0) if "n" in op.params})
    if not sizes:
        return lines + ["header radial profiles only (1-D arrays); no bandwidth claim"]
    lines.append("header field sizes " + " ".join(
        f"n={n}:{n * n * 8 // 1024}KiB-real/{n * n * 16 // 1024}KiB-complex" for n in sizes))
    llc = max(caches.values(), default=0)
    lines.append(f"header largest array {max(sizes) ** 2 * 16 // 1024} KiB, "
                 f"4 x LLC = {4 * llc // 1024} KiB: no bandwidth claim")
    return lines


def quantile_tail(latencies):
    """(value, samples beyond) of the TAIL_PERCENTILE by nearest rank."""
    xs = sorted(latencies)
    rank = -(-TAIL_PERCENTILE * len(xs) // 100)       # ceil, 1-based
    return xs[rank - 1], len(xs) - rank


def emit(correct: bool, attempted: int, failed: int, metrics: dict):
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
                      "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}))


def print_oracles(records) -> tuple[int, int]:
    """Print per-oracle tallies and outcomes; returns (failed, contradicted)."""
    oracles, status, notes = {}, {"pass": 0, "miss": 0, "error": 0}, []
    for rec in records:
        v = rec.verdict
        status[v.status] += 1
        if v.note:
            notes.append(f"{' '.join(rec.op.argv) or rec.op.params}: {v.note}")
        for name, ok in v.checks.items():
            checked, passed = oracles.get(name, (0, 0))
            oracles[name] = (checked + 1, passed + ok)
    untruthful = sum(not rec.verdict.truthful for rec in records)
    for name, (checked, passed) in sorted(oracles.items()):
        print(f"oracle {name}: {passed}/{checked} pass")
    print(f"outcomes pass={status['pass']} miss={status['miss']} error={status['error']} "
          f"contradicted={untruthful}")
    for note in notes[:10]:
        print(f"note {note}")
    failed = sum(1 for rec in records if rec.verdict.status == "error" or not rec.verdict.truthful)
    return failed, untruthful


# ------------------------------------------------------------ the two modes


def timing_metrics(records, latencies):
    """(ops per second, p50 ms, tail ms, samples beyond the tail) of ``latencies`` in s."""
    per_round = {}
    for rec, t in zip(records, latencies):
        count, total = per_round.get(rec.round, (0, 0.0))
        per_round[rec.round] = (count + 1, total + t)
    # the median round filters a slow spell of the machine that hits one round
    throughput = statistics.median(count / total for count, total in per_round.values())
    lat_ms = [1e3 * t for t in latencies]
    tail, beyond = quantile_tail(lat_ms)
    return throughput, statistics.median(lat_ms), tail, beyond


def untraced_run(tzlab, args, workdir):
    times, probe_digests = measure_setups(args.workload)
    local = warm_up(tzlab, args.workload, workdir)
    for _ in range(KERNEL_WARMUP):
        calibrate.kernel()
    same_everywhere = all(d == local for d in probe_digests)
    records, kernels = closed_loop(tzlab, args.workload, args.seed, workdir, args.seconds)
    scaled = scaled_latencies(records, kernels)
    throughput, p50, tail, beyond = timing_metrics(records, scaled)
    raw_throughput, raw_p50, raw_tail, _ = timing_metrics(records, [r.latency for r in records])
    busy = sum(r.latency for r in records)
    rounds = records[-1].round + 1
    print(f"loop closed, 1 client; rounds={rounds} ops={len(records)} op_time_s={busy:.3f}")
    print(f"setup samples_s={' '.join(f'{t:.4f}' for t in times)} (wall clock, unscaled)")
    print(f"tail p{TAIL_PERCENTILE} over {len(records)} samples, {beyond} beyond")
    print(f"calibration kernel_ms median={1e3 * statistics.median(kernels):.3f} "
          f"min={1e3 * min(kernels):.3f} max={1e3 * max(kernels):.3f} over {len(kernels)}; "
          f"reference {1e3 * calibrate.REF_KERNEL_S:g}")
    print(f"raw ops_per_s = {raw_throughput:.6g} 1/s, op_p50_ms = {raw_p50:.6g} ms, "
          f"op_tail_ms = {raw_tail:.6g} ms (wall clock, unscaled)")
    by_cls = {}
    for rec, t in zip(records, scaled):
        by_cls.setdefault(rec.op.cls, []).append(1e3 * t)
    for cls, xs in sorted(by_cls.items()):
        print(f"class {cls}: n={len(xs)} p50_ms={statistics.median(xs):.2f} max_ms={max(xs):.2f} (scaled)")
    failed, untruthful = print_oracles(records)
    passed = sum(1 for rec in records if rec.verdict.status == "pass")
    print(f"info fail_ratio = {1.0 - passed / len(records):.6g} ratio (misses and errors over attempted)")
    print(f"determinism warm-up CSV digests identical across {SETUP_PROBES + 1} processes: "
          f"{'yes' if same_everywhere else 'NO'}")
    print(f"determinism round0 csv sha256={round_digest(records)}")
    with open(OUT / f"{args.workload}-seed{args.seed}-ops.json", "w") as fh:
        json.dump([{"round": r.round, "cls": r.op.cls, "argv": list(r.op.argv) or repr(r.op.params),
                    "latency_ms": 1e3 * r.latency, "scaled_ms": 1e3 * t,
                    "kernel_ms": 1e3 * k, "status": r.verdict.status,
                    "truthful": r.verdict.truthful, "digest": r.digest}
                   for r, t, k in zip(records, scaled, kernels)], fh)
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "ops_per_s": (throughput, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "pass_ratio": (passed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    emit(untruthful == 0 and same_everywhere, len(records), failed, metrics)


# Traced runs cover a fixed number of rounds, so that their counts repeat
# exactly for a seed; each round runs traced, untraced, and traced on one
# thread back to back, so that the ratios between them see the same load.
TRACE_ROUNDS = {"coercive-solve": 1, "bubble-sweeps": 2, "radial-shoot": 3}


def traced_run(tzlab, args, workdir):
    from spans import Tracer, layer_metrics

    warm_up(tzlab, args.workload, workdir)
    n_rounds = TRACE_ROUNDS[args.workload]
    tracer, single_tracer = Tracer(), Tracer()
    plain, traced, single = [], [], []
    for r in range(n_rounds):
        if r % 2:   # alternate which of the two goes first
            run_round(tzlab, args.workload, args.seed, r, workdir, plain)
        tracer.install()
        try:
            run_round(tzlab, args.workload, args.seed, r, workdir, traced, tracer)
        finally:
            tracer.uninstall()
        if not r % 2:
            run_round(tzlab, args.workload, args.seed, r, workdir, plain)
        if not any(s[1] == "experiments.parallel_map" for s in tracer.spans):
            continue
        os.environ["TZLAB_THREADS"] = "1"
        single_tracer.install()
        try:
            run_round(tzlab, args.workload, args.seed, r, workdir, single, single_tracer)
        finally:
            single_tracer.uninstall()
            os.environ["TZLAB_THREADS"] = "0"
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl",
                 {"workload": args.workload, "seed": args.seed, "rounds": n_rounds})

    metrics = layer_metrics(tracer.spans, tracer.counts,
                            [(r.bytes_written, r.rows_written) for r in traced])
    pm_ms = metrics["experiments.parallel_map_ms"][0]
    speedup = 0.0
    if single and pm_ms:
        single_ms = 1e3 * sum(s[3] - s[2] for s in single_tracer.spans
                              if s[1] == "experiments.parallel_map")
        speedup = single_ms / pm_ms
    metrics["experiments.thread_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_ratio"] = (sum(r.latency for r in traced) / sum(r.latency for r in plain),
                                       "ratio")
    print(f"trace rounds={n_rounds} ops={len(traced)} spans={len(tracer.spans)} "
          f"missing={','.join(tracer.missing) or 'none'}")
    passes = [("untraced", plain), ("traced", traced)] + ([("threads=1", single)] if single else [])
    same = all([r.digest for r in p] == [r.digest for r in plain] for _, p in passes)
    print(f"determinism CSV digests identical across passes {'/'.join(n for n, _ in passes)}: "
          f"{'yes' if same else 'NO'}")
    print(f"determinism round0 csv sha256={round_digest(plain)}")
    outcomes = {}
    for name, records in passes:
        print(f"pass {name}:")
        outcomes[name] = print_oracles(records)
    untruthful = sum(contradicted for _, contradicted in outcomes.values())
    emit(untruthful == 0 and same, len(traced), outcomes["traced"][0], metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ["TZLAB_THREADS"] = "0"
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload)
    tzlab = import_tzlab()
    print(f"# perfbench tzlab workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in header_lines(tzlab, args.workload):
        print(line)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        (traced_run if args.trace else untraced_run)(tzlab, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
