"""Seeded operation streams for the three tzlab benchmark workloads.

Each workload is an endless sequence of *rounds*.  A round is a fixed,
balanced block of operations (the full cross product the workload covers)
whose order and continuous inputs are drawn from ``(seed, round)``.  The
benchmark always finishes the round it is in, so every measured run holds
whole rounds and its latency percentiles come from the same mix of
operation kinds whatever the machine speed.

An operation is either a ``tzlab`` command line, run in-process through
``tzlab.cli.main(argv)``, or one public library call
(``tzlab.radial.dirichlet_alpha``).  The program sees only these inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PI = math.pi
WEIGHTS = {
    "const": ("1", "1"),
    "weighted": ("1+0.5*cos(2*pi*x)", "1+0.5*sin(2*pi*y)"),
}
JOIN_TRIPLES = ((1, 1, 0.5), (1, 1, 0.3), (1, 1, 0.7), (2, 1, 0.5), (2, 2, 0.5), (1, 2, 0.5))
# (rho1, rho2, weights) for bubble-sweep; (40, 10) keeps the seed's known
# (2,1) slope miss in the mix, (10 pi, 5 pi) the (1,2) miss.
BUBBLE_RHOS = ((10.0 * PI, 5.0 * PI, "const"), (40.0, 10.0, "weighted"))
# (h1, h2, bracket) for the zero-boundary radial problem.
DIRICHLET_TABLE = ((1.0, 0.0, (0.0, 0.5)), (1.0, 0.0, (2.0, 4.0)), (1.0, 1.0, (2.0, 4.0)),
                   (2.0, 1.0, (1.0, 4.0)), (0.5, 0.0, (2.0, 6.0)))
# Central values stay where step 1e-4 resolves the bubble scale e^{-alpha/2}
# (StepTooLarge starts above alpha = 2 log 1000 = 13.8).
ALPHA_RANGE = (0.0, 12.0)
RADIAL_STEP = 1e-4


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``kind`` is the oracle that checks it; ``cls`` groups operations of
    similar cost for the report; ``argv`` is the command line (without
    ``--out``) or empty for a library call described by ``params``.
    """

    kind: str
    cls: str
    argv: tuple = ()
    params: dict = field(default_factory=dict, compare=False)


def _solve(n, rho1, rho2, weights, seed):
    h1, h2 = WEIGHTS[weights]
    argv = ("solve", "--n", str(n), "--rho1", repr(rho1), "--rho2", repr(rho2),
            "--h1", h1, "--h2", h2, "--seed", str(seed))
    return Op("solve", f"solve.n{n}", argv,
              {"n": n, "rho1": rho1, "rho2": rho2, "h1": h1, "h2": h2})


def _coercive_round(rng):
    # Two random starts per point at n=64 and one at n=128: with one each,
    # the median would sit on the gap between the two sizes' latencies.
    ops = []
    for n, starts in ((64, 2), (128, 1)):
        for weights in WEIGHTS:
            for m1 in (2, 4, 6):
                for m2 in (1, 2, 3):
                    for _ in range(starts):
                        seed = int(rng.integers(0, 2**31 - 1))
                        ops.append(_solve(n, m1 * PI, m2 * PI, weights, seed))
    return ops


def _mt_scan(n, rng):
    d1 = round(float(rng.uniform(1.0, 3.0)), 3)
    d2 = round(float(rng.uniform(0.5, 1.5)), 3)
    a1 = [8.0 * PI + k * d1 for k in (-1, 0, 1)]
    a2 = [4.0 * PI + k * d2 for k in (-1, 0, 1)]
    argv = ("mt-scan", "--n", str(n), "--a1", ",".join(map(repr, a1)),
            "--a2", ",".join(map(repr, a2)))
    return Op("mt-scan", f"mt-scan.n{n}", argv, {"n": n})


def _asymptotics(n, k, l, s):
    argv = ("asymptotics", "--n", str(n), "--k", str(k), "--l", str(l), "--s", repr(s))
    return Op("asymptotics", f"asymptotics.n{n}", argv, {"n": n, "k": k, "l": l, "s": s})


def _bubble_sweep(n, k, l, s, rho1, rho2, weights):
    h1, h2 = WEIGHTS[weights]
    argv = ("bubble-sweep", "--n", str(n), "--k", str(k), "--l", str(l), "--s", repr(s),
            "--rho1", repr(rho1), "--rho2", repr(rho2), "--h1", h1, "--h2", h2)
    return Op("bubble-sweep", f"bubble-sweep.n{n}", argv,
              {"n": n, "k": k, "l": l, "s": s, "rho1": rho1, "rho2": rho2})


def _bubble_round(rng):
    # n=512 gets one bubble-sweep per triple instead of two, so that fewer
    # than half of the operations are 512^2: the median then sits inside
    # the n=256 cluster instead of on the gap between the two sizes.
    ops = []
    for n in (256, 512):
        ops.append(_mt_scan(n, rng))
        for i, (k, l, s) in enumerate(JOIN_TRIPLES):
            ops.append(_asymptotics(n, k, l, s))
            rhos = BUBBLE_RHOS if n == 256 else (BUBBLE_RHOS[i % 2],)
            for rho1, rho2, weights in rhos:
                ops.append(_bubble_sweep(n, k, l, s, rho1, rho2, weights))
    return ops


def _radial_sweep(alphas, h2):
    argv = ("radial-sweep", "--alphas=" + ",".join(map(repr, alphas)),
            "--h1-const", "1.0", "--h2-const", repr(h2), "--step", repr(RADIAL_STEP))
    return Op("radial-sweep", f"radial-sweep.{len(alphas)}", argv,
              {"alphas": alphas, "h1": 1.0, "h2": h2})


def _radial_round(rng):
    ops = []
    for h2 in (0.0, 1.0):
        for count in (1, 2, 3):
            alphas = sorted(round(float(a), 3) for a in rng.uniform(*ALPHA_RANGE, size=count))
            ops.append(_radial_sweep(tuple(alphas), h2))
    for h1, h2, bracket in DIRICHLET_TABLE:
        ops.append(Op("dirichlet", "dirichlet", (), {"h1": h1, "h2": h2, "bracket": bracket}))
    return ops


_ROUNDS = {"coercive-solve": (_coercive_round, 1),
           "bubble-sweeps": (_bubble_round, 2),
           "radial-shoot": (_radial_round, 3)}

WORKLOADS = tuple(_ROUNDS)

# Operations run before timing so that FFT plans, imports and lazily built
# state exist; fixed inputs, the same for every seed.
WARMUP = {
    "coercive-solve": (_solve(64, 2 * PI, PI, "const", 0), _solve(128, 2 * PI, PI, "const", 0)),
    "bubble-sweeps": (_asymptotics(256, 1, 1, 0.5), _asymptotics(512, 1, 1, 0.5)),
    "radial-shoot": (_radial_sweep((4.0,), 1.0),
                     Op("dirichlet", "dirichlet", (), {"h1": 1.0, "h2": 0.0, "bracket": (0.0, 0.5)})),
}


def round_ops(workload: str, seed: int, index: int) -> list[Op]:
    """The ``index``-th round of ``workload`` for ``seed``, in run order."""
    build, salt = _ROUNDS[workload]
    rng = np.random.default_rng([int(seed), int(index), salt])
    ops = build(rng)
    return [ops[i] for i in rng.permutation(len(ops))]
