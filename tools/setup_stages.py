"""Print where `precompute`'s time goes for one square base.

Usage: python tools/setup_stages.py [--n N] [--calls K] [--seed S]

The base is `draw_dense` on stream (S, 0), an N x N random complex matrix
(default 256, seed 7). After one warm-up call, `precompute` runs K times
(default 40) and the script prints the median of each stage in ms:

- pinv_system: `engine._pinv_system`, the work of `engine.checked_pinv`:
  the exponent, LAPACK's inverse and the condition test;
- gate: `engine._inverse_gate` on the inverted system `S` and its inverse
  `K`, the two norms and the products `SK` and `KS` with their residuals;
- total: the whole `precompute` call.

The BLAS thread count is the environment's; the benchmark sets
`OPENBLAS_NUM_THREADS=1`. The stage clocks are wrappers around two private
names of `phasealg.engine`, installed for the run and removed after it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from phasealg import engine  # noqa: E402
from phasealg.generate import draw_dense, stream_generator  # noqa: E402

STAGES = ("pinv_system", "gate", "total")


def _timed(fn, stage, times):
    """fn, appending each call's time in ms to times[stage]."""
    def timed(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            times[stage].append((time.perf_counter() - start) * 1e3)

    return timed


def measure(n: int, calls: int, seed: int) -> dict[str, list[float]]:
    """Each stage's times in ms over `calls` precompute calls after one warm-up."""
    base = draw_dense(stream_generator(seed, 0), n, n)
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}
    pinv_system, inverse_gate = engine._pinv_system, engine._inverse_gate
    engine._pinv_system = _timed(pinv_system, "pinv_system", times)
    engine._inverse_gate = _timed(inverse_gate, "gate", times)
    precompute = _timed(engine.precompute, "total", times)
    try:
        precompute(base)
        for stage in STAGES:
            times[stage].clear()
        for _ in range(calls):
            precompute(base)
    finally:
        engine._pinv_system, engine._inverse_gate = pinv_system, inverse_gate
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--calls", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.n < 1 or args.calls < 1:
        parser.error("--n and --calls must be positive")
    times = measure(args.n, args.calls, args.seed)
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    print(f"precompute {args.n}x{args.n}, median of {args.calls} calls, OPENBLAS_NUM_THREADS={threads}")
    for stage in STAGES:
        print(f"{stage:20s}{statistics.median(times[stage]):8.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
