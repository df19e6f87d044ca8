"""Print where `precompute`'s time goes for one square base.

Usage: python tools/setup_stages.py [--n N] [--calls K] [--seed S]

The base is `draw_dense` on stream (S, 0), an N x N random complex matrix
(default 256, seed 7). After one warm-up call, `precompute` runs K times
(default 40) and the script prints the median of each stage in ms:

- prescaled inverse: `core._prescaled_inverse`, the exponent and LAPACK's
  inverse;
- worker start delay: from the call of `engine._submit` to the start of
  the worker's task;
- caller task: from `_submit`'s return to the start of the join, that is
  the two norms and the product `AX` with its residual;
- worker task: the product `XA` with its residual, on the worker;
- join wait: the time the caller waits for the worker's result;
- total: the whole `precompute` call.

The worker's stages are printed as `-` when N is below
`engine._CONCURRENT_MIN_DIM` and the gate runs on the caller alone. The
BLAS thread count is the environment's; the benchmark sets
`OPENBLAS_NUM_THREADS=1`. The stage clocks are wrappers around private
names of `phasealg`, installed for the run and removed after it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from phasealg import core, engine  # noqa: E402
from phasealg.generate import draw_dense, stream_generator  # noqa: E402

# Each stage but the total, with the two marks it lies between.
SPANS = {
    "prescaled inverse": ("inverse_start", "inverse_end"),
    "worker start delay": ("submit", "task_start"),
    "caller task": ("submitted", "join_start"),
    "worker task": ("task_start", "task_end"),
    "join wait": ("join_start", "join_end"),
}
STAGES = (*SPANS, "total")


class _Joined:
    """A future whose result() records when the join starts and ends."""

    def __init__(self, future, marks):
        self._future, self._marks = future, marks

    def result(self):
        self._marks["join_start"] = time.perf_counter()
        try:
            return self._future.result()
        finally:
            self._marks["join_end"] = time.perf_counter()

    def exception(self):
        return self._future.exception()


def measure(n: int, calls: int, seed: int) -> dict[str, list[float]]:
    """Each stage's times in ms over `calls` precompute calls after one warm-up."""
    base = draw_dense(stream_generator(seed, 0), n, n)
    marks: dict[str, float] = {}
    prescaled_inverse, submit = core._prescaled_inverse, engine._submit

    def timed_inverse(a):
        marks["inverse_start"] = time.perf_counter()
        try:
            return prescaled_inverse(a)
        finally:
            marks["inverse_end"] = time.perf_counter()

    def timed_submit(fn, *args):
        def task():
            marks["task_start"] = time.perf_counter()
            try:
                return fn(*args)
            finally:
                marks["task_end"] = time.perf_counter()

        marks["submit"] = time.perf_counter()
        future = submit(task)
        marks["submitted"] = time.perf_counter()
        return None if future is None else _Joined(future, marks)

    times: dict[str, list[float]] = {stage: [] for stage in STAGES}
    core._prescaled_inverse, engine._submit = timed_inverse, timed_submit
    try:
        for call in range(calls + 1):
            marks.clear()
            start = time.perf_counter()
            engine.precompute(base)
            end = time.perf_counter()
            if not call:
                continue
            for stage, (first, last) in SPANS.items():
                if first in marks and last in marks:
                    times[stage].append((marks[last] - marks[first]) * 1e3)
            times["total"].append((end - start) * 1e3)
    finally:
        core._prescaled_inverse, engine._submit = prescaled_inverse, submit
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
        value = f"{statistics.median(times[stage]):8.3f} ms" if times[stage] else "       - ms"
        print(f"{stage:20s}{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
