"""LAPACK baseline: numpy.linalg on the inputs the workloads generate.

    python3 perfbench/baseline.py [--seed 1] [--repeats 50]

For each shape a workload serves, times `numpy.linalg.inv`, `pinv` or
`slogdet` of the dense masked matrix A ∘ T (the mask applied outside the
timed call) and prints the median and quartiles in milliseconds, one line
per shape. These are the figures a faster program path has to be compared
against, beside the hand-LU oracle the README's speed-up is measured on.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import argparse
import statistics
import time

import numpy as np

import checks
from workloads import gaussian, philox, phases

CASES = (
    ("update-stream", "inv", 256, 256),
    ("cold-solve", "inv", 192, 192),
    ("cold-solve", "pinv", 192, 128),
    ("cold-solve", "pinv", 128, 192),
    ("cold-solve", "slogdet", 192, 192),
)
FUNCTIONS = {"inv": np.linalg.inv, "pinv": np.linalg.pinv, "slogdet": np.linalg.slogdet}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args()
    for workload, name, m, n in CASES:
        fn = FUNCTIONS[name]
        samples = []
        for k in range(args.repeats + 1):
            gen = philox(args.seed, k + 1)
            masked = checks.masked(gaussian(gen, m, n), phases(gen, m), phases(gen, n))
            start = time.perf_counter_ns()
            fn(masked)
            samples.append((time.perf_counter_ns() - start) / 1e6)
        q1, median, q3 = statistics.quantiles(samples[1:], n=4)
        print(f"{workload:14s} numpy.linalg.{name:8s} {m:4d}x{n:<4d} median {median:8.3f} ms  "
              f"quartiles {q1:.3f}-{q3:.3f} ms  ({args.repeats} calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
