"""The three workloads. Each makes its inputs from the run's seed with its own
Philox generator (stream 0 for the base and the probes, stream k + 1 for
request k, stream 1 for the verify seed list), hands the program only arrays
or a command line, and checks its outputs with `checks`, outside the timed
region.

A workload provides:
  ROUND               the request kinds of one whole round, in order
  setup()             program-side work before the first timed op, in seconds
  prepare(k)          benchmark-side inputs of request k (untimed)
  call(req)           the program-side operation (timed); raises OpFailed on a
                      nonzero exit code
  check(k, req, out)  the check every output gets, O(mn) where it can be
  replayed(k)         whether request k is served again after the timed loop
  full_check(k, req, out)  the full numpy check of a replayed request
  fingerprint(req, out)    what a replayed output must reproduce exactly

The full checks call LAPACK on n x n copies, and what a process has freed
decides how glibc serves its later allocations (see `pin_heap_allocator`).
So full checks never run before or between timed loops: they run on
replayed requests once every timed loop has ended, and the fingerprint ties
each replayed output to the timed one.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import time

import numpy as np

import checks
from phasealg import cli, engine, pseudo, structured
from phasealg.angle import AngleMatrix
from phasealg.core import DenseMatrix


class OpFailed(RuntimeError):
    """The program reported failure (a nonzero exit code)."""


def philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed % 2**64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian(gen, m: int, n: int) -> np.ndarray:
    return gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))


def phases(gen, count: int) -> np.ndarray:
    return gen.uniform(0.0, 2.0 * np.pi, count)


def digest(x: np.ndarray) -> bytes:
    """Hash of the array's bytes, read in place (no n x n copy)."""
    return hashlib.blake2b(np.ascontiguousarray(x)).digest()


M_TRIM_THRESHOLD = -1  # mallopt parameter numbers in glibc's malloc.h
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_MAX = 32 * 1024 * 1024  # the most glibc's dynamic threshold reaches on 64-bit


def pin_heap_allocator() -> None:
    """Fix glibc's malloc in the state its dynamic thresholds converge to.

    glibc serves blocks above its mmap threshold (128 KiB at start) with
    fresh mappings, unmapped again on free, and raises the threshold to the
    size of each mapped block freed, up to 32 MiB. Whether a released
    `apply_update` result is faulted in again on the next call (about 750
    minor faults at n=256) therefore depends on which large blocks the
    process happened to free before: one more `precompute` or one
    `numpy.linalg.inv` flips it. Pinned at the 32 MiB ceiling, with the trim
    threshold at twice that as glibc sets it, every call reuses heap memory,
    as in a long-running process that has freed one large block.
    """
    libc = ctypes.CDLL(None)
    if (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX) != 1
            or libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX) != 1):
        raise RuntimeError("mallopt failed; update-stream needs glibc")


def run_cli(argv: list[str]) -> str:
    """`phasealg.cli.main` in-process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit code {code} from {' '.join(argv)}")
    return out.getvalue()


def probe_ok(a, theta, phi, x, probes) -> bool:
    """Probe check of an inverse (square A) or pseudoinverse of A ∘ T."""
    m, n = a.shape
    if m == n:
        return checks.inverse_probe_ok(a, theta, phi, x, probes[n])
    return checks.penrose_probe_ok(a, theta, phi, x, probes[n], probes[m])


def full_ok(a, theta, phi, x) -> bool:
    """Identity residual and LAPACK inverse, or Penrose conditions and LAPACK pinv."""
    m = checks.masked(a, theta, phi)
    return checks.inverse_ok(m, x) if m.shape[0] == m.shape[1] else checks.pinv_ok(m, x)


class Workload:
    ROUND: tuple[str, ...] = ()
    SETUP_KINDS = 1  # leading requests run, once each, as set-up
    REPLAY_EVERY = 1  # every how many rounds a whole round is replayed

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        gen = philox(seed, 0)
        self.probes = {n: checks.unit_probe(gen, n) for n in (128, 192, 256)}

    def setup(self) -> float:
        """Build the program's input objects and run one op of each kind."""
        elapsed = 0.0
        for k in range(self.SETUP_KINDS):
            req = self.prepare(k)
            start = time.perf_counter()
            self.call(req)
            elapsed += time.perf_counter() - start
        return elapsed

    def replayed(self, k: int) -> bool:
        return (k // len(self.ROUND)) % self.REPLAY_EVERY == 0


class UpdateStream(Workload):
    """One 256x256 base through `precompute`, then one fresh mask per op
    through `apply_update`. Each result is checked, then released before the
    next request is prepared, with glibc's malloc pinned so that released
    memory stays in the heap (see `pin_heap_allocator`)."""

    ROUND = ("update",)
    REPLAY_EVERY = 2048
    N = 256

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        pin_heap_allocator()
        self.a = gaussian(philox(seed, 0), self.N, self.N)
        self.base = None

    def setup(self):
        start = time.perf_counter()
        self.base = engine.precompute(DenseMatrix(self.a))
        return time.perf_counter() - start

    def prepare(self, k):
        gen = philox(self.seed, k + 1)
        return phases(gen, self.N), phases(gen, self.N)

    def call(self, req):
        return engine.apply_update(self.base, AngleMatrix(*req))

    def check(self, k, req, out):
        return checks.inverse_probe_ok(self.a, *req, out.array, self.probes[self.N])

    def full_check(self, k, req, out):
        return full_ok(self.a, *req, out.array)

    def fingerprint(self, req, out):
        return digest(out.array)


class ColdSolve(Workload):
    """A fresh (A, T) pair per request, in a fixed round robin. The round
    holds two of each kind so that, sorted by latency, the median falls in
    the middle of one kind (det) rather than on the edge between two."""

    ROUND = ("inverse", "pinv-tall", "det", "inverse", "pinv-wide", "det")
    SETUP_KINDS = 3
    REPLAY_EVERY = 32
    SHAPES = {"inverse": (192, 192), "pinv-tall": (192, 128), "pinv-wide": (128, 192), "det": (192, 192)}

    def prepare(self, k):
        kind = self.ROUND[k % len(self.ROUND)]
        m, n = self.SHAPES[kind]
        gen = philox(self.seed, k + 1)
        return kind, gaussian(gen, m, n), phases(gen, m), phases(gen, n)

    def call(self, req):
        kind, a, theta, phi = req
        matrix = DenseMatrix(a)
        mask = AngleMatrix(theta, phi)
        if kind == "inverse":
            return structured.inverse_structured(matrix, mask)
        if kind == "det":
            return structured.det_structured(matrix, mask)
        return pseudo.pinv_structured(matrix, mask)

    def check(self, k, req, out):
        kind, a, theta, phi = req
        if kind == "det":
            return checks.det_ok(checks.masked(a, theta, phi), out)
        return probe_ok(a, theta, phi, out.array, self.probes)

    def full_check(self, k, req, out):
        kind, a, theta, phi = req
        if kind == "det":
            return self.check(k, req, out)
        return full_ok(a, theta, phi, out.array)

    def fingerprint(self, req, out):
        return repr(out).encode() if req[0] == "det" else digest(out.array)


class VerifySuites(Workload):
    """`phasealg verify --suite all --trials 10` over a fixed list of 32
    verify seeds drawn from the run's seed, the same list in every round.
    Every report must pass, and must equal the first report of its seed
    byte for byte apart from wall_time_s (the warm-up op makes a first
    report for seed 0 before the timed loop, so every run compares at least
    one pair). That comparison is the full check, so nothing is replayed."""

    ROUND = ("verify",) * 32
    TRIALS = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.report_path = os.path.join(workdir, "report.json")
        gen = philox(seed, 1)
        self.verify_seeds = [int(s) for s in gen.integers(0, 2**63, len(self.ROUND))]
        self.first_reports = {}

    def prepare(self, k):
        verify_seed = self.verify_seeds[k % len(self.ROUND)]
        return ["verify", "--suite", "all", "--trials", str(self.TRIALS),
                "--seed", str(verify_seed), "--report", self.report_path]

    def call(self, req):
        return run_cli(req)

    def check(self, k, req, out):
        with open(self.report_path, "r", encoding="utf-8") as handle:
            report = handle.read()
        first = self.first_reports.setdefault(k % len(self.ROUND), report)
        return checks.report_ok(report) and checks.same_report(first, report)

    def replayed(self, k):
        return False


WORKLOADS = {
    "update-stream": UpdateStream,
    "cold-solve": ColdSolve,
    "verify-suites": VerifySuites,
}
