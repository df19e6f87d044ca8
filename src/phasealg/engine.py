"""Phase-update workloads: precompute one base (pseudo)inverse, then serve a
stream of angle-matrix updates with O(mn) work each, benchmarked against
per-update refactorization.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .angle import AngleMatrix
from .core import (
    RESIDUAL_EPS,
    DenseMatrix,
    SingularMatrixError,
    checked_pinv,
    hadamard_product,
)
from .generate import draw_angle, draw_well_conditioned, stream_generator
from .pseudo import _inverse_gate, _masked_pinv, penrose_check, pinv_full_rank

__all__ = [
    "PrecomputedBase",
    "precompute",
    "apply_update",
    "naive_update",
    "BenchRecord",
    "run_benchmark",
    "MAX_BENCH_DIM",
]

MAX_BENCH_DIM = 2048


@dataclass(frozen=True, eq=False)
class PrecomputedBase:
    """One-time factorization product reused across every phase update.

    base_pinv is the inverse for square sources and the pseudoinverse
    otherwise; precompute checks it once (see there) and it is never
    recomputed. shape is derived from it on construction: the source's
    shape, the transpose of base_pinv's.
    """

    base_pinv: DenseMatrix
    shape: tuple[int, int] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", self.base_pinv.shape[::-1])


def precompute(a: DenseMatrix) -> PrecomputedBase:
    """Invert (or pseudoinvert) the base matrix once and sanity-check it.

    A square base's inverse X must pass pseudo._inverse_gate: two products,
    AX and XA, against penrose_check's four, and a bound at least as strict
    as the four normwise-relative Penrose residuals. LAPACK inverses of
    graded bases up to condition 1e12 score at most 0.42 n u at n = 30 and
    0.07 n u at n = 256 against the limit 10 n u; an X perturbed by a
    relative 1e-6 scores above 4e6 n u. A tall or wide base's pseudoinverse
    must pass penrose_check. A failure raises RuntimeError ("internal
    consistency failure").
    """
    base_pinv = DenseMatrix._wrap(checked_pinv(a.array))
    if a.rows == a.cols:
        ratio, limit = _inverse_gate(a.array, base_pinv.array)
        if not ratio <= limit:
            raise RuntimeError(
                f"internal consistency failure: precomputed inverse fails the residual gate (relative residual {ratio:.3e} > {limit:.3e})"
            )
    else:
        report = penrose_check(a, base_pinv)
        if not report.passed:
            raise RuntimeError(
                f"internal consistency failure: precomputed base violates the pseudoinverse conditions (worst residual {report.worst():.3e} > {report.tolerance:.3e})"
            )
    return PrecomputedBase(base_pinv)


def apply_update(base: PrecomputedBase, t: AngleMatrix) -> DenseMatrix:
    """Masked (pseudo)inverse for one update: pseudo._masked_pinv on the
    stored base.

    Costs O(m+n) trigonometric evaluations (one per phase) plus O(mn) complex
    multiplications; performs no factorization, and scans the result for
    non-finite entries only when the multiplies flag an overflow
    (core.rescale).
    """
    if t.shape != base.shape:
        raise ValueError(f"apply_update shape mismatch: base {base.shape} vs angle matrix {t.shape}")
    return _masked_pinv(base.base_pinv.array, t)


def naive_update(a: DenseMatrix, t: AngleMatrix) -> DenseMatrix:
    """Reference path: materialize the mask, apply it, factor from scratch."""
    if t.shape != a.shape:
        raise ValueError(f"naive_update shape mismatch: matrix {a.shape} vs angle matrix {t.shape}")
    masked = hadamard_product(a, t.materialize())
    try:
        return pinv_full_rank(masked)
    except SingularMatrixError as err:
        # A unit-modulus mask cannot change the rank; reaching this means the
        # caller's base was not full rank to begin with.
        raise RuntimeError(f"internal consistency failure: masked matrix reported singular ({err})") from err


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark outcome: per-update timings plus the worst cross-check residual."""

    rows: int
    cols: int
    updates: int
    structured_ns_per_update: float
    naive_ns_per_update: float
    max_residual: float
    seed: int


def _update_angles(shape: tuple[int, int], seed: int, index: int) -> AngleMatrix:
    """Angle matrix for update `index`: stream (seed, index + 1), regenerable
    without storing the stream. Stream (seed, 0) is reserved for the base."""
    gen = stream_generator(seed, index + 1)
    return draw_angle(gen, shape[0], shape[1])


def _median_per_update(samples_ns: list[int]) -> float:
    timed = samples_ns[1:] if len(samples_ns) > 1 else samples_ns  # first update is warm-up
    return float(statistics.median(timed))


def run_benchmark(rows: int, cols: int, updates: int, seed: int) -> BenchRecord:
    """Time the masked-update path against per-update refactorization.

    The instance and every update are pure functions of (seed, config). Both
    paths run single-threaded over the same update stream; per-update times
    are medians over the monotonic clock, excluding the warm-up update.
    A sample of at least max(1, updates // 100) updates is cross-checked
    against the naive path; a residual above RESIDUAL_EPS * max(rows, cols)
    fails the run regardless of timing.
    """
    if updates < 1:
        raise ValueError(f"updates must be >= 1, got {updates}")
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    if max(rows, cols) > MAX_BENCH_DIM:
        raise ValueError(f"dimensions {rows}x{cols} exceed the benchmark cap {MAX_BENCH_DIM}")

    base_matrix = draw_well_conditioned(stream_generator(seed, 0), rows, cols)
    base = precompute(base_matrix)
    masks = [_update_angles((rows, cols), seed, k) for k in range(updates)]

    structured_ns = []
    for t in masks:
        start = time.perf_counter_ns()
        apply_update(base, t)
        structured_ns.append(time.perf_counter_ns() - start)

    naive_ns = []
    for t in masks:
        start = time.perf_counter_ns()
        naive_update(base_matrix, t)
        naive_ns.append(time.perf_counter_ns() - start)

    sample_count = max(1, updates // 100)
    sample_indices = sorted(set(int(i) for i in np.linspace(0, updates - 1, sample_count)))
    max_residual = 0.0
    for k in sample_indices:
        fast = apply_update(base, masks[k])
        reference = naive_update(base_matrix, masks[k])
        residual = float(np.linalg.norm(fast.array - reference.array))
        if rows == cols:
            masked = hadamard_product(base_matrix, masks[k].materialize())
            identity_residual = np.linalg.norm(fast.array @ masked.array - np.eye(rows))
            residual = max(residual, float(identity_residual))
        max_residual = max(max_residual, residual)

    limit = RESIDUAL_EPS * max(rows, cols)
    if max_residual > limit:
        raise RuntimeError(
            f"benchmark cross-check failed: residual {max_residual:.3e} > {limit:.3e} at {rows}x{cols}"
        )
    return BenchRecord(
        rows=rows,
        cols=cols,
        updates=updates,
        structured_ns_per_update=_median_per_update(structured_ns),
        naive_ns_per_update=_median_per_update(naive_ns),
        max_residual=max_residual,
        seed=seed,
    )
