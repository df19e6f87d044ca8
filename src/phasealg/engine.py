"""Phase-update workloads: precompute one base (pseudo)inverse, then serve a
stream of angle-matrix updates with O(mn) work each, benchmarked against
per-update refactorization.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import core
from .angle import AngleMatrix
from .core import (
    RESIDUAL_EPS,
    DenseMatrix,
    SingularMatrixError,
    hadamard_product,
)
from .generate import draw_angle, draw_well_conditioned, stream_generator
from .pseudo import _masked_pinv, penrose_check, pinv_full_rank

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
    """The base (pseudo)inverse that precompute checked once, reused by every
    update and never recomputed. shape is the source's, the transpose of
    base_pinv's.
    """

    base_pinv: DenseMatrix
    shape: tuple[int, int] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", self.base_pinv.shape[::-1])


# c in the square inverse gate's limit c * n * u. The smallest n is the
# tightest: LAPACK inverses of random complex 1x1 bases scored up to 8 u,
# 2x2 ones up to 3.7 * 2u, graded 30x30 ones (condition 1 to 1e12) up to
# 0.42 * 30u and 256x256 ones up to 0.07 * 256u. An inverse perturbed by a
# relative 1e-10 scores above 400 * 256u.
_INVERSE_GATE_C = 10.0


def _residual(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> float:
    """||left @ right - I||_F, with the product written into out."""
    np.matmul(left, right, out=out)
    out.reshape(-1)[:: out.shape[0] + 1] -= 1.0
    return np.linalg.norm(out)


def _inverse_gate(a: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(ratio, limit) of the residual gate for a candidate inverse x of a
    square a: ratio = 2 max(||AX - I||_F, ||XA - I||_F) / (||A||_F ||X||_F)
    and limit = c * n * u, with u = eps / 2. The candidate passes when
    ratio <= limit; a nan ratio fails.

    Two products instead of penrose_check's four, and at least as strict as
    the four normwise-relative Penrose residuals: with E = AX - I and
    F = XA - I, ||AXA - A|| <= ||E|| ||A||, ||XAX - X|| <= ||X|| ||E||, and
    the Hermitian defects of AX and XA are at most 2||E|| and 2||F||. The
    ratio does not change under A -> sA, X -> X / s. Both norms, then AX
    and then XA, each one whole BLAS call into the same n-by-n buffer.
    """
    n = a.shape[0]
    product = np.empty((n, n), dtype=np.result_type(a, x))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite ratio fails the gate
        norms = core._frobenius(a) * core._frobenius(x)
        residual = np.maximum(_residual(a, x, product), _residual(x, a, product))  # propagates nan
        ratio = float(2.0 * residual / norms)
    return ratio, _INVERSE_GATE_C * n * float(np.finfo(np.float64).eps / 2)


def precompute(a: DenseMatrix) -> PrecomputedBase:
    """Invert (or pseudoinvert) the base matrix once and check the result.

    core.checked_pinv gives X or its singularity verdict. An accepted square
    inverse is finite (an inf or nan entry fails the condition test), so it
    is stored without a scan; a pseudoinverse is scanned. The pair is then
    checked in the prescaled frame, (A * 2^-e, X * 2^e) with e =
    core._exponent(A) (A and X themselves in band), where no product
    overflows: a square base by the two-product gate _inverse_gate, a tall
    or wide one by penrose_check, whose fixed limit RESIDUAL_EPS *
    (1 + ||A||_F) suits that frame's scale. A failed check raises
    RuntimeError ("internal consistency failure"). It is the one check
    behind every update apply_update serves.
    """
    x = core.checked_pinv(a.array)
    square = a.rows == a.cols
    base = PrecomputedBase(DenseMatrix._wrap(x, proven_finite=square))
    e = core._exponent(a.array)
    a_s, x_s = core._scale2(a.array, -e), core._scale2(x, e)
    if square:
        ratio, limit = _inverse_gate(a_s, x_s)
        if not ratio <= limit:
            raise RuntimeError(
                f"internal consistency failure: precomputed inverse fails the residual gate (relative residual {ratio:.3e} > {limit:.3e})"
            )
    else:
        report = penrose_check(DenseMatrix._wrap(a_s, proven_finite=True), DenseMatrix._wrap(x_s, proven_finite=True))
        if not report.passed:
            raise RuntimeError(
                f"internal consistency failure: precomputed base violates the pseudoinverse conditions (worst residual {report.worst():.3e} > {report.tolerance:.3e})"
            )
    return base


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
