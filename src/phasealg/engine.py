"""Phase-update workloads: precompute one base (pseudo)inverse, then serve a
stream of angle-matrix updates with O(mn) work each. The benchmark that
times them against per-update refactorization is phasealg.bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .angle import AngleMatrix
from .core import DenseMatrix
from .pseudo import _masked_pinv

__all__ = ["PrecomputedBase", "precompute", "apply_update"]


@dataclass(frozen=True, eq=False)
class PrecomputedBase:
    """The base (pseudo)inverse that precompute checked once, stored unscanned
    (the check proves it finite), reused by every update and never
    recomputed. shape is the source's, the transpose of base_pinv's.
    """

    base_pinv: DenseMatrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.base_pinv.shape[::-1]


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

    precompute also gates a tall base B's Gram system S and its inverse K,
    giving X = K B^H (a wide base is the mirror). With E = SK - I and
    F = KS - I, BXB - B = BF, XBX - X = FX, XB's Hermitian defect is
    F - F^H and BX's is B (F - E^H) S^-1 B^H. Only the BLAS product K @ B^H
    goes unchecked, the trust rescale's multiplies get on every update.
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

    core._pinv_system gives X (checked_pinv's result) or its singularity
    verdict, and the square system S it inverted, in the prescaled frame
    where no product overflows, with LAPACK's inverse K of S. _inverse_gate
    checks (S, K) for every shape; a failure raises RuntimeError ("internal
    consistency failure"). X is stored unscanned: an inf or nan in K fails
    the condition test, which in band bounds each entry of a tall or wide
    X, and each partial sum of K @ A^H, by
    sqrt(min(m, n)) / (RANK_EPS ||A||_F) <= 5.2e130 sqrt(min(m, n)), as
    ||A||_F >= 2^-401 and ||A^H A||_F >= ||A||_F^2 / sqrt(min(m, n)); out
    of band it rejects a non-finite X.
    """
    x, system, system_inverse = core._pinv_system(a.array)
    ratio, limit = _inverse_gate(system, system_inverse)
    if not ratio <= limit:
        raise RuntimeError(
            f"internal consistency failure: precomputed inverse fails the residual gate (relative residual {ratio:.3e} > {limit:.3e})"
        )
    return PrecomputedBase(DenseMatrix._wrap(x, proven_finite=True))


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
