"""The LAPACK production route, and the phase-update workloads built on it.

checked_pinv inverts or pseudoinverts a full-rank base, slogdet gives its
log-determinant and rescale applies a phase mask as one diagonal scaling;
_masked_pinv is the one masking step behind every structured (pseudo)inverse.
precompute checks one base (pseudo)inverse through the residual gate, then
apply_update serves a stream of angle-matrix updates with O(mn) work each.
The benchmark that times them against per-update refactorization is
phasealg.bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .angle import AngleMatrix
from .core import RANK_EPS, DenseMatrix, SingularMatrixError, _frobenius, _largest_part, _require_finite_result

__all__ = ["checked_pinv", "slogdet", "rescale", "PrecomputedBase", "precompute", "apply_update"]


_EXPONENT_BAND = 400  # within 2^+-400, Gram systems and their inverses stay in float64's normal range


def _exponent(arr: np.ndarray) -> int:
    """The binary exponent e that puts arr's largest real or imaginary part
    in [0.5, 1) times 2^e, or 0 when |e| <= _EXPONENT_BAND (no prescale)."""
    e = math.frexp(_largest_part(arr))[1]
    return e if abs(e) > _EXPONENT_BAND else 0


def _scale2(x: np.ndarray, e: int) -> np.ndarray:
    """x * 2^e by np.ldexp on the float64 view, since 2.0**e alone can
    overflow; x itself when e is 0. Exact unless an entry leaves the normal
    range."""
    if not e:
        return x
    return np.ldexp(x.ravel().view(np.float64), e).view(x.dtype).reshape(x.shape)


def checked_pinv(a: np.ndarray) -> np.ndarray:
    """LAPACK (pseudo)inverse of a full-rank array: inv(A) when square,
    inv(A^H A) @ A^H when tall, A^H @ inv(A A^H) when wide, taken of
    A_s = A * 2^-e and scaled back by 2^-e (_exponent). Rejected as singular
    (_require_condition) when the one system S inverted has
    1 / (||S||_F ||S^-1||_F) <= RANK_EPS, when the result does not fit in
    float64 (reciprocal condition 0) or when LAPACK meets an exactly zero
    pivot (pivot 0). Counts one factorization."""
    return _pinv_system(a)[0]


def _pinv_system(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(checked_pinv(a), S, K): S is the one system inverted, A_s when square
    and its Gram system otherwise, and K is LAPACK's inverse of S."""
    core._lu_factorizations += 1
    m, n = a.shape
    e = _exponent(a)
    a = _scale2(a, -e)
    if m == n:
        system = a
    else:
        adjoint = a.conj().T
        system = adjoint @ a if m > n else a @ adjoint
    try:
        system_inverse = inv = np.linalg.inv(system)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"matrix is singular to working precision: {err}", pivot=0.0) from err
    reciprocal_condition = 1.0 / (_frobenius(system) * _frobenius(inv))
    if reciprocal_condition > RANK_EPS and m != n:
        inv = inv @ adjoint if m > n else adjoint @ inv
    if e:
        with np.errstate(over="ignore"):  # entries beyond float64 come back as inf and are rejected below
            inv = _scale2(inv, -e)
        if not np.isfinite(inv).all():
            reciprocal_condition = 0.0
    _require_condition(reciprocal_condition)
    return inv, system, system_inverse


def _require_condition(reciprocal_condition: float) -> None:
    """SingularMatrixError unless reciprocal_condition > RANK_EPS; nan, from
    non-finite inverse entries, fails too."""
    if not reciprocal_condition > RANK_EPS:
        raise SingularMatrixError(
            f"matrix is singular to working precision: reciprocal condition "
            f"{reciprocal_condition:.3e} <= threshold {RANK_EPS:.3e}",
            pivot=reciprocal_condition,
        )


def slogdet(a: np.ndarray) -> tuple[complex, float]:
    """LAPACK (sign, log|det|) of a square array; sign is 0 when exactly
    singular. Outside the band (_exponent), row i is first scaled exactly by
    2^-e_i, e_i the binary exponent of its own largest real or imaginary
    part, and sum(e_i) ln 2 is added back, so no entry is flushed against a
    larger row. Counts one factorization."""
    core._lu_factorizations += 1
    e = _exponent(a)
    if e:
        parts = np.ascontiguousarray(a).view(np.float64)
        e = np.frexp(np.abs(parts).max(axis=1))[1]
        a = np.ldexp(parts, -e[:, None]).view(a.dtype)
    sign, log_abs = np.linalg.slogdet(a)
    return complex(sign), float(log_abs + np.sum(e) * math.log(2))


def rescale(x: np.ndarray, row_phases: np.ndarray, col_phases: np.ndarray) -> np.ndarray:
    """The one mask kernel: diag(e^(j*row_phases)) @ x @ diag(e^(j*col_phases)),
    in O(mn) with a single m-by-n allocation: x times the column factors,
    then that product times the row factors in place.

    Masking by an angle matrix is exactly this diagonal scaling, so every
    structured solve is a base solve followed by one call here. The phases
    are finite (AngleMatrix rejects others), so the factors have unit
    modulus and, x being finite, an output entry can leave float64 only
    by overflow in the multiplies. Those run with numpy's overflow and
    invalid flags routed to a local list; only when one fired is the result
    scanned, and a non-finite entry raises OverflowError ("result overflows
    float64: non-finite entry at (i, k)"). The scan decides, so a spurious
    flag costs one scan and never an error. Returns a fresh, finite array.
    """
    flags = []
    with np.errstate(over="call", invalid="call", call=lambda err, flag: flags.append(err)):
        col = np.exp(1j * col_phases)
        row = np.exp(1j * row_phases)
        out = x * col[None, :]
        out *= row[:, None]
    if flags:
        _require_finite_result(out)
    return out


def _masked_pinv(x: np.ndarray, t: AngleMatrix) -> DenseMatrix:
    """The one masking step: the base (pseudo)inverse x of A, masked by the
    conjugate transpose of t, is the (pseudo)inverse of A masked by t, i.e.
    x rescaled by e^(-j*phi) on the rows and e^(-j*theta) on the columns.
    rescale raises OverflowError on a non-finite entry, so the result is
    wrapped without a second scan."""
    return DenseMatrix._wrap(rescale(x, -t.phi, -t.theta), proven_finite=True)


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
        norms = _frobenius(a) * _frobenius(x)
        residual = np.maximum(_residual(a, x, product), _residual(x, a, product))  # propagates nan
        ratio = float(2.0 * residual / norms)
    return ratio, _INVERSE_GATE_C * n * float(np.finfo(np.float64).eps / 2)


def precompute(a: DenseMatrix) -> PrecomputedBase:
    """Invert (or pseudoinvert) the base matrix once and check the result.

    _pinv_system gives X (checked_pinv's result) or its singularity
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
    x, system, system_inverse = _pinv_system(a.array)
    ratio, limit = _inverse_gate(system, system_inverse)
    if not ratio <= limit:
        raise RuntimeError(
            f"internal consistency failure: precomputed inverse fails the residual gate (relative residual {ratio:.3e} > {limit:.3e})"
        )
    return PrecomputedBase(DenseMatrix._wrap(x, proven_finite=True))


def apply_update(base: PrecomputedBase, t: AngleMatrix) -> DenseMatrix:
    """Masked (pseudo)inverse for one update: _masked_pinv on the stored
    base.

    Costs O(m+n) trigonometric evaluations (one per phase) plus O(mn) complex
    multiplications; performs no factorization, and scans the result for
    non-finite entries only when the multiplies flag an overflow
    (rescale).
    """
    if t.shape != base.shape:
        raise ValueError(f"apply_update shape mismatch: base {base.shape} vs angle matrix {t.shape}")
    return _masked_pinv(base.base_pinv.array, t)
