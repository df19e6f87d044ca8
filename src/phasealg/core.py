"""Dense complex matrices, the entrywise (Hadamard) product, the LAPACK production
route (checked_pinv for the inverse and full-rank pseudoinverse, slogdet for
the log-determinant, rescale for the diagonal phase mask) and a pivoted LU
oracle."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ENTRY_EPS",
    "RESIDUAL_EPS",
    "RANK_EPS",
    "CONDITION_CAP",
    "SingularMatrixError",
    "DeterminantRangeError",
    "DenseMatrix",
    "frobenius_norm",
    "hadamard_product",
    "checked_pinv",
    "slogdet",
    "rescale",
    "LUFactorization",
    "lu_factorize",
    "det_lu",
    "inverse_lu",
    "lu_factorization_count",
]


# The library's four fixed thresholds, echoed in every verify report:
# ENTRY_EPS gates per-entry comparisons (including the zero-entry test for
# Hadamard reciprocals), RESIDUAL_EPS gates Frobenius-norm residuals,
# RANK_EPS bounds the reciprocal Frobenius condition number on the
# production route and scales the pivot test of the LU oracle, and
# CONDITION_CAP filters randomly generated test instances only.
ENTRY_EPS = 1e-12
RESIDUAL_EPS = 1e-8
RANK_EPS = 1e-10
CONDITION_CAP = 1e6


class SingularMatrixError(ValueError):
    """Input is singular to working precision; carries the offending magnitude.

    That is a pivot on the LU oracle. On the production route (checked_pinv)
    it is the reciprocal condition number of the system inverted, A itself
    when square and its Gram system otherwise, or 0.0 when LAPACK meets an
    exactly zero pivot or the scaled-back result does not fit in float64.
    """

    def __init__(self, message: str, pivot: float):
        super().__init__(message)
        self.pivot = float(pivot)


class DeterminantRangeError(ArithmeticError):
    """The determinant's modulus lies outside the normal float64 range;
    carries its natural logarithm."""

    def __init__(self, message: str, log_abs: float):
        super().__init__(message)
        self.log_abs = float(log_abs)


def _require_finite(arr: np.ndarray):
    if not np.isfinite(_parts(arr)).all():
        i, k = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"non-finite entry at ({i}, {k})")


def _require_finite_result(arr: np.ndarray):
    """_require_finite for a kernel output. A kernel computes from finite
    entries, so a non-finite output entry is an overflow and raises
    OverflowError, where DenseMatrix() of bad input raises ValueError."""
    try:
        _require_finite(arr)
    except ValueError as err:
        raise OverflowError(f"result overflows float64: {err}") from None


def _parts(arr: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of a complex128 (or float64) array's
    entries as one flat float64 array: a view unless arr is strided."""
    return arr.ravel(order="K").view(np.float64)


def _largest_part(arr: np.ndarray) -> float:
    """max over entries of max(|re|, |im|), without an m-by-n temporary."""
    parts = _parts(arr)
    return float(max(parts.max(), -parts.min()))


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


class DenseMatrix:
    """Immutable row-major complex matrix with explicit dimensions.

    Construction copies the input, requires a 2-D shape with positive
    dimensions, and rejects non-finite entries. The only state is the
    read-only complex128 array of the entries.
    """

    __slots__ = ("_array",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.complex128, order="C")
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got an array of ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
        _require_finite(arr)
        arr.flags.writeable = False
        self._array = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray, proven_finite: bool = False) -> DenseMatrix:
        """Trusted constructor for a fresh 2-D complex128 kernel output that no
        other reference can write to: no copy, and the finiteness scan
        (_require_finite_result) unless the caller has proved every entry
        finite."""
        if not proven_finite:
            _require_finite_result(arr)
        arr.flags.writeable = False
        out = cls.__new__(cls)
        out._array = arr
        return out

    @property
    def array(self) -> np.ndarray:
        """Read-only complex128 view of the entries."""
        return self._array

    @property
    def rows(self) -> int:
        return self._array.shape[0]

    @property
    def cols(self) -> int:
        return self._array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._array.shape

    def __repr__(self):
        return f"DenseMatrix({self._array.tolist()!r})"


def _frobenius(x: np.ndarray) -> float:
    """||x||_F at any scale. np.linalg.norm sums squares, which overflow to inf
    once entries pass about 1.3e154 and can all underflow to 0; only then is
    the norm taken again on the real and imaginary parts divided by the
    largest of them, so finite nonzero results are exactly np.linalg.norm's.
    The division is real by real: a complex array divided by a subnormal
    real overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if 0.0 < norm < np.inf:
        return norm
    largest = _largest_part(x)
    if not 0.0 < largest < np.inf:  # all zero, or inf/nan entries
        return norm
    return largest * float(np.linalg.norm(_parts(x) / largest))


def frobenius_norm(a: DenseMatrix) -> float:
    return _frobenius(a.array)


def hadamard_product(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.shape != b.shape:
        raise ValueError(f"hadamard_product shape mismatch: {a.shape} vs {b.shape}")
    # Split into real ops so the product commutes bitwise; numpy's fused
    # complex kernel rounds a*b and b*a differently.
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = a.array.real * b.array.real - a.array.imag * b.array.imag
    out.imag = a.array.real * b.array.imag + a.array.imag * b.array.real
    return DenseMatrix._wrap(out)


# Factorization counter: test probe asserting how often structured paths
# fall back to a fresh factorization, LAPACK or hand LU. Not part of the
# numerical contracts.
_lu_factorizations = 0


def lu_factorization_count() -> int:
    return _lu_factorizations


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
    global _lu_factorizations
    _lu_factorizations += 1
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
    global _lu_factorizations
    _lu_factorizations += 1
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


class LUFactorization:
    """Row-pivoted factorization P A = L U of a square matrix, stored packed.

    `packed` is one read-only n-by-n array: U on and above its diagonal, and
    below it the strict lower part of the unit lower-triangular L. Row i of
    P A is row `permutation[i]` of A, and `parity` is the sign of P. Pivots
    are chosen by largest modulus, ties broken by lowest row index.
    Singularity is decided at solve time by one pivot test for every
    factored system, Gram systems included: |u_ii| <= RANK_EPS * ||A||_F,
    never by determinant magnitude.
    `source_norm` is ||A||_F, computed the first time a pivot test needs it
    (or on first read) and cached; a determinant alone never pays for it.
    """

    __slots__ = ("permutation", "packed", "parity", "_source", "_source_norm")

    def __init__(self, permutation, packed, parity, source: DenseMatrix):
        self.permutation = permutation
        self.packed = packed
        self.parity = parity
        self._source = source
        self._source_norm = None

    @property
    def source_norm(self) -> float:
        """||A||_F of the factored matrix, computed once."""
        if self._source_norm is None:
            self._source_norm = frobenius_norm(self._source)
        return self._source_norm

    def det(self) -> complex:
        return complex(self.parity * self.packed.diagonal().prod())

    def _check_pivots(self):
        floor = RANK_EPS * self.source_norm
        worst = float(np.abs(self.packed.diagonal()).min())
        if worst <= floor:
            raise SingularMatrixError(
                f"matrix is singular to working precision: pivot {worst:.3e} <= threshold {floor:.3e}",
                pivot=worst,
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A X = rhs by forward/back substitution over all columns at
        once, in place on one permuted copy of rhs."""
        n = self.packed.shape[0]
        if rhs.shape[0] != n:
            raise ValueError(f"solve dimension mismatch: factor is {n}x{n}, rhs has {rhs.shape[0]} rows")
        self._check_pivots()
        x = np.asarray(rhs, dtype=np.complex128)[self.permutation]
        lu = self.packed
        for i in range(1, n):  # row 0 of L Y = P rhs is row 0 of P rhs
            x[i] -= lu[i, :i] @ x[:i]
        for i in range(n - 1, -1, -1):
            x[i] -= lu[i, i + 1:] @ x[i + 1:]
            x[i] /= lu[i, i]
        return x

    def inverse(self) -> DenseMatrix:
        return DenseMatrix._wrap(self.solve(np.eye(self.packed.shape[0], dtype=np.complex128)))


def lu_factorize(a: DenseMatrix) -> LUFactorization:
    """Factor a square matrix with partial (row) pivoting by largest modulus.

    Column k is eliminated for k < n - 1 only: the last pass has one
    candidate pivot and nothing below or right of it to update.
    """
    global _lu_factorizations
    if a.rows != a.cols:
        raise ValueError(f"lu_factorize requires a square matrix, got {a.shape}")
    _lu_factorizations += 1
    n = a.rows
    work = a.array.copy()
    perm = list(range(n))
    parity = 1
    for k in range(n - 1):
        p = k + int(np.abs(work[k:, k]).argmax())  # argmax takes the first max: lowest row wins ties
        if p != k:
            row = work[k].copy()
            work[k] = work[p]
            work[p] = row
            perm[k], perm[p] = perm[p], perm[k]
            parity = -parity
        pivot = work[k, k]
        if pivot != 0:
            col = work[k + 1:, k]
            col /= pivot
            schur = work[k + 1:, k + 1:]  # updated in place, not written back onto itself
            schur -= col[:, None] * work[k, None, k + 1:]
    work.flags.writeable = False
    return LUFactorization(np.array(perm), work, parity, a)


def det_lu(a: DenseMatrix) -> complex:
    return lu_factorize(a).det()


def inverse_lu(a: DenseMatrix) -> DenseMatrix:
    return lu_factorize(a).inverse()
