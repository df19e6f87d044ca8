"""Dense complex matrices, entrywise (Hadamard) algebra, the LAPACK production
route (checked_pinv for the inverse and full-rank pseudoinverse, slogdet for
the log-determinant, rescale for the diagonal phase mask) and a pivoted LU
oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "SingularMatrixError",
    "DeterminantRangeError",
    "DenseMatrix",
    "identity",
    "transpose",
    "conjugate_transpose",
    "frobenius_norm",
    "hadamard_product",
    "hadamard_inverse",
    "checked_pinv",
    "slogdet",
    "rescale",
    "LUFactorization",
    "lu_factorize",
    "det_lu",
    "inverse_lu",
    "lu_factorization_count",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared across the library.

    entry_eps gates per-entry comparisons (including the zero-entry test for
    Hadamard reciprocals), residual_eps gates Frobenius-norm residuals,
    rank_eps bounds the reciprocal Frobenius condition number on the production
    route and scales the pivot test of the LU oracle, and condition_cap
    filters randomly generated test instances only.
    """

    entry_eps: float = 1e-12
    residual_eps: float = 1e-8
    rank_eps: float = 1e-10
    condition_cap: float = 1e6

    def __post_init__(self):
        for name in ("entry_eps", "residual_eps", "rank_eps", "condition_cap"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


class SingularMatrixError(ValueError):
    """Input is singular to working precision; carries the offending magnitude.

    That is a pivot on the LU oracle. On the production route (checked_pinv)
    it is the reciprocal condition number of the system inverted, A itself
    when square and its Gram system otherwise, or 0.0 when LAPACK meets an
    exactly zero pivot.
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


# Size up to which _require_finite scans entries directly: below about
# 64x64, entering np.errstate costs more than the scan it would save.
_DIRECT_SCAN_SIZE = 4096


def _require_finite(arr: np.ndarray):
    # Above _DIRECT_SCAN_SIZE, a finite sum means finite entries (inf and nan
    # propagate) and costs half the entrywise scan; only a non-finite sum,
    # which overflow alone can cause, needs the scan.
    if arr.size <= _DIRECT_SCAN_SIZE:
        finite = np.isfinite(arr).all()
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            total = arr.sum()
        finite = np.isfinite(total) or np.isfinite(arr).all()
    if not finite:
        i, k = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"non-finite entry at ({i}, {k})")


def _parts(arr: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of a complex128 (or float64) array's
    entries as one flat float64 array: a view unless arr is strided."""
    return arr.ravel(order="K").view(np.float64)


def _largest_part(arr: np.ndarray) -> float:
    """max over entries of max(|re|, |im|), without an m-by-n temporary."""
    parts = _parts(arr)
    return float(max(parts.max(), -parts.min()))


class DenseMatrix:
    """Immutable row-major complex matrix with explicit dimensions.

    Construction copies the input, requires a 2-D shape with positive
    dimensions, and rejects non-finite entries. The largest real or imaginary
    magnitude of the entries is computed on first use and cached, since the
    entries never change; rescale reads it to prove its output finite without
    scanning it.
    """

    __slots__ = ("_array", "_largest")

    def __init__(self, values):
        arr = np.array(values, dtype=np.complex128, order="C")
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got an array of ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
        _require_finite(arr)
        self._freeze(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray, proven_finite: bool = False) -> DenseMatrix:
        """Trusted constructor for a fresh 2-D complex128 kernel output that no
        other reference can write to: no copy, and the finiteness scan unless
        the kernel has proved every entry finite."""
        if not proven_finite:
            _require_finite(arr)
        out = cls.__new__(cls)
        out._freeze(arr)
        return out

    def _freeze(self, arr: np.ndarray):
        arr.flags.writeable = False
        self._array = arr
        self._largest = None

    def _largest_component(self) -> float:
        """_largest_part of the entries, computed once per matrix."""
        if self._largest is None:
            self._largest = _largest_part(self._array)
        return self._largest

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


def identity(n: int) -> DenseMatrix:
    return DenseMatrix(np.eye(n, dtype=np.complex128))


def transpose(a: DenseMatrix) -> DenseMatrix:
    return DenseMatrix(a.array.T)


def conjugate_transpose(a: DenseMatrix) -> DenseMatrix:
    return DenseMatrix(np.conj(a.array.T))


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


def _norm_product(a: np.ndarray, b: np.ndarray) -> float:
    """||a||_F * ||b||_F at any scale at which the product fits in float64.
    One factor alone can leave float64, as ||a^-1||_F does for a = 6e-309 * I;
    only then is the product taken again as ||a / s||_F * ||s * b||_F with
    s = _largest_part(a)."""
    product = _frobenius(a) * _frobenius(b)
    if 0.0 < product < np.inf:
        return product
    scale = _largest_part(a)
    if not 0.0 < scale < np.inf:
        return product
    with np.errstate(over="ignore"):  # s * b overflows only where the product does
        return _frobenius(_parts(a) / scale) * _frobenius(_parts(b) * scale)


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


def hadamard_inverse(a: DenseMatrix) -> DenseMatrix:
    """Entrywise reciprocal; requires every entry nonzero."""
    eps = DEFAULT_TOLERANCES.entry_eps
    small = np.abs(a.array) <= eps
    if small.any():
        bad = divmod(int(np.argmax(small)), a.cols)  # row-major index of the first small entry
        raise ValueError(f"entry at {bad} is zero (|.| <= {eps}); entrywise reciprocal undefined")
    return DenseMatrix._wrap(1.0 / a.array)


# Factorization counter: test probe asserting how often structured paths
# fall back to a fresh factorization, LAPACK or hand LU. Not part of the
# numerical contracts.
_lu_factorizations = 0


def lu_factorization_count() -> int:
    return _lu_factorizations


def _divide_parts(x: np.ndarray, scale: float) -> np.ndarray:
    """x / scale for a real scale, divided on the float64 view of x: numpy's
    complex division by a subnormal real overflows."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    return (x.view(np.float64) / scale).view(np.complex128)


def checked_pinv(a: np.ndarray) -> np.ndarray:
    """LAPACK (pseudo)inverse of a full-rank array: inv(A) when square,
    inv(A^H A) @ A^H when tall, A^H @ inv(A A^H) when wide. The one system S
    inverted is rejected as singular when its reciprocal Frobenius condition
    1 / (||S||_F * ||S^-1||_F) is at most rank_eps, with the product of the two
    norms taken at any scale (_norm_product). Only when LAPACK's inverse is
    not finite, as inside inv(1e-308 * S) for a well-conditioned S, is S^-1
    taken again as inv(S / s) / s with s = _largest_part(S), on float64
    views; a retry that is still not finite is rejected as singular. Counts
    one factorization."""
    global _lu_factorizations
    _lu_factorizations += 1
    m, n = a.shape
    if m == n:
        system = a
    else:
        adjoint = a.conj().T
        system = adjoint @ a if m > n else a @ adjoint
    threshold = DEFAULT_TOLERANCES.rank_eps
    try:
        inv = np.linalg.inv(system)
        reciprocal_condition = 1.0 / _norm_product(system, inv)
        if not reciprocal_condition > threshold and not np.isfinite(inv).all():
            scale = _largest_part(system)
            with np.errstate(over="ignore"):  # entries beyond float64 come back as inf and are rejected below
                inv = _divide_parts(np.linalg.inv(_divide_parts(system, scale)), scale)
            reciprocal_condition = 1.0 / _norm_product(system, inv)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"matrix is singular to working precision: {err}", pivot=0.0) from err
    if not reciprocal_condition > threshold:  # also rejects nan from non-finite inverse entries
        raise SingularMatrixError(
            f"matrix is singular to working precision: reciprocal condition "
            f"{reciprocal_condition:.3e} <= threshold {threshold:.3e}",
            pivot=reciprocal_condition,
        )
    if m == n:
        return inv
    return inv @ adjoint if m > n else adjoint @ inv


def slogdet(a: np.ndarray) -> tuple[complex, float]:
    """LAPACK (sign, log|det|) of a square array; sign is 0 for an exactly
    singular one. Counts one factorization."""
    global _lu_factorizations
    _lu_factorizations += 1
    sign, log_abs = np.linalg.slogdet(a)
    return complex(sign), float(log_abs)


# Largest component magnitude B of a matrix x for which rescale cannot
# overflow: with unit phase factors, whose real and imaginary parts are at
# most 1, each of its two complex multiplies at most doubles the largest
# component, so every output component is at most 4 * B * (1 + u)^2 < max.
_RESCALE_SAFE = np.finfo(np.float64).max / 8


def rescale(x: np.ndarray | DenseMatrix, row_phases: np.ndarray, col_phases: np.ndarray) -> DenseMatrix:
    """The one mask kernel: diag(e^(j*row_phases)) @ x @ diag(e^(j*col_phases)),
    in O(mn) with a single m-by-n allocation.

    Masking by an angle matrix is exactly this diagonal scaling, so every
    structured solve is a base solve followed by one call here. The output is
    scanned for non-finite entries unless x is a DenseMatrix whose cached
    largest component is at most _RESCALE_SAFE and both phase factors are
    finite: then no entry can overflow, and the O(mn) scan is skipped. A
    stored base (pseudo)inverse passed as a DenseMatrix pays for that bound
    once; a bare array is scanned on every call.
    """
    bounded = isinstance(x, DenseMatrix) and x._largest_component() <= _RESCALE_SAFE
    if isinstance(x, DenseMatrix):
        x = x.array
    with np.errstate(over="ignore", invalid="ignore"):  # the wrap reports overflow
        col = np.exp(1j * col_phases)
        row = np.exp(1j * row_phases)
        out = x * col[None, :]
        out *= row[:, None]
    return DenseMatrix._wrap(out, bounded and np.isfinite(col).all() and np.isfinite(row).all())


class LUFactorization:
    """Row-pivoted factorization P A = L U of a square matrix, stored packed.

    `packed` is one read-only n-by-n array: U on and above its diagonal, and
    below it the strict lower part of the unit lower-triangular L. Row i of
    P A is row `permutation[i]` of A, and `parity` is the sign of P. Pivots
    are chosen by largest modulus, ties broken by lowest row index.
    Singularity is decided at solve time by the pivot test
    |u_ii| <= rank_eps * ||A||_F, never by determinant magnitude.
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

    def _check_pivots(self, pivot_floor: float | None = None):
        floor = DEFAULT_TOLERANCES.rank_eps * self.source_norm if pivot_floor is None else pivot_floor
        worst = float(np.abs(self.packed.diagonal()).min())
        if worst <= floor:
            raise SingularMatrixError(
                f"matrix is singular to working precision: pivot {worst:.3e} <= threshold {floor:.3e}",
                pivot=worst,
            )

    def solve(self, rhs: np.ndarray, pivot_floor: float | None = None) -> np.ndarray:
        """Solve A X = rhs by forward/back substitution over all columns at
        once, in place on one permuted copy of rhs."""
        n = self.packed.shape[0]
        if rhs.shape[0] != n:
            raise ValueError(f"solve dimension mismatch: factor is {n}x{n}, rhs has {rhs.shape[0]} rows")
        self._check_pivots(pivot_floor)
        x = np.asarray(rhs, dtype=np.complex128)[self.permutation]
        lu = self.packed
        for i in range(1, n):  # row 0 of L Y = P rhs is row 0 of P rhs
            x[i] -= lu[i, :i] @ x[:i]
        for i in range(n - 1, -1, -1):
            x[i] -= lu[i, i + 1:] @ x[i + 1:]
            x[i] /= lu[i, i]
        return x

    def inverse(self, pivot_floor: float | None = None) -> DenseMatrix:
        return DenseMatrix._wrap(self.solve(np.eye(self.packed.shape[0], dtype=np.complex128), pivot_floor))


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
