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


class DenseMatrix:
    """Immutable row-major complex matrix with explicit dimensions.

    Construction copies the input, requires a 2-D shape with positive
    dimensions, and rejects non-finite entries.
    """

    __slots__ = ("_array",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.complex128, order="C")
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got an array of ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
        self._adopt(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> DenseMatrix:
        """Trusted constructor for a fresh 2-D complex128 kernel output that no
        other reference can write to: no copy, but still the finiteness check."""
        out = cls.__new__(cls)
        out._adopt(arr)
        return out

    def _adopt(self, arr: np.ndarray):
        # A finite sum means finite entries (inf and nan propagate), and costs
        # half the entrywise scan; only a non-finite sum, which overflow alone
        # can cause, needs the scan.
        with np.errstate(over="ignore", invalid="ignore"):
            total = arr.sum()
        if not np.isfinite(total) and not np.isfinite(arr).all():
            i, k = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite entry at ({i}, {k})")
        arr.flags.writeable = False
        self._array = arr

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


def frobenius_norm(a: DenseMatrix) -> float:
    return float(np.linalg.norm(a.array))


def hadamard_product(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.shape != b.shape:
        raise ValueError(f"hadamard_product shape mismatch: {a.shape} vs {b.shape}")
    # Split into real ops so the product commutes bitwise; numpy's fused
    # complex kernel rounds a*b and b*a differently.
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = a.array.real * b.array.real - a.array.imag * b.array.imag
    out.imag = a.array.real * b.array.imag + a.array.imag * b.array.real
    return DenseMatrix(out)


def hadamard_inverse(a: DenseMatrix) -> DenseMatrix:
    """Entrywise reciprocal; requires every entry nonzero."""
    eps = DEFAULT_TOLERANCES.entry_eps
    small = np.abs(a.array) <= eps
    if small.any():
        bad = divmod(int(np.argmax(small)), a.cols)  # row-major index of the first small entry
        raise ValueError(f"entry at {bad} is zero (|.| <= {eps}); entrywise reciprocal undefined")
    return DenseMatrix(1.0 / a.array)


# Factorization counter: test probe asserting how often structured paths
# fall back to a fresh factorization, LAPACK or hand LU. Not part of the
# numerical contracts.
_lu_factorizations = 0


def lu_factorization_count() -> int:
    return _lu_factorizations


def checked_pinv(a: np.ndarray) -> np.ndarray:
    """LAPACK (pseudo)inverse of a full-rank array: inv(A) when square,
    inv(A^H A) @ A^H when tall, A^H @ inv(A A^H) when wide. The one system S
    inverted is rejected as singular when its reciprocal Frobenius condition
    1 / (||S||_F * ||S^-1||_F) is at most rank_eps. Counts one factorization."""
    global _lu_factorizations
    _lu_factorizations += 1
    m, n = a.shape
    if m == n:
        system = a
    else:
        adjoint = a.conj().T
        system = adjoint @ a if m > n else a @ adjoint
    try:
        inv = np.linalg.inv(system)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"matrix is singular to working precision: {err}", pivot=0.0) from err
    reciprocal_condition = 1.0 / (float(np.linalg.norm(system)) * float(np.linalg.norm(inv)))
    threshold = DEFAULT_TOLERANCES.rank_eps
    if not reciprocal_condition > threshold:  # also rejects nan from overflowed norms
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


def rescale(x: np.ndarray, row_phases: np.ndarray, col_phases: np.ndarray) -> DenseMatrix:
    """The one mask kernel: diag(e^(j*row_phases)) @ x @ diag(e^(j*col_phases)),
    in O(mn) with a single m-by-n allocation.

    Masking by an angle matrix is exactly this diagonal scaling, so every
    structured solve is a base solve followed by one call here.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the wrap reports overflow
        out = x * np.exp(1j * col_phases)[None, :]
        out *= np.exp(1j * row_phases)[:, None]
    return DenseMatrix._wrap(out)


class LUFactorization:
    """Row-pivoted factorization P A = L U of a square matrix, stored packed.

    One n-by-n array holds U on and above its diagonal and the strict lower
    part of the unit lower-triangular L below it. Pivots are chosen by largest
    modulus, ties broken by lowest row index. Singularity is decided at solve
    time by the pivot test |u_ii| <= rank_eps * ||A||_F, never by determinant
    magnitude.
    """

    __slots__ = ("permutation", "packed", "parity", "source_norm")

    def __init__(self, permutation, packed, parity, source_norm):
        self.permutation = permutation
        self.packed = packed
        self.parity = parity
        self.source_norm = source_norm

    @property
    def size(self) -> int:
        return self.packed.shape[0]

    @property
    def lower(self) -> np.ndarray:
        """Unit lower-triangular L, built on demand (read-only)."""
        out = np.tril(self.packed, -1) + np.eye(self.size, dtype=np.complex128)
        out.flags.writeable = False
        return out

    @property
    def upper(self) -> np.ndarray:
        """Upper-triangular U, built on demand (read-only)."""
        out = np.triu(self.packed)
        out.flags.writeable = False
        return out

    def pivot_magnitudes(self) -> np.ndarray:
        return np.abs(np.diagonal(self.packed))

    def det(self) -> complex:
        return complex(self.parity * np.prod(np.diagonal(self.packed)))

    def _check_pivots(self, pivot_floor: float | None = None):
        floor = DEFAULT_TOLERANCES.rank_eps * self.source_norm if pivot_floor is None else pivot_floor
        pivots = self.pivot_magnitudes()
        worst = float(pivots.min())
        if worst <= floor:
            raise SingularMatrixError(
                f"matrix is singular to working precision: pivot {worst:.3e} <= threshold {floor:.3e}",
                pivot=worst,
            )

    def solve(self, rhs: np.ndarray, pivot_floor: float | None = None) -> np.ndarray:
        """Solve A X = rhs by forward/back substitution over all columns at once."""
        n = self.size
        if rhs.shape[0] != n:
            raise ValueError(f"solve dimension mismatch: factor is {n}x{n}, rhs has {rhs.shape[0]} rows")
        self._check_pivots(pivot_floor)
        b = np.asarray(rhs, dtype=np.complex128)[self.permutation]
        y = np.empty_like(b)
        lu = self.packed
        for i in range(n):
            y[i] = b[i] - lu[i, :i] @ y[:i]
        x = np.empty_like(y)
        for i in range(n - 1, -1, -1):
            x[i] = (y[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
        return x

    def inverse(self, pivot_floor: float | None = None) -> DenseMatrix:
        return DenseMatrix(self.solve(np.eye(self.size, dtype=np.complex128), pivot_floor))


def lu_factorize(a: DenseMatrix) -> LUFactorization:
    """Factor a square matrix with partial (row) pivoting by largest modulus."""
    global _lu_factorizations
    if a.rows != a.cols:
        raise ValueError(f"lu_factorize requires a square matrix, got {a.shape}")
    _lu_factorizations += 1
    n = a.rows
    work = a.array.copy()
    perm = np.arange(n)
    parity = 1
    for k in range(n):
        p = k + int(np.argmax(np.abs(work[k:, k])))  # argmax takes the first max: lowest row wins ties
        if p != k:
            work[[k, p]] = work[[p, k]]
            perm[k], perm[p] = perm[p], perm[k]
            parity = -parity
        pivot = work[k, k]
        if pivot != 0 and k + 1 < n:
            col = work[k + 1:, k]
            col /= pivot
            work[k + 1:, k + 1:] -= col[:, None] * work[k, None, k + 1:]
    work.flags.writeable = False
    return LUFactorization(perm, work, parity, float(np.linalg.norm(a.array)))


def det_lu(a: DenseMatrix) -> complex:
    return lu_factorize(a).det()


def inverse_lu(a: DenseMatrix) -> DenseMatrix:
    return lu_factorize(a).inverse()
