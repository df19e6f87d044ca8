"""Closed-form determinants and inverses of phase-masked nonsingular matrices.

For a nonsingular A and an angle matrix mask, the determinant of the masked
matrix is det(A) rotated by the total phase, and the inverse is the inverse
of A masked by the conjugate-transposed angle matrix. Production solves run
on LAPACK and apply the mask as one diagonal rescale; the cofactor/adjugate
route provides an independent small-dimension oracle for the same inverse.
"""

from __future__ import annotations

import numpy as np

from .angle import AngleMatrix
from .core import (
    DenseMatrix,
    DeterminantRangeError,
    checked_pinv,
    det_lu,
    lu_factorize,
    slogdet,
)
from .pseudo import _masked_pinv

__all__ = [
    "det_structured",
    "inverse_structured",
    "inverse_structured_transposed",
    "cofactor",
    "adjugate",
    "inverse_adjugate_structured",
]

ADJUGATE_CAP = 6

# Natural-log bounds of the normal float64 range: a determinant whose log
# modulus falls outside them would overflow to inf (and nan once rotated) or
# underflow towards zero.
_LOG_MAX = float(np.log(np.finfo(np.float64).max))
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))


def _require_square_pair(a: DenseMatrix, t: AngleMatrix, op: str):
    if a.rows != a.cols:
        raise ValueError(f"{op} requires a square matrix, got {a.shape}")
    if t.shape != a.shape:
        raise ValueError(f"{op} shape mismatch: matrix {a.shape} vs angle matrix {t.shape}")


def det_structured(a: DenseMatrix, t: AngleMatrix) -> complex:
    """Determinant of the masked matrix without ever forming it: det(A) times
    the unit-modulus rotation by the total phase.

    Built from LAPACK's log-determinant, so it is never inf or nan: an exactly
    singular A gives 0, and a modulus outside the normal float64 range raises
    DeterminantRangeError. A phase sum that overflows float64 does not spoil
    the rotation either.
    """
    _require_square_pair(a, t, "det_structured")
    sign, log_abs = slogdet(a.array)
    if sign == 0:
        return 0j
    if not _LOG_TINY <= log_abs <= _LOG_MAX:
        raise DeterminantRangeError(
            f"determinant modulus exp({log_abs:.6g}) is outside the float64 range "
            f"[exp({_LOG_TINY:.6g}), exp({_LOG_MAX:.6g})]",
            log_abs=log_abs,
        )
    with np.errstate(over="ignore"):
        total = t.phase_sum()
    if np.isfinite(total):
        rotation = np.exp(1j * total)
    else:
        # The sum overflowed: multiply the per-phase unit factors instead, as
        # rescale does. Reducing the phases mod 2*pi would not help, since
        # fl(2*pi) != 2*pi.
        rotation = np.prod(np.exp(1j * t.theta)) * np.prod(np.exp(1j * t.phi))
    return complex(sign * rotation * np.exp(log_abs))


def inverse_structured(a: DenseMatrix, t: AngleMatrix) -> DenseMatrix:
    """Inverse of the masked matrix: inverse(A) masked by the conjugate
    transpose of the angle matrix (pseudo._masked_pinv), the same matrix as
    pinv_structured for a square A. Factors A exactly once; the masked matrix
    is never formed, let alone factored."""
    _require_square_pair(a, t, "inverse_structured")
    return _masked_pinv(checked_pinv(a.array), t)


def inverse_structured_transposed(a: DenseMatrix, t: AngleMatrix) -> DenseMatrix:
    """Inverse of A masked by the transposed angle matrix: pseudo._masked_pinv
    with the transposed mask, i.e. inverse(A) masked by the entrywise
    conjugate (no transpose)."""
    _require_square_pair(a, t, "inverse_structured_transposed")
    return _masked_pinv(checked_pinv(a.array), AngleMatrix._wrap(t.phi, t.theta))


def cofactor(a: DenseMatrix, i: int, j: int) -> complex:
    """Signed minor determinant with adjugate-oriented indexing.

    cofactor(a, i, j) deletes row j and column i (note the swap), so the grid
    of cofactors is already the adjugate and dividing by det(A) gives the
    inverse with no final transpose. Most texts define the cofactor on the
    (i, j) minor and transpose at the end; this convention does not.
    A 1x1 matrix has cofactor 1 (empty minor). The minor is taken with one
    boolean index and wrapped without a finiteness scan: it is a submatrix of
    a finite DenseMatrix.
    """
    n = a.rows
    if a.cols != n:
        raise ValueError(f"cofactor requires a square matrix, got {a.shape}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"cofactor indices ({i}, {j}) out of range for {n}x{n}")
    if n == 1:
        return complex(1.0)
    sign = -1.0 if (i + j) % 2 else 1.0
    keep = np.ones((n, n), dtype=bool)
    keep[j] = False
    keep[:, i] = False
    minor = a.array[keep].reshape(n - 1, n - 1)
    return complex(sign * det_lu(DenseMatrix._wrap(minor, proven_finite=True)))


def adjugate(a: DenseMatrix) -> DenseMatrix:
    """Grid of cofactors; equals det(A) times the inverse for nonsingular A."""
    n = a.rows
    grid = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            grid[i, j] = cofactor(a, i, j)
    return DenseMatrix._wrap(grid)


def inverse_adjugate_structured(a: DenseMatrix, t: AngleMatrix) -> DenseMatrix:
    """Cofactor-expansion oracle for inverse_structured, capped at small sizes.

    Entry (i, j) is cofactor(a, i, j) / det(a) times entry (i, j) of the
    materialized conjugate-transposed angle matrix, the unit rotation by
    -(theta_j + phi_i).
    """
    _require_square_pair(a, t, "inverse_adjugate_structured")
    n = a.rows
    if n > ADJUGATE_CAP:
        raise ValueError(f"adjugate oracle capped at n <= {ADJUGATE_CAP}, got n = {n}")
    factorization = lu_factorize(a)
    factorization._check_pivots()
    return DenseMatrix._wrap(adjugate(a).array / factorization.det() * t.hermitian().materialize().array)
