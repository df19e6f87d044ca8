"""Full-rank Moore-Penrose pseudoinverses and the masked closed form.

The pseudoinverse of a full-rank matrix comes from the invertible Gram system
on its smaller side; the pseudoinverse of the phase-masked matrix is then the
base pseudoinverse masked by the conjugate-transposed angle matrix. The
production route is core.checked_pinv, which solves the Gram system on
LAPACK; pinv_full_rank is the hand-LU oracle for it. Rank deficiency is out of
scope and rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angle import AngleMatrix, gram
from .core import (
    RESIDUAL_EPS,
    DenseMatrix,
    checked_pinv,
    frobenius_norm,
    lu_factorize,
    rescale,
)

__all__ = [
    "PenroseReport",
    "penrose_check",
    "pinv_full_rank",
    "gram_hadamard_factorization",
    "pinv_structured",
]


@dataclass(frozen=True)
class PenroseReport:
    """Residuals of the four defining pseudoinverse equations for a candidate X.

    r1 = ||A X A - A||_F, r2 = ||X A X - X||_F, r3 and r4 are the Hermitian
    defects of A X and X A. Passes when all four are within
    RESIDUAL_EPS * (1 + ||A||_F).
    """

    r1: float
    r2: float
    r3: float
    r4: float
    tolerance: float
    passed: bool

    def worst(self) -> float:
        return max(self.r1, self.r2, self.r3, self.r4)


def penrose_check(a: DenseMatrix, x: DenseMatrix) -> PenroseReport:
    """Evaluate the four pseudoinverse conditions for candidate x against a."""
    if x.shape != (a.cols, a.rows):
        raise ValueError(f"penrose_check expects a {a.cols}x{a.rows} candidate for a {a.rows}x{a.cols} matrix, got {x.shape}")
    aa = a.array
    xx = x.array
    ax = aa @ xx
    xa = xx @ aa
    r1 = float(np.linalg.norm(ax @ aa - aa))
    r2 = float(np.linalg.norm(xa @ xx - xx))
    r3 = float(np.linalg.norm(ax.conj().T - ax))
    r4 = float(np.linalg.norm(xa.conj().T - xa))
    limit = RESIDUAL_EPS * (1.0 + frobenius_norm(a))
    return PenroseReport(r1, r2, r3, r4, limit, max(r1, r2, r3, r4) <= limit)


def pinv_full_rank(a: DenseMatrix) -> DenseMatrix:
    """Pseudoinverse of a full-rank matrix via its smaller Gram system.

    Tall matrices solve (A^H A) X = A^H; wide ones form A^H (A A^H)^(-1);
    square ones invert directly. The Gram system G takes the LU oracle's one
    pivot test, |u_ii| <= RANK_EPS * ||G||_F, with the norm checked_pinv's
    Gram test uses too; a failure means rank-deficient input.
    Conditioning of the Gram system is squared relative to A; acceptable here
    because generated instances are condition-capped.
    """
    arr = a.array
    if a.rows == a.cols:
        return lu_factorize(a).inverse()
    if a.rows > a.cols:
        gram_mat = DenseMatrix._wrap(arr.conj().T @ arr)
        return DenseMatrix._wrap(lu_factorize(gram_mat).solve(arr.conj().T))
    gram_mat = DenseMatrix._wrap(arr @ arr.conj().T)
    return DenseMatrix._wrap(arr.conj().T @ lu_factorize(gram_mat).inverse().array)


def gram_hadamard_factorization(a: DenseMatrix, t: AngleMatrix) -> tuple[DenseMatrix, int, AngleMatrix]:
    """Factor the column Gram of the masked matrix without forming it.

    Returns (A^H A, m, G) where G is the left structured Gram of the angle
    matrix, so that (masked)^H (masked) equals (A^H A) entrywise-masked by
    materialize(G), i.e. by (1/m) of the dense angle Gram.
    """
    if t.shape != a.shape:
        raise ValueError(f"gram_hadamard_factorization shape mismatch: matrix {a.shape} vs angle matrix {t.shape}")
    scale, structured_gram = gram(t, "left")
    base_gram = DenseMatrix(a.array.conj().T @ a.array)
    return base_gram, scale, structured_gram


def _masked_pinv(x: np.ndarray, t: AngleMatrix) -> DenseMatrix:
    """The one masking step: the base (pseudo)inverse x of A, masked by the
    conjugate transpose of t, is the (pseudo)inverse of A masked by t, i.e.
    x rescaled by e^(-j*phi) on the rows and e^(-j*theta) on the columns.
    rescale raises OverflowError on a non-finite entry, so the result is
    wrapped without a second scan."""
    return DenseMatrix._wrap(rescale(x, -t.phi, -t.theta), proven_finite=True)


def pinv_structured(a: DenseMatrix, t: AngleMatrix) -> DenseMatrix:
    """Pseudoinverse of the masked matrix: one Gram solve on A, then
    _masked_pinv; the masked matrix is never formed. For a square A this is
    inverse_structured."""
    if t.shape != a.shape:
        raise ValueError(f"pinv_structured shape mismatch: matrix {a.shape} vs angle matrix {t.shape}")
    return _masked_pinv(checked_pinv(a.array), t)
