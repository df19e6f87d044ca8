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
    DEFAULT_TOLERANCES,
    DenseMatrix,
    _norm_product,
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
    residual_eps * (1 + ||A||_F).
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
    limit = DEFAULT_TOLERANCES.residual_eps * (1.0 + frobenius_norm(a))
    return PenroseReport(r1, r2, r3, r4, limit, max(r1, r2, r3, r4) <= limit)


# c in the square inverse gate's limit c * n * u. The smallest n is the
# tightest: LAPACK inverses of random complex 1x1 bases scored up to 8 u,
# 2x2 ones up to 3.7 * 2u, graded 30x30 ones (condition 1 to 1e12) up to
# 0.42 * 30u and 256x256 ones up to 0.07 * 256u. An inverse perturbed by a
# relative 1e-10 scores above 400 * 256u.
_INVERSE_GATE_C = 10.0


def _inverse_gate(a: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(ratio, limit) of the residual gate for a candidate inverse x of a
    square a: ratio = 2 max(||AX - I||_F, ||XA - I||_F) / (||A||_F ||X||_F)
    and limit = c * n * u, with u = eps / 2.

    Two products instead of penrose_check's four, and at least as strict as
    the four normwise-relative Penrose residuals: with E = AX - I and
    F = XA - I, ||AXA - A|| <= ||E|| ||A||, ||XAX - X|| <= ||X|| ||E||, and
    the Hermitian defects of AX and XA are at most 2||E|| and 2||F||. E and F
    are of order one at any scale, and the denominator is taken at any scale
    (core._norm_product), so the ratio does not change under A -> sA,
    X -> X / s. The candidate passes when ratio <= limit; a nan ratio fails.
    The denominator is finite for every x that checked_pinv returns, whose
    ||A||_F ||X||_F is below 1 / rank_eps.
    """
    n = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite ratio fails the gate
        ax = a @ x
        xa = x @ a
        ax.reshape(-1)[:: n + 1] -= 1.0
        xa.reshape(-1)[:: n + 1] -= 1.0
        residual = np.maximum(np.linalg.norm(ax), np.linalg.norm(xa))  # propagates nan
        ratio = float(2.0 * residual / _norm_product(a, x))
    return ratio, _INVERSE_GATE_C * n * float(np.finfo(np.float64).eps / 2)


def pinv_full_rank(a: DenseMatrix) -> DenseMatrix:
    """Pseudoinverse of a full-rank matrix via its smaller Gram system.

    Tall matrices solve (A^H A) X = A^H; wide ones form A^H (A A^H)^(-1);
    square ones invert directly. The Gram pivot test uses the threshold
    rank_eps * ||A||_F^2, and a failure means rank-deficient input.
    Conditioning of the Gram system is squared relative to A; acceptable here
    because generated instances are condition-capped.
    """
    arr = a.array
    if a.rows == a.cols:
        return lu_factorize(a).inverse()
    floor = DEFAULT_TOLERANCES.rank_eps * float(np.linalg.norm(arr)) ** 2
    if a.rows > a.cols:
        gram_mat = DenseMatrix._wrap(arr.conj().T @ arr)
        solved = lu_factorize(gram_mat).solve(arr.conj().T, pivot_floor=floor)
        return DenseMatrix._wrap(solved)
    gram_mat = DenseMatrix._wrap(arr @ arr.conj().T)
    gram_inv = lu_factorize(gram_mat).inverse(pivot_floor=floor)
    return DenseMatrix._wrap(arr.conj().T @ gram_inv.array)


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


def pinv_structured(a: DenseMatrix, t: AngleMatrix) -> DenseMatrix:
    """Pseudoinverse of the masked matrix: pseudoinverse of A masked by the
    conjugate transpose of the angle matrix. One Gram solve on A; the masked
    matrix is never formed."""
    if t.shape != a.shape:
        raise ValueError(f"pinv_structured shape mismatch: matrix {a.shape} vs angle matrix {t.shape}")
    return rescale(checked_pinv(a.array), -t.phi, -t.theta)
