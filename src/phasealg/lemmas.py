"""Executable statements of the paper's lemmas: dense algebra, the entrywise
reciprocal, the long route to an angle matrix's conjugate transpose, and the
structured Gram products of an angle matrix and of a masked matrix.

No production function calls these. The verify suites run them beside the
closed forms and the oracles, and tests build inputs with them.
"""

from __future__ import annotations

import numpy as np

from .angle import AngleMatrix
from .core import ENTRY_EPS, DenseMatrix

__all__ = [
    "identity",
    "transpose",
    "conjugate_transpose",
    "hadamard_inverse",
    "hadamard_inverse_transpose",
    "gram",
    "gram_hadamard_factorization",
]


def identity(n: int) -> DenseMatrix:
    return DenseMatrix(np.eye(n, dtype=np.complex128))


def transpose(a: DenseMatrix) -> DenseMatrix:
    return DenseMatrix(a.array.T)


def conjugate_transpose(a: DenseMatrix) -> DenseMatrix:
    return DenseMatrix(np.conj(a.array.T))


def hadamard_inverse(a: DenseMatrix) -> DenseMatrix:
    """Entrywise reciprocal; requires every entry nonzero."""
    small = np.abs(a.array) <= ENTRY_EPS
    if small.any():
        bad = divmod(int(np.argmax(small)), a.cols)  # row-major index of the first small entry
        raise ValueError(f"entry at {bad} is zero (|.| <= {ENTRY_EPS}); entrywise reciprocal undefined")
    return DenseMatrix._wrap(1.0 / a.array)


def hadamard_inverse_transpose(t: AngleMatrix) -> DenseMatrix:
    """Transpose of the entrywise reciprocal of the dense form.

    This is the long route to the conjugate transpose; it exists so the
    identity with materialize(hermitian(t)) is directly executable.
    """
    return transpose(hadamard_inverse(t.materialize()))


def gram(t: AngleMatrix, side: str) -> tuple[int, AngleMatrix]:
    """Structured Gram product of an angle matrix.

    side="left" describes hermitian(t) @ t: it equals rows(t) times the n-by-n
    angle matrix built from column-phase differences (theta'=-phi, phi'=phi).
    side="right" describes t @ hermitian(t): cols(t) times the m-by-m analogue
    over row-phase differences.
    """
    if side == "left":
        return t.rows, AngleMatrix._wrap(-t.phi, t.phi)
    if side == "right":
        return t.cols, AngleMatrix._wrap(t.theta, -t.theta)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


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
