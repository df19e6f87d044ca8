"""Rank-one angle matrices stored as phase lists.

An angle matrix is the outer product of two unit-modulus exponential vectors.
It is kept implicit as a (row phases, column phases) pair: the conjugate
transpose is then an O(m+n) phase swap instead of an O(mn) conjugation, and
the dense form is materialized only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DenseMatrix, hadamard_inverse, transpose

__all__ = [
    "AngleMatrix",
    "hadamard_inverse_transpose",
    "gram",
]


def _phase_array(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D list of phases, got ndim={arr.ndim}")
    if arr.size < 1:
        raise ValueError(f"{what} must hold at least one phase")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains a non-finite phase")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class AngleMatrix:
    """Rank-one matrix of unit-modulus entries, stored as (theta, phi) phase lists.

    Entry (i, k) of the dense form is e^(j*(theta_i + phi_k)). Phases are not
    normalized into [0, 2*pi); equality of two angle matrices is a statement
    about materializations, not about the stored phases.
    """

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _phase_array(self.theta, "theta"))
        object.__setattr__(self, "phi", _phase_array(self.phi, "phi"))

    @classmethod
    def _wrap(cls, theta: np.ndarray, phi: np.ndarray) -> AngleMatrix:
        """Trusted constructor for phase arrays that another AngleMatrix
        already checked, or fresh negations of them: no copy and no re-check.
        Each is made read-only, as __post_init__ does."""
        theta.flags.writeable = False
        phi.flags.writeable = False
        out = cls.__new__(cls)
        object.__setattr__(out, "theta", theta)
        object.__setattr__(out, "phi", phi)
        return out

    @property
    def rows(self) -> int:
        return self.theta.size

    @property
    def cols(self) -> int:
        return self.phi.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.theta.size, self.phi.size)

    def materialize(self) -> DenseMatrix:
        """Dense form: cos and sin of the summed phase, per entry.

        This is the one dense mask; every oracle builds its mask here. When
        some theta_i + phi_k overflows float64, the entries are products of
        the per-phase unit factors instead, as in rescale.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum gives nan, which DenseMatrix rejects
            dense = np.exp(1j * (self.theta[:, None] + self.phi[None, :]))
        try:
            return DenseMatrix._wrap(dense)
        except OverflowError:
            return DenseMatrix._wrap(np.exp(1j * self.theta)[:, None] * np.exp(1j * self.phi)[None, :])

    def hermitian(self) -> AngleMatrix:
        """Conjugate transpose as a phase swap: an n-by-m angle matrix."""
        return AngleMatrix._wrap(-self.phi, -self.theta)

    def phase_sum(self) -> float:
        """Sum of all row and column phases; defined for square shapes only."""
        if self.rows != self.cols:
            raise ValueError(f"phase_sum requires a square angle matrix, got {self.shape}")
        return float(self.theta.sum() + self.phi.sum())


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

