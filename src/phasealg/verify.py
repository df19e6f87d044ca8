"""Randomized verification suites behind the `verify` CLI subcommand.

Each suite draws seeded instances and pushes one or more structured-identity
checks to their stated tolerances. Results are plain dicts so reports
serialize deterministically: a (suite, trials, seed) triple always produces
identical residuals.
"""

from __future__ import annotations

import numpy as np

from .angle import gram, hadamard_inverse_transpose, triple_product_check
from .core import (
    DEFAULT_TOLERANCES,
    DenseMatrix,
    LUFactorization,
    SingularMatrixError,
    det_lu,
    frobenius_norm,
    hadamard_product,
    identity,
    inverse_lu,
    lu_factorize,
    transpose,
    conjugate_transpose,
)
from .generate import draw_angle, draw_dense, draw_well_conditioned, stream_generator
from .pseudo import gram_hadamard_factorization, penrose_check, pinv_full_rank, pinv_structured
from .structured import (
    det_structured,
    inverse_adjugate_structured,
    inverse_structured,
    inverse_structured_transposed,
)

__all__ = ["SUITE_NAMES", "run_suite", "run_suites"]

SUITE_NAMES = ("lemma1", "lemma2", "lemma3", "thm1", "thm2")

DUALITY_LIMIT = 1e-14
MINOR_LIMIT = 1e-13
GRAM_LIMIT = 1e-13          # times the integer Gram scale
GRAM_DIAG_LIMIT = 1e-15     # times the row count
TRIPLE_LIMIT = 1e-13        # times m*n
STRUCTURE_2X2_LIMIT = 1e-14
DET_LIMIT = 1e-10           # times 1 + |det|
INVERSE_LIMIT = 1e-8        # times n
ADJUGATE_LIMIT = 1e-10
PINV_LIMIT = 1e-8           # times 1 + a Frobenius norm
GRAM_FACTOR_LIMIT = 1e-12   # times m*n
SQUARE_DEGENERATION_LIMIT = 1e-10


class _Worst:
    """Accumulates the worst residual and worst residual/limit ratio."""

    def __init__(self):
        self.residual = 0.0
        self.ratio = 0.0
        self.trials = 0

    def add(self, residual: float, limit: float):
        self.trials += 1
        self.residual = max(self.residual, float(residual))
        self.ratio = max(self.ratio, float(residual) / limit)

    def entry(self, name: str) -> dict:
        return {
            "name": name,
            "trials": self.trials,
            "max_residual": self.residual,
            "max_ratio": self.ratio,
            "passed": self.ratio <= 1.0,
        }


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max())


def _nonsingular_draw(gen, n: int) -> tuple[DenseMatrix, LUFactorization]:
    """A square draw that passes the LU oracle's pivot test, with its factorization."""
    for _ in range(16):
        candidate = draw_dense(gen, n, n)
        factorization = lu_factorize(candidate)
        try:
            factorization._check_pivots()
        except SingularMatrixError:
            continue
        return candidate, factorization
    raise RuntimeError(f"could not draw a nonsingular {n}x{n} instance")


def _suite_lemma1(trials: int, seed: int) -> list[dict]:
    duality = _Worst()
    involution = _Worst()
    unimodular = _Worst()
    minors = _Worst()
    for t in range(trials):
        gen = stream_generator(seed, t)
        m = int(gen.integers(1, 17))
        n = int(gen.integers(1, 17))
        mask = draw_angle(gen, m, n)
        dense = mask.materialize().array
        herm = mask.hermitian().materialize().array
        duality.add(_max_abs(hadamard_inverse_transpose(mask).array - herm), DUALITY_LIMIT)
        involution.add(_max_abs(mask.hermitian().hermitian().materialize().array - dense),
                       DEFAULT_TOLERANCES.entry_eps)
        unimodular.add(_max_abs(np.abs(dense) - 1.0), DEFAULT_TOLERANCES.entry_eps)
        if m >= 2 and n >= 2:
            outer = dense[:, None, :, None] * dense[None, :, None, :]
            minors.add(_max_abs(outer - outer.transpose(0, 1, 3, 2)), MINOR_LIMIT)
    return [
        duality.entry("hermitian_duality"),
        involution.entry("hermitian_involution"),
        unimodular.entry("unit_modulus"),
        minors.entry("rank_one_minors"),
    ]


def _suite_lemma2(trials: int, seed: int) -> list[dict]:
    det_identity = _Worst()
    for t in range(trials):
        gen = stream_generator(seed, t)
        n = int(gen.integers(1, 17))
        matrix, factorization = _nonsingular_draw(gen, n)
        mask = draw_angle(gen, n, n)
        base_det = factorization.det()
        masked_det = det_lu(hadamard_product(matrix, mask.materialize()))
        residual = abs(det_structured(matrix, mask) - masked_det)
        det_identity.add(residual, DET_LIMIT * (1.0 + abs(base_det)))
    return [det_identity.entry("determinant_identity")]


def _suite_lemma3(trials: int, seed: int) -> list[dict]:
    left = _Worst()
    right = _Worst()
    diagonal = _Worst()
    triple = _Worst()
    for t in range(trials):
        gen = stream_generator(seed, t)
        m = int(gen.integers(1, 65))
        n = int(gen.integers(1, 65))
        mask = draw_angle(gen, m, n)
        dense = mask.materialize().array
        herm = mask.hermitian().materialize().array
        left_scale, left_gram = gram(mask, "left")
        left.add(_max_abs(herm @ dense - left_scale * left_gram.materialize().array),
                 left_scale * GRAM_LIMIT)
        right_scale, right_gram = gram(mask, "right")
        right.add(_max_abs(dense @ herm - right_scale * right_gram.materialize().array),
                  right_scale * GRAM_LIMIT)
        diagonal.add(_max_abs(np.diag(herm @ dense) - m), m * GRAM_DIAG_LIMIT)
        triple.add(triple_product_check(mask), m * n * TRIPLE_LIMIT)

    # fixed 2x2 instance: the dense Gram must show the scale-2 difference
    # structure entry for entry
    structure = _Worst()
    gen = stream_generator(seed, trials)
    mask = draw_angle(gen, 2, 2)
    dense = mask.materialize().array
    herm = mask.hermitian().materialize().array
    product = herm @ dense
    off = np.exp(1j * (mask.phi[1] - mask.phi[0]))
    expected = np.array([[2.0, 2.0 * off], [2.0 * np.conj(off), 2.0]])
    structure.add(_max_abs(product - expected), STRUCTURE_2X2_LIMIT)
    structure.add(abs(abs(product[0, 1]) - 2.0), STRUCTURE_2X2_LIMIT)
    return [
        left.entry("gram_left"),
        right.entry("gram_right"),
        diagonal.entry("gram_diagonal_scale"),
        triple.entry("triple_product"),
        structure.entry("gram_2x2_structure"),
    ]


def _suite_thm1(trials: int, seed: int) -> list[dict]:
    left = _Worst()
    right = _Worst()
    oracle = _Worst()
    transposed_inverse = _Worst()
    for t in range(trials):
        gen = stream_generator(seed, t)
        n = int(gen.integers(1, 33))
        matrix = draw_well_conditioned(gen, n, n)
        mask = draw_angle(gen, n, n)
        dense_mask = mask.materialize()
        masked = hadamard_product(matrix, dense_mask)
        solution = inverse_structured(matrix, mask)
        eye = identity(n).array
        limit = INVERSE_LIMIT * n
        left.add(float(np.linalg.norm(solution.array @ masked.array - eye)), limit)
        right.add(float(np.linalg.norm(masked.array @ solution.array - eye)), limit)
        oracle.add(float(np.linalg.norm(solution.array - inverse_lu(masked).array)), limit)
        transposed_mask = hadamard_product(matrix, transpose(dense_mask))
        transposed_inverse.add(
            float(np.linalg.norm(
                inverse_structured_transposed(matrix, mask).array
                - inverse_lu(transposed_mask).array)),
            limit,
        )

    adjugate_oracle = _Worst()
    for t in range(trials):
        gen = stream_generator(seed, trials + t)  # separate streams from the main loop
        n = int(gen.integers(1, 5))
        matrix = draw_well_conditioned(gen, n, n)
        mask = draw_angle(gen, n, n)
        adjugate_oracle.add(
            _max_abs(inverse_adjugate_structured(matrix, mask).array
                     - inverse_structured(matrix, mask).array),
            ADJUGATE_LIMIT,
        )
    return [
        left.entry("inverse_left_residual"),
        right.entry("inverse_right_residual"),
        oracle.entry("inverse_matches_lu_oracle"),
        transposed_inverse.entry("transposed_mask_inverse"),
        adjugate_oracle.entry("adjugate_oracle_equivalence"),
    ]


def _thm2_shape(gen, t: int) -> tuple[int, int]:
    kind = t % 3
    if kind == 0:  # tall
        n = int(gen.integers(1, 13))
        return int(gen.integers(n + 1, 25)), n
    if kind == 1:  # square
        n = int(gen.integers(1, 25))
        return n, n
    m = int(gen.integers(1, 13))
    return m, int(gen.integers(m + 1, 25))


def _suite_thm2(trials: int, seed: int) -> list[dict]:
    penrose = _Worst()
    oracle = _Worst()
    factorization = _Worst()
    degeneration = _Worst()
    duality = _Worst()
    for t in range(trials):
        gen = stream_generator(seed, t)
        m, n = _thm2_shape(gen, t)
        matrix = draw_well_conditioned(gen, m, n)
        mask = draw_angle(gen, m, n)
        masked = hadamard_product(matrix, mask.materialize())
        solution = pinv_structured(matrix, mask)
        solution_norm = frobenius_norm(solution)

        report = penrose_check(masked, solution)
        penrose.add(report.worst(), report.tolerance)
        oracle.add(
            float(np.linalg.norm(solution.array - pinv_full_rank(masked).array)),
            PINV_LIMIT * (1.0 + solution_norm),
        )
        base_gram, scale, structured_gram = gram_hadamard_factorization(matrix, mask)
        factorization.add(
            _max_abs(masked.array.conj().T @ masked.array
                     - base_gram.array * structured_gram.materialize().array),
            GRAM_FACTOR_LIMIT * m * n,
        )
        if m == n:
            degeneration.add(
                _max_abs(solution.array - inverse_structured(matrix, mask).array),
                SQUARE_DEGENERATION_LIMIT,
            )
        flipped = pinv_structured(conjugate_transpose(matrix), mask.hermitian())
        duality.add(
            float(np.linalg.norm(flipped.array - solution.array.conj().T)),
            PINV_LIMIT * (1.0 + solution_norm),
        )
    return [
        penrose.entry("penrose_conditions"),
        oracle.entry("pinv_matches_dense_oracle"),
        factorization.entry("gram_hadamard_factorization"),
        degeneration.entry("square_degeneration"),
        duality.entry("hermitian_duality_pinv"),
    ]


_SUITE_RUNNERS = {
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "lemma3": _suite_lemma3,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
}


def run_suite(name: str, trials: int, seed: int) -> dict:
    """Run one named suite; returns {"suite", "checks", "passed"}."""
    if name not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    checks = _SUITE_RUNNERS[name](trials, seed)
    return {"suite": name, "checks": checks, "passed": all(c["passed"] for c in checks)}


def run_suites(names, trials: int, seed: int) -> dict:
    """Run several suites and aggregate the verdict."""
    suites = [run_suite(name, trials, seed) for name in names]
    return {"suites": suites, "passed": all(s["passed"] for s in suites)}
