"""Randomized verification suites behind the `verify` CLI subcommand.

Each suite draws seeded instances and pushes one or more structured-identity
checks to their stated tolerances. Results are plain dicts so reports
serialize deterministically: a (suite, trials, seed) triple always produces
identical residuals.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ENTRY_EPS,
    det_lu,
    frobenius_norm,
    hadamard_product,
    inverse_lu,
)
from .generate import draw_angle, draw_well_conditioned, stream_generator
from .lemmas import conjugate_transpose, gram, gram_hadamard_factorization, hadamard_inverse_transpose, transpose
from .pseudo import penrose_check, pinv_full_rank, pinv_structured
from .structured import (
    det_structured,
    inverse_adjugate_structured,
    inverse_structured,
    inverse_structured_transposed,
)

__all__ = ["SUITE_NAMES", "run_suite", "run_suites"]

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


class _Checks:
    """Worst residual and worst residual/limit ratio of each named check, in
    the order the checks are declared; a check no trial reached reports 0."""

    def __init__(self, *names: str):
        self._worst = {name: [0, 0.0, 0.0] for name in names}  # trials, residual, ratio

    def add(self, name: str, residual: float, limit: float):
        worst = self._worst[name]
        worst[0] += 1
        worst[1] = max(worst[1], float(residual))
        worst[2] = max(worst[2], float(residual) / limit)

    def entries(self) -> list[dict]:
        return [
            {"name": name, "trials": trials, "max_residual": residual,
             "max_ratio": ratio, "passed": ratio <= 1.0}
            for name, (trials, residual, ratio) in self._worst.items()
        ]


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max())


# Products per block of the rank-one-minor check: 4096 complex128 entries are
# 64 KiB, below glibc's initial 128 KiB mmap threshold, so each block comes
# from the heap without fresh page faults.
_MINOR_BLOCK_ENTRIES = 4096


def _rank_one_minor_residual(dense: np.ndarray) -> float:
    """max over i, j, k, l of |T_ik T_jl - T_il T_jk|, the 2x2 minors of the
    mask, over blocks of rows i instead of the whole m*m*n*n product at once.
    Each block keeps the full product's broadcast form, so numpy runs the
    same inner loop and the running maximum has the same bits."""
    m, n = dense.shape
    step = max(1, _MINOR_BLOCK_ENTRIES // (m * n * n))
    worst = 0.0
    for s in range(0, m, step):
        block = dense[s:s + step, None, :, None] * dense[None, :, None, :]
        worst = max(worst, _max_abs(block - block.transpose(0, 1, 3, 2)))
    return worst


def _suite_lemma1(trials: int, seed: int) -> list[dict]:
    checks = _Checks("hermitian_duality", "hermitian_involution", "unit_modulus", "rank_one_minors")
    for t in range(trials):
        gen = stream_generator(seed, t)
        m = int(gen.integers(1, 17))
        n = int(gen.integers(1, 17))
        mask = draw_angle(gen, m, n)
        dense = mask.materialize().array
        herm = mask.hermitian().materialize().array
        checks.add("hermitian_duality", _max_abs(hadamard_inverse_transpose(mask).array - herm), DUALITY_LIMIT)
        checks.add("hermitian_involution", _max_abs(mask.hermitian().hermitian().materialize().array - dense), ENTRY_EPS)
        checks.add("unit_modulus", _max_abs(np.abs(dense) - 1.0), ENTRY_EPS)
        if m >= 2 and n >= 2:
            checks.add("rank_one_minors", _rank_one_minor_residual(dense), MINOR_LIMIT)
    return checks.entries()


def _suite_lemma2(trials: int, seed: int) -> list[dict]:
    checks = _Checks("determinant_identity")
    for t in range(trials):
        gen = stream_generator(seed, t)
        n = int(gen.integers(1, 17))
        matrix = draw_well_conditioned(gen, n, n)
        mask = draw_angle(gen, n, n)
        base_det = det_lu(matrix)
        masked_det = det_lu(hadamard_product(matrix, mask.materialize()))
        residual = abs(det_structured(matrix, mask) - masked_det)
        checks.add("determinant_identity", residual, DET_LIMIT * (1.0 + abs(base_det)))
    return checks.entries()


def _suite_lemma3(trials: int, seed: int) -> list[dict]:
    checks = _Checks("gram_left", "gram_right", "gram_diagonal_scale", "triple_product", "gram_2x2_structure")
    for t in range(trials):
        gen = stream_generator(seed, t)
        m = int(gen.integers(1, 65))
        n = int(gen.integers(1, 65))
        mask = draw_angle(gen, m, n)
        dense = mask.materialize().array
        herm = mask.hermitian().materialize().array
        left = herm @ dense
        left_scale, left_gram = gram(mask, "left")
        checks.add("gram_left", _max_abs(left - left_scale * left_gram.materialize().array),
                   left_scale * GRAM_LIMIT)
        right_scale, right_gram = gram(mask, "right")
        checks.add("gram_right", _max_abs(dense @ herm - right_scale * right_gram.materialize().array),
                   right_scale * GRAM_LIMIT)
        checks.add("gram_diagonal_scale", _max_abs(np.diag(left) - m), m * GRAM_DIAG_LIMIT)
        checks.add("triple_product", _max_abs(left @ herm - m * n * herm), m * n * TRIPLE_LIMIT)

    # fixed 2x2 instance: the dense Gram must show the scale-2 difference
    # structure entry for entry
    gen = stream_generator(seed, trials)
    mask = draw_angle(gen, 2, 2)
    dense = mask.materialize().array
    herm = mask.hermitian().materialize().array
    product = herm @ dense
    off = np.exp(1j * (mask.phi[1] - mask.phi[0]))
    expected = np.array([[2.0, 2.0 * off], [2.0 * np.conj(off), 2.0]])
    checks.add("gram_2x2_structure", _max_abs(product - expected), STRUCTURE_2X2_LIMIT)
    checks.add("gram_2x2_structure", abs(abs(product[0, 1]) - 2.0), STRUCTURE_2X2_LIMIT)
    return checks.entries()


def _suite_thm1(trials: int, seed: int) -> list[dict]:
    checks = _Checks("inverse_left_residual", "inverse_right_residual", "inverse_matches_lu_oracle",
                     "transposed_mask_inverse", "adjugate_oracle_equivalence")
    for t in range(trials):
        gen = stream_generator(seed, t)
        n = int(gen.integers(1, 33))
        matrix = draw_well_conditioned(gen, n, n)
        mask = draw_angle(gen, n, n)
        dense_mask = mask.materialize()
        masked = hadamard_product(matrix, dense_mask)
        solution = inverse_structured(matrix, mask)
        eye = np.eye(n)
        limit = INVERSE_LIMIT * n
        checks.add("inverse_left_residual", float(np.linalg.norm(solution.array @ masked.array - eye)), limit)
        checks.add("inverse_right_residual", float(np.linalg.norm(masked.array @ solution.array - eye)), limit)
        checks.add("inverse_matches_lu_oracle",
                   float(np.linalg.norm(solution.array - inverse_lu(masked).array)), limit)
        transposed_mask = hadamard_product(matrix, transpose(dense_mask))
        checks.add(
            "transposed_mask_inverse",
            float(np.linalg.norm(
                inverse_structured_transposed(matrix, mask).array
                - inverse_lu(transposed_mask).array)),
            limit,
        )

    for t in range(trials):
        gen = stream_generator(seed, trials + t)  # separate streams from the main loop
        n = int(gen.integers(1, 5))
        matrix = draw_well_conditioned(gen, n, n)
        mask = draw_angle(gen, n, n)
        checks.add(
            "adjugate_oracle_equivalence",
            _max_abs(inverse_adjugate_structured(matrix, mask).array
                     - inverse_structured(matrix, mask).array),
            ADJUGATE_LIMIT,
        )
    return checks.entries()


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
    checks = _Checks("penrose_conditions", "pinv_matches_dense_oracle", "gram_hadamard_factorization",
                     "square_degeneration", "hermitian_duality_pinv")
    for t in range(trials):
        gen = stream_generator(seed, t)
        m, n = _thm2_shape(gen, t)
        matrix = draw_well_conditioned(gen, m, n)
        mask = draw_angle(gen, m, n)
        masked = hadamard_product(matrix, mask.materialize())
        solution = pinv_structured(matrix, mask)
        solution_norm = frobenius_norm(solution)

        report = penrose_check(masked, solution)
        checks.add("penrose_conditions", report.worst(), report.tolerance)
        checks.add(
            "pinv_matches_dense_oracle",
            float(np.linalg.norm(solution.array - pinv_full_rank(masked).array)),
            PINV_LIMIT * (1.0 + solution_norm),
        )
        base_gram, scale, structured_gram = gram_hadamard_factorization(matrix, mask)
        checks.add(
            "gram_hadamard_factorization",
            _max_abs(masked.array.conj().T @ masked.array
                     - base_gram.array * structured_gram.materialize().array),
            GRAM_FACTOR_LIMIT * m * n,
        )
        if m == n:
            checks.add(
                "square_degeneration",
                _max_abs(solution.array - inverse_structured(matrix, mask).array),
                SQUARE_DEGENERATION_LIMIT,
            )
        flipped = pinv_structured(conjugate_transpose(matrix), mask.hermitian())
        checks.add(
            "hermitian_duality_pinv",
            float(np.linalg.norm(flipped.array - solution.array.conj().T)),
            PINV_LIMIT * (1.0 + solution_norm),
        )
    return checks.entries()


_SUITE_RUNNERS = {
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "lemma3": _suite_lemma3,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
}
SUITE_NAMES = tuple(_SUITE_RUNNERS)


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
