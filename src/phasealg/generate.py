"""Seeded, reproducible random instances for tests, verification, and benchmarks.

All randomness flows through NumPy's Philox 4x64 counter-based generator,
keyed by (seed, stream). A (seed, stream) pair fully determines the draw, so
trial k of a suite or update k of a benchmark can be regenerated in isolation
without storing any stream state. Seeds are 64-bit unsigned integers.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOLERANCES, DenseMatrix, SingularMatrixError, checked_pinv, frobenius_norm
from .angle import AngleMatrix

__all__ = [
    "MAX_SEED",
    "stream_generator",
    "draw_dense",
    "draw_angle",
    "condition_proxy",
    "draw_well_conditioned",
]

MAX_SEED = 2**64 - 1
MAX_DRAW_ATTEMPTS = 128


def _validate_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not (0 <= int(seed) <= MAX_SEED):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); independent across streams."""
    key = np.array([_validate_seed(seed), _validate_seed(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_dense(gen: np.random.Generator, rows: int, cols: int) -> DenseMatrix:
    """Complex matrix with i.i.d. standard-normal real and imaginary parts."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {(rows, cols)}")
    return DenseMatrix._wrap(gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols)))


def draw_angle(gen: np.random.Generator, rows: int, cols: int) -> AngleMatrix:
    """Angle matrix with phases uniform on [0, 2*pi)."""
    return AngleMatrix(
        theta=gen.uniform(0.0, 2.0 * np.pi, rows),
        phi=gen.uniform(0.0, 2.0 * np.pi, cols),
    )


def condition_proxy(a: DenseMatrix) -> float:
    """||A||_F * ||A^+||_F (plain inverse when square); inf for input the
    production route rejects as singular.

    A cheap upper-bound stand-in for the spectral condition number, used only
    to filter generated test instances. It runs on the production route
    (core.checked_pinv, one LAPACK factorization), never on the hand-LU
    oracles that the filtered instances are later checked against.
    """
    try:
        inv_norm = float(np.linalg.norm(checked_pinv(a.array)))
    except SingularMatrixError:
        return float("inf")
    return frobenius_norm(a) * inv_norm


def draw_well_conditioned(gen: np.random.Generator, rows: int, cols: int) -> DenseMatrix:
    """Standard-normal complex matrix, redrawn until the condition proxy is
    within condition_cap. Redraws continue the same stream, so the result
    is still a pure function of the generator state."""
    cap = DEFAULT_TOLERANCES.condition_cap
    for _ in range(MAX_DRAW_ATTEMPTS):
        candidate = draw_dense(gen, rows, cols)
        if condition_proxy(candidate) <= cap:
            return candidate
    raise RuntimeError(
        f"no {rows}x{cols} instance within condition cap {cap:g} after {MAX_DRAW_ATTEMPTS} draws"
    )
