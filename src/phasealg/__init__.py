"""phasealg: structured linear algebra for phase-masked complex matrices.

A rank-one mask of unit-modulus entries rotates a matrix entry by entry
without disturbing its algebra: the masked determinant is the base
determinant times a unit rotation, and the masked inverse or pseudoinverse
is the base one under the conjugate-transposed mask. This package implements
those closed forms, the executable statements of the paper's lemmas, the
naive LU/Gram oracles that verify them, an engine that reuses one checked
factorization across a stream of masks, and a benchmark that times it
against per-mask refactorization.
"""

from .angle import AngleMatrix
from .bench import BenchRecord, naive_update, run_benchmark
from .core import (
    CONDITION_CAP,
    ENTRY_EPS,
    RANK_EPS,
    RESIDUAL_EPS,
    DenseMatrix,
    DeterminantRangeError,
    LUFactorization,
    SingularMatrixError,
    det_lu,
    frobenius_norm,
    hadamard_product,
    inverse_lu,
    lu_factorization_count,
    lu_factorize,
)
from .engine import PrecomputedBase, apply_update, precompute
from .generate import (
    condition_proxy,
    draw_angle,
    draw_dense,
    draw_well_conditioned,
    stream_generator,
)
from .lemmas import (
    conjugate_transpose,
    gram,
    gram_hadamard_factorization,
    hadamard_inverse,
    hadamard_inverse_transpose,
    identity,
    transpose,
)
from .matio import MatrixFormatError, read_matrix, write_matrix
from .pseudo import (
    PenroseReport,
    penrose_check,
    pinv_full_rank,
    pinv_structured,
)
from .structured import (
    adjugate,
    cofactor,
    det_structured,
    inverse_adjugate_structured,
    inverse_structured,
    inverse_structured_transposed,
)
from .verify import SUITE_NAMES, run_suite, run_suites

__version__ = "0.1.0"
