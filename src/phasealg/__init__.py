"""phasealg: structured linear algebra for phase-masked complex matrices.

A rank-one mask of unit-modulus entries rotates a matrix entry by entry
without disturbing its algebra: the masked determinant is the base
determinant times a unit rotation, and the masked inverse or pseudoinverse
is the base one under the conjugate-transposed mask. This package implements
those closed forms, the naive LU/Gram oracles that verify them, and a
benchmark engine that reuses one factorization across a stream of masks.
"""

from .angle import (
    AngleMatrix,
    gram,
    hadamard_inverse_transpose,
    triple_product_check,
)
from .core import (
    DEFAULT_TOLERANCES,
    DenseMatrix,
    DeterminantRangeError,
    LUFactorization,
    SingularMatrixError,
    ToleranceConfig,
    conjugate_transpose,
    det_lu,
    frobenius_norm,
    hadamard_inverse,
    hadamard_product,
    identity,
    inverse_lu,
    lu_factorization_count,
    lu_factorize,
    transpose,
)
from .engine import (
    BenchRecord,
    PrecomputedBase,
    apply_update,
    naive_update,
    precompute,
    run_benchmark,
)
from .generate import (
    condition_proxy,
    draw_angle,
    draw_dense,
    draw_well_conditioned,
    stream_generator,
)
from .matio import MatrixFormatError, read_matrix, write_matrix
from .pseudo import (
    PenroseReport,
    gram_hadamard_factorization,
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
