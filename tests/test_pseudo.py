"""Full-rank pseudoinverses, the Gram factorization, and the Penrose verifier."""

import numpy as np
import pytest

from phasealg import (
    AngleMatrix,
    DenseMatrix,
    SingularMatrixError,
    conjugate_transpose,
    gram_hadamard_factorization,
    hadamard_product,
    identity,
    inverse_structured,
    penrose_check,
    pinv_full_rank,
    pinv_structured,
)
from phasealg import core
from phasealg.generate import draw_angle, draw_well_conditioned, stream_generator
from test_structured import _graded


def test_pinv_identity():
    assert np.array_equal(pinv_full_rank(identity(3)).array, np.eye(3))


def test_pinv_tall_frozen_value():
    a = DenseMatrix([[1.0], [1.0]])
    assert np.allclose(pinv_full_rank(a).array, [[0.5, 0.5]], rtol=0, atol=1e-15)


def test_pinv_wide_frozen_value():
    a = DenseMatrix([[1, 0, 0], [0, 1, 0]])
    assert np.allclose(pinv_full_rank(a).array, [[1, 0], [0, 1], [0, 0]], rtol=0, atol=1e-15)


def test_pinv_rejects_rank_deficient():
    a = DenseMatrix([[1, 1], [2, 2], [3, 3]])
    with pytest.raises(SingularMatrixError) as excinfo:
        pinv_full_rank(a)
    assert excinfo.value.pivot >= 0.0


def test_pinv_satisfies_penrose_conditions():
    gen = stream_generator(101, 0)
    for m, n in [(5, 5), (9, 4), (3, 11), (16, 15), (1, 8)]:
        a = draw_well_conditioned(gen, m, n)
        report = penrose_check(a, pinv_full_rank(a))
        assert report.passed, (m, n, report)


def test_penrose_identity_case():
    report = penrose_check(identity(3), identity(3))
    assert report.passed
    assert report.r1 == report.r2 == report.r3 == report.r4 == 0.0


def test_penrose_rejects_scaled_candidate():
    gen = stream_generator(103, 0)
    a = draw_well_conditioned(gen, 5, 3)
    doubled = DenseMatrix(2.0 * pinv_full_rank(a).array)
    report = penrose_check(a, doubled)
    assert not report.passed
    assert report.r2 > report.tolerance


def test_penrose_dimension_check():
    with pytest.raises(ValueError, match="candidate"):
        penrose_check(identity(3), identity(2))


def test_gram_factorization_zero_phases():
    gen = stream_generator(107, 0)
    a = draw_well_conditioned(gen, 4, 3)
    t = AngleMatrix(theta=np.zeros(4), phi=np.zeros(3))
    base_gram, scale, structured = gram_hadamard_factorization(a, t)
    assert scale == 4
    assert np.array_equal(structured.materialize().array, np.ones((3, 3)))
    assert np.allclose(base_gram.array, a.array.conj().T @ a.array, rtol=0, atol=0)


def test_gram_factorization_hand_case():
    a = DenseMatrix([[1.0], [1.0]])
    t = AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0])
    base_gram, scale, structured = gram_hadamard_factorization(a, t)
    assert scale == 2
    assert np.allclose(base_gram.array, [[2.0]], rtol=0, atol=0)
    assert np.allclose(structured.materialize().array, [[1.0]], rtol=0, atol=0)
    masked = hadamard_product(a, t.materialize())
    assert np.allclose(masked.array.conj().T @ masked.array, [[2.0]], rtol=0, atol=1e-15)


def test_gram_factorization_random():
    gen = stream_generator(109, 0)
    a = draw_well_conditioned(gen, 6, 3)
    t = draw_angle(gen, 6, 3)
    base_gram, scale, structured = gram_hadamard_factorization(a, t)
    masked = hadamard_product(a, t.materialize())
    left = masked.array.conj().T @ masked.array
    right = base_gram.array * structured.materialize().array
    assert np.abs(left - right).max() <= 1e-12
    # the structured factor is the dense angle Gram divided by its scale
    dense_gram = t.hermitian().materialize().array @ t.materialize().array
    assert np.abs(dense_gram / scale - structured.materialize().array).max() <= 1e-14


def test_pinv_structured_square_reduces_to_inverse():
    gen = stream_generator(113, 0)
    a = draw_well_conditioned(gen, 5, 5)
    t = draw_angle(gen, 5, 5)
    deviation = np.abs(pinv_structured(a, t).array - inverse_structured(a, t).array).max()
    assert deviation <= 1e-10


def test_pinv_structured_worked_instance():
    a = DenseMatrix([[1.0], [1.0]])
    t = AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0])
    masked = hadamard_product(a, t.materialize())
    assert np.allclose(masked.array, [[1], [1j]], rtol=0, atol=1e-15)
    x = pinv_structured(a, t)
    assert np.allclose(x.array, [[0.5, -0.5j]], rtol=0, atol=1e-15)
    # direct normal-equations route on the masked matrix
    direct = np.linalg.inv(masked.array.conj().T @ masked.array) @ masked.array.conj().T
    assert np.abs(x.array - direct).max() <= 1e-15


def test_pinv_structured_penrose_and_oracle():
    gen = stream_generator(127, 0)
    for m, n in [(8, 5), (5, 8)]:
        a = draw_well_conditioned(gen, m, n)
        t = draw_angle(gen, m, n)
        masked = hadamard_product(a, t.materialize())
        x = pinv_structured(a, t)
        assert penrose_check(masked, x).passed
        reference = pinv_full_rank(masked)
        norm = np.linalg.norm(reference.array)
        assert np.linalg.norm(x.array - reference.array) <= 1e-8 * (1 + norm)


@pytest.mark.parametrize("shape", [(12, 8), (8, 12)])
@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
def test_pinv_structured_at_extreme_scales(shape, scale):
    # the Gram system squares the scale: unless the base is prescaled, A^H A
    # overflows at 1e160 and underflows to a singular matrix at 1e-160
    b = draw_well_conditioned(stream_generator(3, 0), *shape).array
    t = draw_angle(stream_generator(3, 1), *shape)
    expected = np.linalg.pinv(b) / scale * t.hermitian().materialize().array
    x = pinv_structured(DenseMatrix(scale * b), t).array
    assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("exponent", [-499, 499])
def test_checked_pinv_of_a_graded_tall_base_near_float64_edges(exponent):
    # The Gram system squares the condition, 3e4, to 9e8: at a largest part
    # near 2^-499 its inverse, about 2^998 * 9e8, leaves float64 unless the
    # base is prescaled. A power-of-two scale changes no bit of the result.
    g = _graded(0, 20, 3e4).array
    a = np.vstack([g, np.zeros_like(g)])
    a *= 2.0 ** -np.frexp(core._largest_part(a))[1]
    expected = core.checked_pinv(a) * 2.0 ** -exponent
    assert np.array_equal(core.checked_pinv(a * 2.0 ** exponent), expected)


def test_pinv_structured_duality():
    gen = stream_generator(131, 0)
    a = draw_well_conditioned(gen, 7, 4)
    t = draw_angle(gen, 7, 4)
    x = pinv_structured(a, t)
    flipped = pinv_structured(conjugate_transpose(a), t.hermitian())
    assert np.linalg.norm(flipped.array - x.array.conj().T) <= 1e-8 * (1 + np.linalg.norm(x.array))


def test_pinv_structured_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        pinv_structured(identity(2), AngleMatrix(theta=np.zeros(3), phi=np.zeros(2)))
    with pytest.raises(ValueError, match="mismatch"):
        gram_hadamard_factorization(identity(2), AngleMatrix(theta=np.zeros(3), phi=np.zeros(2)))
