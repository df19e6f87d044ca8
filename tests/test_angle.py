"""Angle matrices: materialization, conjugate-transpose duality, Gram structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasealg import (
    AngleMatrix,
    gram,
    hadamard_inverse_transpose,
)
from phasealg.generate import draw_angle, stream_generator

ENTRY_EPS = 1e-12


def test_angle_vector_validation_and_unit():
    t = AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0])
    assert t.shape == (2, 1)
    assert np.allclose(t.materialize().array, [[1], [1j]], rtol=0, atol=1e-16)
    large = AngleMatrix(theta=[0.3, -7.7, 100.0], phi=[0.0])
    assert np.abs(np.abs(large.materialize().array) - 1.0).max() <= ENTRY_EPS
    with pytest.raises(ValueError, match="at least one"):
        AngleMatrix(theta=[], phi=[0.0])
    with pytest.raises(ValueError, match="non-finite"):
        AngleMatrix(theta=[0.0], phi=[np.inf])
    with pytest.raises(ValueError, match="1-D"):
        AngleMatrix(theta=[[0.0, 1.0]], phi=[0.0])


def test_angle_matrix_from_vectors():
    assert np.allclose(
        AngleMatrix(theta=[0.0], phi=[0.0]).materialize().array,
        [[1.0]], rtol=0, atol=0)
    assert np.allclose(
        AngleMatrix(theta=[0.0, np.pi], phi=[0.0]).materialize().array,
        [[1], [-1]], rtol=0, atol=1e-15)
    quarter = AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0, np.pi / 2])
    assert np.allclose(quarter.materialize().array, [[1, 1j], [1j, -1]], rtol=0, atol=1e-15)


def test_materialize_frozen_values():
    assert np.allclose(
        AngleMatrix(theta=[np.pi], phi=[0.0, np.pi]).materialize().array,
        [[-1, 1]], rtol=0, atol=1e-15)
    assert np.allclose(
        AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0, np.pi]).materialize().array,
        [[1, -1], [1j, -1j]], rtol=0, atol=1e-15)
    assert np.array_equal(
        AngleMatrix(theta=np.zeros(3), phi=np.zeros(2)).materialize().array,
        np.ones((3, 2)))


def test_unit_modulus_invariant():
    gen = stream_generator(31, 0)
    for _ in range(20):
        t = draw_angle(gen, int(gen.integers(1, 9)), int(gen.integers(1, 9)))
        assert np.abs(np.abs(t.materialize().array) - 1.0).max() <= ENTRY_EPS


def test_rank_one_minors_vanish():
    gen = stream_generator(37, 0)
    for _ in range(20):
        m, n = int(gen.integers(2, 9)), int(gen.integers(2, 9))
        z = draw_angle(gen, m, n).materialize().array
        outer = z[:, None, :, None] * z[None, :, None, :]
        assert np.abs(outer - outer.transpose(0, 1, 3, 2)).max() <= 1e-13


def test_hermitian_phase_swap():
    t = AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0])
    h = t.hermitian()
    assert h.shape == (1, 2)
    assert np.array_equal(h.theta, [0.0])
    assert np.array_equal(h.phi, [0.0, -np.pi / 2])
    assert np.allclose(h.materialize().array, [[1, -1j]], rtol=0, atol=1e-16)


def test_hermitian_matches_conjugate_transpose():
    gen = stream_generator(41, 0)
    for _ in range(20):
        t = draw_angle(gen, int(gen.integers(1, 9)), int(gen.integers(1, 9)))
        herm = t.hermitian().materialize().array
        assert np.abs(herm - t.materialize().array.conj().T).max() <= 1e-15


def test_hermitian_involution():
    t = AngleMatrix(theta=[0.3, -1.2, 7.0], phi=[0.1, 2.2])
    back = t.hermitian().hermitian()
    assert np.array_equal(back.materialize().array, t.materialize().array)


def test_hermitian_of_zero_phases_is_real_symmetric():
    t = AngleMatrix(theta=np.zeros(2), phi=np.zeros(2))
    assert np.array_equal(t.hermitian().materialize().array, np.ones((2, 2)))


def test_derived_angle_matrices_skip_the_checks_but_stay_read_only():
    # hermitian, gram and the transposed mask build on AngleMatrix._wrap:
    # the same phases as the checked constructor, and every array read-only
    t = AngleMatrix(theta=[0.3, -1.2, 7.0], phi=[0.1, 2.2])
    derived = {
        "hermitian": (t.hermitian(), -t.phi, -t.theta),
        "gram-left": (gram(t, "left")[1], -t.phi, t.phi),
        "gram-right": (gram(t, "right")[1], t.theta, -t.theta),
        "transposed": (AngleMatrix._wrap(t.phi, t.theta), t.phi, t.theta),
    }
    for name, (d, theta, phi) in derived.items():
        checked = AngleMatrix(theta=theta, phi=phi)
        assert np.array_equal(d.theta, checked.theta) and np.array_equal(d.phi, checked.phi), name
        assert not d.theta.flags.writeable and not d.phi.flags.writeable, name
        assert d.theta.dtype == d.phi.dtype == np.float64, name


def test_hadamard_inverse_transpose_cases():
    zero = AngleMatrix(theta=np.zeros(2), phi=np.zeros(3))
    assert np.allclose(hadamard_inverse_transpose(zero).array, np.ones((3, 2)), rtol=0, atol=1e-16)
    t = AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0])
    assert np.allclose(hadamard_inverse_transpose(t).array, [[1, -1j]], rtol=0, atol=1e-15)


def test_hadamard_inverse_transpose_equals_hermitian():
    gen = stream_generator(43, 0)
    for _ in range(30):
        t = draw_angle(gen, int(gen.integers(1, 9)), int(gen.integers(1, 9)))
        deviation = np.abs(hadamard_inverse_transpose(t).array
                           - t.hermitian().materialize().array).max()
        assert deviation <= 1e-14


def test_gram_two_by_two_structure():
    t = AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0, np.pi])
    scale, g = gram(t, "left")
    assert scale == 2
    assert np.allclose(g.materialize().array, [[1, -1], [-1, 1]], rtol=0, atol=1e-15)
    product = t.hermitian().materialize().array @ t.materialize().array
    assert np.allclose(product, [[2, -2], [-2, 2]], rtol=0, atol=1e-14)


def test_gram_of_zero_phases():
    t = AngleMatrix(theta=np.zeros(3), phi=np.zeros(2))
    scale, g = gram(t, "left")
    assert scale == 3
    assert np.array_equal(g.materialize().array, np.ones((2, 2)))


def test_gram_right_matches_dense_product():
    gen = stream_generator(47, 0)
    t = draw_angle(gen, 5, 3)
    scale, g = gram(t, "right")
    assert scale == 3
    dense = t.materialize().array
    herm = t.hermitian().materialize().array
    assert np.abs(dense @ herm - scale * g.materialize().array).max() <= 1e-13


def test_gram_rejects_unknown_side():
    with pytest.raises(ValueError, match="side"):
        gram(AngleMatrix(theta=[0.0], phi=[0.0]), "up")


def test_gram_diagonal_scale_exact():
    gen = stream_generator(53, 0)
    for m, n in [(2, 2), (8, 5), (64, 64), (33, 64)]:
        t = draw_angle(gen, m, n)
        product = t.hermitian().materialize().array @ t.materialize().array
        assert np.abs(np.diag(product) - m).max() <= m * 1e-15


def _triple_product_error(t: AngleMatrix) -> float:
    """Largest entry of hermitian(t) @ t @ hermitian(t) - rows*cols*hermitian(t)."""
    m, n = t.shape
    herm = t.hermitian().materialize().array
    return float(np.abs(herm @ t.materialize().array @ herm - m * n * herm).max())


def test_triple_product_small_cases():
    assert _triple_product_error(AngleMatrix(theta=[0.0], phi=[0.0])) == 0.0
    assert _triple_product_error(AngleMatrix(theta=[1.3, -0.2], phi=[0.4, 2.2])) <= 4 * ENTRY_EPS


def test_triple_product_random_shapes():
    gen = stream_generator(59, 0)
    assert _triple_product_error(draw_angle(gen, 7, 4)) <= 7 * 4 * ENTRY_EPS
    for _ in range(10):
        m, n = int(gen.integers(1, 65)), int(gen.integers(1, 65))
        assert _triple_product_error(draw_angle(gen, m, n)) <= m * n * 1e-13


def test_phase_sum():
    assert AngleMatrix(theta=np.zeros(3), phi=np.zeros(3)).phase_sum() == 0.0
    assert AngleMatrix(theta=[np.pi / 2, 0.0], phi=[0.0, np.pi / 2]).phase_sum() == pytest.approx(np.pi)
    assert AngleMatrix(theta=[1.0, 2.0], phi=[-3.0, 0.5]).phase_sum() == pytest.approx(0.5)
    with pytest.raises(ValueError, match="square"):
        AngleMatrix(theta=[0.0], phi=[0.0, 1.0]).phase_sum()


bounded_phases = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=6
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(theta=bounded_phases, phi=bounded_phases)
def test_duality_and_involution_hold_for_arbitrary_phases(theta, phi):
    t = AngleMatrix(theta=theta, phi=phi)
    herm = t.hermitian().materialize().array
    assert np.abs(hadamard_inverse_transpose(t).array - herm).max() <= 1e-14
    assert np.array_equal(t.hermitian().hermitian().materialize().array,
                          t.materialize().array)
