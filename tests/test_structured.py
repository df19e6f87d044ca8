"""Structured determinant/inverse closed forms and the cofactor oracle."""

import importlib

import numpy as np
import pytest

from phasealg import (
    ENTRY_EPS,
    AngleMatrix,
    DenseMatrix,
    DeterminantRangeError,
    SingularMatrixError,
    adjugate,
    apply_update,
    cofactor,
    condition_proxy,
    det_lu,
    det_structured,
    hadamard_product,
    identity,
    inverse_adjugate_structured,
    inverse_lu,
    inverse_structured,
    inverse_structured_transposed,
    lu_factorization_count,
    pinv_structured,
    precompute,
    transpose,
)
from phasealg.core import slogdet
from phasealg.generate import draw_angle, draw_dense, draw_well_conditioned, stream_generator
from phasealg.verify import ADJUGATE_LIMIT


def test_det_identity_matrix_zero_phases():
    t = AngleMatrix(theta=np.zeros(3), phi=np.zeros(3))
    assert det_structured(identity(3), t) == pytest.approx(1.0)


def test_det_diagonal_frozen_value():
    a = DenseMatrix([[2, 0], [0, 3]])
    t = AngleMatrix(theta=[np.pi / 2, 0.0], phi=[0.0, np.pi / 2])
    # brute force on the masked matrix: [[2j, 0], [0, 3j]] has determinant -6
    assert det_structured(a, t) == pytest.approx(-6.0, abs=1e-14)


def test_det_two_by_two_matches_dense_oracle():
    gen = stream_generator(61, 0)
    for _ in range(20):
        a = draw_well_conditioned(gen, 2, 2)
        t = draw_angle(gen, 2, 2)
        masked_det = det_lu(hadamard_product(a, t.materialize()))
        assert abs(det_structured(a, t) - masked_det) <= 1e-12 * (1 + abs(masked_det))


def test_det_random_sizes_match_dense_oracle():
    for trial in range(50):
        gen = stream_generator(67, trial)
        n = int(gen.integers(1, 17))
        a = draw_well_conditioned(gen, n, n)
        t = draw_angle(gen, n, n)
        masked_det = det_lu(hadamard_product(a, t.materialize()))
        base_det = det_lu(a)
        assert abs(det_structured(a, t) - masked_det) <= 1e-10 * (1 + abs(base_det))


def test_det_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        det_structured(identity(2), AngleMatrix(theta=np.zeros(3), phi=np.zeros(3)))
    with pytest.raises(ValueError, match="square"):
        det_structured(DenseMatrix(np.ones((2, 3))), AngleMatrix(theta=np.zeros(2), phi=np.zeros(3)))


def test_inverse_identity_base():
    t = AngleMatrix(theta=[0.4, -1.1], phi=[2.0, 0.3])
    x = inverse_structured(identity(2), t)
    expected = np.diag([np.exp(-1j * (0.4 + 2.0)), np.exp(-1j * (-1.1 + 0.3))])
    assert np.allclose(x.array, expected, rtol=0, atol=1e-15)


def test_inverse_worked_two_by_two():
    a = DenseMatrix([[1, 1], [0, 1]])
    t = AngleMatrix(theta=[0.0, np.pi], phi=[0.0, np.pi / 2])
    masked = hadamard_product(a, t.materialize())
    assert np.allclose(masked.array, [[1, 1j], [0, -1j]], rtol=0, atol=1e-15)
    x = inverse_structured(a, t)
    assert np.allclose(x.array, [[1, 1], [0, 1j]], rtol=0, atol=1e-15)


def test_inverse_random_residuals():
    gen = stream_generator(71, 0)
    a = draw_well_conditioned(gen, 8, 8)
    t = draw_angle(gen, 8, 8)
    x = inverse_structured(a, t)
    masked = hadamard_product(a, t.materialize())
    assert np.linalg.norm(x.array @ masked.array - np.eye(8)) <= 1e-8


def _raise_oracle_reached(*args, **kwargs):
    raise AssertionError("production path reached an oracle")


def test_inverse_factors_base_exactly_once(monkeypatch):
    gen = stream_generator(73, 0)
    square = draw_well_conditioned(gen, 6, 6)
    square_mask = draw_angle(gen, 6, 6)
    tall = draw_well_conditioned(gen, 9, 5)
    tall_mask = draw_angle(gen, 9, 5)
    wide = draw_well_conditioned(gen, 5, 9)
    wide_mask = draw_angle(gen, 5, 9)
    base = precompute(tall)
    paths = {  # name -> (call, factorizations it makes)
        "inverse_structured": (lambda: inverse_structured(square, square_mask), 1),
        "det_structured": (lambda: det_structured(square, square_mask), 1),
        "inverse_structured_transposed": (lambda: inverse_structured_transposed(square, square_mask), 1),
        "pinv_structured tall": (lambda: pinv_structured(tall, tall_mask), 1),
        "pinv_structured wide": (lambda: pinv_structured(wide, wide_mask), 1),
        "precompute": (lambda: precompute(tall), 1),
        "condition_proxy square": (lambda: condition_proxy(square), 1),
        "condition_proxy tall": (lambda: condition_proxy(tall), 1),
        "condition_proxy wide": (lambda: condition_proxy(wide), 1),
        "apply_update": (lambda: apply_update(base, tall_mask), 0),
    }
    for name, (path, factorizations) in paths.items():
        before = lu_factorization_count()
        path()
        assert lu_factorization_count() == before + factorizations, name

    # every module that looks an oracle up by name, so no route can reach one
    for name in ("phasealg", "phasealg.core", "phasealg.structured", "phasealg.pseudo",
                 "phasealg.engine", "phasealg.generate", "phasealg.verify", "phasealg.cli"):
        module = importlib.import_module(name)
        for oracle in ("lu_factorize", "hadamard_product", "inverse_lu", "pinv_full_rank", "adjugate"):
            if hasattr(module, oracle):
                monkeypatch.setattr(module, oracle, _raise_oracle_reached)
    monkeypatch.setattr(AngleMatrix, "materialize", _raise_oracle_reached)
    for name, (path, _) in paths.items():
        path()


def test_inverse_rejects_singular():
    t = AngleMatrix(theta=np.zeros(2), phi=np.zeros(2))
    with pytest.raises(SingularMatrixError):
        inverse_structured(DenseMatrix([[1, 2], [2, 4]]), t)


def test_transposed_mask_with_zero_phases_is_plain_inverse():
    gen = stream_generator(79, 0)
    a = draw_well_conditioned(gen, 4, 4)
    t = AngleMatrix(theta=np.zeros(4), phi=np.zeros(4))
    assert np.allclose(inverse_structured_transposed(a, t).array, np.linalg.inv(a.array), rtol=0, atol=0)


def _graded(seed: int, n: int, condition: float) -> DenseMatrix:
    """Square matrix with singular values spaced evenly in log from 1 down to
    1 / condition, between random unitary factors."""
    gen = stream_generator(seed, 0)
    u, _ = np.linalg.qr(draw_dense(gen, n, n).array)
    v, _ = np.linalg.qr(draw_dense(gen, n, n).array)
    return DenseMatrix((u * np.logspace(0, -np.log10(condition), n)) @ v.conj().T)


def test_production_and_oracle_agree_on_singularity():
    for seed in range(3):
        for n in (4, 8, 16, 24):
            t = draw_angle(stream_generator(seed, 1), n, n)
            conditioned = _graded(seed, n, 1e6)
            inverse_structured(conditioned, t)
            inverse_lu(conditioned)
            near_singular = _graded(seed, n, 1e14)
            with pytest.raises(SingularMatrixError):
                inverse_structured(near_singular, t)
            with pytest.raises(SingularMatrixError):
                inverse_lu(near_singular)

    base = draw_dense(stream_generator(101, 0), 8, 7).array
    deficient = DenseMatrix(np.hstack([base, base[:, :1] + base[:, 1:2]]))
    t = draw_angle(stream_generator(101, 1), 8, 8)
    with pytest.raises(SingularMatrixError, match="singular"):
        inverse_structured(deficient, t)
    with pytest.raises(SingularMatrixError, match="singular"):
        inverse_lu(deficient)


def _assert_scaled_inverse(x: np.ndarray, expected: np.ndarray):
    assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("scale", [1e155, 1e-155, 1e300, 1e-300, 6e-309])
def test_scaled_identity_is_not_singular_on_either_route(scale):
    # ||A||_F or ||A^-1||_F leaves float64 when its squares are summed naively;
    # at 6e-309, ||A^-1||_F itself does
    t = draw_angle(stream_generator(7, 1), 3, 3)
    a = DenseMatrix(scale * np.eye(3))
    _assert_scaled_inverse(inverse_structured(a, t).array, np.eye(3) / scale * t.hermitian().materialize().array)
    _assert_scaled_inverse(inverse_lu(a).array, np.eye(3) / scale)


@pytest.mark.parametrize("scale", [1e155, 1e-155])
def test_scaled_identity_pseudoinverse_and_update(scale):
    t = draw_angle(stream_generator(7, 1), 3, 3)
    a = DenseMatrix(scale * np.eye(3))
    expected = np.eye(3) / scale * t.hermitian().materialize().array
    _assert_scaled_inverse(pinv_structured(a, t).array, expected)
    _assert_scaled_inverse(apply_update(precompute(a), t).array, expected)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_graded_condition_is_rejected_at_every_scale(scale):
    t = draw_angle(stream_generator(0, 1), 8, 8)
    near_singular = DenseMatrix(scale * _graded(0, 8, 1e14).array)
    with pytest.raises(SingularMatrixError):
        inverse_structured(near_singular, t)
    with pytest.raises(SingularMatrixError):
        inverse_lu(near_singular)


def test_det_outside_float_range_raises():
    a = draw_dense(stream_generator(5, 0), 272, 272)
    t = draw_angle(stream_generator(5, 1), 272, 272)
    with pytest.raises(DeterminantRangeError) as excinfo:
        det_structured(a, t)
    assert excinfo.value.log_abs == pytest.approx(np.linalg.slogdet(a.array)[1])


def test_det_beyond_float64_max_reports_its_log_without_a_warning():
    # |det| = 2e616, so log|det| = ln 2 + 616 ln 10 = 1419.09; LU growth
    # inside LAPACK's slogdet overflows unless the base is prescaled
    a = DenseMatrix(1e308 * np.array([[1, 1], [-1, 1]]))
    with pytest.raises(DeterminantRangeError) as excinfo:
        det_structured(a, AngleMatrix(theta=[0.3, 1.2], phi=[-0.4, 2.0]))
    assert excinfo.value.log_abs == pytest.approx(np.log(2.0) + 2 * np.log(1e308), rel=1e-15)


@pytest.mark.parametrize("rows, det", [
    ([[2.0 ** 601, 0.0], [0.0, 2.0 ** -600]], 2.0),
    ([[2.0 ** 601, 1.0], [1.0, 2.0 ** -600]], 1.0),
], ids=["diagonal", "full"])
def test_det_of_a_badly_row_scaled_base(rows, det):
    # the largest part, 2^601, lies outside the prescale band; one exponent
    # for the whole base would flush 2^-600 to zero and call it singular
    a = DenseMatrix(rows)
    sign, log_abs = slogdet(a.array)
    assert sign == 1 and log_abs == pytest.approx(np.log(det), abs=1e-15)
    assert det_structured(a, AngleMatrix(theta=[0.0, 0.0], phi=[0.0, 0.0])) == pytest.approx(det, rel=1e-15)


def test_det_near_float_limit_matches_slogdet():
    a = draw_dense(stream_generator(5, 0), 268, 268)
    t = draw_angle(stream_generator(5, 1), 268, 268)
    det = det_structured(a, t)
    assert np.isfinite(det.real) and np.isfinite(det.imag)
    sign, log_abs = np.linalg.slogdet(hadamard_product(a, t.materialize()).array)
    assert np.log(abs(det)) == pytest.approx(log_abs, rel=1e-12)
    assert abs(det / abs(det) - sign) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_det_with_overflowing_phase_sum_stays_finite():
    one = DenseMatrix([[2.0]])
    huge = AngleMatrix(theta=[1e308], phi=[1e308])
    det = det_structured(one, huge)
    assert np.isfinite(det.real) and np.isfinite(det.imag)
    assert abs(det) == pytest.approx(2.0, rel=1e-15)
    assert abs(det * inverse_structured(one, huge).array[0, 0] - 1) <= 1e-15
    a = draw_well_conditioned(stream_generator(89, 0), 3, 3)
    t = AngleMatrix(theta=[1e308, 1e308, 0.5], phi=[1e308, -2.0, 1e308])
    det = det_structured(a, t)
    assert np.isfinite(det.real) and np.isfinite(det.imag)
    assert abs(det) == pytest.approx(abs(np.linalg.det(a.array)), rel=1e-13)
    for base, mask in ((one, huge), (a, t)):
        dense = mask.materialize().array
        assert np.isfinite(dense).all()
        assert np.abs(np.abs(dense) - 1.0).max() <= ENTRY_EPS
        oracle = inverse_adjugate_structured(base, mask).array
        assert np.abs(oracle - inverse_structured(base, mask).array).max() <= ADJUGATE_LIMIT


def test_det_of_exactly_singular_base_is_zero():
    t = AngleMatrix(theta=[0.3, 1.2], phi=[-0.4, 2.0])
    assert det_structured(DenseMatrix([[1, 2], [2, 4]]), t) == 0


def test_transposed_mask_identity_base_frozen():
    t = AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0, 0.0])
    x = inverse_structured_transposed(identity(2), t)
    assert np.allclose(x.array, np.diag([1, -1j]), rtol=0, atol=1e-15)


def test_transposed_mask_matches_lu_oracle():
    gen = stream_generator(83, 0)
    a = draw_well_conditioned(gen, 6, 6)
    t = draw_angle(gen, 6, 6)
    x = inverse_structured_transposed(a, t)
    reference = inverse_lu(hadamard_product(a, transpose(t.materialize())))
    assert np.linalg.norm(x.array - reference.array) <= 1e-8 * 6


def test_cofactor_identity_and_grid():
    assert cofactor(identity(2), 1, 1) == pytest.approx(1.0)
    a = DenseMatrix([[1, 2], [3, 4]])
    adj = adjugate(a)
    assert np.allclose(adj.array, [[4, -2], [-3, 1]], rtol=0, atol=0)
    det = det_lu(a)
    assert det == pytest.approx(-2.0)
    assert np.allclose(adj.array / det, inverse_lu(a).array, rtol=0, atol=1e-14)


def test_cofactor_bounds_and_one_by_one():
    a = DenseMatrix([[5.0]])
    assert cofactor(a, 0, 0) == 1.0
    with pytest.raises(ValueError, match="out of range"):
        cofactor(identity(2), 2, 0)
    with pytest.raises(ValueError, match="cofactor requires a square matrix"):
        cofactor(DenseMatrix(np.ones((2, 3))), 0, 0)


def test_cofactor_is_bitwise_the_delete_construction():
    # the minor as two np.delete calls built it, wrapped with a copy; the
    # cofactor must not change by one bit
    for n in range(2, 7):
        a = draw_dense(stream_generator(83, n), n, n)
        for i in range(n):
            for j in range(n):
                minor = DenseMatrix(np.delete(np.delete(a.array, j, axis=0), i, axis=1))
                expected = complex((-1.0 if (i + j) % 2 else 1.0) * det_lu(minor))
                got = cofactor(a, i, j)
                assert np.array([got]).view(np.uint64).tolist() == np.array([expected]).view(np.uint64).tolist(), (n, i, j)


def test_adjugate_over_det_matches_lu_inverse():
    gen = stream_generator(89, 0)
    a = draw_well_conditioned(gen, 4, 4)
    reference = inverse_lu(a)
    assert np.abs(adjugate(a).array / det_lu(a) - reference.array).max() <= 1e-10


def test_adjugate_oracle_one_by_one():
    a = DenseMatrix([[2j]])
    t = AngleMatrix(theta=[0.7], phi=[-0.2])
    x = inverse_adjugate_structured(a, t)
    expected = (1 / 2j) * np.exp(-1j * 0.5)
    assert np.allclose(x.array, [[expected]], rtol=0, atol=1e-16)


def test_adjugate_oracle_reproduces_worked_instance():
    a = DenseMatrix([[1, 1], [0, 1]])
    t = AngleMatrix(theta=[0.0, np.pi], phi=[0.0, np.pi / 2])
    x = inverse_adjugate_structured(a, t)
    assert np.allclose(x.array, [[1, 1], [0, 1j]], rtol=0, atol=1e-15)


def test_adjugate_oracle_agrees_with_structured_inverse():
    for trial in range(20):
        gen = stream_generator(97, trial)
        n = int(gen.integers(1, 5))
        a = draw_well_conditioned(gen, n, n)
        t = draw_angle(gen, n, n)
        deviation = np.abs(inverse_adjugate_structured(a, t).array
                           - inverse_structured(a, t).array).max()
        assert deviation <= 1e-10


def test_adjugate_oracle_cap_and_singularity():
    t = AngleMatrix(theta=np.zeros(7), phi=np.zeros(7))
    with pytest.raises(ValueError, match="capped"):
        inverse_adjugate_structured(identity(7), t)
    t2 = AngleMatrix(theta=np.zeros(2), phi=np.zeros(2))
    with pytest.raises(SingularMatrixError):
        inverse_adjugate_structured(DenseMatrix([[1, 1], [1, 1]]), t2)
