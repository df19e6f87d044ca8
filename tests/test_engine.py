"""Phase-update engine: precompute once, mask per update, benchmark both paths."""

import numpy as np
import pytest

from phasealg import (
    AngleMatrix,
    DenseMatrix,
    SingularMatrixError,
    apply_update,
    hadamard_product,
    identity,
    inverse_lu,
    lu_factorization_count,
    naive_update,
    penrose_check,
    precompute,
    run_benchmark,
)
from phasealg.engine import _update_angles
from phasealg.generate import draw_angle, draw_well_conditioned, stream_generator


def test_precompute_identity():
    base = precompute(identity(4))
    assert np.array_equal(base.base_pinv.array, np.eye(4))
    assert base.shape == (4, 4)


def test_precompute_tall_hand_case():
    base = precompute(DenseMatrix([[1.0], [1.0]]))
    assert np.allclose(base.base_pinv.array, [[0.5, 0.5]], rtol=0, atol=1e-15)


def test_precompute_random_passes_penrose_at_construction():
    gen = stream_generator(137, 0)
    a = draw_well_conditioned(gen, 64, 64)
    base = precompute(a)
    assert base.shape == (64, 64)
    assert penrose_check(a, base.base_pinv).passed


def test_precompute_rejects_rank_deficient():
    with pytest.raises(SingularMatrixError):
        precompute(DenseMatrix([[1, 1], [2, 2], [3, 3]]))


def test_apply_update_zero_phases_returns_base():
    gen = stream_generator(139, 0)
    a = draw_well_conditioned(gen, 5, 5)
    base = precompute(a)
    t = AngleMatrix(theta=np.zeros(5), phi=np.zeros(5))
    assert np.allclose(apply_update(base, t).array, base.base_pinv.array, rtol=0, atol=0)


def test_apply_update_worked_instance():
    base = precompute(DenseMatrix([[1, 1], [0, 1]]))
    t = AngleMatrix(theta=[0.0, np.pi], phi=[0.0, np.pi / 2])
    assert np.allclose(apply_update(base, t).array, [[1, 1], [0, 1j]], rtol=0, atol=1e-15)


def test_apply_update_performs_no_factorization():
    gen = stream_generator(149, 0)
    base = precompute(draw_well_conditioned(gen, 8, 8))
    t = draw_angle(gen, 8, 8)
    before = lu_factorization_count()
    apply_update(base, t)
    assert lu_factorization_count() == before


def test_apply_update_output_is_read_only_and_base_unchanged():
    gen = stream_generator(163, 0)
    base = precompute(draw_well_conditioned(gen, 12, 7))
    stored = base.base_pinv.array.copy()
    x = apply_update(base, draw_angle(gen, 12, 7))
    assert not x.array.flags.writeable
    with pytest.raises(ValueError):
        x.array[0, 0] = 1.0
    assert not np.shares_memory(x.array, base.base_pinv.array)
    assert np.array_equal(base.base_pinv.array, stored)
    assert not base.base_pinv.array.flags.writeable


def test_apply_update_dimension_mismatch():
    base = precompute(identity(3))
    with pytest.raises(ValueError, match="mismatch"):
        apply_update(base, AngleMatrix(theta=np.zeros(2), phi=np.zeros(3)))


def test_apply_update_stream_residuals():
    gen = stream_generator(151, 0)
    a = draw_well_conditioned(gen, 32, 32)
    base = precompute(a)
    eye = np.eye(32)
    for k in range(1000):
        t = _update_angles((32, 32), 151, k)
        x = apply_update(base, t)
        if k % 100 == 0:  # LU oracle spot-check on a 1% sample
            masked = hadamard_product(a, t.materialize())
            assert np.linalg.norm(x.array @ masked.array - eye) <= 1e-8 * 32
            assert np.linalg.norm(x.array - inverse_lu(masked).array) <= 1e-8 * 32


def test_naive_update_identity_base():
    t = AngleMatrix(theta=[0.2, 1.0], phi=[-0.4, 0.9])
    x = naive_update(identity(2), t)
    expected = np.diag([np.exp(-1j * (0.2 - 0.4)), np.exp(-1j * (1.0 + 0.9))])
    assert np.allclose(x.array, expected, rtol=0, atol=1e-14)


def test_naive_update_agrees_with_apply_update():
    gen = stream_generator(157, 0)
    for m, n in [(16, 16), (64, 64), (48, 16)]:
        a = draw_well_conditioned(gen, m, n)
        base = precompute(a)
        t = draw_angle(gen, m, n)
        fast = apply_update(base, t)
        reference = naive_update(a, t)
        assert np.linalg.norm(fast.array - reference.array) <= 1e-8 * max(m, n)


def test_run_benchmark_scalar_case():
    record = run_benchmark(1, 1, 1, seed=5)
    assert record.rows == record.cols == record.updates == 1
    assert record.max_residual <= 1e-8
    assert record.structured_ns_per_update > 0
    assert record.naive_ns_per_update > 0


def test_run_benchmark_is_deterministic():
    first = run_benchmark(12, 12, 10, seed=99)
    second = run_benchmark(12, 12, 10, seed=99)
    assert first.max_residual == second.max_residual
    a1 = draw_well_conditioned(stream_generator(99, 0), 12, 12)
    a2 = draw_well_conditioned(stream_generator(99, 0), 12, 12)
    assert np.array_equal(a1.array, a2.array)
    t1 = _update_angles((12, 12), 99, 4)
    t2 = _update_angles((12, 12), 99, 4)
    assert np.array_equal(t1.theta, t2.theta) and np.array_equal(t1.phi, t2.phi)


def test_run_benchmark_rectangular():
    record = run_benchmark(24, 9, 8, seed=7)
    assert record.max_residual <= 1e-8 * 24


def test_run_benchmark_rejects_bad_config():
    with pytest.raises(ValueError, match="updates"):
        run_benchmark(4, 4, 0, seed=1)
    with pytest.raises(ValueError, match="cap"):
        run_benchmark(4096, 4096, 1, seed=1)
