"""Phase-update engine: precompute once, mask per update, benchmark both paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from phasealg import core, engine
from phasealg.core import _RESCALE_SAFE, rescale
from phasealg.engine import PrecomputedBase, _update_angles
from phasealg.generate import draw_angle, draw_well_conditioned, stream_generator
from test_structured import _graded


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


def _assert_gate_rejects(monkeypatch, a: DenseMatrix, candidate: np.ndarray):
    """precompute(a) fails its square gate when LAPACK's inverse is replaced by candidate."""
    monkeypatch.setattr(engine, "checked_pinv", lambda arr: np.array(candidate, dtype=np.complex128))
    with pytest.raises(RuntimeError, match=r"internal consistency failure: .*relative residual \S+ > \S+"):
        precompute(a)


@pytest.mark.parametrize("condition", [1e3, 1e5, 1e8])
def test_precompute_gate_on_graded_square_bases(monkeypatch, condition):
    a = _graded(5, 30, condition)
    x = precompute(a).base_pinv.array
    noise = draw_well_conditioned(stream_generator(5, 1), 30, 30).array.real
    _assert_gate_rejects(monkeypatch, a, x * (1 + 1e-6 * noise))


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300, 1e-308, 6e-309])
def test_precompute_gate_holds_at_every_scale(monkeypatch, scale):
    # at 6e-309, ||A^-1||_F = 2.9e308 overflows: a denominator of plain norms
    # would be inf and pass every candidate
    a = DenseMatrix(scale * np.eye(3))
    x = precompute(a).base_pinv.array
    assert np.abs(x - np.eye(3) / scale).max() <= 1e-15 / scale
    _assert_gate_rejects(monkeypatch, a, x * (1 + 1e-6 * np.array([1.0, -2.0, 0.5])))


def test_precompute_accepts_a_dense_base_at_1e_308():
    # B^-1 has largest modulus 0.75, so (1e-308 B)^-1 fits in float64, but
    # LAPACK's inv of 1e-308 B overflows inside and returns inf and nan
    # entries; checked_pinv takes it again as inv(B') / s on the scaled B'
    b = draw_well_conditioned(stream_generator(3, 0), 8, 8).array
    x = core.checked_pinv(1e-308 * b)
    expected = np.linalg.inv(b) / 1e-308
    assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()
    x = precompute(DenseMatrix(1e-308 * b)).base_pinv.array
    assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()


def test_checked_pinv_still_rejects_an_inverse_beyond_float64():
    # at 3e-309 the inverse's largest modulus, 0.75 / 3e-309, exceeds float64's
    b = draw_well_conditioned(stream_generator(3, 0), 8, 8).array
    with pytest.raises(SingularMatrixError, match="reciprocal condition 0.000e\\+00"):
        core.checked_pinv(3e-309 * b)


@pytest.mark.parametrize("ulps, passes", [(1, True), (24, False)])
def test_precompute_gate_limit(monkeypatch, ulps, passes):
    # A = I_4 and X = (1 + k eps) I give AX - I = XA - I = k eps I exactly, and
    # a ratio of k / 2 * n u: 0.5 n u at k = 1 and 12 n u at k = 24 lie on
    # either side of the limit c n u for any c from 1 to 10
    a = DenseMatrix(np.eye(4))
    candidate = (1 + ulps * np.finfo(np.float64).eps) * np.eye(4)
    if passes:
        monkeypatch.setattr(engine, "checked_pinv", lambda arr: candidate.astype(np.complex128))
        assert np.array_equal(precompute(a).base_pinv.array, candidate)
    else:
        _assert_gate_rejects(monkeypatch, a, candidate)


@pytest.mark.parametrize("entry", [(1, 0), (0, 1)])
def test_precompute_gate_checks_both_residuals(monkeypatch, entry):
    # for A = diag(1, s), an error d at X[1, 0] is s d in AX - I and d in
    # XA - I; at X[0, 1] the two swap. The larger one scores about 2000 n u,
    # the smaller about 2e-3 n u.
    s = 2.0 ** -20
    a = DenseMatrix(np.diag([1.0, s]))
    candidate = np.diag([1.0, 1 / s])
    candidate[entry] = 1e3 * np.finfo(np.float64).eps / s
    _assert_gate_rejects(monkeypatch, a, candidate)


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


extreme_phases = st.lists(
    st.floats(min_value=-1e308, max_value=1e308, allow_nan=False), min_size=1, max_size=5
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       share=st.sampled_from([1e-307, 1e-154, 1e-3, 0.5, 1.0]),
       theta=extreme_phases, phi=extreme_phases)
def test_apply_update_without_the_scan_is_finite_and_unchanged(seed, share, theta, phi):
    # share is the base's largest component as a share of the bound; at 1.0
    # that component lies exactly on it
    t = AngleMatrix(theta=theta, phi=phi)
    m, n = t.shape
    x = draw_well_conditioned(stream_generator(seed, 0), n, m).array
    largest = max(np.abs(x.real).max(), np.abs(x.imag).max())
    base = PrecomputedBase((m, n), DenseMatrix(x / largest * _RESCALE_SAFE * share))
    assert base.base_pinv._largest_component() <= _RESCALE_SAFE
    out = apply_update(base, t)
    assert np.isfinite(out.array).all()
    assert np.array_equal(out.array, rescale(base.base_pinv.array, -t.phi, -t.theta).array)


def test_apply_update_still_rejects_an_overflowing_base():
    # a directly built base above the bound keeps the scan: a pi/4 rotation
    # moves the entry onto one axis, which overflows
    base = PrecomputedBase((1, 1), DenseMatrix([[1.5e308 + 1.5e308j]]))
    with pytest.raises(ValueError, match="non-finite"):
        apply_update(base, AngleMatrix(theta=[np.pi / 4], phi=[0.0]))


def test_apply_update_bounds_the_base_once(monkeypatch):
    calls = []
    largest_part = core._largest_part
    monkeypatch.setattr(core, "_largest_part", lambda arr: calls.append(arr.shape) or largest_part(arr))
    gen = stream_generator(167, 0)
    base = precompute(draw_well_conditioned(gen, 6, 4))
    assert calls == [(4, 6)]  # precompute takes the bound
    for _ in range(5):
        apply_update(base, draw_angle(gen, 6, 4))
    assert calls == [(4, 6)]


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
