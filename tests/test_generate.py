"""Seeded instance generation: keyed streams, seed validation, condition filtering."""

import importlib

import numpy as np
import pytest

from phasealg import CONDITION_CAP, DenseMatrix, frobenius_norm, identity, inverse_lu, pinv_full_rank
from phasealg.generate import (
    MAX_SEED,
    condition_proxy,
    draw_angle,
    draw_dense,
    draw_well_conditioned,
    stream_generator,
)


def test_same_key_reproduces_the_stream():
    a = draw_dense(stream_generator(42, 3), 4, 5)
    b = draw_dense(stream_generator(42, 3), 4, 5)
    assert np.array_equal(a.array, b.array)


def test_distinct_streams_are_independent():
    a = draw_dense(stream_generator(42, 0), 4, 4)
    b = draw_dense(stream_generator(42, 1), 4, 4)
    c = draw_dense(stream_generator(43, 0), 4, 4)
    assert not np.array_equal(a.array, b.array)
    assert not np.array_equal(a.array, c.array)


def test_seed_bounds():
    stream_generator(0, 0)
    stream_generator(MAX_SEED, MAX_SEED)
    with pytest.raises(ValueError, match="seed must be a 64-bit"):
        stream_generator(-1, 0)
    with pytest.raises(ValueError, match="stream must be a 64-bit"):
        stream_generator(0, MAX_SEED + 1)
    with pytest.raises(ValueError, match="integer"):
        stream_generator(1.5, 0)


@pytest.mark.parametrize("seed, stream, name", [(True, 0, "seed"), (0, False, "stream")], ids=["True-0", "0-False"])
def test_bool_seeds_and_streams_are_not_integers(seed, stream, name):
    # True would otherwise key seed 1's stream
    with pytest.raises(ValueError, match=f"{name} must be an integer, got bool"):
        stream_generator(seed, stream)


def test_draw_dense_shape_and_finiteness():
    a = draw_dense(stream_generator(7, 0), 6, 3)
    assert isinstance(a, DenseMatrix)
    assert a.shape == (6, 3)
    assert np.isfinite(a.array).all()
    assert a.array.imag.any()  # genuinely complex


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
def test_draw_dense_rejects_empty_shapes(rows, cols):
    with pytest.raises(ValueError, match=rf"matrix dimensions must be positive, got \({rows}, {cols}\)"):
        draw_dense(stream_generator(7, 0), rows, cols)


def test_draw_angle_phase_range():
    t = draw_angle(stream_generator(7, 0), 50, 40)
    for phases in (t.theta, t.phi):
        assert (phases >= 0.0).all() and (phases < 2 * np.pi).all()


def test_condition_proxy_identity_and_singular():
    assert condition_proxy(identity(4)) == pytest.approx(4.0)
    assert condition_proxy(DenseMatrix([[1, 2], [2, 4]])) == np.inf
    assert condition_proxy(DenseMatrix([[1, 1], [2, 2], [3, 3]])) == np.inf


def test_condition_proxy_rectangular():
    wide = DenseMatrix([[1, 0, 0], [0, 1, 0]])
    assert condition_proxy(wide) == pytest.approx(2.0)


def test_draw_well_conditioned_respects_cap():
    for trial in range(10):
        gen = stream_generator(999, trial)
        a = draw_well_conditioned(gen, 12, 12)
        assert condition_proxy(a) <= 1e6


def _raise_oracle_reached(*args, **kwargs):
    raise AssertionError("instance filter reached the hand-LU oracle")


def test_filter_never_reaches_the_oracle(monkeypatch):
    for name in ("phasealg", "phasealg.core", "phasealg.pseudo", "phasealg.generate"):
        module = importlib.import_module(name)
        if hasattr(module, "lu_factorize"):
            monkeypatch.setattr(module, "lu_factorize", _raise_oracle_reached)
    gen = stream_generator(31, 0)
    for rows, cols in ((7, 7), (9, 4), (4, 9)):
        a = draw_well_conditioned(gen, rows, cols)
        assert a.shape == (rows, cols)
    assert condition_proxy(identity(4)) == pytest.approx(4.0)
    assert condition_proxy(DenseMatrix([[1, 2], [2, 4]])) == np.inf


def _hand_lu_proxy(a: DenseMatrix) -> float:
    oracle = inverse_lu(a) if a.rows == a.cols else pinv_full_rank(a)
    return frobenius_norm(a) * frobenius_norm(oracle)


def test_accepted_draws_pass_the_hand_lu_proxy():
    for seed in range(30):
        gen = stream_generator(seed, 0)
        n = int(gen.integers(1, 25))
        for rows, cols in ((n, n), (n + 1 + seed % 4, n), (n, n + 1 + seed % 4)):
            a = draw_well_conditioned(gen, rows, cols)
            assert _hand_lu_proxy(a) <= CONDITION_CAP, (seed, rows, cols)
