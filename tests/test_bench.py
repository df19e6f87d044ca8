"""Benchmark harness: the naive per-update path, run_benchmark and its CSV row."""

import numpy as np
import pytest

from phasealg import AngleMatrix, apply_update, identity, naive_update, precompute, run_benchmark
from phasealg.bench import BENCH_CSV_HEADER, BenchRecord, _update_angles, append_bench_record
from phasealg.generate import draw_angle, draw_well_conditioned, stream_generator


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


def test_bench_csv_header_once(tmp_path):
    path = tmp_path / "bench.csv"
    record = BenchRecord(rows=4, cols=4, updates=2, structured_ns_per_update=1000.0,
                         naive_ns_per_update=9000.0, max_residual=1.25e-14, seed=3)
    append_bench_record(path, record)
    append_bench_record(path, record)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 3
    assert lines[1] == lines[2] == "4,4,2,1000.0,9000.0,1.25e-14,3"
