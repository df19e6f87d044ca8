"""Phase-update engine: precompute once, mask per update."""

import os
import signal
import subprocess
import sys
import threading

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
    inverse_structured,
    inverse_structured_transposed,
    lu_factorization_count,
    naive_update,
    penrose_check,
    pinv_structured,
    precompute,
)
from phasealg import core, engine, pseudo, structured
from phasealg.engine import checked_pinv, rescale
from phasealg.bench import _update_angles
from phasealg.engine import PrecomputedBase
from phasealg.generate import draw_angle, draw_dense, draw_well_conditioned, stream_generator
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
    a = DenseMatrix([[1, 1], [2, 2], [3, 3]])
    with pytest.raises(SingularMatrixError):
        precompute(a)
    with pytest.raises(RuntimeError, match="internal consistency failure: masked matrix reported singular"):
        naive_update(a, draw_angle(stream_generator(0, 1), 3, 2))


def _inject(monkeypatch, a: DenseMatrix, candidate: np.ndarray):
    """precompute(a) takes candidate for LAPACK's inverse: np.linalg.inv
    returns candidate in the prescaled frame, candidate * 2^e, and the
    condition test is passed, as when checked_pinv was replaced whole."""
    e = engine._exponent(a.array)
    monkeypatch.setattr(np.linalg, "inv", lambda system: engine._scale2(np.array(candidate, dtype=np.complex128), e))
    monkeypatch.setattr(engine, "_require_condition", lambda reciprocal_condition: None)


def _assert_gate_rejects(monkeypatch, a: DenseMatrix, candidate: np.ndarray):
    """precompute(a) fails its square gate when LAPACK's inverse is replaced by candidate."""
    _inject(monkeypatch, a, candidate)
    with pytest.raises(RuntimeError, match=r"internal consistency failure: .*relative residual \S+ > \S+"):
        precompute(a)


@pytest.mark.parametrize("condition", [1e3, 1e5, 1e8])
def test_precompute_gate_on_graded_square_bases(monkeypatch, condition):
    a = _graded(5, 30, 30, condition)
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
    # entries; checked_pinv inverts the exactly prescaled 2^-e * 1e-308 B
    # instead and scales the result back by 2^-e
    b = draw_well_conditioned(stream_generator(3, 0), 8, 8).array
    x = engine.checked_pinv(1e-308 * b)
    expected = np.linalg.inv(b) / 1e-308
    assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()
    x = precompute(DenseMatrix(1e-308 * b)).base_pinv.array
    assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()


RECTANGULAR = [(6, 4), (4, 6)]


def _record_scans(monkeypatch) -> list:
    """The shapes of the arrays core._require_finite scans from now on."""
    scans = []
    require_finite = core._require_finite
    monkeypatch.setattr(core, "_require_finite", lambda arr: scans.append(arr.shape) or require_finite(arr))
    return scans


@pytest.mark.parametrize("shape", [(5, 5), *RECTANGULAR], ids=["5x5", "6x4", "4x6"])
@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-120, 1e-60, 1e-8, 1.0, 1e160, 1e300])
def test_precompute_accepts_tall_and_wide_bases_at_every_scale(monkeypatch, shape, scale):
    # the gate is scale-invariant and judges the system inverted in the
    # prescaled frame, where no product overflows; a fixed limit on the
    # Penrose residuals of (A, X) failed tall and wide bases from 1e-8 down
    # to 1e-120, in band, as ||XAX - X|| grows with ||X||. The gate proves
    # the base finite, so no shape is stored with a scan.
    a = DenseMatrix(scale * draw_well_conditioned(stream_generator(11, 0), *shape).array)
    t = draw_angle(stream_generator(11, 1), *shape)
    scans = _record_scans(monkeypatch)
    base = precompute(a)
    assert scans == [] and base.shape == shape
    assert np.array_equal(apply_update(base, t).array, pinv_structured(a, t).array)


@pytest.mark.parametrize("shape", RECTANGULAR, ids=["6x4", "4x6"])
def test_precompute_penrose_check_still_rejects_out_of_band(monkeypatch, shape):
    b = draw_well_conditioned(stream_generator(11, 0), *shape).array
    k = min(shape)
    noise = draw_dense(stream_generator(11, 2), k, k).array.real
    inv = np.linalg.inv
    # the Gram system's inverse, perturbed by a relative 1e-6 or 1e-10; a
    # fixed limit on the Penrose residuals of (A, X) passed 1e-10, which
    # the gate scores over 1000 times its limit
    for relative in (1e-6, 1e-10):
        monkeypatch.setattr(np.linalg, "inv", lambda system: inv(system) * (1 + relative * noise))
        for scale in (1e-300, 1.0):  # out of the exponent band and in it
            with pytest.raises(RuntimeError, match="internal consistency failure: precomputed inverse fails the residual gate"):
                precompute(DenseMatrix(scale * b))


@pytest.mark.parametrize("shape", [(40, 20), (20, 40)], ids=["40x20", "20x40"])
def test_precompute_accepts_graded_tall_and_wide_bases_at_condition_1e4(shape):
    # the Gram route leaves about condition^2 u in X, which a fixed limit
    # on the Penrose residuals of (A, X) rejected; the gate judges only the
    # Gram system's inverse
    a = _graded(5, *shape, 1e4)
    t = draw_angle(stream_generator(5, 1), *shape)
    base = precompute(a)
    assert np.array_equal(base.base_pinv.array, checked_pinv(a.array))
    assert np.array_equal(apply_update(base, t).array, pinv_structured(a, t).array)


@pytest.mark.parametrize("shape", [(40, 20), (20, 40)], ids=["40x20", "20x40"])
def test_precompute_calls_graded_tall_and_wide_bases_at_condition_1e5_singular(shape):
    # the Gram system squares the condition to about 1e10, past RANK_EPS:
    # checked_pinv's verdict, figures and all
    a = _graded(5, *shape, 1e5)
    with pytest.raises(SingularMatrixError) as expected:
        checked_pinv(a.array)
    with pytest.raises(SingularMatrixError) as raised:
        precompute(a)
    assert str(raised.value) == str(expected.value)
    assert np.array([raised.value.pivot]).tobytes() == np.array([expected.value.pivot]).tobytes()


def _graded_two_streams(seed: int, m: int, n: int, digits: int) -> DenseMatrix:
    """m x n matrix with singular values logspace(0, -digits), so condition
    10**digits, between orthonormal factors drawn from streams 0 and 1."""
    k = min(m, n)
    u, _ = np.linalg.qr(draw_dense(stream_generator(seed, 0), m, k).array)
    v, _ = np.linalg.qr(draw_dense(stream_generator(seed, 1), n, k).array)
    return DenseMatrix((u * np.logspace(0, -digits, k)) @ v.conj().T)


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="ROADMAP item 1: the set-up gate's constant rejects LAPACK's inverse of small graded systems")
@pytest.mark.parametrize("args", [(1824, 3, 3, 4), (800, 18, 4, 3)], ids=["3x3-1e4", "18x4-1e3"])
def test_precompute_accepts_small_graded_bases_that_pinv_structured_accepts(args):
    # the gate scores these at 6.460e-15 > 3.331e-15 and 4.795e-15 > 4.441e-15
    a = _graded_two_streams(*args)
    pinv_structured(a, AngleMatrix(theta=np.zeros(a.rows), phi=np.zeros(a.cols)))
    precompute(a)


def _near_max(n: int, share: float) -> np.ndarray:
    """A well-conditioned n x n base scaled to a largest part of share * max."""
    b = draw_well_conditioned(stream_generator(3, 0), n, n).array
    return b * (share * np.finfo(np.float64).max / core._largest_part(b))


NEAR_MAX = [pytest.param(1e308 * np.array([[1, 1], [-1, 1]], dtype=complex), id="2x2-1e308")]
NEAR_MAX += [pytest.param(_near_max(n, share), id=f"{n}x{n}-{share}max") for n in (4, 8) for share in (0.25, 0.5, 0.9)]


@pytest.mark.parametrize("a", NEAR_MAX)
def test_inverse_near_float64_max_is_right_on_every_route(a):
    # LU growth overflows inside LAPACK at this scale: its inv of
    # 1e308 * [[1, 1], [-1, 1]] is the finite but wrong [[1e-308, 0], [0, 0]].
    # The reference inverts the same matrix times 2^-1000, which is exact,
    # and scales the result back the same way.
    n = a.shape[0]
    t = draw_angle(stream_generator(3, 1), n, n)
    expected = np.linalg.inv(a * 2.0 ** -1000) * 2.0 ** -1000
    masked = expected * t.hermitian().materialize().array
    for x, reference in ((engine.checked_pinv(a), expected),
                         (precompute(DenseMatrix(a)).base_pinv.array, expected),
                         (inverse_structured(DenseMatrix(a), t).array, masked)):
        assert np.abs(x - reference).max() <= 1e-15 * np.abs(reference).max()


def test_checked_pinv_still_rejects_an_inverse_beyond_float64():
    # at 3e-309 the inverse's largest modulus, 0.75 / 3e-309, exceeds float64's
    b = draw_well_conditioned(stream_generator(3, 0), 8, 8).array
    with pytest.raises(SingularMatrixError, match="reciprocal condition 0.000e\\+00"):
        engine.checked_pinv(3e-309 * b)


@pytest.mark.parametrize("ulps, passes", [(1, True), (24, False)])
def test_precompute_gate_limit(monkeypatch, ulps, passes):
    # A = I_4 and X = (1 + k eps) I give AX - I = XA - I = k eps I exactly, and
    # a ratio of k / 2 * n u: 0.5 n u at k = 1 and 12 n u at k = 24 lie on
    # either side of the limit c n u for any c from 1 to 10
    a = DenseMatrix(np.eye(4))
    candidate = (1 + ulps * np.finfo(np.float64).eps) * np.eye(4)
    if passes:
        _inject(monkeypatch, a, candidate)
        assert np.array_equal(precompute(a).base_pinv.array, candidate)
    else:
        _assert_gate_rejects(monkeypatch, a, candidate)


@pytest.mark.parametrize("n, entry", [
    pytest.param(2, (1, 0), id="entry0"),
    pytest.param(2, (0, 1), id="entry1"),
    pytest.param(128, (1, 0), id="n128-entry0"),
    pytest.param(128, (0, 1), id="n128-entry1"),
    pytest.param(160, (1, 0), id="n160-entry0"),
    pytest.param(160, (0, 1), id="n160-entry1"),
])
def test_precompute_gate_checks_both_residuals(monkeypatch, n, entry):
    # for A = diag(1, s, 1, ..., 1), an error d at X[1, 0] is s d in AX - I
    # and d in XA - I; at X[0, 1] the two swap. With ||A||_F about
    # sqrt(n - 1) and ||X||_F about 1 / s, the larger scores about
    # 4000 n u, the smaller about 4e-3 n u.
    s = 2.0 ** -20
    diagonal = np.ones(n)
    diagonal[1] = s
    candidate = np.diag(1 / diagonal)
    candidate[entry] = 1e3 * n * np.finfo(np.float64).eps * np.sqrt(n - 1) / s
    _assert_gate_rejects(monkeypatch, DenseMatrix(np.diag(diagonal)), candidate)


def _near_singular(kind: str, n: int) -> np.ndarray:
    """A square base whose reciprocal condition is at most RANK_EPS. Graded
    ones have a finite LAPACK inverse that passes the gate; at "1e-310" a
    subnormal pivot makes the in-band inverse overflow, so the gate fails
    on a nan ratio too."""
    if kind == "1e-310":
        a = np.eye(n, dtype=np.complex128)
        a[0, 1], a[1, 1] = 1.0, 1e-310
        return a
    return _graded(n, n, n, float(kind)).array


@pytest.mark.parametrize("kind", ["1e13", "1e20", "1e-310"])
@pytest.mark.parametrize("n", [3, 160])
def test_precompute_gives_the_condition_verdict_before_the_gate(n, kind):
    # the gate's products run before the condition test decides; the
    # verdict and its figures are checked_pinv's, never the gate's
    # RuntimeError
    a = _near_singular(kind, n)
    assert engine._exponent(a) == 0
    with pytest.raises(SingularMatrixError) as expected:
        checked_pinv(a)
    with pytest.raises(SingularMatrixError) as raised:
        precompute(DenseMatrix(a))
    assert str(raised.value) == str(expected.value)
    assert np.array([raised.value.pivot]).tobytes() == np.array([expected.value.pivot]).tobytes()


@pytest.mark.parametrize("n", [8, 128])
def test_precompute_rejects_an_inverse_beyond_float64(n):
    # (3e-309 B)^-1 has entries beyond float64 at both orders. The base is
    # out of band, so the condition test runs before the gate, as in
    # checked_pinv.
    b = draw_well_conditioned(stream_generator(3, 0), n, n)
    with pytest.raises(SingularMatrixError, match="reciprocal condition 0.000e\\+00"):
        precompute(DenseMatrix(3e-309 * b.array))


def _gate_base(kind: str, n: int) -> np.ndarray:
    if kind == "graded":
        return _graded(n, n, n, 1e8).array
    random = draw_dense(stream_generator(n, 0), n, n).array
    return 1e-300 * random if kind == "1e-300" else random


def _on_two_threads(fn):
    """fn() on the calling thread and on one more thread at once, as two
    callers in one process run it: both outcomes, each fn's result or the
    exception it raised."""
    outcomes = [None, None]

    def run(k):
        try:
            outcomes[k] = fn()
        except Exception as err:
            outcomes[k] = err

    thread = threading.Thread(target=run, args=(1,))
    thread.start()
    run(0)
    thread.join(timeout=60)
    assert not thread.is_alive()
    return outcomes


@pytest.mark.parametrize("kind", ["random", "graded", "1e-300"])
@pytest.mark.parametrize("n", [100, 112, 128, 256])
def test_concurrent_gate_is_bit_identical_to_the_sequential_one(n, kind):
    # the gate runs on its caller's thread; two callers on the same pair at
    # once each own their product buffer, so both get the ratio and limit
    # formed step by step on fresh arrays
    a = _gate_base(kind, n)
    x = checked_pinv(a)
    norms = core._frobenius(a) * core._frobenius(x)
    residual = max(np.linalg.norm(a @ x - np.eye(n)), np.linalg.norm(x @ a - np.eye(n)))
    sequential = (float(2.0 * residual / norms), engine._INVERSE_GATE_C * n * np.finfo(np.float64).eps / 2)
    assert sequential[0] < sequential[1]
    for concurrent in _on_two_threads(lambda: engine._inverse_gate(a, x)):
        assert np.array(concurrent).tobytes() == np.array(sequential).tobytes()


def test_concurrent_gate_rejects_an_overflowing_candidate(monkeypatch):
    # Both products overflow. np.errstate holds per thread, so the gate sets
    # its own on each caller's thread: without it, matmul warns, and under
    # warnings as errors the gate raises RuntimeWarning instead of rejecting
    # the candidate.
    n = 160
    a = draw_dense(stream_generator(3, 0), n, n)
    _inject(monkeypatch, a, np.full((n, n), 1e308))
    for outcome in _on_two_threads(lambda: precompute(a)):
        assert isinstance(outcome, RuntimeError), outcome
        assert "precomputed inverse fails the residual gate" in str(outcome)


def _run_python(code: str) -> str:
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0 and not result.stderr, result.stderr
    return result.stdout


@pytest.mark.parametrize("before_exit", [0, 1])
def test_a_gate_reached_during_interpreter_shutdown_forms_both_products(before_exit):
    # precompute at 160^2 starts no thread, so it works in an atexit handler,
    # where Python starts no new thread, whether or not it ran before exit;
    # an exception in the handler would only be printed, hence the check of
    # stderr
    out = _run_python(
        "import atexit\n"
        "from phasealg import precompute\n"
        "from phasealg.generate import draw_dense, stream_generator\n"
        "a = draw_dense(stream_generator(3, 0), 160, 160)\n"
        f"for _ in range({before_exit}):\n"
        "    precompute(a)\n"
        "atexit.register(lambda: print(precompute(a).shape))\n"
    )
    assert out == "(160, 160)\n"


def test_precompute_starts_no_thread_and_loads_no_executor():
    out = _run_python(
        "import sys, threading\n"
        "from phasealg import precompute\n"
        "from phasealg.generate import draw_dense, stream_generator\n"
        "a = draw_dense(stream_generator(3, 0), 256, 256)\n"
        "before = threading.active_count()\n"
        "precompute(a)\n"
        "print(threading.active_count() - before, 'concurrent.futures' in sys.modules)\n"
    )
    assert out == "0 False\n"


# Python 3.12 and later warn on any fork of a process with threads, and
# OpenBLAS at its default thread count keeps threads of its own
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_precompute_works_in_a_forked_child():
    # the child of a process that has run precompute at 160^2 runs it too,
    # though the fork copies none of OpenBLAS's threads at its default
    # count; a child that hung on a lock they held is ended by the alarm
    n = 160
    a = draw_dense(stream_generator(3, 0), n, n)
    precompute(a)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(20)
            code = 0 if precompute(a).shape == (n, n) else 1
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def test_concurrent_callers_of_the_gate_each_get_their_own_ratio():
    # callers on more threads than cores, with a short switch interval; each
    # gate call owns its product buffer, so every ratio equals the one taken
    # alone
    n, callers, calls = 160, 4, 5
    bases = [draw_dense(stream_generator(seed, 0), n, n).array for seed in range(callers)]
    inverses = [checked_pinv(b) for b in bases]
    alone = [engine._inverse_gate(b, x) for b, x in zip(bases, inverses)]
    results = {}

    def call(k):
        results[k] = [engine._inverse_gate(bases[k], inverses[k]) for _ in range(calls)]

    threads = [threading.Thread(target=call, args=(k,)) for k in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(results[k] == [alone[k]] * calls for k in range(callers))


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


EIGHTH_OF_MAX = np.finfo(np.float64).max / 8

extreme_phases = st.lists(
    st.floats(min_value=-1e308, max_value=1e308, allow_nan=False), min_size=1, max_size=5
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       share=st.sampled_from([1e-307, 1e-154, 1e-3, 0.5, 1.0]),
       theta=extreme_phases, phi=extreme_phases)
def test_apply_update_without_the_scan_is_finite_and_unchanged(seed, share, theta, phi):
    # share is the base's largest component as a share of max / 8; at 1.0
    # that component lies exactly on it
    t = AngleMatrix(theta=theta, phi=phi)
    m, n = t.shape
    x = draw_well_conditioned(stream_generator(seed, 0), n, m).array
    largest = max(np.abs(x.real).max(), np.abs(x.imag).max())
    base = PrecomputedBase(DenseMatrix(x / largest * EIGHTH_OF_MAX * share))
    out = apply_update(base, t)
    assert np.isfinite(out.array).all()
    assert np.array_equal(out.array, rescale(base.base_pinv.array, -t.phi, -t.theta))


def test_apply_update_still_rejects_an_overflowing_base():
    # a pi/4 rotation moves the entry onto one axis, which overflows
    base = PrecomputedBase(DenseMatrix([[1.5e308 + 1.5e308j]]))
    with pytest.raises(OverflowError, match="overflows float64: non-finite"):
        apply_update(base, AngleMatrix(theta=[np.pi / 4], phi=[0.0]))


def test_precomputed_base_derives_shape_and_finite_updates_skip_the_scan(monkeypatch):
    # no update that stays finite is scanned, at max / 8 or just above it:
    # only an overflow flag raised in rescale's multiplies leads to a scan
    pinv = draw_dense(stream_generator(173, 0), 3, 2).array  # the pseudoinverse of a 2x3 base
    scale = EIGHTH_OF_MAX / core._largest_part(pinv)
    at_bound = PrecomputedBase(DenseMatrix(pinv * scale))
    above = PrecomputedBase(DenseMatrix(pinv * np.nextafter(scale, np.inf)))
    assert at_bound.shape == above.shape == (2, 3)
    scans = _record_scans(monkeypatch)
    t = draw_angle(stream_generator(173, 1), 2, 3)
    apply_update(at_bound, t)
    apply_update(above, t)
    assert scans == []


def test_masked_inverse_that_overflows_is_rejected_on_every_route():
    # inv(a) = 1.515e308 * (1 + 1j) has finite parts; the mask's pi/4 turn
    # puts its whole modulus on the imaginary axis, beyond float64
    a = DenseMatrix([[3.3e-309 * (1 - 1j)]])
    t = AngleMatrix([0.0], [-np.pi / 4])
    assert np.isfinite(checked_pinv(a.array)).all()
    for route in (inverse_structured, inverse_structured_transposed, pinv_structured,
                  lambda a, t: apply_update(precompute(a), t)):
        with pytest.raises(OverflowError, match="overflows float64: non-finite"):
            route(a, t)


def _flagless_rescale(x, row_phases, col_phases):
    """rescale's two multiplies with numpy's flags ignored: inf or nan where a
    product overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = x * np.exp(1j * col_phases)[None, :]
        out *= np.exp(1j * row_phases)[:, None]
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=st.integers(1, 17), n=st.integers(1, 17), seed=st.integers(0, 2**32 - 1),
       share=st.floats(1 / 8, 1))
def test_every_masked_route_raises_exactly_when_the_product_overflows(m, n, seed, share):
    # Shapes 1 to 17 reach the tails of numpy's SIMD loops. The base x has
    # uniform real and imaginary parts and its largest part at share * max;
    # an entry with both parts near that has a modulus near sqrt(2) times it,
    # so a rotation can overflow it once share exceeds 1 / sqrt(2).
    # checked_pinv is replaced by x on the routes that solve, so that every
    # route masks the same base.
    t = draw_angle(stream_generator(seed, 1), m, n)
    x = stream_generator(seed, 0).uniform(-1, 1, (n, 2 * m)).view(np.complex128)
    x = x / core._largest_part(x) * (share * np.finfo(np.float64).max)
    a = DenseMatrix(np.ones((m, n)))
    routes = [(lambda: apply_update(PrecomputedBase(DenseMatrix(x)), t), -t.phi, -t.theta),
              (lambda: pinv_structured(a, t), -t.phi, -t.theta)]
    if m == n:
        routes += [(lambda: inverse_structured(a, t), -t.phi, -t.theta),
                   (lambda: inverse_structured_transposed(a, t), -t.theta, -t.phi)]
    with pytest.MonkeyPatch.context() as patch:
        for module in (pseudo, structured):
            patch.setattr(module, "checked_pinv", lambda arr: x)
        for route, row_phases, col_phases in routes:
            expected = _flagless_rescale(x, row_phases, col_phases)
            bad = np.argwhere(~np.isfinite(expected))
            if bad.size:
                i, k = bad[0]
                with pytest.raises(OverflowError, match=rf"^result overflows float64: non-finite entry at \({i}, {k}\)$"):
                    route()
            else:
                assert np.array_equal(route().array.view(np.uint64), expected.view(np.uint64))


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
