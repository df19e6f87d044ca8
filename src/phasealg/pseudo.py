"""Full-rank Moore-Penrose pseudoinverses and the masked closed form.

The pseudoinverse of a full-rank matrix comes from the invertible Gram system
on its smaller side; the pseudoinverse of the phase-masked matrix is then the
base pseudoinverse masked by the conjugate-transposed angle matrix. The
production route is core.checked_pinv, which solves the Gram system on
LAPACK; pinv_full_rank is the hand-LU oracle for it. Rank deficiency is out of
scope and rejected.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import core
from .angle import AngleMatrix, gram
from .core import (
    RESIDUAL_EPS,
    DenseMatrix,
    checked_pinv,
    frobenius_norm,
    lu_factorize,
    rescale,
)

__all__ = [
    "PenroseReport",
    "penrose_check",
    "pinv_full_rank",
    "gram_hadamard_factorization",
    "pinv_structured",
]


@dataclass(frozen=True)
class PenroseReport:
    """Residuals of the four defining pseudoinverse equations for a candidate X.

    r1 = ||A X A - A||_F, r2 = ||X A X - X||_F, r3 and r4 are the Hermitian
    defects of A X and X A. Passes when all four are within
    RESIDUAL_EPS * (1 + ||A||_F).
    """

    r1: float
    r2: float
    r3: float
    r4: float
    tolerance: float
    passed: bool

    def worst(self) -> float:
        return max(self.r1, self.r2, self.r3, self.r4)


def penrose_check(a: DenseMatrix, x: DenseMatrix) -> PenroseReport:
    """Evaluate the four pseudoinverse conditions for candidate x against a."""
    if x.shape != (a.cols, a.rows):
        raise ValueError(f"penrose_check expects a {a.cols}x{a.rows} candidate for a {a.rows}x{a.cols} matrix, got {x.shape}")
    aa = a.array
    xx = x.array
    ax = aa @ xx
    xa = xx @ aa
    r1 = float(np.linalg.norm(ax @ aa - aa))
    r2 = float(np.linalg.norm(xa @ xx - xx))
    r3 = float(np.linalg.norm(ax.conj().T - ax))
    r4 = float(np.linalg.norm(xa.conj().T - xa))
    limit = RESIDUAL_EPS * (1.0 + frobenius_norm(a))
    return PenroseReport(r1, r2, r3, r4, limit, max(r1, r2, r3, r4) <= limit)


# c in the square inverse gate's limit c * n * u. The smallest n is the
# tightest: LAPACK inverses of random complex 1x1 bases scored up to 8 u,
# 2x2 ones up to 3.7 * 2u, graded 30x30 ones (condition 1 to 1e12) up to
# 0.42 * 30u and 256x256 ones up to 0.07 * 256u. An inverse perturbed by a
# relative 1e-10 scores above 400 * 256u.
_INVERSE_GATE_C = 10.0


# From this order up, _inverse_gate forms XA on the worker thread while the
# caller forms AX. With one BLAS thread on 2 vCPUs (timeit, random complex
# bases), the two-thread gate against the sequential one reads 94 against
# 79 us at n = 64, 102 against 97 at 72, 104 against 111 at 76 and 111
# against 123 at 80: the hand-off costs about 30 us, and 80 is the first
# order where it saves a tenth.
_CONCURRENT_MIN_DIM = 80

_worker = None  # made by _submit on the first concurrent gate
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """A forked child inherits the executor but not its thread, and would
    wait on it for ever: the child makes an executor of its own."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _submit(fn, *args):
    """fn(*args) on the gate's one worker thread, in a copy of the caller's
    context; None when no thread can take it. During interpreter shutdown,
    atexit handlers included, concurrent.futures refuses new work and its
    thread module cannot even be imported: both raise RuntimeError.
    concurrent.futures is imported here, so a process that never reaches a
    concurrent gate never loads it. The worker calls numpy only: the
    perfbench tracer keeps one span stack that is not thread-safe, so no
    traced name (any module's __all__, DenseMatrix.__init__) may run on it."""
    global _worker
    try:
        with _worker_lock:
            if _worker is None:
                from concurrent.futures import ThreadPoolExecutor

                _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="phasealg-gate")
        return _worker.submit(contextvars.copy_context().run, fn, *args)
    except RuntimeError:
        return None


def _identity_residual(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> float:
    """||left @ right - I||_F, with the product written into out."""
    np.matmul(left, right, out=out)
    out.reshape(-1)[:: out.shape[0] + 1] -= 1.0
    return np.linalg.norm(out)


def _inverse_gate(a: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(ratio, limit) of the residual gate for a candidate inverse x of a
    square a: ratio = 2 max(||AX - I||_F, ||XA - I||_F) / (||A||_F ||X||_F)
    and limit = c * n * u, with u = eps / 2.

    Two products instead of penrose_check's four, and at least as strict as
    the four normwise-relative Penrose residuals: with E = AX - I and
    F = XA - I, ||AXA - A|| <= ||E|| ||A||, ||XAX - X|| <= ||X|| ||E||, and
    the Hermitian defects of AX and XA are at most 2||E|| and 2||F||. As
    the ratio does not change under A -> sA, X -> X / s, it is taken of the
    exact pair (A * 2^-e, X * 2^e) (core._exponent), where nothing overflows.
    The candidate passes when ratio <= limit; a nan ratio fails.

    From n = _CONCURRENT_MIN_DIM up, the two products run at the same time:
    the caller forms AX while the worker thread forms XA (_submit). Each is
    still one whole BLAS call on the same operands, so the ratio is bit for
    bit the sequential one. The caller allocates both n-by-n outputs, so the
    worker allocates nothing O(n^2) (an arena of its own would raise peak
    RSS); the worker runs in a copy of the caller's context, which carries
    np.errstate; and it calls numpy only. When the caller's product raises,
    it waits for the worker and raises its own error. When no worker can
    take XA (interpreter shutdown), the caller forms both. The gain needs a
    free core: at OpenBLAS's default thread count the two products contend,
    and the gate at 256 x 256 is about 2 % slower than the sequential one.
    """
    n = a.shape[0]
    e = core._exponent(a)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite ratio fails the gate
        if e:
            a, x = core._scale2(a, -e), core._scale2(x, e)
        ax = np.empty((n, n), dtype=np.result_type(a, x))
        xa = np.empty_like(ax)
        future = _submit(_identity_residual, x, a, xa) if n >= _CONCURRENT_MIN_DIM else None
        try:
            ax_norm = _identity_residual(a, x, ax)
        except BaseException:
            if future is not None:
                future.exception()  # the worker still writes xa: wait, then raise the caller's error
            raise
        xa_norm = _identity_residual(x, a, xa) if future is None else future.result()
        residual = np.maximum(ax_norm, xa_norm)  # propagates nan
        ratio = float(2.0 * residual / (core._frobenius(a) * core._frobenius(x)))
    return ratio, _INVERSE_GATE_C * n * float(np.finfo(np.float64).eps / 2)


def pinv_full_rank(a: DenseMatrix) -> DenseMatrix:
    """Pseudoinverse of a full-rank matrix via its smaller Gram system.

    Tall matrices solve (A^H A) X = A^H; wide ones form A^H (A A^H)^(-1);
    square ones invert directly. The Gram system G takes the LU oracle's one
    pivot test, |u_ii| <= RANK_EPS * ||G||_F, with the norm checked_pinv's
    Gram test uses too; a failure means rank-deficient input.
    Conditioning of the Gram system is squared relative to A; acceptable here
    because generated instances are condition-capped.
    """
    arr = a.array
    if a.rows == a.cols:
        return lu_factorize(a).inverse()
    if a.rows > a.cols:
        gram_mat = DenseMatrix._wrap(arr.conj().T @ arr)
        return DenseMatrix._wrap(lu_factorize(gram_mat).solve(arr.conj().T))
    gram_mat = DenseMatrix._wrap(arr @ arr.conj().T)
    return DenseMatrix._wrap(arr.conj().T @ lu_factorize(gram_mat).inverse().array)


def gram_hadamard_factorization(a: DenseMatrix, t: AngleMatrix) -> tuple[DenseMatrix, int, AngleMatrix]:
    """Factor the column Gram of the masked matrix without forming it.

    Returns (A^H A, m, G) where G is the left structured Gram of the angle
    matrix, so that (masked)^H (masked) equals (A^H A) entrywise-masked by
    materialize(G), i.e. by (1/m) of the dense angle Gram.
    """
    if t.shape != a.shape:
        raise ValueError(f"gram_hadamard_factorization shape mismatch: matrix {a.shape} vs angle matrix {t.shape}")
    scale, structured_gram = gram(t, "left")
    base_gram = DenseMatrix(a.array.conj().T @ a.array)
    return base_gram, scale, structured_gram


def _masked_pinv(x: np.ndarray, t: AngleMatrix) -> DenseMatrix:
    """The one masking step: the base (pseudo)inverse x of A, masked by the
    conjugate transpose of t, is the (pseudo)inverse of A masked by t, i.e.
    x rescaled by e^(-j*phi) on the rows and e^(-j*theta) on the columns.
    rescale raises OverflowError on a non-finite entry, so the result is
    wrapped without a second scan."""
    return DenseMatrix._wrap(rescale(x, -t.phi, -t.theta), proven_finite=True)


def pinv_structured(a: DenseMatrix, t: AngleMatrix) -> DenseMatrix:
    """Pseudoinverse of the masked matrix: one Gram solve on A, then
    _masked_pinv; the masked matrix is never formed. For a square A this is
    inverse_structured."""
    if t.shape != a.shape:
        raise ValueError(f"pinv_structured shape mismatch: matrix {a.shape} vs angle matrix {t.shape}")
    return _masked_pinv(checked_pinv(a.array), t)
