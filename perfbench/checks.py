"""Output checks made apart from the program under test.

Every reference here is computed with numpy (LAPACK inverses, pseudoinverses
and slogdet, plus the four Penrose conditions written out), and verify
reports are read with the plain `json` module. Nothing here imports
phasealg.
"""

from __future__ import annotations

import json
import re

import numpy as np

# The README's Frobenius residual gate (ToleranceConfig.residual_eps); limits
# scale it by the dimension exactly as the library's own benchmark gate does.
RESIDUAL_EPS = 1e-8


def masked(a: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Dense A ∘ T for T[i, k] = exp(j*(theta_i + phi_k))."""
    return np.exp(1j * theta)[:, None] * a * np.exp(1j * phi)[None, :]


def identity_ok(m: np.ndarray, x: np.ndarray) -> bool:
    """||X M - I||_F <= residual_eps * n."""
    n = m.shape[0]
    return bool(np.linalg.norm(x @ m - np.eye(n)) <= RESIDUAL_EPS * n)


def agrees(x: np.ndarray, reference: np.ndarray) -> bool:
    """||X - ref||_F <= residual_eps * max(shape) * ||ref||_F."""
    if x.shape != reference.shape:
        return False
    limit = RESIDUAL_EPS * max(reference.shape) * np.linalg.norm(reference)
    return bool(np.linalg.norm(x - reference) <= limit)


def inverse_ok(m: np.ndarray, x: np.ndarray) -> bool:
    return x.shape == m.shape and identity_ok(m, x) and agrees(x, np.linalg.inv(m))


def penrose_ok(m: np.ndarray, x: np.ndarray) -> bool:
    """The four Moore-Penrose conditions, each within residual_eps * (1 + ||M||_F)."""
    if x.shape != (m.shape[1], m.shape[0]):
        return False
    mx = m @ x
    xm = x @ m
    residuals = (
        np.linalg.norm(mx @ m - m),
        np.linalg.norm(xm @ x - x),
        np.linalg.norm(mx.conj().T - mx),
        np.linalg.norm(xm.conj().T - xm),
    )
    return bool(max(residuals) <= RESIDUAL_EPS * (1.0 + np.linalg.norm(m)))


def pinv_ok(m: np.ndarray, x: np.ndarray) -> bool:
    return penrose_ok(m, x) and agrees(x, np.linalg.pinv(m))


def det_ok(m: np.ndarray, value: complex) -> bool:
    """Relative error against slogdet within residual_eps * n (nan fails)."""
    sign, logabs = np.linalg.slogdet(m)
    reference = sign * np.exp(logabs)
    return bool(abs(value - reference) <= RESIDUAL_EPS * m.shape[0] * abs(reference))


# --- probe checks: O(mn) per output, never stricter than the full ones -----
# Each probes ||B p|| for a unit vector p, where B is a residual matrix whose
# Frobenius norm the full check bounds; since ||B p|| <= ||B||_F, an output
# that passes the full check passes its probe check.

def masked_matvec(a, theta, phi, v):
    """(A ∘ T) v without forming A ∘ T."""
    return np.exp(1j * theta) * (a @ (np.exp(1j * phi) * v))


def masked_rmatvec(a, theta, phi, u):
    """(A ∘ T)^H u without forming A ∘ T."""
    return np.exp(-1j * phi) * ((np.exp(-1j * theta) * u).conj() @ a).conj()


def inverse_probe_ok(a, theta, phi, x, v) -> bool:
    """||X (A ∘ T) v - v|| <= residual_eps * n."""
    if x.shape != a.shape:
        return False
    residual = x @ masked_matvec(a, theta, phi, v) - v
    return bool(np.linalg.norm(residual) <= RESIDUAL_EPS * v.shape[0])


def penrose_probe_ok(a, theta, phi, x, v, u) -> bool:
    """The four Penrose conditions probed with unit v (length n) and u (length m)."""
    if x.shape != (a.shape[1], a.shape[0]):
        return False

    def mv(p):
        return masked_matvec(a, theta, phi, p)

    def xh(p):
        return (p.conj() @ x).conj()

    mv_v = mv(v)
    x_u = x @ u
    residuals = (
        np.linalg.norm(mv(x @ mv_v) - mv_v),
        np.linalg.norm(x @ mv(x_u) - x_u),
        np.linalg.norm(xh(masked_rmatvec(a, theta, phi, u)) - mv(x_u)),
        np.linalg.norm(masked_rmatvec(a, theta, phi, xh(v)) - x @ mv_v),
    )
    return bool(max(residuals) <= RESIDUAL_EPS * (1.0 + np.linalg.norm(a)))


def unit_probe(gen, n: int) -> np.ndarray:
    p = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    return p / np.linalg.norm(p)


# --- verification reports -------------------------------------------------

def report_ok(text: str) -> bool:
    """`passed: true` and every check's max_ratio <= 1."""
    report = json.loads(text)
    ratios = [check["max_ratio"] for suite in report["suites"] for check in suite["checks"]]
    return report["passed"] is True and bool(ratios) and all(r <= 1.0 for r in ratios)


_WALL_TIME = re.compile(r'"wall_time_s": [^,\n]*')


def same_report(first: str, second: str) -> bool:
    """Byte-identical apart from the wall_time_s value, as the README documents."""
    return _WALL_TIME.sub("", first) == _WALL_TIME.sub("", second)
