"""Dense matrix type, entrywise algebra, and the LU oracle."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phasealg
from phasealg import (
    DEFAULT_TOLERANCES,
    DenseMatrix,
    SingularMatrixError,
    ToleranceConfig,
    conjugate_transpose,
    det_lu,
    frobenius_norm,
    hadamard_inverse,
    hadamard_product,
    identity,
    inverse_lu,
    lu_factorization_count,
    lu_factorize,
    transpose,
)
from phasealg.core import rescale
from phasealg.generate import draw_dense, draw_well_conditioned, stream_generator


def test_dense_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match=r"non-finite entry at \(0, 1\)"):
        DenseMatrix([[1.0, np.nan], [0.0, 2.0]])
    with pytest.raises(ValueError, match="non-finite"):
        DenseMatrix([[np.inf]])


def test_dense_matrix_accepts_finite_entries_whose_sum_overflows():
    a = DenseMatrix([[1e308, 1e308], [1e308 + 1e308j, 1.0]])
    assert np.isfinite(a.array).all()


def test_rescale_rejects_overflow_from_rotation():
    # finite entry whose modulus exceeds the float maximum: a pi/4 rotation
    # moves it all onto one axis, which overflows
    x = np.array([[1.5e308 + 1.5e308j]])
    with pytest.raises(ValueError, match="non-finite"):
        rescale(x, np.array([np.pi / 4]), np.array([0.0]))


def test_rescale_is_diagonal_scaling():
    gen = stream_generator(7, 0)
    x = draw_dense(gen, 3, 4).array
    alpha = gen.uniform(0, 2 * np.pi, 3)
    beta = gen.uniform(0, 2 * np.pi, 4)
    expected = np.diag(np.exp(1j * alpha)) @ x @ np.diag(np.exp(1j * beta))
    out = rescale(x, alpha, beta)
    assert isinstance(out, DenseMatrix) and not out.array.flags.writeable
    assert np.abs(out.array - expected).max() <= 1e-15 * np.abs(x).max()


def test_dense_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError, match="2-D"):
        DenseMatrix([1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        DenseMatrix(np.empty((0, 3)))


def test_dense_matrix_is_immutable():
    a = DenseMatrix([[1.0, 2.0]])
    assert not a.array.flags.writeable
    with pytest.raises(ValueError):
        a.array[0, 0] = 5.0


def test_tolerance_config_rejects_non_positive():
    with pytest.raises(ValueError, match="entry_eps"):
        ToleranceConfig(entry_eps=0.0)
    with pytest.raises(ValueError, match="condition_cap"):
        ToleranceConfig(condition_cap=-1.0)


def test_hadamard_product_identity_and_zero_cases():
    a = DenseMatrix([[1 + 2j, -3, 0.5], [2j, 7, -1j]])
    assert np.array_equal(hadamard_product(a, DenseMatrix(np.ones((2, 3)))).array, a.array)
    z = DenseMatrix(np.zeros((2, 2)))
    b = DenseMatrix([[1, 2], [3, 4]])
    assert np.array_equal(hadamard_product(z, b).array, np.zeros((2, 2)))


def test_hadamard_product_frozen_value():
    a = DenseMatrix([[1 + 1j, 2], [0, -1j]])
    b = DenseMatrix([[2, 1j], [5, 1j]])
    expected = np.array([[2 + 2j, 2j], [0, 1]])
    assert np.allclose(hadamard_product(a, b).array, expected, rtol=0, atol=0)


def test_hadamard_product_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
        hadamard_product(DenseMatrix(np.ones((2, 3))), DenseMatrix(np.ones((3, 2))))


def test_hadamard_inverse_cases():
    assert np.array_equal(hadamard_inverse(DenseMatrix(np.ones((3, 3)))).array, np.ones((3, 3)))
    assert np.array_equal(hadamard_inverse(DenseMatrix([[2.0]])).array, [[0.5]])
    a = DenseMatrix([[1j, -1], [2j, 1 + 1j]])
    expected = np.array([[-1j, -1], [-0.5j, 0.5 - 0.5j]])
    assert np.allclose(hadamard_inverse(a).array, expected, rtol=0, atol=1e-16)
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        hadamard_inverse(DenseMatrix([[1, 2], [0, 3]]))


def test_hadamard_inverse_round_trip():
    gen = stream_generator(5, 0)
    for _ in range(20):
        a = draw_dense(gen, 4, 5)
        product = hadamard_product(a, hadamard_inverse(a))
        assert np.abs(product.array - 1.0).max() <= DEFAULT_TOLERANCES.entry_eps


def test_dense_algebra_basics():
    a = DenseMatrix([[1 + 1j, 2, -1], [0, 3j, 4]])
    assert np.array_equal(identity(3).array @ transpose(a).array, a.array.T)
    assert np.array_equal(conjugate_transpose(DenseMatrix([[1j]])).array, [[-1j]])
    assert np.array_equal(conjugate_transpose(a).array, transpose(a).array.conj())
    assert frobenius_norm(DenseMatrix([[3, 4j]])) == pytest.approx(5.0, abs=0)


complex_entries = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(arrays(np.complex128, (3, 4), elements=complex_entries),
       arrays(np.complex128, (3, 4), elements=complex_entries))
def test_hadamard_product_commutes(a, b):
    left = hadamard_product(DenseMatrix(a), DenseMatrix(b)).array
    right = hadamard_product(DenseMatrix(b), DenseMatrix(a)).array
    assert np.array_equal(left, right)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(arrays(np.complex128, (3, 3), elements=complex_entries))
def test_hadamard_square_matches_self_product(a):
    m = DenseMatrix(a)
    squared = a ** 2
    product = hadamard_product(m, m).array
    assert np.abs(squared - product).max() <= DEFAULT_TOLERANCES.entry_eps * np.abs(product).max()


def test_hadamard_square_absolute_at_unit_scale():
    gen = stream_generator(11, 0)
    for _ in range(20):
        a = draw_dense(gen, 5, 3)
        deviation = np.abs(a.array ** 2 - hadamard_product(a, a).array).max()
        assert deviation <= DEFAULT_TOLERANCES.entry_eps


def test_lu_determinant_identity_and_parity():
    assert det_lu(identity(4)) == pytest.approx(1.0)
    assert det_lu(DenseMatrix([[0, 1], [1, 0]])) == pytest.approx(-1.0)


def test_lu_inverse_of_diagonal():
    a = DenseMatrix([[2j, 0], [0, 3]])
    expected = np.array([[-0.5j, 0], [0, 1 / 3]])
    assert np.allclose(inverse_lu(a).array, expected, rtol=0, atol=1e-16)


def test_lu_requires_square():
    with pytest.raises(ValueError, match="square"):
        lu_factorize(DenseMatrix(np.ones((2, 3))))


def test_lu_singular_error_carries_pivot():
    singular = DenseMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as excinfo:
        inverse_lu(singular)
    assert excinfo.value.pivot >= 0.0
    assert "pivot" in str(excinfo.value)


def test_lu_factorization_residual_and_inverse():
    for trial in range(30):
        gen = stream_generator(17, trial)
        n = int(gen.integers(1, 17))
        a = draw_well_conditioned(gen, n, n)
        f = lu_factorize(a)
        p = np.eye(n)[f.permutation]
        assert np.linalg.norm(p @ a.array - f.lower @ f.upper) <= DEFAULT_TOLERANCES.residual_eps * f.source_norm
        residual = np.linalg.norm(a.array @ f.inverse().array - np.eye(n))
        assert residual <= DEFAULT_TOLERANCES.residual_eps


def _lu_contract_cases():
    cases = [
        DenseMatrix([[0, 1], [1, 0]]),             # swap, parity -1
        DenseMatrix([[1, 0], [10, 1]]),            # swap to the larger pivot
        DenseMatrix([[1, 2], [-1, 3]]),            # tied moduli: the lowest row wins
        DenseMatrix([[0, 1, 2], [0, 3, 4], [5, 6, 8]]),
        DenseMatrix([[0, 1], [0, 2]]),             # zero column: a zero pivot is kept
    ]
    for trial in range(20):
        gen = stream_generator(41, trial)
        n = int(gen.integers(1, 17))
        cases.append(draw_dense(gen, n, n))
        cases.append(DenseMatrix(np.round(draw_dense(gen, n, n).array)))  # integer entries tie often
    return cases


def test_packed_lu_contract():
    for a in _lu_contract_cases():
        f = lu_factorize(a)
        lower, upper = f.lower, f.upper
        n = a.rows
        assert np.array_equal(np.diag(lower), np.ones(n))
        assert np.array_equal(lower, np.tril(lower))
        assert np.array_equal(upper, np.triu(upper))
        assert not lower.flags.writeable and not upper.flags.writeable
        assert f.det() == complex(f.parity * np.prod(np.diag(upper)))
        assert np.array_equal(f.pivot_magnitudes(), np.abs(np.diag(upper)))
        p = np.eye(n)[f.permutation]
        assert np.linalg.norm(p @ a.array - lower @ upper) <= DEFAULT_TOLERANCES.residual_eps * f.source_norm


def test_packed_lu_inverse_on_pivoting_cases():
    for a in _lu_contract_cases():
        n = a.rows
        try:
            x = inverse_lu(a)
        except SingularMatrixError:
            assert lu_factorize(a).pivot_magnitudes().min() <= DEFAULT_TOLERANCES.rank_eps * frobenius_norm(a)
            continue
        assert np.linalg.norm(a.array @ x.array - np.eye(n)) <= DEFAULT_TOLERANCES.residual_eps


def test_lu_determinant_is_multiplicative():
    for trial in range(20):
        gen = stream_generator(23, trial)
        n = int(gen.integers(1, 9))
        a = draw_dense(gen, n, n)
        b = draw_dense(gen, n, n)
        product_det = det_lu(DenseMatrix(a.array @ b.array))
        separate = det_lu(a) * det_lu(b)
        assert abs(product_det - separate) <= 1e-10 * (1 + abs(separate))


def test_lu_pivots_choose_largest_modulus():
    a = DenseMatrix([[1, 0], [10, 1]])
    f = lu_factorize(a)
    assert list(f.permutation) == [1, 0]
    assert f.parity == -1


def test_lu_factorization_counter_increments():
    before = lu_factorization_count()
    lu_factorize(identity(3))
    assert lu_factorization_count() == before + 1


LAPACK_SOLVERS = {"inv", "solve", "pinv", "slogdet", "det", "qr", "svd", "lstsq"}


def _lapack_solver_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(routine, line) of every numpy.linalg solver call or import in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            through_linalg = (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or (
                isinstance(owner, ast.Name) and owner.id == "linalg")
            if through_linalg and node.func.attr in LAPACK_SOLVERS:
                found.append((node.func.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            found.extend((alias.name, node.lineno) for alias in node.names)
    return found


def test_only_core_calls_lapack_solvers():
    package = pathlib.Path(phasealg.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = _lapack_solver_calls(tree)
        if path.name != "core.py":
            assert not calls, f"{path.name} calls numpy.linalg solvers {calls}"
            continue
        pinv = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "checked_pinv")
        inverses = [line for name, line in calls if name == "inv"]
        assert inverses and all(pinv.lineno <= line <= pinv.end_lineno for line in inverses)
