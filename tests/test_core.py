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
    ENTRY_EPS,
    RANK_EPS,
    RESIDUAL_EPS,
    DenseMatrix,
    SingularMatrixError,
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
from phasealg import core
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


@pytest.mark.parametrize("n", [2, 128])
def test_finiteness_scan_on_either_side_of_the_direct_scan_size(n):
    values = np.full((n, n), 1e308 + 1e308j)
    assert DenseMatrix(values).shape == (n, n)
    values[n - 1, 1] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match=rf"non-finite entry at \({n - 1}, 1\)"):
        DenseMatrix(values)


def test_rescale_at_the_bound_stays_finite_under_the_worst_rotation():
    # both parts of each entry sit on max / 8; a pi/4 factor turns an entry
    # onto one axis, sqrt(2) times that
    b = np.finfo(np.float64).max / 8
    x = np.array([[b + b * 1j, -b + b * 1j], [b - b * 1j, -b - b * 1j]])
    assert core._largest_part(x) == b
    phases = np.array([np.pi / 4, -np.pi / 4])
    assert np.isfinite(rescale(x, phases, phases)).all()


def test_largest_part_reads_strided_arrays():
    strided = np.asfortranarray([[1.0 - 3.0j, 0.5], [-2.0, 4.0j]])[:, ::-1]
    assert core._largest_part(strided) == 4.0 and core._largest_part(strided.T) == 4.0


def test_rescale_is_diagonal_scaling():
    gen = stream_generator(7, 0)
    x = draw_dense(gen, 3, 4).array
    alpha = gen.uniform(0, 2 * np.pi, 3)
    beta = gen.uniform(0, 2 * np.pi, 4)
    expected = np.diag(np.exp(1j * alpha)) @ x @ np.diag(np.exp(1j * beta))
    out = rescale(x, alpha, beta)
    assert type(out) is np.ndarray and out.dtype == np.complex128 and out.shape == (3, 4)
    assert out.flags.writeable and not np.shares_memory(out, x)
    assert np.abs(out - expected).max() <= 1e-15 * np.abs(x).max()


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (6, 3), (3, 6)])
def test_rescale_multiplies_columns_then_rows_bit_for_bit(shape):
    gen = stream_generator(11, 0)
    x = draw_dense(gen, *shape).array
    a = gen.uniform(-1e3, 1e3, shape[0])
    b = gen.uniform(-1e3, 1e3, shape[1])
    expected = (x * np.exp(1j * b)[None, :]) * np.exp(1j * a)[:, None]
    assert np.array_equal(rescale(x, a, b).view(np.uint64), expected.view(np.uint64))


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
        assert np.abs(product.array - 1.0).max() <= ENTRY_EPS


def test_dense_algebra_basics():
    a = DenseMatrix([[1 + 1j, 2, -1], [0, 3j, 4]])
    assert np.array_equal(identity(3).array @ transpose(a).array, a.array.T)
    assert np.array_equal(conjugate_transpose(DenseMatrix([[1j]])).array, [[-1j]])
    assert np.array_equal(conjugate_transpose(a).array, transpose(a).array.conj())
    assert frobenius_norm(DenseMatrix([[3, 4j]])) == pytest.approx(5.0, abs=0)


def test_frobenius_norm_of_subnormal_complex_entries():
    # every square underflows to 0, and dividing a complex array by a
    # subnormal real overflows; the norm is taken on the real parts instead
    part = 3.4e-309
    assert frobenius_norm(DenseMatrix(part * (1 - 1j) * np.eye(3))) == part * np.sqrt(6)


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
    assert np.abs(squared - product).max() <= ENTRY_EPS * np.abs(product).max()


def test_hadamard_square_absolute_at_unit_scale():
    gen = stream_generator(11, 0)
    for _ in range(20):
        a = draw_dense(gen, 5, 3)
        deviation = np.abs(a.array ** 2 - hadamard_product(a, a).array).max()
        assert deviation <= ENTRY_EPS


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
    with pytest.raises(ValueError, match="solve dimension mismatch: factor is 2x2, rhs has 3 rows"):
        lu_factorize(DenseMatrix(np.eye(2))).solve(np.ones((3, 1)))


def test_lu_singular_error_carries_pivot():
    singular = DenseMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as excinfo:
        inverse_lu(singular)
    assert excinfo.value.pivot >= 0.0
    assert "pivot" in str(excinfo.value)


def _unpacked(f) -> tuple[np.ndarray, np.ndarray]:
    """Unit lower-triangular L and upper-triangular U of a packed factorization."""
    return np.tril(f.packed, -1) + np.eye(f.packed.shape[0]), np.triu(f.packed)


def test_lu_factorization_residual_and_inverse():
    for trial in range(30):
        gen = stream_generator(17, trial)
        n = int(gen.integers(1, 17))
        a = draw_well_conditioned(gen, n, n)
        f = lu_factorize(a)
        lower, upper = _unpacked(f)
        p = np.eye(n)[f.permutation]
        assert np.linalg.norm(p @ a.array - lower @ upper) <= RESIDUAL_EPS * f.source_norm
        residual = np.linalg.norm(a.array @ f.inverse().array - np.eye(n))
        assert residual <= RESIDUAL_EPS


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
        lower, upper = _unpacked(f)
        n = a.rows
        assert f.packed.shape == (n, n) and not f.packed.flags.writeable
        assert f.det() == complex(f.parity * np.prod(np.diag(upper)))
        p = np.eye(n)[f.permutation]
        assert np.linalg.norm(p @ a.array - lower @ upper) <= RESIDUAL_EPS * f.source_norm


def test_packed_lu_inverse_on_pivoting_cases():
    for a in _lu_contract_cases():
        n = a.rows
        try:
            x = inverse_lu(a)
        except SingularMatrixError:
            assert np.abs(np.diag(lu_factorize(a).packed)).min() <= RANK_EPS * frobenius_norm(a)
            continue
        assert np.linalg.norm(a.array @ x.array - np.eye(n)) <= RESIDUAL_EPS


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


def _reference_lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(permutation, packed, parity) from the hand-LU loop as it stood before
    its call overhead was cut, kept verbatim: lu_factorize must reproduce it
    bit for bit, since verify reports are compared byte for byte."""
    n = a.shape[0]
    work = a.copy()
    perm = np.arange(n)
    parity = 1
    for k in range(n):
        p = k + int(np.argmax(np.abs(work[k:, k])))  # argmax takes the first max: lowest row wins ties
        if p != k:
            work[[k, p]] = work[[p, k]]
            perm[k], perm[p] = perm[p], perm[k]
            parity = -parity
        pivot = work[k, k]
        if pivot != 0 and k + 1 < n:
            col = work[k + 1:, k]
            col /= pivot
            work[k + 1:, k + 1:] -= col[:, None] * work[k, None, k + 1:]
    return perm, work, parity


_ZERO_PIVOT_COLUMN = np.array([[0, 1, 2], [0, 3, 4], [0, 5, 7]], dtype=np.complex128)


def _bitwise_lu_cases() -> list[np.ndarray]:
    cases = [draw_dense(stream_generator(1201, n), n, n).array for n in range(1, 13)]
    cases += [
        np.array([[1, 2, 0], [-1, 5, 1], [1j, 0, 2]], dtype=np.complex128),   # three tied pivot moduli
        np.array([[3, 1, 1], [-3j, 2, 0], [3, 0, 1]], dtype=np.complex128),   # ties again after the first swap
        _ZERO_PIVOT_COLUMN,
        np.array([[1, 2, 3], [2, 4, 6], [1, 0, 0]], dtype=np.complex128),     # zero pivot after elimination
    ]
    cases += [np.round(draw_dense(stream_generator(1203, n), n, n).array) for n in range(2, 9)]  # integer entries tie often
    return cases


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.complex128).view(np.uint64)


@pytest.mark.parametrize("a", _bitwise_lu_cases(), ids=lambda a: f"{a.shape[0]}x{a.shape[0]}")
def test_lu_factorize_is_bitwise_the_reference_loop(a):
    before = lu_factorization_count()
    f = lu_factorize(DenseMatrix(a))
    assert lu_factorization_count() == before + 1
    perm, packed, parity = _reference_lu(a)
    assert np.array_equal(_bits(f.packed), _bits(packed))
    assert np.array_equal(f.permutation, perm)
    assert f.parity == parity
    assert f.source_norm == frobenius_norm(DenseMatrix(a))


def _reference_solve(f, rhs: np.ndarray) -> np.ndarray:
    """LUFactorization.solve's substitution as it stood before it was made
    to work in place, kept verbatim as its bitwise reference."""
    n = f.packed.shape[0]
    b = np.asarray(rhs, dtype=np.complex128)[f.permutation]
    y = np.empty_like(b)
    lu = f.packed
    for i in range(n):
        y[i] = b[i] - lu[i, :i] @ y[:i]
    x = np.empty_like(y)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
    return x


@pytest.mark.parametrize("n", range(1, 13))
def test_lu_solve_is_bitwise_the_reference_substitution(n):
    gen = stream_generator(1207, n)
    f = lu_factorize(draw_well_conditioned(gen, n, n))
    for rhs in (np.eye(n, dtype=np.complex128), draw_dense(gen, n, 3).array, draw_dense(gen, n, 1).array[:, 0]):
        assert np.array_equal(_bits(f.solve(rhs)), _bits(_reference_solve(f, rhs)))
    assert np.array_equal(_bits(f.inverse().array), _bits(_reference_solve(f, np.eye(n))))


def test_lu_pivot_test_raises_at_the_same_floor():
    # ||diag(1, d)||_F rounds to 1 for d = 1e-10, so the floor rank_eps * ||A||_F is d itself
    floor = RANK_EPS
    at_floor = lu_factorize(DenseMatrix(np.diag([1.0, floor])))
    assert at_floor.source_norm == 1.0
    with pytest.raises(SingularMatrixError, match=f"pivot {floor:.3e} <= threshold {floor:.3e}") as excinfo:
        at_floor._check_pivots()
    assert excinfo.value.pivot == floor
    lu_factorize(DenseMatrix(np.diag([1.0, np.nextafter(floor, 1.0)])))._check_pivots()
    zero_column = DenseMatrix(_ZERO_PIVOT_COLUMN)
    with pytest.raises(SingularMatrixError, match=f"pivot 0.000e\\+00 <= threshold {floor * frobenius_norm(zero_column):.3e}"):
        inverse_lu(zero_column)


def test_lu_determinant_never_takes_the_source_norm(monkeypatch):
    def refuse(a):
        raise AssertionError("det_lu took ||A||_F")

    monkeypatch.setattr(core, "frobenius_norm", refuse)
    assert det_lu(DenseMatrix([[0, 2], [3, 1]])) == -6


LAPACK_SOLVERS = {"inv", "solve", "pinv", "slogdet", "det", "qr", "svd", "lstsq"}

# The only homes of each guarded call: a whole module, or a (module, function)
# pair. LAPACK solvers stay on the production route in core, with inv in
# _pinv_system alone; np.exp runs only in
# the one mask kernel of each route (rescale, materialize), the
# determinant's rotation and lemma3's fixed 2x2 expected value.
CALL_HOMES = {
    "numpy.linalg solver": {"core.py"},
    "numpy.linalg.inv": {("core.py", "_pinv_system")},
    "numpy.exp": {
        ("core.py", "rescale"),
        ("angle.py", "AngleMatrix.materialize"),
        ("structured.py", "det_structured"),
        ("verify.py", "_suite_lemma3"),
    },
}


def _guarded_calls(node: ast.AST, scope: str = "") -> list[tuple[str, str, int]]:
    """(kind, enclosing function, line) of every numpy.linalg solver call or
    import and every np.exp call in a module."""
    found = []
    routines = []
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner, attr = node.func.value, node.func.attr
        through_linalg = (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or (
            isinstance(owner, ast.Name) and owner.id == "linalg")
        if through_linalg and attr in LAPACK_SOLVERS:
            routines = [attr]
        elif isinstance(owner, ast.Name) and owner.id in ("np", "numpy") and attr == "exp":
            found.append(("numpy.exp", scope, node.lineno))
    elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
        routines = [alias.name for alias in node.names]
    for routine in routines:
        found.append(("numpy.linalg solver", scope, node.lineno))
        if routine == "inv":
            found.append(("numpy.linalg.inv", scope, node.lineno))
    for child in ast.iter_child_nodes(node):
        found.extend(_guarded_calls(child, scope))
    return found


def test_only_core_calls_lapack_solvers():
    package = pathlib.Path(phasealg.__file__).parent
    used = set()
    for path in sorted(package.glob("*.py")):
        for kind, scope, line in _guarded_calls(ast.parse(path.read_text(encoding="utf-8"))):
            homes = CALL_HOMES[kind]
            home = path.name if path.name in homes else (path.name, scope)
            assert home in homes, f"{path.name}:{line} calls {kind} in {scope or 'module scope'}"
            used.add((kind, home))
    assert used == {(kind, home) for kind, homes in CALL_HOMES.items() for home in homes}


PRODUCTION_ROUTE = {
    "checked_pinv", "slogdet", "rescale", "_masked_pinv", "det_structured", "inverse_structured",
    "inverse_structured_transposed", "pinv_structured", "precompute", "_inverse_gate", "apply_update",
    "condition_proxy",
}
ORACLES = {
    "lu_factorize", "LUFactorization", "det_lu", "inverse_lu", "pinv_full_rank", "hadamard_product", "cofactor",
    "adjugate", "inverse_adjugate_structured", "naive_update", "materialize", "penrose_check",
}
ORACLE_CALLS_ON_THE_ROUTE = set()


def _package_definitions() -> dict[str, list[ast.AST]]:
    """Every function, method and class of the package, by bare name."""
    definitions = {}
    package = pathlib.Path(phasealg.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
    return definitions


def _referenced_names(definition: ast.AST) -> set[str]:
    """Every name and attribute a function's body refers to, dunders aside;
    for a class, those of its constructors (annotations are not references)."""
    if isinstance(definition, ast.ClassDef):
        constructors = [node for node in definition.body if isinstance(node, ast.FunctionDef)
                        and node.name in ("__init__", "__post_init__", "__new__")]
        return set().union(*map(_referenced_names, constructors))
    names = set()
    for statement in definition.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not node.attr.startswith("__"):  # super().__init__
                names.add(node.attr)
    return names


def test_the_production_route_calls_no_oracle():
    # Names are followed by bare name through every definition that bears
    # one (both _wrap methods, say), so the walk over-approximates the calls;
    # an oracle is never walked into, only reported.
    definitions = _package_definitions()
    assert PRODUCTION_ROUTE <= definitions.keys() and ORACLES <= definitions.keys()
    reached, pending, oracle_calls = set(), list(PRODUCTION_ROUTE), set()
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for referenced in set().union(*map(_referenced_names, definitions[name])) & definitions.keys():
            if referenced in ORACLES:
                oracle_calls.add((name, referenced))
            else:
                pending.append(referenced)
    assert oracle_calls == ORACLE_CALLS_ON_THE_ROUTE
    assert {"_exponent", "_scale2", "_frobenius", "_require_condition", "_require_finite_result"} <= reached
    assert "run_benchmark" not in reached


def _package_imports(module: str) -> dict[str, set[str]]:
    """The package modules that a module's import statements name, each with
    the names taken from it (none for `from . import core`)."""
    path = pathlib.Path(phasealg.__file__).parent / f"{module}.py"
    imports = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("phasealg."):
                    imports.setdefault(alias.name.removeprefix("phasealg."), set())
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("phasealg")):
            source = (node.module or "").removeprefix("phasealg").removeprefix(".")
            if source:
                imports.setdefault(source, set()).update(alias.name for alias in node.names)
            else:
                for alias in node.names:
                    imports.setdefault(alias.name, set())
    return imports


LEMMAS = {
    "identity", "transpose", "conjugate_transpose", "hadamard_inverse", "hadamard_inverse_transpose", "gram",
    "gram_hadamard_factorization",
}
# A production module may import from any package module but those of the
# lemmas, the bench harness, verify and the CLI.
_PRODUCTION_SOURCES = dict.fromkeys(
    {path.stem for path in pathlib.Path(phasealg.__file__).parent.glob("*.py")} - {"lemmas", "bench", "verify", "cli"}
)
# module: ({package module it may import from: the names it may take from it,
# None for any}, the names it may take from none). engine serves precompute
# and apply_update alone, so it takes no oracle either.
IMPORT_RULES = {
    "core": (_PRODUCTION_SOURCES, LEMMAS),
    "angle": ({"core": {"DenseMatrix"}}, LEMMAS),
    "structured": (_PRODUCTION_SOURCES, LEMMAS),
    "pseudo": (_PRODUCTION_SOURCES, LEMMAS),
    "engine": ({"core": None, "angle": None, "pseudo": None}, LEMMAS | ORACLES),
    "generate": (_PRODUCTION_SOURCES, LEMMAS),
    "matio": ({"core": None, "angle": None}, set()),
    "lemmas": ({"core": None, "angle": None}, set()),
}


@pytest.mark.parametrize("module", IMPORT_RULES)
def test_package_imports_follow_the_rules(module):
    allowed, barred = IMPORT_RULES[module]
    imports = _package_imports(module)
    assert imports.keys() <= allowed.keys(), imports
    for source, names in imports.items():
        assert allowed[source] is None or names <= allowed[source], (source, names)
        assert not names & barred, (source, names & barred)
