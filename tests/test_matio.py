"""Matrix file formats: lossless round-trips and parse diagnostics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasealg import AngleMatrix, DenseMatrix, identity, read_matrix, write_matrix
from phasealg.matio import MatrixFormatError, dumps_report


def test_dense_round_trip_is_bit_exact(tmp_path):
    values = np.array([
        [0.1 + (1 / 3) * 1j, -0.0 + 1e-300j],
        [np.pi - 2.2250738585072014e-308j, 123456789.123456789 + 7j],
    ])
    path = tmp_path / "m.json"
    write_matrix(path, DenseMatrix(values))
    back = read_matrix(path)
    assert isinstance(back, DenseMatrix)
    assert np.array_equal(back.array, values)
    assert back.array.tobytes() == np.ascontiguousarray(values, dtype=np.complex128).tobytes()


def test_written_file_text_is_pinned(tmp_path):
    dense = DenseMatrix(np.array([
        [complex(-0.0, 5e-324), complex(1 / 3, -1e300)],
        [complex(1e16, 0.0), complex(0.0, -0.0)],
    ]))
    write_matrix(tmp_path / "m.json", dense)
    assert (tmp_path / "m.json").read_text(encoding="utf-8") == (
        '{"cols": 2, "data": [[-0.0, 5e-324], [0.3333333333333333, -1e+300], '
        '[1e+16, 0.0], [0.0, -0.0]], "kind": "dense", "rows": 2}\n'
    )
    write_matrix(tmp_path / "t.json", AngleMatrix(theta=[-0.0, 1 / 3], phi=[1e16, 5e-324, -7.25]))
    assert (tmp_path / "t.json").read_text(encoding="utf-8") == (
        '{"kind": "angle", "phi": [1e+16, 5e-324, -7.25], "theta": [-0.0, 0.3333333333333333]}\n'
    )


def test_identity_round_trip(tmp_path):
    path = tmp_path / "i.json"
    write_matrix(path, identity(2))
    back = read_matrix(path)
    assert back.array.tobytes() == identity(2).array.tobytes()


def test_angle_round_trip(tmp_path):
    t = AngleMatrix(theta=[0.0, -7.25, 1e-17], phi=[2 * np.pi, 0.30000000000000004])
    path = tmp_path / "t.json"
    write_matrix(path, t)
    back = read_matrix(path)
    assert isinstance(back, AngleMatrix)
    assert np.array_equal(back.theta, t.theta)
    assert np.array_equal(back.phi, t.phi)


def test_angle_file_parse(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"kind": "angle", "theta": [0, 1.5707963267948966], "phi": [0]}')
    back = read_matrix(path)
    assert back.shape == (2, 1)
    assert back.theta[1] == 1.5707963267948966


def test_malformed_kind_is_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "sparse", "rows": 1, "cols": 1, "data": [[1, 0]]}')
    with pytest.raises(MatrixFormatError, match="'kind'"):
        read_matrix(path)
    path.write_text('{"rows": 1}')
    with pytest.raises(MatrixFormatError, match="'kind'"):
        read_matrix(path)
    with pytest.raises(TypeError, match="cannot serialize ndarray"):
        write_matrix(path, np.eye(2))


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "dense",\n  broken')
    with pytest.raises(MatrixFormatError, match="line 2"):
        read_matrix(path)


def test_undecodable_file_names_its_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff{"kind": "dense"}')
    with pytest.raises(MatrixFormatError) as info:
        read_matrix(path)
    assert str(path) in str(info.value)
    assert "0xff at offset 0" in str(info.value)


def test_dense_dimension_inconsistency(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"kind": "dense", "rows": 2, "cols": 2, "data": [[1, 0], [2, 0], [3, 0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(MatrixFormatError, match="4 entries"):
        read_matrix(path)


def test_dense_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "dense", "rows": 1, "data": [[1, 0]]}')
    with pytest.raises(MatrixFormatError, match="'cols'"):
        read_matrix(path)


def test_dense_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"kind": "dense", "rows": 1, "cols": 1, "data": [[1e999, 0]]}
    path.write_text(json.dumps(payload).replace("Infinity", "1e999"))
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


def test_dense_rejects_malformed_pair(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1, 2, 3]]}')
    with pytest.raises(MatrixFormatError, match="pair"):
        read_matrix(path)


@pytest.mark.parametrize("field, text", [
    ("data", '"data": [[true, 0.0]]'),
    ("data", '"data": [["1.5", 0.0]]'),
    ("theta", '"theta": [true], "phi": [0.0]'),
    ("theta", '"theta": ["0.5"], "phi": [0.0]'),
    ("phi", '"theta": [0.0], "phi": [true]'),
    ("phi", '"theta": [0.0], "phi": ["0.5"]'),
])
def test_booleans_and_strings_are_not_numbers(tmp_path, field, text):
    path = tmp_path / "bad.json"
    kind = '"kind": "dense", "rows": 1, "cols": 1' if field == "data" else '"kind": "angle"'
    path.write_text(f"{{{kind}, {text}}}")
    with pytest.raises(MatrixFormatError, match=f"field '{field}' must hold real numbers"):
        read_matrix(path)


def test_angle_rejects_empty_phase_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "angle", "theta": [], "phi": [0]}')
    with pytest.raises(MatrixFormatError, match="'theta'"):
        read_matrix(path)
    path.write_text('{"kind": "angle", "theta": [Infinity], "phi": [0]}')
    with pytest.raises(MatrixFormatError, match="theta contains a non-finite phase"):
        read_matrix(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
# near-valid fields alongside arbitrary ones, so that some files load
numbers = st.integers() | st.floats()
matrix_files = json_values | st.fixed_dictionaries(
    {"kind": st.sampled_from(["dense", "angle"]) | json_values},
    optional={
        "rows": st.integers(1, 2) | json_values,
        "cols": st.integers(1, 2) | json_values,
        "data": st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=4) | json_values,
        "theta": st.lists(numbers, max_size=3) | json_values,
        "phi": st.lists(numbers, max_size=3) | json_values,
    },
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=matrix_files)
def test_any_json_value_loads_or_raises_matrix_format_error(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("any") / "m.json"
    path.write_text(json.dumps(payload))
    try:
        read_matrix(path)
    except MatrixFormatError:
        pass


def test_integer_beyond_the_digit_limit_is_a_format_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"kind": "angle", "theta": [' + "1" * 5000 + '], "phi": [0.0]}')
    with pytest.raises(MatrixFormatError, match="Exceeds the limit"):
        read_matrix(path)


def test_report_serialization_is_deterministic():
    report = {"b": 1.5, "a": [1, 2], "nested": {"z": 0.1, "y": True}}
    assert dumps_report(report) == dumps_report(dict(reversed(list(report.items()))))
