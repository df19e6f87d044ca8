"""Textual file formats: matrices and verification reports.

Matrix files are JSON with a `kind` discriminator:

    {"kind": "dense", "rows": m, "cols": n, "data": [[re, im], ...]}   (row-major)
    {"kind": "angle", "theta": [radians, ...], "phi": [radians, ...]}

Floats are serialized in shortest round-trip decimal form (Python repr), so a
write/read cycle reproduces every finite 64-bit value bit for bit. Reports are
schema-versioned JSON with sorted keys.
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from .angle import AngleMatrix
from .core import DenseMatrix

__all__ = [
    "MatrixFormatError",
    "MatrixValue",
    "read_matrix",
    "write_matrix",
    "dumps_report",
    "write_report",
]

MatrixValue = Union[DenseMatrix, AngleMatrix]

REPORT_SCHEMA_VERSION = 1


class MatrixFormatError(ValueError):
    """Malformed matrix file: bad JSON, missing field, or inconsistent data."""


def _real(value, path: str, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MatrixFormatError(f"{path}: field '{field}' must hold real numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise MatrixFormatError(f"{path}: field '{field}' holds an integer outside the float64 range") from None


def _dense_payload(a: DenseMatrix) -> dict:
    return {
        "kind": "dense",
        "rows": a.rows,
        "cols": a.cols,
        "data": a.array.ravel().view(np.float64).reshape(-1, 2).tolist(),
    }


def _angle_payload(t: AngleMatrix) -> dict:
    return {
        "kind": "angle",
        "theta": t.theta.tolist(),
        "phi": t.phi.tolist(),
    }


def write_matrix(path, value: MatrixValue) -> None:
    if isinstance(value, DenseMatrix):
        payload = _dense_payload(value)
    elif isinstance(value, AngleMatrix):
        payload = _angle_payload(value)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def _parse_dense(payload: dict, path: str) -> DenseMatrix:
    try:
        rows = payload["rows"]
        cols = payload["cols"]
        data = payload["data"]
    except KeyError as err:
        raise MatrixFormatError(f"{path}: dense matrix file is missing field {err.args[0]!r}") from None
    if any(isinstance(d, bool) or not isinstance(d, int) for d in (rows, cols)) or rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: fields 'rows'/'cols' must be positive integers, got {rows!r}/{cols!r}")
    if not isinstance(data, list) or len(data) != rows * cols:
        count = len(data) if isinstance(data, list) else data
        raise MatrixFormatError(f"{path}: field 'data' must hold {rows * cols} entries for a {rows}x{cols} matrix, got {count!r}")
    entries = np.empty(rows * cols, dtype=np.complex128)
    for index, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise MatrixFormatError(f"{path}: field 'data' entry {index} must be a [re, im] pair, got {pair!r}")
        entries[index] = complex(_real(pair[0], path, "data"), _real(pair[1], path, "data"))
    try:
        return DenseMatrix(entries.reshape(rows, cols))
    except ValueError as err:
        raise MatrixFormatError(f"{path}: {err}") from None


def _parse_angle(payload: dict, path: str) -> AngleMatrix:
    try:
        theta = payload["theta"]
        phi = payload["phi"]
    except KeyError as err:
        raise MatrixFormatError(f"{path}: angle matrix file is missing field {err.args[0]!r}") from None
    for field, values in (("theta", theta), ("phi", phi)):
        if not isinstance(values, list) or not values:
            raise MatrixFormatError(f"{path}: field '{field}' must be a non-empty list of radians")
        for value in values:
            _real(value, path, field)
    try:
        return AngleMatrix(theta=theta, phi=phi)
    except ValueError as err:
        raise MatrixFormatError(f"{path}: {err}") from None


def read_matrix(path) -> MatrixValue:
    """Parse a matrix file; the `kind` field selects dense vs angle."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as err:
        raise MatrixFormatError(f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from None
    except UnicodeDecodeError as err:
        raise MatrixFormatError(f"{path}: not UTF-8 text: byte {err.object[err.start]:#04x} at offset {err.start}") from None
    except RecursionError:
        raise MatrixFormatError(f"{path}: JSON nested too deeply to parse") from None
    except ValueError as err:  # an integer literal beyond Python's digit limit
        raise MatrixFormatError(f"{path}: {err}") from None
    if not isinstance(payload, dict):
        raise MatrixFormatError(f"{path}: expected a JSON object with a 'kind' field")
    kind = payload.get("kind")
    if kind == "dense":
        return _parse_dense(payload, str(path))
    if kind == "angle":
        return _parse_angle(payload, str(path))
    raise MatrixFormatError(f"{path}: field 'kind' must be 'dense' or 'angle', got {kind!r}")


def dumps_report(report: dict) -> str:
    """Deterministic report serialization: sorted keys, repr floats."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_report(report))
