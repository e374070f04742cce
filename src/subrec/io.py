"""JSON schemas for channels, subsystems and reports.

Wire formats (language neutral, lossless at double precision):

* complex numbers are ``[re, im]`` pairs;
* matrices are row-major nested lists of such pairs;
* channel: ``{"dim": d, "kraus": [K1, K2, ...]}`` with each ``Ki`` a
  d-list of d-lists of pairs;
* subsystem: ``{"dim": d, "dA": dA, "dB": dB, "W": [col1, col2, ...]}``
  with W stored column-major, each column a d-list of pairs.

Parsing checks types, nesting and pair lengths before it builds an
array and raises :class:`~subrec.errors.MalformedInput` otherwise.
Canonical serialization is deterministic, so serialize -> parse ->
serialize round-trips byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

from .channel import KrausChannel
from .errors import DimensionMismatch, MalformedInput
from .linalg import DEFAULT_TOL
from .subsystem import SubsystemDecomposition

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "channel_to_json",
    "channel_from_json",
    "subsystem_to_json",
    "subsystem_from_json",
    "canonical_dumps",
]


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


def _pairs(obj, what: str, depth: int) -> np.ndarray:
    """Complex array from ``depth`` levels of nested lists of [re, im] pairs."""
    try:
        arr = np.asarray(obj)
    except ValueError:  # ragged nesting, e.g. a truncated [re] pair
        raise MalformedInput(f"{what}: nested lists of unequal lengths") from None
    if arr.dtype.kind not in "iuf" or arr.ndim != depth + 1 or arr.shape[-1] != 2:
        raise MalformedInput(
            f"{what} must be {depth} levels of lists of [re, im] number pairs")
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def _positive_int(obj: dict, key: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MalformedInput(f"{key!r} must be a positive integer, got {value!r}")
    return value


def _require_fields(obj, what: str, keys) -> None:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise MalformedInput(f"{what} lacks the field(s) {missing}")


def matrix_from_json(obj) -> np.ndarray:
    return _pairs(obj, "matrix", 2)


def channel_to_json(ch: KrausChannel) -> dict:
    return {"dim": ch.dim, "kraus": [matrix_to_json(k) for k in ch.kraus]}


def channel_from_json(obj, require_tp: bool = True,
                      tol: float = DEFAULT_TOL) -> KrausChannel:
    _require_fields(obj, "channel", ("dim", "kraus"))
    dim = _positive_int(obj, "dim")
    ch = KrausChannel(list(_pairs(obj["kraus"], "kraus", 3)), require_tp=require_tp, tol=tol)
    if ch.dim != dim:
        raise DimensionMismatch(
            f"declared dim {dim} does not match Kraus shape {ch.dim}")
    return ch


def subsystem_to_json(dec: SubsystemDecomposition) -> dict:
    return {"dim": dec.dim, "dA": dec.d_a, "dB": dec.d_b, "W": matrix_to_json(dec.w.T)}


def subsystem_from_json(obj, tol: float = DEFAULT_TOL) -> SubsystemDecomposition:
    _require_fields(obj, "subsystem", ("dim", "dA", "dB", "W"))
    dim, d_a, d_b = (_positive_int(obj, key) for key in ("dim", "dA", "dB"))
    columns = _pairs(obj["W"], "W", 2)
    return SubsystemDecomposition(dim, d_a, d_b, columns.T, tol=tol)


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: fixed separators, preserved key order."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)
