"""JSON schemas for channels, subsystems and reports.

Wire formats (language neutral, lossless at double precision):

* complex numbers are ``[re, im]`` pairs;
* matrices are row-major nested lists of such pairs;
* channel: ``{"dim": d, "kraus": [K1, K2, ...]}`` with each ``Ki`` a
  d-list of d-lists of pairs;
* subsystem: ``{"dim": d, "dA": dA, "dB": dB, "W": [col1, col2, ...]}``
  with W stored column-major, each column a d-list of pairs.

Matrices move between ndarrays and wire text without a Python list per
entry.  :func:`canonical_dumps` writes an ndarray wherever a matrix
goes, row by row, and hands every subtree without an array to
``json.dumps`` whole.  :func:`read_json` reads the top-level object with
``json.JSONDecoder.raw_decode`` and turns each element of an array value
(one Kraus operator, one W column) into an ndarray before it reads the
next, so at most one element's lists are alive at a time; any input
that is not such an object is parsed, or rejected, by ``json.loads``.
The parse tree has no reference cycles, so :func:`read_json` pauses
Python's cyclic garbage collector for the parse (process-global, for
that one call; it is re-enabled on return or error if it was enabled
on entry): its passes over a large file's parsed floats would find
nothing to free.

Parsing checks types, nesting, pair lengths and that every entry is a
number (JSON ``true`` and ``false`` are not) before it builds a channel
or a subsystem, and raises :class:`~subrec.errors.MalformedInput`
otherwise.  Canonical serialization is deterministic, so serialize ->
parse -> serialize round-trips byte for byte.
"""

from __future__ import annotations

import gc
import json
import re

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
    "read_json",
]

_DECODER = json.JSONDecoder()
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's insignificant whitespace


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


def _holds_bool(obj) -> bool:
    """Whether nested lists hold a JSON true or false, which numpy reads as
    1 or 0.  Arrays, such as the elements :func:`read_json` makes, are
    taken as numbers."""
    if isinstance(obj, np.ndarray):
        return False
    if isinstance(obj, list) and any(isinstance(x, np.ndarray) for x in obj):
        return any(map(_holds_bool, obj))
    return bool in set(map(type, np.asarray(obj, dtype=object).flat))


def _pairs(obj, what: str, depth: int) -> np.ndarray:
    """Complex array from ``depth`` levels of nested lists of [re, im] pairs;
    the outer list may hold its elements as arrays (see :func:`read_json`)."""
    try:
        arr = np.asarray(obj)
    except ValueError:  # ragged nesting, e.g. a truncated [re] pair
        raise MalformedInput(f"{what}: nested lists of unequal lengths") from None
    if (arr.dtype.kind not in "iuf" or arr.ndim != depth + 1 or arr.shape[-1] != 2
            or _holds_bool(obj)):
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
    """The wire object of a channel, its Kraus operators as arrays for
    :func:`canonical_dumps`."""
    return {"dim": ch.dim, "kraus": list(ch.kraus)}


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
    """The wire object of a subsystem, W (column-major) as an array for
    :func:`canonical_dumps`."""
    return {"dim": dec.dim, "dA": dec.d_a, "dB": dec.d_b, "W": dec.w.T}


def subsystem_from_json(obj, tol: float = DEFAULT_TOL) -> SubsystemDecomposition:
    _require_fields(obj, "subsystem", ("dim", "dA", "dB", "W"))
    dim, d_a, d_b = (_positive_int(obj, key) for key in ("dim", "dA", "dB"))
    columns = _pairs(obj["W"], "W", 2)
    return SubsystemDecomposition(dim, d_a, d_b, columns.T, tol=tol)


# -- encoding ---------------------------------------------------------------

# json.dumps(obj, separators=(",", ":"), allow_nan=False), without building
# an encoder per call
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _holds_array(obj) -> bool:
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return isinstance(obj, np.ndarray)
    return any(map(_holds_array, obj))


def _put_rows(a: np.ndarray, row: str, out: list) -> None:
    # ``row`` formats one row's floats with float.__repr__, the bytes
    # json.dumps writes for a finite float
    if a.ndim == 1:
        out.append(row.format(*np.ascontiguousarray(a).view(float).tolist()))
        return
    sep = "["
    for sub in a:
        out.append(sep)
        _put_rows(sub, row, out)
        sep = ","
    out.append("]" if len(a) else "[]")


def _put(obj, out: list) -> None:
    """Append the canonical text of ``obj`` to ``out``."""
    if isinstance(obj, np.ndarray):
        m = np.asarray(obj, dtype=complex)
        if not np.isfinite(m).all():
            raise ValueError("Out of range float values are not JSON compliant")
        _put_rows(m, "[" + ",".join(["[{!r},{!r}]"] * m.shape[-1]) + "]", out)
    elif not _holds_array(obj):
        out.append(_dumps(obj))
    elif isinstance(obj, dict):
        sep = "{"
        for key, value in obj.items():
            # json.dumps of a one-entry dict spells the key as json does
            out.append(sep + _dumps({key: 0})[1:-2])
            _put(value, out)
            sep = ","
        out.append("}")
    else:
        sep = "["
        for value in obj:
            out.append(sep)
            _put(value, out)
            sep = ","
        out.append("]")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: fixed separators, preserved key order.

    A complex or real ndarray (at least one-dimensional) may stand
    wherever a matrix goes; it is written as ``json.dumps`` writes its
    :func:`matrix_to_json` lists.  A NaN or infinite entry raises
    ``ValueError``, anywhere in ``obj``.
    """
    out: list = []
    _put(obj, out)
    return "".join(out)


# -- decoding ---------------------------------------------------------------

class _Unexpected(Exception):
    """The text is not a JSON object read element by element; json.loads decides."""


def _skip(text: str, pos: int) -> int:
    return _WHITESPACE.match(text, pos).end()


def _element(text: str, start: int):
    """(element, end) of the array element at ``start``: a list that numpy
    reads as numbers becomes an ndarray, and its lists are freed on return;
    any other value is kept as parsed, for the schema check to judge."""
    value, end = _DECODER.raw_decode(text, start)
    if not isinstance(value, list):
        return value, end
    try:
        arr = np.asarray(value)
    except (ValueError, OverflowError):
        return value, end
    if arr.dtype.kind not in "iuf" or _has_boolean(text, start, end):
        return value, end
    return arr, end


def _has_boolean(text: str, start: int, end: int) -> bool:
    # a numeric element holds no string, so "true" and "false" are booleans;
    # one-character finds (memchr) rule them out before the exact ones run
    return any(text.find(word[0], start, end) >= 0 and text.find(word, start, end) >= 0
               for word in ("true", "false"))


def _read_value(text: str, pos: int):
    """(value, end) of the JSON value at ``pos``; an array's elements are
    read one at a time through :func:`_element`."""
    if not text.startswith("[", pos):
        return _DECODER.raw_decode(text, pos)
    items = []
    pos = _skip(text, pos + 1)
    if text.startswith("]", pos):
        return items, pos + 1
    while True:
        item, pos = _element(text, pos)
        items.append(item)
        pos = _skip(text, pos)
        if text.startswith("]", pos):
            return items, pos + 1
        if not text.startswith(",", pos):
            raise _Unexpected
        pos = _skip(text, pos + 1)


def _read_object(text: str) -> dict:
    pos = _skip(text, 0)
    if not text.startswith("{", pos):
        raise _Unexpected
    obj = {}
    pos = _skip(text, pos + 1)
    if text.startswith("}", pos):
        pos += 1
    else:
        while True:
            key, pos = _DECODER.raw_decode(text, pos)
            pos = _skip(text, pos)
            if not isinstance(key, str) or not text.startswith(":", pos):
                raise _Unexpected
            obj[key], pos = _read_value(text, _skip(text, pos + 1))
            pos = _skip(text, pos)
            if text.startswith("}", pos):
                pos += 1
                break
            if not text.startswith(",", pos):
                raise _Unexpected
            pos = _skip(text, pos + 1)
    if _skip(text, pos) != len(text):
        raise _Unexpected
    return obj


def read_json(fh):
    """The JSON document in the text file ``fh``, as ``json.load`` reads it,
    except that each element of a top-level array value that numpy reads as
    numbers is an ndarray (:func:`channel_from_json` and
    :func:`subsystem_from_json` take either form).

    Invalid JSON raises ``json.JSONDecodeError``, from ``json.loads``.
    The cyclic garbage collector is paused while the text is parsed and
    left as it was found.
    """
    text = fh.read()
    collecting = gc.isenabled()
    gc.disable()  # the parse makes no cycles: the collector would only walk it
    try:
        try:
            return _read_object(text)
        except (_Unexpected, json.JSONDecodeError):
            pass
        return json.loads(text)
    finally:
        if collecting:
            gc.enable()
