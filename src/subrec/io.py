"""JSON schemas for channels, subsystems and reports.

Wire formats (language neutral, lossless at double precision):

* complex numbers are ``[re, im]`` pairs;
* matrices are row-major nested lists of such pairs;
* channel: ``{"dim": d, "kraus": [K1, K2, ...]}`` with each ``Ki`` a
  d-list of d-lists of pairs;
* subsystem: ``{"dim": d, "dA": dA, "dB": dB, "W": [col1, col2, ...]}``
  with W stored column-major, each column a d-list of pairs.

Wire text is UTF-8 JSON (RFC 8259), read and written the same under any
locale.  Matrices move between ndarrays and wire text without a Python
list per entry.  :func:`canonical_dumps` writes an ndarray wherever a
matrix goes, row by row, and hands every subtree without an array to
``json.dumps`` whole.  :func:`read_json` walks the top-level object as
UTF-8 bytes (a text handle's document is encoded first) and turns each
element of an array value (one Kraus operator, one W column) into an
ndarray before it reads the next: it decodes each element from its own
byte range, and an element of more than 2^16 bytes one row at a time,
so at most one row's lists are alive.  Any input that the walker does
not read is parsed whole, or rejected, by ``json.loads``, with the
result and the errors a text-mode read gives.
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

import functools
import gc
import json
import re
from itertools import chain

import numpy as np

from .channel import KrausChannel
from .errors import DimensionMismatch, MalformedInput
from .linalg import DEFAULT_TOL
from .subsystem import SubsystemDecomposition

__all__ = [
    "matrix_to_json",
    "channel_to_json",
    "channel_from_json",
    "subsystem_to_json",
    "subsystem_from_json",
    "canonical_dumps",
    "read_json",
]

_DECODER = json.JSONDecoder()
_BOOLS = frozenset((bool, np.bool_))  # np.bool_ from an array below the outer list


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


def _holds_bool(obj, levels: int) -> bool:
    """Whether ``levels`` levels of nested lists hold a JSON true or false,
    which numpy reads as 1 or 0.  Arrays, such as the elements
    :func:`read_json` makes, are taken as numbers."""
    if isinstance(obj, np.ndarray):
        return False
    if isinstance(obj, list) and any(isinstance(x, np.ndarray) for x in obj):
        return any(_holds_bool(x, levels - 1) for x in obj)
    flat = obj
    for _ in range(levels - 1):
        flat = chain.from_iterable(flat)
    return not _BOOLS.isdisjoint(map(type, flat))


def _pairs(obj, what: str, depth: int) -> np.ndarray:
    """Complex array from ``depth`` levels of nested lists of [re, im] pairs;
    the outer list may hold its elements as arrays (see :func:`read_json`)."""
    try:
        arr = np.asarray(obj)
    except ValueError:  # ragged nesting, e.g. a truncated [re] pair
        raise MalformedInput(f"{what}: nested lists of unequal lengths") from None
    if (arr.dtype.kind not in "iuf" or arr.ndim != depth + 1 or arr.shape[-1] != 2
            or _holds_bool(obj, arr.ndim)):
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

# from bytes, an array element longer than this many bytes is read one
# row at a time: the floor of a product block in subsystem._row_group, below
# which one parse of the whole element costs less than one per row
_WHOLE = 1 << 16


class _Unexpected(Exception):
    """The document is not a JSON object read element by element; json.loads decides."""


def _element(text: str, start: int):
    """(element, end) of the array element at ``start``, as :func:`_numbers`
    leaves it; the lists of an element made an ndarray are freed on return."""
    value, end = _DECODER.raw_decode(text, start)
    return _numbers(value, lambda *_: _has_boolean(text, start, end)), end


def _numbers(value, has_bool):
    """``value``, or its ndarray when it is a list that numpy reads as numbers
    and ``has_bool(value, ndim)`` finds no JSON true or false in it (numpy
    reads those as 1 and 0); any other value is kept as parsed, for the
    schema check to judge."""
    if not isinstance(value, list):
        return value
    try:
        arr = np.asarray(value)
    except (ValueError, OverflowError):
        return value
    return value if arr.dtype.kind not in "iuf" or has_bool(value, arr.ndim) else arr


def _has_boolean(text: str, start: int, end: int) -> bool:
    # a numeric element holds no string, so "true" and "false" are booleans;
    # one-character finds (memchr) rule them out before the exact ones run
    return any(text.find(word[0], start, end) >= 0 and text.find(word, start, end) >= 0
               for word in ("true", "false"))


@functools.cache
def _closing(depth: int) -> re.Pattern:
    # a run of `depth` closing brackets, whitespace between them allowed
    return re.compile(rb"\](?:[ \t\n\r]*\]){%d}" % (depth - 1))


class _Bytes:
    """A JSON document as UTF-8 bytes, each value decoded from its own byte
    range: a scalar's is its token; an array's opens with a run of opening
    brackets and ends at the first run of as many closing ones (see
    :meth:`_extent`).  The parse of a range must end exactly at its end,
    which a value that is not JSON, or that nests deeper than it opens,
    does not: such a document, like an object value, is :class:`_Unexpected`.
    The whole document is never decoded."""

    space = re.compile(rb"[ \t\n\r]*")
    # a string, or json's number grammar, or a named constant
    token = re.compile(rb'"(?:[^"\\]|\\.)*"|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?'
                       rb"|true|false|null|NaN|-?Infinity", re.DOTALL)
    opening = re.compile(rb"(?:\[[ \t\n\r]*)+")

    def __init__(self, doc: bytes):
        self.doc = doc
        self.end = len(doc)
        self.view = memoryview(doc)

    def skip(self, pos: int) -> int:
        return self.space.match(self.doc, pos).end()

    def char(self, pos: int) -> str:
        return self.doc[pos:pos + 1].decode("latin-1")

    def value(self, pos: int):
        """(value, end) of the scalar at ``pos``."""
        token = self.token.match(self.doc, pos)
        if token is None:
            raise _Unexpected
        return self._parse(pos, token.end(), _DECODER.raw_decode)

    def element(self, pos: int):
        """(element, end) of the array element at ``pos``, as :func:`_element`."""
        if self.char(pos) != "[":
            return self.value(pos)
        depth, end = self._extent(pos, pos + _WHOLE)
        if end is not None:
            return self._parse(pos, end, _element)
        if depth > 1:
            return self._rows(pos, depth)
        return self._parse(pos, self._extent(pos)[1], _element)

    def _parse(self, start: int, end: int, parse):
        """(value, end) from ``parse(text, 0)`` of the range's text, which it
        must read to the end."""
        text = str(self.view[start:end], "utf-8")
        value, stop = parse(text, 0)
        if stop != len(text):
            raise _Unexpected
        return value, end

    def _extent(self, pos: int, limit: int | None = None):
        """(depth, end) of the array at ``pos``: it opens with ``depth``
        brackets and ends after the first run of ``depth`` closing ones;
        ``end`` is None when that run does not end by ``limit``."""
        opening = self.opening.match(self.doc, pos)
        if opening is None:
            raise _Unexpected
        depth = opening.group().count(b"[")
        closing = _closing(depth).search(self.doc, pos, self.end if limit is None else limit)
        if closing is None and limit is None:
            raise _Unexpected
        return depth, None if closing is None else closing.end()

    def _rows(self, start: int, depth: int):
        """(ndarray, end) of the array at ``start``, which opens with
        ``depth`` brackets, read one row at a time through :func:`_element`;
        a row ends at the first run of ``depth - 1`` closing brackets.  The
        rows must stack as ``np.asarray`` of the whole element would:
        numbers of one shape, signed integers or floats (numpy reads a row
        of integers beyond int64 as unsigned, and how that promotes against
        the other rows differs between numpy versions)."""
        closing = _closing(depth - 1)
        rows = []
        pos = self.skip(start + 1)
        while True:
            end = closing.search(self.doc, pos)
            if end is None:
                raise _Unexpected
            row, pos = self._parse(pos, end.end(), _element)
            if (not isinstance(row, np.ndarray) or row.dtype.kind not in "if"
                    or rows and row.shape != rows[0].shape):
                raise _Unexpected
            rows.append(row)
            pos = self.skip(pos)
            if self.char(pos) != ",":
                break
            pos = self.skip(pos + 1)
        if self.char(pos) != "]":
            raise _Unexpected
        return np.stack(rows), pos + 1


def _read_value(src: _Bytes, pos: int):
    """(value, end) of the JSON value at ``pos``; an array's elements are
    read one at a time through ``src.element``."""
    if src.char(pos) != "[":
        return src.value(pos)
    items = []
    pos = src.skip(pos + 1)
    if src.char(pos) == "]":
        return items, pos + 1
    while True:
        item, pos = src.element(pos)
        items.append(item)
        pos = src.skip(pos)
        if src.char(pos) == "]":
            return items, pos + 1
        if src.char(pos) != ",":
            raise _Unexpected
        pos = src.skip(pos + 1)


def _read_object(doc: bytes) -> dict:
    """The JSON object in the UTF-8 bytes ``doc``, each element of an array
    value read on its own; :class:`_Unexpected` for anything else."""
    src = _Bytes(doc)
    pos = src.skip(0)
    if src.char(pos) != "{":
        raise _Unexpected
    obj = {}
    pos = src.skip(pos + 1)
    if src.char(pos) == "}":
        pos += 1
    else:
        while True:
            key, pos = src.value(pos)
            pos = src.skip(pos)
            if not isinstance(key, str) or src.char(pos) != ":":
                raise _Unexpected
            obj[key], pos = _read_value(src, src.skip(pos + 1))
            pos = src.skip(pos)
            if src.char(pos) == "}":
                pos += 1
                break
            if src.char(pos) != ",":
                raise _Unexpected
            pos = src.skip(pos + 1)
    if src.skip(pos) != src.end:
        raise _Unexpected
    return obj


def _as_text(data) -> str:
    # as a text-mode file with encoding="utf-8" reads the bytes: strict
    # UTF-8 (a byte order mark is kept, for json.loads to refuse), and
    # universal newlines
    text = str(data, "utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_json(fh):
    """The JSON document in the file ``fh``, as ``json.load`` reads it,
    except that each element of a top-level array value that numpy reads as
    numbers is an ndarray (:func:`channel_from_json` and
    :func:`subsystem_from_json` take either form).

    ``fh`` is a binary or a text handle; text is walked as its UTF-8 bytes.
    Bytes are read as a text-mode file opened with ``encoding="utf-8"``
    would read them, without holding the document as text: each array
    element is decoded from its own byte range, and an element longer than
    2^16 bytes one row at a time, straight into its ndarray.  A document
    that is not read this way (an object inside the top-level one, an
    element of more than 2^16 bytes whose rows are not numbers of one
    shape, a byte order mark, bytes that are not UTF-8, invalid JSON) is
    parsed whole by ``json.loads``, from the text as given or as a
    text-mode file reads the bytes, and each element of a top-level array
    value becomes an ndarray as above, so the result and the errors are
    the same.

    Invalid JSON raises ``json.JSONDecodeError``, from ``json.loads``, and
    bytes that are not UTF-8 raise ``UnicodeDecodeError``.  The cyclic
    garbage collector is paused while the document is parsed and left as
    it was found.
    """
    doc = fh.read()
    collecting = gc.isenabled()
    gc.disable()  # the parse makes no cycles: the collector would only walk it
    try:
        try:
            return _read_object(doc.encode("utf-8", "surrogatepass") if isinstance(doc, str)
                                else doc)
        except (_Unexpected, json.JSONDecodeError, UnicodeDecodeError):
            pass
        obj = json.loads(doc if isinstance(doc, str) else _as_text(doc))
        if isinstance(obj, dict):
            for key, value in obj.items():
                if isinstance(value, list):
                    obj[key] = [_numbers(v, _holds_bool) for v in value]
        return obj
    finally:
        if collecting:
            gc.enable()
