"""The wire codec against json's own reading and writing of plain lists.

``canonical_dumps`` writes arrays without a Python list per entry and
``read_json`` turns array elements into ndarrays as it reads them; both
must give exactly what ``json.dumps`` of ``matrix_to_json`` lists and
``json.load`` followed by ``numpy.asarray`` give, bytes, values and
exception types alike.
"""

import gc
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subrec import planted_channel
from subrec.errors import MalformedInput, NotFinite
from subrec.io import (
    canonical_dumps,
    channel_from_json,
    channel_to_json,
    matrix_to_json,
    read_json,
    subsystem_from_json,
    subsystem_to_json,
)

# both sides of repr's switch to exponent form (1e16, 1e-5), subnormals,
# signed zeros, integral floats and the ends of the exponent range
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300,
           1e-300, 1.0, -2.0, 3.0, 1e16, 9999999999999998.0, 1e15, 1e-5, 1e-4, 0.0001234,
           1 / 3, 0.1, 1e22, -7.25e-17, 123456789.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def matrices(draw):
    shape = draw(st.sampled_from([(1, 1), (3, 5), (5, 3), (1, 4), (2, 3, 2)]))
    a = draw(hnp.arrays(float, shape, elements=FLOATS))
    if draw(st.booleans()):
        re, a = a, np.empty(shape, dtype=complex)
        a.real = re
        a.imag = draw(hnp.arrays(float, shape, elements=FLOATS))
    view = draw(st.sampled_from(["as is", "transposed", "reversed"]))
    if view == "transposed":
        a = a.T  # non-contiguous, as W.T is
    elif view == "reversed":
        a = a[..., ::-1]
    return a


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=matrices())
def test_array_encoding_matches_json_dumps_of_pair_lists(a):
    lists = matrix_to_json(a)
    assert canonical_dumps(a) == canonical_dumps(lists) == json.dumps(
        lists, separators=(",", ":"))
    doc = {"n": 1.5, "x": [a, {"y": a}, "s"], "z": (a, None)}
    same = {"n": 1.5, "x": [lists, {"y": lists}, "s"], "z": (lists, None)}
    assert canonical_dumps(doc) == canonical_dumps(same)


def test_empty_arrays_encode_as_json_does():
    for a in (np.zeros((0,)), np.zeros((0, 3)), np.zeros((3, 0), dtype=complex),
              np.zeros((2, 0, 2))):
        assert canonical_dumps(a) == canonical_dumps(matrix_to_json(a))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, -np.inf),
                                 complex(np.nan, 0.0)])
def test_non_finite_arrays_raise_value_error(bad):
    with pytest.raises(ValueError):
        canonical_dumps(np.array([[1.0, bad]]))
    with pytest.raises(ValueError):
        canonical_dumps({"ok": np.eye(2), "F": [np.array([[bad]])]})


def test_documents_without_arrays_are_json_dumps():
    doc = {"a": [1, 2.5, None, True], "b": {"c": "é"}, 3: "int key", "d": -0.0}
    assert canonical_dumps(doc) == json.dumps(doc, separators=(",", ":"))
    with_array = dict(doc, m=np.eye(1))
    assert canonical_dumps(with_array) == json.dumps(
        dict(doc, m=matrix_to_json(np.eye(1))), separators=(",", ":"))


# -- decoding ---------------------------------------------------------------

def _channel_text():
    ch, _ = planted_channel(1, 2, 3, 2, seed=5)
    return canonical_dumps(channel_to_json(ch))


GOOD = json.loads(_channel_text())
KRAUS = json.dumps(GOOD["kraus"])
HUGE = "1" + "0" * 400  # an integer beyond every numpy dtype

CHANNEL_CORPUS = {
    "canonical": _channel_text(),
    "pretty": json.dumps(GOOD, indent=2),
    "tabs and CRLF": json.dumps(GOOD, indent="\t").replace("\n", "\r\n"),
    "other key order": json.dumps({"kraus": GOOD["kraus"], "dim": 3}),
    "extra keys": json.dumps({"dim": 3, "note": "é∑日", "meta": {"a": [1, None]},
                              "tags": ["x", [1, "y"], [[2.0]]], "kraus": GOOD["kraus"]},
                             ensure_ascii=False),
    "duplicate keys, last good": f'{{"dim": 3, "kraus": [[["x"]]], "kraus": {KRAUS}}}',
    "duplicate keys, last bad": f'{{"dim": 3, "kraus": {KRAUS}, "kraus": [[["x"]]]}}',
    "integers": '{"dim": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
    "integers and floats across elements": '{"dim": 1, "kraus": [[[[1, 0]]], [[[0.5, -0.0]]]]}',
    "exponents": '{"dim": 1, "kraus": [[[[5E-1, -0]]], [[[0.5e+0, 1e-320]]], [[[1E2, 2e0]]]]}',
    "NaN token": '{"dim": 1, "kraus": [[[[NaN, 0]]]]}',
    "Infinity token": '{"dim": 1, "kraus": [[[[1.0, -Infinity]]]]}',
    "ragged rows": '{"dim": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0]]]]}',
    "ragged elements": '{"dim": 1, "kraus": [[[[1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
    "truncated pair": '{"dim": 1, "kraus": [[[[1.0]]]]}',
    "long pair": '{"dim": 1, "kraus": [[[[1.0, 0.0, 2.0]]]]}',
    "string entry": '{"dim": 1, "kraus": [[[["1.0", 0.0]]]]}',
    "object entry": '{"dim": 1, "kraus": [[[[{"re": 1}, 0.0]]]]}',
    "null entry": '{"dim": 1, "kraus": [[[[null, 0.0]]]]}',
    "string element": '{"dim": 1, "kraus": ["abc"]}',
    "number element": '{"dim": 1, "kraus": [1.0, 2.0]}',
    "kraus not a list": '{"dim": 1, "kraus": {"a": 1}}',
    "too shallow": '{"dim": 1, "kraus": [[1.0, 0.0]]}',
    "empty kraus": '{"dim": 1, "kraus": []}',
    "empty element": '{"dim": 1, "kraus": [[]]}',
    "empty rows": '{"dim": 1, "kraus": [[[]]]}',
    "huge integer among floats": f'{{"dim": 1, "kraus": [[[[{HUGE}, 0.5]]]]}}',
    "huge integer among integers": f'{{"dim": 1, "kraus": [[[[{HUGE}, 0]]]]}}',
    "bad dim": '{"dim": 0, "kraus": [[[[1, 0]]]]}',
    "missing dim": '{"kraus": [[[[1, 0]]]]}',
    "empty object": "{}",
    "top-level list": "[1, 2]",
    "top-level number": "3",
    "top-level string": '"kraus"',
    "trailing data": _channel_text() + " x",
    "second document": _channel_text() + "{}",
    "trailing whitespace": _channel_text() + "\n\r\t ",
    "leading whitespace": " \n" + _channel_text(),
    "missing comma": '{"dim": 1 "kraus": []}',
    "missing colon": '{"dim" 1, "kraus": []}',
    "trailing comma in array": '{"dim": 1, "kraus": [[[[1, 0]]],]}',
    "trailing comma in object": '{"dim": 1, "kraus": [[[[1, 0]]]],}',
    "non-string key": '{1: 2}',
    "unclosed": '{"dim": 1, "kraus": [[[[1, 0]]]',
    "unclosed element": '{"dim": 1, "kraus": [[[[1, 0',
    "single quotes": "{'dim': 1}",
    "byte order mark": "\ufeff" + _channel_text(),
    "empty text": "",
    "only whitespace": " \n ",
}

SUBSYSTEM_CORPUS = {
    "canonical": '{"dim":2,"dA":1,"dB":1,"W":[[[0.0,0.0],[1.0,-0.0]]]}',
    "pretty": json.dumps({"dim": 2, "dA": 1, "dB": 2, "W": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
                         indent=1),
    "ragged column": '{"dim": 2, "dA": 1, "dB": 2, "W": [[[1, 0], [0, 0]], [[0, 0]]]}',
    "string entry": '{"dim": 1, "dA": 1, "dB": 1, "W": [[["1", 0]]]}',
    "NaN token": '{"dim": 1, "dA": 1, "dB": 1, "W": [[[NaN, 0]]]}',
    "boolean dA": '{"dim": 1, "dA": true, "dB": 1, "W": [[[1, 0]]]}',
    "empty W": '{"dim": 1, "dA": 1, "dB": 1, "W": []}',
}


def _outcome(parse, text, build):
    """The array ``build`` makes from ``parse(text)``, or the exception type."""
    try:
        return build(parse(text))
    except Exception as exc:  # the type is the outcome under test
        return type(exc)


def _stacked_kraus(obj):
    return np.stack(channel_from_json(obj, require_tp=False).kraus)


def _w(obj):
    return subsystem_from_json(obj).w


def _read_text(text):
    return read_json(io.StringIO(text))


@pytest.mark.parametrize("corpus, build", [(CHANNEL_CORPUS, _stacked_kraus),
                                           (SUBSYSTEM_CORPUS, _w)])
def test_decoding_matches_json_load(corpus, build):
    for name, text in corpus.items():
        want = _outcome(json.loads, text, build)
        got = _outcome(_read_text, text, build)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), name
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        else:
            assert got is want, name


def test_invalid_json_raises_json_s_own_error():
    for name, text in CHANNEL_CORPUS.items():
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            with pytest.raises(json.JSONDecodeError) as got:
                _read_text(text)
            assert (str(got.value), got.value.pos) == (str(exc), exc.pos), name


def test_read_json_keeps_what_it_cannot_read_as_numbers():
    obj = _read_text(CHANNEL_CORPUS["extra keys"])
    assert obj["note"] == "é∑日" and obj["meta"] == {"a": [1, None]}
    assert obj["tags"][:2] == ["x", [1, "y"]]
    assert isinstance(obj["tags"][2], np.ndarray)
    assert all(isinstance(k, np.ndarray) for k in obj["kraus"])
    assert _read_text("[1, 2]") == [1, 2]


@pytest.mark.parametrize("doc", [
    {"dim": 2, "kraus": [[[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
    {"dim": 1, "kraus": [[[[1.0, False]]]]},
    {"dim": 1, "kraus": [[[[True, False]]]]},
    {"dim": 1, "kraus": [[[[1, 0]]], [[[0.5, True]]]]},
])
def test_boolean_kraus_entries_are_malformed(doc):
    with pytest.raises(MalformedInput):
        channel_from_json(doc, require_tp=False)
    with pytest.raises(MalformedInput):
        channel_from_json(_read_text(json.dumps(doc)), require_tp=False)


@pytest.mark.parametrize("row", [[[1.0, 0.0], [0.0, np.True_]],
                                 [[1.0, 0.0], np.array([False, False])]],
                         ids=["numpy-bool", "bool-array"])
def test_numpy_booleans_in_nested_lists_are_malformed(row):
    # from the Python API: numpy reads np.True_ and a bool array below the
    # outer list as numbers, as it reads JSON true and false
    doc = {"dim": 2, "kraus": [[row, [[0.0, 0.0], [1.0, 0.0]]]]}
    assert np.asarray(doc["kraus"]).dtype == float
    with pytest.raises(MalformedInput):
        channel_from_json(doc, require_tp=False)


def test_boolean_w_entries_are_malformed():
    doc = {"dim": 2, "dA": 1, "dB": 1, "W": [[[1.0, 0.0], [False, 0.0]]]}
    for obj in (doc, _read_text(json.dumps(doc))):
        with pytest.raises(MalformedInput):
            subsystem_from_json(obj)


def test_non_finite_tokens_still_reach_not_finite():
    with pytest.raises(NotFinite):
        channel_from_json(_read_text(CHANNEL_CORPUS["NaN token"]))
    with pytest.raises(NotFinite):
        subsystem_from_json(_read_text(SUBSYSTEM_CORPUS["NaN token"]))


def test_decoded_channel_and_subsystem_round_trip_bit_for_bit():
    ch, dec = planted_channel(2, 3, 11, 3, seed=8)
    text = canonical_dumps(channel_to_json(ch))
    again = channel_from_json(_read_text(text))
    assert np.stack(again.kraus).tobytes() == np.stack(ch.kraus).tobytes()
    text = canonical_dumps(subsystem_to_json(dec))
    assert subsystem_from_json(_read_text(text)).w.tobytes() == dec.w.tobytes()


# -- reading bytes -----------------------------------------------------------

def _numbers(value):
    """An array element as read_json documents it: an ndarray when numpy
    reads the lists as numbers and they hold no JSON boolean."""
    if not isinstance(value, list):
        return value
    try:
        arr = np.asarray(value)
    except (ValueError, OverflowError):
        return value
    if arr.dtype.kind not in "iuf" or _holds_json_bool(value):
        return value
    return arr


def _holds_json_bool(value):
    if isinstance(value, list):
        return any(map(_holds_json_bool, value))
    return isinstance(value, bool)


def _documented(text):
    """read_json's documented result, from json.loads of the whole text."""
    obj = json.loads(text)
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, list):
                obj[key] = [_numbers(v) for v in value]
    return obj


def _text_mode(data):
    # how a file opened in text mode with encoding="utf-8" reads: strict
    # UTF-8 and universal newlines
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _result(read, arg):
    """read(arg), or the type and message of what it raised."""
    try:
        return read(arg)
    except Exception as exc:  # the exception is the outcome under test
        return type(exc), str(exc)


def _same(a, b) -> bool:
    """Equal parse trees: ndarrays by dtype, shape and bytes, floats by bits."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def _assert_reads_as_documented(data: bytes, name="") -> None:
    """A binary handle, a text-mode handle and (for UTF-8) a StringIO each
    give what json.loads of the text gives, or its exception and message."""
    want = _result(lambda d: _documented(_text_mode(d)), data)
    assert _same(_result(lambda d: read_json(io.BytesIO(d)), data), want), name
    text_handle = _result(lambda d: read_json(io.TextIOWrapper(io.BytesIO(d), encoding="utf-8")),
                          data)
    assert _same(text_handle, want), name
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    assert _same(_result(_read_text, text), _result(_documented, text)), name


def _large_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _padded(m: np.ndarray, length: int) -> str:
    """The canonical text of ``m`` with spaces before its last bracket, to ``length``."""
    text = canonical_dumps(m)
    assert len(text) <= length
    return text[:-1] + " " * (length - len(text)) + "]"


# two 40 x 40 Kraus operators: each element is about 70 000 characters, over
# the 2^16 beyond which bytes are read one row at a time
LARGE_OBJ = {"dim": 40, "kraus": [matrix_to_json(_large_matrix(40, 40, s)) for s in (1, 2)]}
LARGE = canonical_dumps(LARGE_OBJ)


def _damaged(*edits):
    """LARGE with its second Kraus operator edited, in compact JSON."""
    obj = json.loads(LARGE)
    for edit in edits:
        edit(obj["kraus"][1])
    return json.dumps(obj, separators=(",", ":"))


def _set(row, col, value):
    def edit(k):
        k[row][col] = value
    return edit


def _large_docs():
    under = _padded(_large_matrix(36, 36, 3), 1 << 16)
    over = _padded(_large_matrix(36, 36, 3), (1 << 16) + 1)
    pretty = json.dumps(LARGE_OBJ, indent=1)
    integers = {"dim": 40, "kraus": [np.arange(3200).reshape(40, 40, 2).tolist()]}
    mixed = {"dim": 40, "kraus": [[[[i, 0] if r % 2 else [i + 0.5, 0.25] for i in range(40)]
                                   for r in range(40)] * 2]}
    return {
        "large canonical": LARGE,
        "large pretty, indent 1": pretty,
        "large pretty, CRLF": pretty.replace("\n", "\r\n"),
        "large pretty, CR": pretty.replace("\n", "\r"),
        "spaces between closing brackets": re.sub(r"\](?=\])", "] \n\t", LARGE),
        "spaces between opening brackets": re.sub(r"\[(?=\[)", "[ \r\n", LARGE),
        "element of exactly 2^16 characters": f'{{"dim": 36, "kraus": [{under}]}}',
        "element of 2^16 + 1 characters": f'{{"dim": 36, "kraus": [{over}]}}',
        "elements either side of 2^16": f'{{"dim": 36, "kraus": [{over}, {under}, {over}]}}',
        "ragged row deep inside": _damaged(lambda k: k[37].pop()),
        "short pair deep inside": _damaged(lambda k: k[38][39].pop()),
        "true deep inside": _damaged(_set(38, 5, [True, 0.0])),
        "false in the last pair": _damaged(_set(39, 39, [0.0, False])),
        "string deep inside": _damaged(_set(20, 3, ["1.0", 0.0])),
        "null deep inside": _damaged(_set(20, 3, [None, 0.0])),
        "object deep inside": _damaged(_set(20, 3, {"re": 1.0})),
        "deeper nesting deep inside": _damaged(_set(20, 3, [[1.0, 2.0]])),
        "deeper nesting in the first row": _damaged(lambda k: k.__setitem__(0, [k[0]])),
        "shallower row": _damaged(lambda k: k.__setitem__(10, 1.0)),
        "NaN and Infinity deep inside": _damaged(_set(30, 2, [float("nan"), float("-inf")]),
                                                 _set(31, 0, [float("inf"), 0.0])),
        "integer rows": json.dumps(integers),
        "integer and float rows": json.dumps(mixed),
        "integer beyond int64 in a late row": _damaged(_set(39, 0, [2 ** 63, 0])),
        "integer beyond uint64 in a late row": _damaged(_set(39, 0, [2 ** 64, 0])),
        "integer rows and a row of integers beyond int64": json.dumps(
            {"kraus": [integers["kraus"][0][:39] + [[[2 ** 63, 2 ** 63]] * 40]]}),
        "element closing with fewer brackets than it opens":
            '{"dim": 1, "kraus": [[[[1, 0]], [2, 0]], [[[3, 0]]]]}',
        "large element closed by a brace": LARGE.replace("]]],", "]]},", 1),
        "truncated mid-row": LARGE[:len(LARGE) // 2],
        "truncated mid-number": LARGE[:LARGE.index(".", len(LARGE) // 3) + 3],
        "truncated before the last bracket": LARGE[:-1],
        "trailing bytes": LARGE + " x",
        "trailing bracket": LARGE + "}",
        "second document": LARGE + LARGE,
        "empty kraus": '{"dim": 1, "kraus": []}',
        "duplicate keys, large last": f'{{"kraus": [[[[1, 0]]]], "kraus": {json.dumps(LARGE_OBJ["kraus"])}}}',
        "duplicate keys, large first": f'{{"kraus": {json.dumps(LARGE_OBJ["kraus"])}, "kraus": [[[[1, 0]]]]}}',
        "object value after the matrices": LARGE[:-1] + ', "meta": {"a": [1, 2]}}',
        "escaped string keys and values": LARGE[:-1] + r', "né": "a\"]]]\\", "x": ["]]", [["]]]"]]]}',
        "large W column": json.dumps({"dim": 1600, "dA": 1, "dB": 1,
                                      "W": [matrix_to_json(_large_matrix(1, 1600, 4)[0])]}),
    }


BYTES_CORPUS = {name: text.encode() for name, text in _large_docs().items()}
BYTES_CORPUS.update({
    **{f"channel corpus: {name}": text.encode("utf-8") for name, text in CHANNEL_CORPUS.items()},
    **{f"subsystem corpus: {name}": text.encode() for name, text in SUBSYSTEM_CORPUS.items()},
    "byte order mark, large": b"\xef\xbb\xbf" + LARGE.encode(),
    "invalid UTF-8 inside a large element": (LARGE[:50000] + "\udcff" + LARGE[50001:]).encode(
        "utf-8", "surrogateescape"),
    "invalid UTF-8 in a string value": LARGE[:-1].encode() + b', "note": "\xff"}',
    "invalid UTF-8 after the document": LARGE.encode() + b"\xc3",
    "Latin-1 text": '{"dim": 1, "note": "café", "kraus": [[[[1, 0]]]]}'.encode("latin-1"),
})


def test_reading_bytes_matches_the_text_reading_on_the_corpus():
    for name, data in BYTES_CORPUS.items():
        _assert_reads_as_documented(data, name)


@pytest.mark.parametrize("length, by_rows", [(1 << 16, False), ((1 << 16) + 1, True)])
def test_elements_beyond_two_to_the_sixteen_are_read_by_rows(length, by_rows, monkeypatch):
    import subrec.io as wire

    calls = []
    rows = wire._Bytes._rows

    def spied(self, start, depth):
        calls.append((start, depth))
        return rows(self, start, depth)

    monkeypatch.setattr(wire._Bytes, "_rows", spied)
    m = _large_matrix(36, 36, 3)
    data = f'{{"dim": 36, "kraus": [{_padded(m, length)}]}}'.encode()
    got = read_json(io.BytesIO(data))
    assert calls == ([(data.index(b"[[[[") + 1, 3)] if by_rows else [])
    assert got["kraus"][0].tobytes() == np.asarray(matrix_to_json(m)).tobytes()


LAYOUTS = {
    "canonical": canonical_dumps,
    "indent 1": lambda obj: json.dumps(obj, indent=1),
    "spaced": lambda obj: json.dumps(obj, separators=(" , ", " : ")),
    "CRLF": lambda obj: json.dumps(obj, indent="\t").replace("\n", "\r\n"),
    "spaced brackets": lambda obj: re.sub(r"([\[\]])(?=[\[\]])", r"\1 ", canonical_dumps(obj)),
}
DAMAGE = ["none", "truncate", "trailing", "invalid byte", "true", "ragged", "string", "nan"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 48), cols=st.integers(1, 48),
       count=st.integers(1, 3), layout=st.sampled_from(sorted(LAYOUTS)),
       damage=st.sampled_from(DAMAGE), where=st.floats(0, 1))
def test_reading_bytes_matches_the_text_reading(seed, rows, cols, count, layout, damage, where):
    # matrices either side of the 2^16-character row-by-row threshold, laid
    # out and damaged in ways a file may be
    rng = np.random.default_rng(seed)
    kraus = []
    for _ in range(count):
        m = rng.standard_normal((rows, cols, 2))
        m[rng.random((rows, cols, 2)) < 0.1] = rng.choice(SPECIAL)
        kraus.append(m.tolist())
    row, col = int(where * (rows - 1)), int(where * (cols - 1))
    target = kraus[int(where * (count - 1))]
    if damage == "true":
        target[row][col][1] = True
    elif damage == "ragged":
        target[row].pop()
    elif damage == "string":
        target[row][col][0] = "0"
    elif damage == "nan":
        target[row][col] = [float("nan"), float("inf")]
    data = LAYOUTS[layout]({"dim": rows, "kraus": kraus}).encode()
    at = int(where * len(data))
    if damage == "truncate":
        data = data[:at]
    elif damage == "trailing":
        data += b" 0"
    elif damage == "invalid byte":
        data = data[:at] + b"\xfe" + data[at:]
    _assert_reads_as_documented(data)


# -- memory -----------------------------------------------------------------

@pytest.fixture(scope="module")
def wide_document():
    """A planted d = 256, m = 3 channel and its wire text (about 8.4 MiB)."""
    ch, _ = planted_channel(2, 2, 256, 3, seed=11)
    return ch, canonical_dumps(channel_to_json(ch))


def _peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_encoding_peak_stays_below_three_documents(wide_document):
    # one Python list per entry peaked at 4.9 documents
    ch, text = wide_document
    peak, again = _peak(lambda: canonical_dumps(channel_to_json(ch)))
    assert again == text
    assert peak < 3 * len(text)


def test_decoding_peak_stays_below_three_documents(wide_document, tmp_path):
    # json.load of the whole document peaked at 4.3 documents
    ch, text = wide_document
    path = tmp_path / "channel.json"
    path.write_text(text)

    def decode():
        with open(path) as fh:
            return channel_from_json(read_json(fh))

    peak, again = _peak(decode)
    assert np.stack(again.kraus).tobytes() == np.stack(ch.kraus).tobytes()
    assert peak < 3 * len(text)


def test_reading_bytes_peaks_below_two_documents(tmp_path):
    # from text, read_json held the bytes and the text together and one
    # element's lists: 2.7 documents; from bytes it holds the bytes, one
    # row's lists and the arrays
    ch, _ = planted_channel(2, 2, 128, 3, seed=11)
    path = tmp_path / "channel.json"
    path.write_text(canonical_dumps(channel_to_json(ch)) + "\n")

    def decode():
        with open(path, "rb") as fh:
            return read_json(fh)

    peak, obj = _peak(decode)
    again = channel_from_json(obj)
    assert np.stack(again.kraus).tobytes() == np.stack(ch.kraus).tobytes()
    assert peak < 2 * path.stat().st_size


@pytest.mark.parametrize("enabled", [True, False])
def test_read_json_pauses_the_collector_and_leaves_it_as_found(enabled, monkeypatch):
    import subrec.io as wire

    seen = []

    def spied(real):
        def parse(text):
            seen.append(gc.isenabled())
            return real(text)
        return parse

    monkeypatch.setattr(wire, "_read_object", spied(wire._read_object))
    monkeypatch.setattr(json, "loads", spied(json.loads))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        # read element by element, then a document only json.loads reads
        assert _read_text('{"dim": 1, "kraus": [[[[1.0, 0.0]]]]}')["dim"] == 1
        assert _read_text("[1, 2]") == [1, 2]
        assert seen == [False, False, False] and gc.isenabled() == enabled
        # bytes read element by element, then bytes read as text by json.loads
        assert read_json(io.BytesIO(b'{"dim": 1, "kraus": [[[[1.0, 0.0]]]]}'))["dim"] == 1
        assert read_json(io.BytesIO(b"[1, 2]")) == [1, 2]
        assert seen == [False] * 6 and gc.isenabled() == enabled
        with pytest.raises(UnicodeDecodeError):
            read_json(io.BytesIO(b'{"dim": 1, "x": "\xff"}'))
        assert gc.isenabled() == enabled
        with pytest.raises(json.JSONDecodeError):
            _read_text('{"dim": 1,')
        assert gc.isenabled() == enabled
        with pytest.raises(MalformedInput):
            channel_from_json(_read_text('{"dim": 1, "kraus": [[[[true, 0.0]]]]}'))
        assert gc.isenabled() == enabled

        def malformed(text):
            raise MalformedInput("raised inside the parse")

        monkeypatch.setattr(wire, "_read_object", malformed)
        with pytest.raises(MalformedInput):
            _read_text("{}")
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
