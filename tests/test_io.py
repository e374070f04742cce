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
