import io
import json

import numpy as np
import pytest

from subrec import (DemoSpec, SubsystemDecomposition, check_correctable, compose, demo_build,
                    dual)
from subrec.cli import main
from subrec.io import (
    canonical_dumps,
    channel_from_json,
    channel_to_json,
    matrix_to_json,
    subsystem_from_json,
    subsystem_to_json,
)


def run(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr() if capsys else None
    return code, out


def write_demo(tmp_path, name, **kw):
    ch, dec = demo_build(DemoSpec(name=name, **kw))
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(canonical_dumps(channel_to_json(ch)))
    dec_file = None
    if dec is not None:
        dec_file = tmp_path / "dec.json"
        dec_file.write_text(canonical_dumps(subsystem_to_json(dec)))
    return ch_file, dec_file


def test_channel_json_roundtrip_bytes():
    ch, _ = demo_build(DemoSpec(name="binary-unitary", p=0.3, seed=4))
    text = canonical_dumps(channel_to_json(ch))
    again = canonical_dumps(channel_to_json(channel_from_json(json.loads(text))))
    assert text == again


def test_subsystem_json_roundtrip_bytes():
    _, dec = demo_build(DemoSpec(name="binary-unitary", p=0.3, seed=4))
    text = canonical_dumps(subsystem_to_json(dec))
    again = canonical_dumps(subsystem_to_json(subsystem_from_json(json.loads(text))))
    assert text == again


def test_encoders_match_per_element_pairs():
    def pairs(rows):
        return [[[float(x.real), float(x.imag)] for x in row] for row in rows]

    m = np.array([[-0.0, 5e-324 - 1e-5j, 1e16 + 3.0j],
                  [complex(2.0, -0.0), 1 / 3 + 1e-300j, -7.25e-17 + 1e16j]])
    assert canonical_dumps(matrix_to_json(m)) == canonical_dumps(pairs(m))
    assert canonical_dumps(matrix_to_json(m.T)) == canonical_dumps(pairs(m.T))
    w = np.zeros((3, 2), dtype=complex)
    w[0, 0] = -1.0
    w[2, 1] = 1j
    dec = SubsystemDecomposition(3, 1, 2, w)
    expected = {"dim": 3, "dA": 1, "dB": 2, "W": pairs(w.T)}
    assert canonical_dumps(subsystem_to_json(dec)) == canonical_dumps(expected)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError):
            canonical_dumps(matrix_to_json(np.array([[1.0, bad]])))


def test_check_positive(tmp_path, capsys):
    ch_file, dec_file = write_demo(tmp_path, "binary-unitary", p=0.4, seed=5)
    code, out = run(["check", "--channel", str(ch_file),
                     "--subsystem", str(dec_file), "--format", "json"],
                    capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["passed"] is True
    assert "residuals" in report and "version" in report


def test_check_negative_exit_2(tmp_path, capsys):
    from subrec.io import channel_to_json as c2j
    from subrec.random_ops import haar_isometry, random_channel
    from subrec import SubsystemDecomposition
    ch = random_channel(4, 3, seed=6)
    dec = SubsystemDecomposition(4, 1, 2, haar_isometry(4, 2, seed=7))
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(canonical_dumps(c2j(ch)))
    dec_file = tmp_path / "dec.json"
    dec_file.write_text(canonical_dumps(subsystem_to_json(dec)))
    code, out = run(["check", "--channel", str(ch_file),
                     "--subsystem", str(dec_file)], capsys=capsys)
    assert code == 2
    assert "no" in out.out


def test_recover_writes_report(tmp_path, capsys):
    ch_file, dec_file = write_demo(tmp_path, "binary-unitary", p=0.4, seed=8)
    out_file = tmp_path / "result.json"
    code, out = run(["recover", "--channel", str(ch_file),
                     "--subsystem", str(dec_file), "--out", str(out_file)],
                    capsys=capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["passed"] is True
    u = np.array([[complex(re, im) for re, im in row] for row in report["U_recovery"]])
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-9
    assert report["residuals"]["recovery_identity"] < 1e-8
    assert "F_CA_kraus" in report and "C_subsystem" in report
    assert "summary" in report


def test_pipeline_demo_into_ucc(tmp_path, capsys, monkeypatch):
    # subrec demo phase-flip --p 0.3 | subrec ucc
    code, out = run(["demo", "phase-flip", "--p", "0.3"], capsys=capsys)
    assert code == 0
    channel_json = out.out
    code, out = run(["ucc", "--format", "json"], stdin_text=channel_json,
                    monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert len(report["subsystems"]) == 2
    spans = set()
    for entry in report["subsystems"]:
        dec = subsystem_from_json(entry["subsystem"])
        diag = tuple(np.round(np.diagonal(dec.p_ab).real).astype(int))
        spans.add(diag)
    assert spans == {(1, 0, 0, 1), (0, 1, 1, 0)}


def test_ns_on_binary_unitary_composition_exit_2(tmp_path, capsys):
    ch, _ = demo_build(DemoSpec(name="binary-unitary", p=0.5, seed=9))
    comp = compose(dual(ch), ch)
    ch_file = tmp_path / "comp.json"
    ch_file.write_text(canonical_dumps(channel_to_json(comp)))
    code, out = run(["ns", "--channel", str(ch_file), "--format", "json"],
                    capsys=capsys)
    assert code == 2
    report = json.loads(out.out)
    assert report["subsystems"] == []
    assert len(report["classical_sectors"]) == 4


def test_ns_on_swap_composition(tmp_path, capsys):
    sw, _ = demo_build(DemoSpec(name="swap"))
    comp = compose(dual(sw), sw)
    ch_file = tmp_path / "comp.json"
    ch_file.write_text(canonical_dumps(channel_to_json(comp)))
    code, out = run(["ns", "--channel", str(ch_file), "--format", "json"],
                    capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["blocks"] == [[4, 1]]


def test_demo_writes_files(tmp_path, capsys):
    ch_file = tmp_path / "ch.json"
    dec_file = tmp_path / "dec.json"
    code, _ = run(["demo", "binary-unitary", "--p", "0.4", "--seed", "3",
                   "--out", str(ch_file), "--out-subsystem", str(dec_file)],
                  capsys=capsys)
    assert code == 0
    ch = channel_from_json(json.loads(ch_file.read_text()))
    assert ch.dim == 4 and ch.m == 2
    dec = subsystem_from_json(json.loads(dec_file.read_text()))
    assert dec.d_b == 2


def test_recover_negative_exit_2(tmp_path, capsys):
    from subrec import SubsystemDecomposition
    from subrec.random_ops import haar_isometry, random_channel
    ch = random_channel(4, 3, seed=11)
    dec = SubsystemDecomposition(4, 1, 2, haar_isometry(4, 2, seed=12))
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(canonical_dumps(channel_to_json(ch)))
    dec_file = tmp_path / "dec.json"
    dec_file.write_text(canonical_dumps(subsystem_to_json(dec)))
    code, out = run(["recover", "--channel", str(ch_file),
                     "--subsystem", str(dec_file)], capsys=capsys)
    assert code == 2
    assert "not correctable" in out.out


def test_ucc_negative_exit_2(tmp_path, capsys):
    ch_file, _ = write_demo(tmp_path, "binary-unitary", p=0.5, seed=13)
    code, out = run(["ucc", "--channel", str(ch_file), "--format", "json"],
                    capsys=capsys)
    assert code == 2
    report = json.loads(out.out)
    assert report["subsystems"] == []
    assert len(report["classical_sectors"]) == 4


def test_usage_error_exit_64(capsys):
    assert main(["bogus-command"]) == 64
    assert main([]) == 64
    assert main(["check"]) == 64  # missing required --subsystem


def test_runtime_error_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _ = run(["ucc", "--channel", str(missing)], capsys=capsys)
    assert code == 1


def test_non_tp_channel_rejected_unless_flagged(tmp_path, capsys):
    bad = {"dim": 2, "kraus": [[[[0.5, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [0.5, 0.0]]]]}
    ch_file = tmp_path / "bad.json"
    ch_file.write_text(canonical_dumps(bad))
    dec = {"dim": 2, "dA": 1, "dB": 2,
           "W": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    dec_file = tmp_path / "dec.json"
    dec_file.write_text(canonical_dumps(dec))
    code, _ = run(["check", "--channel", str(ch_file),
                   "--subsystem", str(dec_file)], capsys=capsys)
    assert code == 1
    code, _ = run(["check", "--channel", str(ch_file),
                   "--subsystem", str(dec_file), "--no-tp-check"], capsys=capsys)
    assert code in (0, 2)


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    ch_file, dec_file = write_demo(tmp_path, "phase-flip", p=0.3)
    monkeypatch.setenv("SUBREC_TOLERANCE", "1e-6")
    code, _ = run(["check", "--channel", str(ch_file),
                   "--subsystem", str(dec_file)], capsys=capsys)
    assert code == 0


def test_text_report_scientific_notation(tmp_path, capsys):
    ch_file, dec_file = write_demo(tmp_path, "phase-flip", p=0.3)
    code, out = run(["check", "--channel", str(ch_file),
                     "--subsystem", str(dec_file)], capsys=capsys)
    assert code == 0
    assert "e-" in out.out or "e+" in out.out


def test_non_finite_w_exit_1(tmp_path, capsys):
    ch_file, dec_file = write_demo(tmp_path, "phase-flip", p=0.3)
    for bad in (float("nan"), float("inf")):
        obj = json.loads(dec_file.read_text())
        obj["W"][0][0][0] = bad
        bad_file = tmp_path / "bad-dec.json"
        bad_file.write_text(json.dumps(obj))  # written as a NaN / Infinity token
        code, out = run(["check", "--channel", str(ch_file),
                         "--subsystem", str(bad_file)], capsys=capsys)
        assert code == 1
        assert "NotFinite" in out.err and "W" in out.err


def test_bad_tolerance_flag_exit_64(tmp_path, capsys):
    ch_file, dec_file = write_demo(tmp_path, "phase-flip", p=0.3)
    for value in ("nan", "-1", "0", "inf"):
        code, out = run(["check", "--channel", str(ch_file), "--subsystem",
                         str(dec_file), "--tolerance", value], capsys=capsys)
        assert code == 64
        assert "--tolerance" in out.err and value in out.err


def test_bad_tolerance_env_exit_64(tmp_path, capsys, monkeypatch):
    ch_file, dec_file = write_demo(tmp_path, "phase-flip", p=0.3)
    for value in ("nan", "-1", "abc"):
        monkeypatch.setenv("SUBREC_TOLERANCE", value)
        code, out = run(["check", "--channel", str(ch_file),
                         "--subsystem", str(dec_file)], capsys=capsys)
        assert code == 64
        assert "SUBREC_TOLERANCE" in out.err and value in out.err


def test_truncated_pair_exit_1(tmp_path, capsys):
    ch_file, _ = write_demo(tmp_path, "phase-flip", p=0.3)
    obj = json.loads(ch_file.read_text())
    obj["kraus"][0][0][0] = obj["kraus"][0][0][0][:1]  # [re] instead of [re, im]
    ch_file.write_text(json.dumps(obj))
    code, out = run(["ucc", "--channel", str(ch_file)], capsys=capsys)
    assert code == 1
    assert "MalformedInput" in out.err and "Traceback" not in out.err


def test_top_level_list_exit_1(tmp_path, capsys):
    ch_file = tmp_path / "list.json"
    ch_file.write_text("[1, 2]")
    code, out = run(["ucc", "--channel", str(ch_file)], capsys=capsys)
    assert code == 1
    assert "MalformedInput" in out.err and "JSON object" in out.err


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a tolerance, a usage error and
    # --version in earlier calls must not leak into a later default call
    import subrec.cli as cli
    from subrec.linalg import DEFAULT_TOL

    ch_file, dec_file = write_demo(tmp_path, "phase-flip", p=0.3)
    judged = []

    def recording(ch, dec, tol):
        judged.append(tol)
        return check_correctable(ch, dec, tol=tol)

    monkeypatch.setattr(cli, "check_correctable", recording)
    argv = ["check", "--channel", str(ch_file), "--subsystem", str(dec_file)]
    assert main(argv + ["--tolerance", "1e-6"]) == 0
    assert main(argv + ["--tolerance", "-1"]) == 64
    capsys.readouterr()
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("subrec ")
    assert main(argv) == 0
    monkeypatch.setenv("SUBREC_TOLERANCE", "1e-4")
    assert main(argv) == 0
    assert judged == [1e-6, DEFAULT_TOL, 1e-4]
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["demo", "binary-unitary", "--thetas", "a,b"],
    ["demo", "binary-unitary", "--thetas", "0.3,,2.5,4.0"],
    ["demo", "planted", "--seed", "-1"],
    ["demo", "planted", "--seed", "1.5"],
    ["ucc", "--seed", "-3"],
    ["check", "--subsystem", "dec.json", "--seed", "x"],
])
def test_malformed_demo_and_seed_flags_exit_64(argv, capsys):
    assert main(argv) == 64
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--da", "0"], ["--db", "-1"], ["--kraus", "0"],
                                   ["--kraus", "-1"]])
def test_planted_demo_with_an_empty_factor_exits_1_and_writes_nothing(flags, tmp_path,
                                                                      capsys):
    out = tmp_path / "dec.json"
    code = main(["demo", "planted", "--out-subsystem", str(out), *flags])
    assert code == 1
    assert "BadParams" in capsys.readouterr().err
    assert not out.exists()


def test_demo_thetas_reach_the_demo_as_numbers(tmp_path, capsys):
    # parsed by argparse, default included; an out-of-order list is bad data
    assert main(["demo", "binary-unitary", "--out", str(tmp_path / "a.json")]) == 0
    assert main(["demo", "binary-unitary", "--thetas", "0.3,1.2,2.5,4",
                 "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
    assert main(["demo", "binary-unitary", "--thetas", "1.2,0.3,2.5,4.0"]) == 1
    capsys.readouterr()


def test_report_is_encoded_once_for_out_and_format_json(tmp_path, capsys, monkeypatch):
    import subrec.cli as cli

    calls = []

    def counting(obj):
        calls.append(obj)
        return canonical_dumps(obj)

    monkeypatch.setattr(cli, "canonical_dumps", counting)
    ch_file, dec_file = write_demo(tmp_path, "binary-unitary", p=0.4, seed=8)
    out_file = tmp_path / "report.json"
    code, out = run(["recover", "--channel", str(ch_file), "--subsystem", str(dec_file),
                     "--out", str(out_file), "--format", "json"], capsys=capsys)
    assert code == 0
    assert len(calls) == 1
    assert out_file.read_bytes() == out.out.encode()


def test_pretty_printed_stdin_gives_the_canonical_report(tmp_path, capsys, monkeypatch):
    ch_file, _ = write_demo(tmp_path, "phase-flip", p=0.3)
    pretty = json.dumps(json.loads(ch_file.read_text()), indent=4)
    code, canonical = run(["ucc", "--channel", str(ch_file), "--format", "json"],
                          capsys=capsys)
    assert code == 0
    code, piped = run(["ucc", "--format", "json"], stdin_text=pretty,
                      monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert piped.out == canonical.out


def test_boolean_entries_exit_1(tmp_path, capsys):
    ch_file, dec_file = write_demo(tmp_path, "phase-flip", p=0.3)
    for path, field in ((ch_file, "kraus"), (dec_file, "W")):
        good = path.read_text()
        obj = json.loads(good)
        entry = obj[field][0][0] if field == "W" else obj[field][0][0][0]
        entry[0] = True  # numpy would read it as 1.0
        path.write_text(json.dumps(obj))
        code, out = run(["check", "--channel", str(ch_file), "--subsystem", str(dec_file)],
                        capsys=capsys)
        assert code == 1
        assert "MalformedInput" in out.err and field in out.err
        assert "Traceback" not in out.err
        path.write_text(good)


def test_byte_order_mark_exit_1(tmp_path, capsys, monkeypatch):
    # JSON text is UTF-8 without a byte order mark (RFC 8259): read as bytes,
    # a file or stdin that starts with one fails as json.loads fails on it
    ch_file, _ = write_demo(tmp_path, "phase-flip", p=0.3)
    data = b"\xef\xbb\xbf" + ch_file.read_bytes()
    ch_file.write_bytes(data)
    code, out = run(["ucc", "--channel", str(ch_file)], capsys=capsys)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code_stdin, out_stdin = run(["ucc"], capsys=capsys)
    for code, out in ((code, out), (code_stdin, out_stdin)):
        assert code == 1
        assert out.err == ("subrec: JSONDecodeError: Unexpected UTF-8 BOM (decode using "
                           "utf-8-sig): line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("command", ["check", "recover", "ucc"])
def test_stdin_bytes_give_the_report_of_the_file(command, tmp_path, capsys, monkeypatch):
    # d = 48: each Kraus operator is over 2^16 characters and read row by row
    ch_file, dec_file = write_demo(tmp_path, "planted", dim=48, d_a=2, d_b=2,
                                   unital=command == "ucc", seed=6)
    argv = [command, "--format", "json"]
    if command != "ucc":
        argv += ["--subsystem", str(dec_file)]
    code, from_file = run(argv + ["--channel", str(ch_file)], capsys=capsys)
    assert code == 0
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(ch_file.read_bytes()), encoding="utf-8"))
    code, from_stdin = run(argv, capsys=capsys)
    assert code == 0
    assert from_stdin.out == from_file.out
