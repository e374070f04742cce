import io
import json

import numpy as np
import pytest

from subrec import DemoSpec, SubsystemDecomposition, compose, demo_build, dual
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
