"""Command-line front end.

Subcommands: ``check``, ``recover``, ``ns``, ``ucc``, ``demo``.  A
channel is read from ``--channel FILE`` or from standard input, so
demos pipe straight into the analysis commands::

    subrec demo phase-flip --p 0.3 | subrec ucc

Exit codes: 0 success / positive verdict, 2 clean negative result
(check failed, nothing found), 1 runtime error, 64 usage error.  The
environment variable ``SUBREC_TOLERANCE`` overrides the default
tolerance; a tolerance from either source that is not a finite positive
number is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .algebra import enumerate_noiseless
from .correctability import check_correctable
from .demos import DEMO_NAMES, DemoSpec, demo_build
from .errors import SubrecError
from .io import (
    canonical_dumps,
    channel_from_json,
    channel_to_json,
    read_json,
    subsystem_from_json,
    subsystem_to_json,
)
from .linalg import DEFAULT_TOL
from .recovery import construct_recovery
from .ucc import find_ucc

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 64, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tolerance(text: str) -> float:
    """Parse a tolerance; anything but a finite positive number is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite positive number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """Parse a seed; anything but a non-negative integer is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


def _thetas(text: str) -> tuple[float, ...]:
    """Parse comma-separated angles; a part that is not a number is a usage error."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"angles must be comma-separated numbers, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps its results in a new
    # namespace, so repeated calls to main share no state through it
    parser = _Parser(prog="subrec",
                     description="verify, recover and discover correctable subsystems "
                                 "of quantum channels in Kraus form")
    parser.add_argument("--version", action="version", version=f"subrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, subsystem=False):
        p.add_argument("--channel", help="channel JSON file (default: stdin)")
        if subsystem:
            p.add_argument("--subsystem", required=True, help="subsystem JSON file")
        p.add_argument("--tolerance", type=_tolerance, default=None,
                       help="structural tolerance (default 1e-9 or SUBREC_TOLERANCE)")
        if not subsystem:  # discovery probes with a seed; check and recover do not
            p.add_argument("--seed", type=_seed, default=0, help="probing seed")
        p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument("--format", choices=("json", "text"), default="text",
                       help="stdout format")
        p.add_argument("--no-tp-check", action="store_true",
                       help="accept channels that are not trace preserving")

    common(sub.add_parser("check", help="test correctability of a subsystem"),
           subsystem=True)
    common(sub.add_parser("recover", help="construct the recovery unitary"),
           subsystem=True)
    common(sub.add_parser("ns", help="noiseless subsystems of a unital channel"))
    common(sub.add_parser("ucc", help="unitarily correctable subsystems"))

    demo = sub.add_parser("demo", help="emit a built-in demo channel")
    demo.add_argument("name", choices=DEMO_NAMES)
    demo.add_argument("--p", type=float, default=0.5, help="mixing probability")
    demo.add_argument("--thetas", type=_thetas, default="0.3,1.2,2.5,4.0",
                      help="four increasing angles in [0, 2pi), comma separated")
    demo.add_argument("--seed", type=_seed, default=0)
    demo.add_argument("--da", type=int, default=2, help="planted d_A")
    demo.add_argument("--db", type=int, default=2, help="planted d_B")
    demo.add_argument("--dim", type=int, default=8, help="planted ambient dimension")
    demo.add_argument("--kraus", type=int, default=3, help="planted Kraus count")
    demo.add_argument("--unital", action="store_true",
                      help="make the planted channel unital")
    demo.add_argument("--out", help="write the channel JSON to this file")
    demo.add_argument("--out-subsystem", help="write the candidate code to this file")
    return parser


def _read(path: str):
    with open(path, "rb") as fh:
        return read_json(fh)


def _load_channel(args, tol):
    require_tp = not getattr(args, "no_tp_check", False)
    # the bytes of stdin, unless it was replaced by a text stream without them
    stdin = getattr(sys.stdin, "buffer", sys.stdin)
    obj = _read(args.channel) if args.channel else read_json(stdin)
    return channel_from_json(obj, require_tp=require_tp, tol=tol)


def _emit(report: dict, args, text_lines) -> None:
    text = canonical_dumps(report) if args.out or args.format == "json" else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    if args.format == "json":
        print(text)
    else:
        for line in text_lines:
            print(line)


def _fmt(x: float) -> str:
    return f"{x:.2e}"


def _run_check(args) -> int:
    tol = args.tolerance
    ch = _load_channel(args, tol)
    dec = subsystem_from_json(_read(args.subsystem), tol=tol)
    cert = check_correctable(ch, dec, tol=tol)
    report = {
        "version": __version__,
        "command": "check",
        "passed": bool(cert.passed),
        "residuals": {"factorization": cert.residual,
                      "g_a_identity": cert.g_a_residual if cert.passed else None},
    }
    if cert.passed:
        report["F_blocks"] = cert.f_blocks
    lines = [f"correctable: {'yes' if cert.passed else 'no'}",
             f"factorization residual: {_fmt(cert.residual)}"]
    if cert.passed:
        lines.append(f"G_A identity residual: {_fmt(cert.g_a_residual)}")
    _emit(report, args, lines)
    return EXIT_OK if cert.passed else EXIT_NEGATIVE


def _run_recover(args) -> int:
    tol = args.tolerance
    ch = _load_channel(args, tol)
    dec = subsystem_from_json(_read(args.subsystem), tol=tol)
    cert = check_correctable(ch, dec, tol=tol)
    if not cert.passed:
        report = {"version": __version__, "command": "recover", "passed": False,
                  "residuals": {"factorization": cert.residual}}
        _emit(report, args, ["subsystem is not correctable; no recovery exists",
                             f"factorization residual: {_fmt(cert.residual)}"])
        return EXIT_NEGATIVE
    res = construct_recovery(ch, dec, cert, tol=tol)
    summary = (f"recovery unitary on dim {ch.dim}; B (d_B={dec.d_b}) returns via "
               f"subsystem C of dimension {res.dim_c}; residual {_fmt(res.residual)}")
    report = {
        "version": __version__,
        "command": "recover",
        "passed": True,
        "U_recovery": res.u_recovery,
        "C_subsystem": subsystem_to_json(res.c_subsystem),
        "F_CA_kraus": res.f_ca_kraus,
        "residuals": {
            "recovery_identity": res.residual,
            "factorization": cert.residual,
            "g_action": res.g_action_residual,
            "range_orthogonality": res.orthogonality_residual,
        },
        "summary": summary,
    }
    _emit(report, args, [summary])
    return EXIT_OK


def _run_ns(args) -> int:
    tol = args.tolerance
    ch = _load_channel(args, tol)
    found = enumerate_noiseless(ch, seed=args.seed, tol=tol)
    st = found.structure
    report = {
        "version": __version__,
        "command": "ns",
        "blocks": [list(b) for b in st.blocks],
        "classical_sectors": [list(b) for b in st.classical_sectors],
        "Q": st.q,
        "subsystems": [subsystem_to_json(dec) for dec in found.subsystems],
        "residuals": {"structure": st.residual,
                      "noiseless": found.residuals},
        "seed": st.seed_used,
    }
    lines = [f"fixed-point algebra blocks (m_k, n_k): {st.blocks}",
             f"quantum noiseless subsystems: {len(found.subsystems)}",
             f"classical sectors: {len(st.classical_sectors)}",
             f"structure residual: {_fmt(st.residual)}"]
    for dec, resid in zip(found.subsystems, found.residuals):
        lines.append(f"  d_B={dec.d_b} d_A={dec.d_a} noiseless residual {_fmt(resid)}")
    _emit(report, args, lines)
    return EXIT_OK if found.subsystems else EXIT_NEGATIVE


def _run_ucc(args) -> int:
    tol = args.tolerance
    ch = _load_channel(args, tol)
    report_obj = find_ucc(ch, seed=args.seed, tol=tol)
    st = report_obj.structure
    report = {
        "version": __version__,
        "command": "ucc",
        "subsystems": [{
            "subsystem": subsystem_to_json(entry.decomposition),
            "U_correction": entry.u_correction,
            "residual": entry.residual,
        } for entry in report_obj.subsystems],
        "classical_sectors": [list(b) for b in report_obj.classical_sectors],
        "rank_diagnostics": [list(r) for r in report_obj.rank_diagnostics],
        "contradictions": [{
            "stage": c.stage, "detail": c.detail, "residual": c.residual,
        } for c in report_obj.contradictions],
        "residuals": {"corrections": [e.residual for e in report_obj.subsystems],
                      "structure": st.residual},
        "seed": st.seed_used,
    }
    lines = [f"unitarily correctable subsystems: {len(report_obj.subsystems)}",
             f"classical sectors: {len(report_obj.classical_sectors)}"]
    for entry in report_obj.subsystems:
        dec = entry.decomposition
        lines.append(f"  d_B={dec.d_b} d_A={dec.d_a} correction residual "
                     f"{_fmt(entry.residual)}")
    for c in report_obj.contradictions:
        lines.append(f"  contradiction at {c.stage}: {c.detail}")
    _emit(report, args, lines)
    return EXIT_OK if report_obj.subsystems else EXIT_NEGATIVE


def _run_demo(args) -> int:
    spec = DemoSpec(name=args.name, p=args.p, thetas=args.thetas, seed=args.seed,
                    d_a=args.da, d_b=args.db, dim=args.dim, n_kraus=args.kraus,
                    unital=args.unital)
    ch, dec = demo_build(spec)
    payload = canonical_dumps(channel_to_json(ch))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.write("\n")
    else:
        print(payload)
    if args.out_subsystem:
        if dec is None:
            print(f"demo '{args.name}' has no candidate subsystem", file=sys.stderr)
            return EXIT_ERROR
        with open(args.out_subsystem, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(subsystem_to_json(dec)))
            fh.write("\n")
    return EXIT_OK


_RUNNERS = {"check": _run_check, "recover": _run_recover, "ns": _run_ns,
            "ucc": _run_ucc, "demo": _run_demo}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if "tolerance" in vars(args) and args.tolerance is None:
        env = os.environ.get("SUBREC_TOLERANCE")
        try:
            args.tolerance = _tolerance(env) if env else DEFAULT_TOL
        except argparse.ArgumentTypeError as exc:
            print(f"subrec: error: SUBREC_TOLERANCE: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return _RUNNERS[args.command](args)
    except SubrecError as exc:
        print(f"subrec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"subrec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
