"""Seeded planted instances, the timed operation and the correctness gate
of each benchmark workload.

Each workload makes instances from ``numpy.random.default_rng([seed,
tag, index])`` and writes them as JSON in the library's wire format.
The timed operation receives only those generated inputs: file paths
for the CLI workloads, objects parsed from the files for ``certify``.
The library is always called through its module attributes, so the
span recorder in ``spans.py`` sees every call.

A gate returns ``None`` for a correct outcome, else the reason the op
failed.  Residuals are judged against the library's own acceptance
threshold ``max(100 * tol, 1e-7)``.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os

import numpy as np

import subrec.cli
from subrec import correctability, demos, random_ops, recovery
from subrec import io as wire
from subrec.linalg import DEFAULT_TOL, frobenius
from subrec.subsystem import SubsystemDecomposition

THRESHOLD = max(100 * DEFAULT_TOL, 1e-7)


def _write(path: str, obj) -> str:
    with open(path, "w") as fh:
        fh.write(wire.canonical_dumps(obj))
        fh.write("\n")
    return path


def _read(path: str):
    with open(path) as fh:
        return json.load(fh)


def _cli(argv) -> int:
    # the CLI prints a text summary on stdout; the benchmark owns stdout
    with contextlib.redirect_stdout(_stdio.StringIO()):
        return subrec.cli.main(argv)


def _residuals_ok(values) -> str | None:
    for name, value in values.items():
        if not value <= THRESHOLD:  # also rejects NaN
            return f"{name} residual {value!r} above {THRESHOLD:g}"
    return None


class Certify:
    """Library pipeline check -> recovery -> correction -> verification on
    planted non-unital channels; every 4th op is a negative whose W is a
    Haar-random isometry and must fail ``check_correctable``."""

    name = "certify"
    tag = 1
    d_a, d_b, dim, n_kraus = 4, 8, 40, 3
    pool = 40  # timed-phase instances; set-up makes one more for the warm-up
    period = 4  # ops j with j % period == period - 1 are negatives

    def make(self, rng, workdir: str, index: int):
        ch, dec = demos.planted_channel(self.d_a, self.d_b, self.dim, self.n_kraus, rng)
        wrong = random_ops.haar_isometry(self.dim, self.d_a * self.d_b, rng)
        bad = SubsystemDecomposition(self.dim, self.d_a, self.d_b, wrong)
        base = os.path.join(workdir, f"certify-{index}")
        files = (_write(base + "-channel.json", wire.channel_to_json(ch)),
                 _write(base + "-subsystem.json", wire.subsystem_to_json(dec)),
                 _write(base + "-negative.json", wire.subsystem_to_json(bad)))
        return (wire.channel_from_json(_read(files[0])),
                wire.subsystem_from_json(_read(files[1])),
                wire.subsystem_from_json(_read(files[2])))

    def is_negative(self, j: int) -> bool:
        return j % self.period == self.period - 1

    def op(self, inst, j: int):
        ch, dec, bad = inst
        if self.is_negative(j):
            return correctability.check_correctable(ch, bad)
        cert = correctability.check_correctable(ch, dec)
        if not cert.passed:
            return cert, None, None
        res = recovery.construct_recovery(ch, dec, cert)
        correction = recovery.recovery_to_correction(res, dec)
        residual, _ = recovery.verify_correction(ch, dec, correction)
        return cert, res, residual

    def gate(self, inst, j: int, outcome) -> str | None:
        if self.is_negative(j):
            return "negative passed check_correctable" if outcome.passed else None
        cert, res, residual = outcome
        if not cert.passed:
            return f"planted subsystem rejected (residual {cert.residual:.3e})"
        return _residuals_ok({"factorization": cert.residual,
                              "g_a_identity": cert.g_a_residual,
                              "recovery_identity": res.residual,
                              "verify_correction": residual})


class Wide:
    """``subrec recover`` in-process on JSON files of planted non-unital
    channels at ambient dimension 256 with a two-qubit code."""

    name = "wide"
    tag = 2
    d_a, d_b, dim, n_kraus = 2, 2, 256, 3
    pool = 12
    period = 1

    def make(self, rng, workdir: str, index: int):
        ch, dec = demos.planted_channel(self.d_a, self.d_b, self.dim, self.n_kraus, rng)
        base = os.path.join(workdir, f"wide-{index}")
        return (_write(base + "-channel.json", wire.channel_to_json(ch)),
                _write(base + "-subsystem.json", wire.subsystem_to_json(dec)),
                base + "-report.json")

    def op(self, inst, j: int):
        channel, subsystem, out = inst
        return _cli(["recover", "--channel", channel, "--subsystem", subsystem,
                     "--out", out])

    def gate(self, inst, j: int, outcome) -> str | None:
        out = inst[2]
        if outcome != 0:
            return f"exit code {outcome}"
        report = _read(out)
        os.remove(out)
        if report.get("passed") is not True:
            return "report does not say passed"
        return _residuals_ok({"recovery_identity":
                              report["residuals"]["recovery_identity"]})


class Discover:
    """``subrec ucc`` in-process on JSON files of planted unital channels.

    Besides the planted code, the fixed-point algebra of E^dag E has a
    matrix block on the complement of the code, which ``find_ucc`` also
    reports as a (d_A = 1) unitarily correctable subsystem; the gate
    requires exactly one reported subsystem equal to the planted one.
    """

    name = "discover"
    tag = 3
    d_a, d_b, dim, n_kraus = 2, 2, 12, 3
    pool = 16
    period = 1

    def make(self, rng, workdir: str, index: int):
        ch, dec = demos.planted_channel(self.d_a, self.d_b, self.dim, self.n_kraus,
                                        rng, unital=True)
        base = os.path.join(workdir, f"discover-{index}")
        return (_write(base + "-channel.json", wire.channel_to_json(ch)),
                base + "-report.json", dec.p_ab)

    def op(self, inst, j: int):
        channel, out, _ = inst
        return _cli(["ucc", "--channel", channel, "--out", out])

    def gate(self, inst, j: int, outcome) -> str | None:
        _, out, p_planted = inst
        if outcome != 0:
            return f"exit code {outcome}"
        report = _read(out)
        os.remove(out)
        if report["contradictions"]:
            return f"{len(report['contradictions'])} contradictions"
        matches = 0
        for entry in report["subsystems"]:
            w = np.array(entry["subsystem"]["W"], dtype=float)  # columns of [re, im]
            w = (w[..., 0] + 1j * w[..., 1]).T
            if frobenius(w @ w.conj().T - p_planted) <= THRESHOLD * max(
                    1.0, frobenius(p_planted)):
                matches += 1
        if matches != 1:
            return f"{matches} reported subsystems equal the planted code"
        return _residuals_ok({f"correction[{i}]": r for i, r in
                              enumerate(report["residuals"]["corrections"])})


WORKLOADS = {w.name: w for w in (Certify(), Wide(), Discover())}
