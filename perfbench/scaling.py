"""Scaling report: the baseline table of check, recover and find_ucc times
over a ladder of planted channels, from one command.  No check gates on it.

Usage, from the root of a checkout::

    python3 perfbench/scaling.py

``check`` times ``check_correctable`` and ``recover`` times
``check_correctable`` plus ``construct_recovery`` (what ``subrec recover``
computes) on planted non-unital channels; ``find_ucc`` runs on planted
unital channels.  Each cell runs alone in a child process with BLAS on
one thread, and is recorded as ``timeout`` when it exceeds ``BUDGET_S``.
Before ``find_ucc`` a cell computes the fixed-point basis of E^dag E
and, from its length n, the bytes of the first stacked commutation
system ``commutant`` would build, (2 n d^2) x d^2 complex entries; a
cell whose system exceeds ``MEM_BUDGET_MB`` is recorded as
``exceeds_memory`` without building it.  A cell's peak memory is several
times its system (897 MB for the 160 MB system at d = 16), so the cap,
``MEM_BUDGET_MB``, lets the d = 20 cell (a 781 MB system) run and records
d >= 24 (2.7 GB and more) as ``exceeds_memory``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins BLAS to one thread before numpy is imported)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

# (d, d_A, d_B, Kraus count)
CHECK_LADDER = [(8, 2, 2, 3), (16, 2, 4, 3), (24, 2, 4, 3), (32, 4, 8, 3),
                (64, 8, 8, 2), (128, 2, 2, 3), (256, 2, 2, 3)]
UCC_LADDER = [(8, 2, 2, 3), (12, 2, 2, 3), (16, 2, 4, 3), (20, 2, 4, 3),
              (24, 2, 4, 3), (32, 2, 4, 3)]
BUDGET_S = 120  # wall-time budget of one cell
MEM_BUDGET_MB = 1024  # largest computed commutant system a cell may build
SEED = 1  # planted-instance seed


def _cell(kind, d, d_a, d_b, m) -> dict:
    """Run one cell in this process and describe its outcome."""
    if run.import_library(os.getcwd()) is None:
        raise SystemExit("perfbench: src/subrec not found")
    from subrec import channel, correctability, demos, recovery, ucc

    ch, dec = demos.planted_channel(d_a, d_b, d, m, seed=SEED, unital=kind == "ucc")
    out = {}
    if kind == "ucc":
        composed = channel.compose(channel.dual(ch), ch)
        n = len(channel.fixed_point_basis(channel.to_superoperator(composed)))
        system_mb = 2 * n * d ** 4 * 16 / 2**20
        out.update(fixed_point_dim=n, system_mb_computed=round(system_mb, 1))
        if system_mb > MEM_BUDGET_MB:
            return dict(out, status="exceeds_memory")
    t0 = time.perf_counter()
    if kind == "ucc":
        found = len(ucc.find_ucc(ch, seed=SEED).subsystems)
        out["subsystems"] = found
    else:
        cert = correctability.check_correctable(ch, dec)
        if kind == "recover":
            recovery.construct_recovery(ch, dec, cert)
        out["passed"] = bool(cert.passed)
    out["seconds"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return dict(out, status="ok")


def _run_cell(kind, shape) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--cell", kind, *map(str, shape)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=BUDGET_S)  # kills and reaps on timeout
    except subprocess.TimeoutExpired:
        return {"status": "timeout"}
    if proc.returncode != 0:
        return {"status": "error", "detail": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _show(cell) -> str:
    if cell["status"] == "ok":
        return f"{cell['seconds']:.3g} s"
    return cell["status"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cell", nargs=5, metavar=("KIND", "D", "DA", "DB", "M"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.cell:
        kind, *shape = args.cell
        print(json.dumps(_cell(kind, *map(int, shape))))
        return 0
    if run.import_library(os.getcwd()) is None:
        print("perfbench: src/subrec not found; run from the root of a subrec checkout",
              file=sys.stderr)
        return 2

    print("| d | d_A | d_B | m | check | recover |\n|---|---|---|---|---|---|")
    for shape in CHECK_LADDER:
        check = _run_cell("check", shape)
        rec = _run_cell("recover", shape)
        print("| " + " | ".join(map(str, shape)) + f" | {_show(check)} | {_show(rec)} |",
              flush=True)
    print("\n| d | d_A | d_B | m | find_ucc (unital) | fixed-point dim "
          "| commutant system MB (computed) | peak RSS MB |\n|---|---|---|---|---|---|---|---|")
    for shape in UCC_LADDER:
        cell = _run_cell("ucc", shape)
        print("| " + " | ".join(map(str, shape)) + f" | {_show(cell)} "
              f"| {cell.get('fixed_point_dim', '—')} | {cell.get('system_mb_computed', '—')} "
              f"| {round(cell['peak_rss_mb']) if 'peak_rss_mb' in cell else '—'} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
