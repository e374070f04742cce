"""Benchmark of the subrec library: one seeded workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Set-up imports the library from ``./src``, generates and serializes the
whole instance pool and runs one warm-up op on an instance of its own;
``setup_s`` is the sum of the three, each scaled to the reference speed,
so a cost paid once per process (an import, a cache filled on first
use) lands in it.  The timed phase then runs ops on fresh pool
instances, one after another, until ``--seconds`` have passed, and
checks every outcome.  With ``--trace 0`` the library runs unmodified
and the end-to-end metrics are reported, op times in ``s-ref`` (see
``Reference``); with ``--trace 1`` ops alternate, in blocks of the
workload's negative period, between traced and untraced, and the
per-layer metrics of the traced ops are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS runs on
one thread and the process starts no other thread or process.
"""

import os
import sys
import time

START = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported anywhere
sys.dont_write_bytecode = True  # every run compiles the library alike

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402

import numpy as np  # noqa: E402

from spans import COUNTERS, SPANS, Tracer  # noqa: E402

WORK_DIR = ".perfbench_work"
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
REF_S = 0.05  # reference-kernel time that defines one second of "s-ref"
# Time a traced op may spend outside its op span: installing and removing
# the wrappers takes about 1 ms.
TRACE_SLACK_S = 0.02


class Reference:
    """A fixed numpy kernel, independent of subrec, timed before the first
    op and after every op.

    The shared host's speed drifts by tens of percent over seconds to
    minutes, which moves every wall time of a run alike.  Scaling an op's
    wall time by ``REF_S`` over the mean kernel time on either side of it
    cancels most of that drift: ``s-ref`` are seconds on a machine where
    the kernel takes ``REF_S``.  The kernel mixes the work the library
    does: small complex products, a d = 256 product and a tall SVD.
    """

    def __init__(self):
        rng = np.random.default_rng(0)

        def unit(n, m):
            z = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
            return z / np.linalg.norm(z, 2)

        self.small, self.large, self.tall = unit(40, 40), unit(256, 256), unit(1500, 100)
        self.time()  # the first call pays one-time costs of the BLAS/LAPACK paths

    def time(self) -> float:
        t0 = time.perf_counter()
        x = self.small
        for _ in range(300):
            x = self.small @ x @ self.small.conj().T + self.small
        y = self.large
        for _ in range(4):
            y = self.large @ y
        np.linalg.svd(self.tall, full_matrices=False)
        return time.perf_counter() - t0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library(root: str):
    """Import subrec from ``<root>/src``; None when it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "subrec", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import subrec
    if not os.path.realpath(subrec.__file__).startswith(os.path.realpath(src) + os.sep):
        return None
    return subrec


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _tail(samples):
    """(percentile, value, samples beyond): the highest whole percentile
    with at least TAIL_BEYOND samples beyond it, never below the median.

    The p-th percentile is the sample at sorted index floor(p * n / 100),
    so the 50th is the upper median.  With fewer than 2 * TAIL_BEYOND + 1
    samples no percentile from 50 up has that many beyond it, and the
    upper median is reported with the smaller count.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = 50
    for p in range(99, 50, -1):
        if n - 1 - p * n // 100 >= TAIL_BEYOND:
            best = p
            break
    index = best * n // 100
    return best, ordered[index], n - 1 - index


def _attempt(wl, inst, j, tracer):
    """Run op ``j`` on ``inst`` and gate it: (op wall time, failure reason
    or None).  An op that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            outcome = tracer.run_op(j, wl.op, inst, j)
        else:
            outcome = wl.op(inst, j)
        elapsed = time.perf_counter() - t0
        return elapsed, wl.gate(inst, j, outcome)
    except Exception as exc:  # the boundary of one op: record and go on
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if import_library(root) is None:
        print("perfbench: src/subrec not found; run from the root of a subrec checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    import_s = time.perf_counter() - START

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 64
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(root, WORK_DIR, f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, wl, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, workdir, import_s) -> int:
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"load: processes=1 python_threads={threading.active_count()} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__} blas={_blas_version()}")

    # Set-up is scaled to the reference speed like the ops: the import by
    # the kernel timed right after it, the pool and the warm-up op each by
    # the mean of the timings on either side of it.
    reference = Reference()
    failures = []
    ref_setup = [reference.time()]
    t0 = time.perf_counter()
    instances = [wl.make(np.random.default_rng([args.seed, wl.tag, i]), workdir, i)
                 for i in range(wl.pool + 1)]
    pool_s = time.perf_counter() - t0
    ref_setup.append(reference.time())
    warm, pool = instances[0], instances[1:]
    warm_s, reason = _attempt(wl, warm, 0, None)
    ref_setup.append(reference.time())
    if reason is not None:
        failures.append(reason)
        print(f"perfbench: warm-up op failed: {reason}", file=sys.stderr)
    setup_s = REF_S * (import_s / ref_setup[0]
                       + pool_s / ((ref_setup[0] + ref_setup[1]) / 2)
                       + warm_s / ((ref_setup[1] + ref_setup[2]) / 2))
    print(f"setup: import_s={import_s:.4f} pool_s={pool_s:.4f} warm_up_s={warm_s:.4f} "
          f"pool={len(pool)}; wall setup_s {import_s + pool_s + warm_s:.6g} s")

    tracer = Tracer() if args.trace else None
    walls, traced_flags, ref_s = [], [], [ref_setup[-1]]
    correct_ops = 0
    origin = time.perf_counter()
    j = 0
    # Stop only after whole periods, so every run has the same share of
    # negatives; a traced run also needs untraced ops for the overhead ratio.
    while (j % wl.period or j == 0 or time.perf_counter() - origin < args.seconds
           or (tracer is not None and all(traced_flags))):
        use_trace = tracer is not None and (j // wl.period) % 2 == 0
        elapsed, reason = _attempt(wl, pool[j % len(pool)], j,
                                   tracer if use_trace else None)
        ref_s.append(reference.time())
        walls.append(elapsed)
        traced_flags.append(use_trace)
        if reason is None:
            correct_ops += 1
        else:
            failures.append(reason)
            print(f"perfbench: op {j} failed: {reason}", file=sys.stderr)
        j += 1

    attempted = j
    failed = attempted - correct_ops
    correct = not failures
    scaled = [w * REF_S / ((a + b) / 2) for w, a, b in zip(walls, ref_s, ref_s[1:])]
    print(f"reference kernel: median {statistics.median(ref_s):.4f} s over "
          f"{len(ref_s)} timings; REF_S = {REF_S} s")
    print("op wall s: " + " ".join(f"{x:.4f}" for x in walls))
    print(f"failed_ratio {failed / attempted:.4g} ratio ({failed} of {attempted} ops)")
    wall_pct, wall_tail, _ = _tail(walls)
    print(f"wall time: op_s_p50 {statistics.median(walls):.6g} s, op_s_tail "
          f"{wall_tail:.6g} s (p{wall_pct}), ops_per_s {correct_ops / sum(walls):.6g} 1/s")
    if tracer is None:
        pct, tail, beyond = _tail(scaled)
        metrics = {
            "op_s_p50": _metric(statistics.median(scaled), "s-ref"),
            "op_s_tail": _metric(tail, "s-ref"),
            "ops_per_s": _metric(correct_ops / sum(scaled), "1/s-ref"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": _metric(setup_s, "s"),
        }
        notes = {"op_s_tail": f"p{pct} of {attempted} ops, {beyond} beyond",
                 "ops_per_s": f"{correct_ops} correct ops in {sum(scaled):.3f} s-ref"}
    else:
        path = os.path.join(os.path.dirname(workdir), f"trace-{wl.name}.jsonl")
        tracer.write(path, origin)
        # The self times of an op's spans must add up to the op's wall time
        # as timed here, outside the tracer, less the time spent installing
        # and removing the wrappers; a lost or mis-parented span breaks that.
        traced_ops = {op for op, flag in enumerate(traced_flags) if flag}
        sums = tracer.self_time_sums()
        stray = set(sums) - traced_ops
        gaps = {op: walls[op] - sums.get(op, 0.0) for op in traced_ops}
        off = {op: gap for op, gap in gaps.items() if not -1e-6 <= gap <= TRACE_SLACK_S}
        if stray or off:
            correct = False
            print(f"perfbench: self times miss op wall times {off} (s); spans outside "
                  f"traced ops: {sorted(map(str, stray))}", file=sys.stderr)
        per_op = tracer.per_op()
        metrics = {}
        for name, _, _ in SPANS:
            metrics[f"{name}.calls"] = _metric(per_op[f"{name}.calls"], "count")
            metrics[f"{name}.self_s"] = _metric(per_op[f"{name}.self_s"], "s")
        for name, unit in COUNTERS.items():
            metrics[name] = _metric(per_op[name], unit)
        traced = [x for x, flag in zip(scaled, traced_flags) if flag]
        plain = [x for x, flag in zip(scaled, traced_flags) if not flag]
        metrics["trace.overhead_ratio"] = _metric(
            statistics.median(traced) / statistics.median(plain), "ratio")
        notes = {"trace.overhead_ratio":
                 f"{len(traced)} traced and {len(plain)} untraced ops",
                 "self times": f"cover each traced op's wall time to within "
                               f"{max(map(abs, gaps.values()), default=0.0):.2e} s",
                 "spans": f"{len(tracer.spans)} written to {path}"}

    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name}: {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
