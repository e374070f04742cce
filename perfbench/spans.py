"""In-memory span recorder that wraps the public functions of ``subrec``.

Spans are recorded from outside the library: each traced function is
replaced, at every name a ``subrec`` module uses to look it up, by a
wrapper that records ``(name, start, end, parent, op)``.  The wrappers
are installed only around traced operations and removed afterwards, so
untraced operations run the unmodified library.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so the children of
a span never overlap and their durations add up to the time they cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, defining module, attribute path).  The span name is the
# module's short name followed by the attribute path, with ``__init__``
# spelled ``init``.
SPANS = [
    ("channel.KrausChannel.apply", "subrec.channel", "KrausChannel.apply"),
    ("channel.KrausChannel.init", "subrec.channel", "KrausChannel.__init__"),
    ("channel.compose", "subrec.channel", "compose"),
    ("channel.to_superoperator", "subrec.channel", "to_superoperator"),
    ("channel.fixed_point_basis", "subrec.channel", "fixed_point_basis"),
    ("subsystem.embed_product", "subrec.subsystem", "embed_product"),
    ("subsystem.factor_on_range", "subrec.subsystem", "factor_on_range"),
    ("correctability.check_correctable", "subrec.correctability", "check_correctable"),
    ("correctability.check_noiseless", "subrec.correctability", "check_noiseless"),
    ("recovery.construct_recovery", "subrec.recovery", "construct_recovery"),
    ("recovery.recovery_to_correction", "subrec.recovery", "recovery_to_correction"),
    ("recovery.verify_correction", "subrec.recovery", "verify_correction"),
    ("linalg.hermitian_eig", "subrec.linalg", "hermitian_eig"),
    ("linalg.polar_isometry_on_support", "subrec.linalg", "polar_isometry_on_support"),
    ("linalg.complete_to_unitary", "subrec.linalg", "complete_to_unitary"),
    ("linalg.orthonormal_complement", "subrec.linalg", "orthonormal_complement"),
    ("algebra.commutant", "subrec.algebra", "commutant"),
    ("algebra.algebra_structure", "subrec.algebra", "algebra_structure"),
    ("algebra.enumerate_noiseless", "subrec.algebra", "enumerate_noiseless"),
    ("ucc.find_ucc", "subrec.ucc", "find_ucc"),
    ("io.channel_from_json", "subrec.io", "channel_from_json"),
    ("io.subsystem_from_json", "subrec.io", "subsystem_from_json"),
    ("io.matrix_to_json", "subrec.io", "matrix_to_json"),
    ("io.canonical_dumps", "subrec.io", "canonical_dumps"),
    ("cli.main", "subrec.cli", "main"),
]

# Counters recorded next to the spans, keyed by metric name.
COUNTERS = {
    "algebra.fixed_point_dim": "count",
    "algebra.probe_attempts": "count",
    # computed from the input shapes (rows x cols x 16 bytes), not measured
    "algebra.commutant.system_mb": "MB-computed",
}

OP_SPAN = "op"


def _commutant_system_mb(args, kwargs, _result):
    ops = args[0] if args else kwargs["ops"]
    dim = args[1] if len(args) > 1 else kwargs.get("dim")
    if dim is None:
        dim = len(ops[0])
    cols = dim * dim
    rows = max(2 * len(ops) * cols, cols)  # commutant pads short systems
    return "algebra.commutant.system_mb", rows * cols * 16 / 2**20


def _probe_attempts(args, kwargs, result):
    seed = args[1] if len(args) > 1 else kwargs.get("seed", 0)
    return "algebra.probe_attempts", result.seed_used - seed + 1


def _fixed_point_dim(_args, _kwargs, result):
    return "algebra.fixed_point_dim", len(result)


_OBSERVERS = {
    "algebra.commutant": _commutant_system_mb,
    "algebra.algebra_structure": _probe_attempts,
    "channel.fixed_point_basis": _fixed_point_dim,
}


class Tracer:
    """Records spans and counters of traced operations in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counters: list = []  # (name, value, op id)
        self._stack: list[int] = []
        self._op = None
        self._patches: list = []  # (owner, attribute, original)

    # -- span recording ---------------------------------------------------

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op)
            if observe is not None:
                counter, value = observe(args, kwargs, result)
                self.counters.append((counter, value, self._op))
            return result

        return traced

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as traced operation ``op_id`` under an op span."""
        self._op = op_id
        self._install()
        try:
            return self._wrap(OP_SPAN, fn)(*args)
        finally:
            self._uninstall()
            self._op = None

    # -- patching ---------------------------------------------------------

    def _install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "subrec" or n.startswith("subrec.")) and m is not None]
        for name, module_name, path in SPANS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if outer:
                # a method: patching the class covers every caller
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def op_durations(self) -> dict:
        """Wall time of each traced op, keyed by op id."""
        return {op: end - start for name, start, end, _, op in self.spans
                if name == OP_SPAN}

    def self_times(self) -> list:
        """Self time of every span, aligned with ``self.spans``."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def self_time_sums(self) -> dict:
        """Sum of the self times of each op's spans, keyed by op id."""
        total: dict = {}
        for (_, _, _, _, op), own in zip(self.spans, self.self_times()):
            total[op] = total.get(op, 0.0) + own
        return total

    def per_op(self) -> dict:
        """Per-op means of ``<span>.calls`` and ``<span>.self_s``; per-op
        maxima of the counters, averaged over traced ops."""
        n_ops = len(self.op_durations())
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, _, _, _, _), own in zip(self.spans, self.self_times()):
            if name == OP_SPAN:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        peaks: dict = {counter: {} for counter in COUNTERS}
        for counter, value, op in self.counters:
            peaks[counter][op] = max(peaks[counter].get(op, 0), value)
        for counter, by_op in peaks.items():
            out[counter] = sum(by_op.values())
        return {key: value / max(n_ops, 1) for key, value in out.items()}

    def write(self, path: str, origin: float) -> None:
        """Write every span as one JSON line, times relative to ``origin``."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "op": op}))
                fh.write("\n")
