"""Spans for the traced benchmark run, and the per-layer metrics they give.

In the child, `install` wraps the public functions of each kbonacci
module wherever a module attribute (or a class, or the CHECKERS table)
binds them, so every call into a layer opens a span: name, start, end,
parent span, operation id.  Spans stay in flat arrays in memory and are
written to one file when the child exits.  The parent reads the file
back with `load` and turns it into metrics with `layer_metrics`.
"""

from __future__ import annotations

import array
import functools
import json
import time

MIB = float(1 << 20)

BUILDERS = ("build_base", "build_higher", "build_lucas", "build_q")


class Recorder:
    """Spans and counters of one operation."""

    def __init__(self, op: int) -> None:
        self.op = op
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, float] = {}
        self.caches: dict = {}
        self._open: list[int] = []

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """fn, recording one span per call; observe(args, result), if
        given, adds counters after the span has closed."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends, opened = self.name, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(opened[-1] if opened else -1)
            ends.append(0.0)
            opened.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                opened.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        header = {
            "op": self.op,
            "names": self.names,
            "spans": len(self.start),
            "counters": self.counters,
            "caches": {name: fn.cache_info()._asdict() for name, fn in self.caches.items()},
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


def load(path: str):
    """(header, name, parent, start, end) as written by Recorder.write."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for code in "iidd":
            column = array.array(code)
            column.fromfile(handle, header["spans"])
            columns.append(column)
    return (header, *columns)


def _wrap_everywhere(rec: Recorder, modules, owner, attr: str, name: str, observe=None):
    """Wrap owner.attr and rebind every module attribute that binds the
    same function; returns the unwrapped function."""
    fn = getattr(owner, attr)
    traced = rec.wrap(name, fn, observe)
    for module in modules:
        if getattr(module, attr, None) is fn:
            setattr(module, attr, traced)
    return fn


def install(rec: Recorder) -> None:
    """Trace the kbonacci layers for the rest of this process."""
    import kbonacci
    from kbonacci import bench, builders, cli, expectations, identities, matrix, sequences

    modules = (kbonacci, bench, builders, cli, expectations, identities, matrix, sequences)
    cls = matrix.SquareMatrix

    def count_mul(args, result) -> None:
        a, b = args
        rec.count("matrix.mul.scalar_mults", a.dim**3)
        rec.count("matrix.mul.operand_bits", sum(e.bit_length() for m in (a, b) for row in m.rows for e in row))

    cls.__init__ = rec.wrap("matrix.construct", cls.__init__)
    cls.__add__ = rec.wrap("matrix.add", cls.__add__)
    cls.__sub__ = rec.wrap("matrix.add", cls.__sub__)
    cls.__pow__ = rec.wrap("matrix.pow", cls.__pow__)
    cls.scale = rec.wrap("matrix.scale", cls.scale)
    # matrix * int delegates to scale; only matrix products are spans here
    plain_mul = cls.__mul__
    matrix_mul = rec.wrap("matrix.mul", plain_mul, count_mul)
    cls.__mul__ = lambda self, other: (matrix_mul if isinstance(other, cls) else plain_mul)(self, other)
    _wrap_everywhere(rec, modules, matrix, "compose", "matrix.compose")
    _wrap_everywhere(rec, modules, matrix, "to_json_dict", "matrix.to_json_dict")

    for name in BUILDERS:
        rec.caches[name] = _wrap_everywhere(rec, modules, builders, name, f"builders.{name}")
    _wrap_everywhere(rec, modules, builders, "fast_f", "builders.fast_f")
    _wrap_everywhere(rec, modules, builders, "fast_term", "builders.fast_term")
    _wrap_everywhere(rec, modules, sequences, "term", "sequences.term")
    _wrap_everywhere(rec, modules, sequences, "lucas_term", "sequences.lucas_term")
    _wrap_everywhere(rec, modules, expectations, "expected_reason", "expectations.expected_reason")

    for checker, fn in identities.CHECKERS.items():
        identities.CHECKERS[checker] = rec.wrap(f"identities.checker.{checker}", fn)

    def count_cases(args, result) -> None:
        rec.count("identities.cases", len(result.cases))
        rec.count("identities.failing", sum(c.status == identities.FAILS for c in result.cases))

    _wrap_everywhere(rec, modules, identities, "run_suite", "identities.run_suite", count_cases)
    identities.SuiteResult.to_json = rec.wrap(
        "identities.render",
        identities.SuiteResult.to_json,
        lambda args, text: rec.count("identities.render.chars", len(text)),
    )
    _wrap_everywhere(rec, modules, cli, "main", "cli.main")


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans must be listed in order of start time, as Recorder keeps them.
    """
    covered = [0.0] * len(start)
    reach = list(start)  # reach[p]: how far p's children have covered p so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [e - s - c for s, e, c in zip(start, end, covered)]


def busy_times(name, start, end) -> dict[int, float]:
    """Per name id, the time at least one span of that name was open, so
    a recursive call is not counted twice.  Spans in start order."""
    busy: dict[int, float] = {}
    reach: dict[int, float] = {}
    for n, s, e in zip(name, start, end):
        lo = max(s, reach.get(n, s))
        if e > lo:
            busy[n] = busy.get(n, 0.0) + e - lo
            reach[n] = e
    return busy


def layer_metrics(header, name, parent, start, end) -> dict[str, float]:
    """Per-layer metrics of one traced operation, keyed by metric name.
    A layer the operation never called has no metrics here."""
    names = header["names"]
    calls = [0] * len(names)
    own = [0.0] * len(names)
    for n, t in zip(name, self_times(parent, start, end)):
        calls[n] += 1
        own[n] += t
    busy = busy_times(name, start, end)
    metrics: dict[str, float] = {}
    for n, span in enumerate(names):
        if calls[n]:
            metrics[f"{span}.calls"] = calls[n]
            metrics[f"{span}.self_s"] = own[n]
            metrics[f"{span}.s"] = busy.get(n, 0.0)
    counters = header["counters"]
    if "matrix.mul.calls" in metrics:
        metrics["matrix.mul.scalar_mults"] = counters["matrix.mul.scalar_mults"]
        metrics["matrix.mul.operand_mib"] = counters["matrix.mul.operand_bits"] / 8 / MIB
    if "identities.run_suite.calls" in metrics:
        metrics["identities.cases"] = counters["identities.cases"]
    if "identities.render.calls" in metrics:
        metrics["identities.render.mib"] = counters["identities.render.chars"] / MIB
    if "expectations.expected_reason.calls" in metrics:
        metrics["expectations.useful_ratio"] = (
            counters.get("identities.failing", 0) / metrics["expectations.expected_reason.calls"]
        )
    for builder, info in header["caches"].items():
        if info["hits"] + info["misses"]:
            metrics[f"builders.{builder}.hit_ratio"] = info["hits"] / (info["hits"] + info["misses"])
    return metrics
