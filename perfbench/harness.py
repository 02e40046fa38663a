"""Best-of-N pass loop and the span tracer behind the per-layer metrics.

A workload is a fixed list of operations.  A run repeats whole passes
over the list until its time is spent and keeps, for each operation, the
best wall time over the passes: the host's speed drifts over seconds,
and the best time is the one drift does not inflate.  Garbage is
collected before each timed call, outside the window, with the
collector left on.
"""

from __future__ import annotations

import functools
import gc
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Op:
    """One benchmark operation.

    kind     "<layer>.<op>", the key of its ``.failed`` metric
    run      performs the operation and returns its output
    reference  called once per run, outside every timed window; returns
             check(output) -> None if correct, else a message
    known_fault  set for an operation that fails on every run because of
             a known fault in the program; its failures keep ``correct`` true
    prepare  if set, called before each timed call, outside the window
    """

    kind: str
    label: str
    run: Callable[[], object]
    reference: Callable[[], Callable[[object], Optional[str]]]
    known_fault: Optional[str] = None
    prepare: Optional[Callable[[], None]] = None
    check: Optional[Callable[[object], Optional[str]]] = field(default=None, repr=False)


@dataclass
class PassStats:
    best: list
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    failed_by_kind: dict = field(default_factory=dict)


def attach_checks(ops) -> None:
    for op in ops:
        op.check = op.reference()


def execute(op: Op):
    """Time one call of op; returns (seconds, output, error message or None)."""
    if op.prepare is not None:
        op.prepare()
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing operation is counted, not fatal
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def record(stats: PassStats, index: int, op: Op, seconds: float, out, err) -> None:
    stats.best[index] = min(stats.best[index], seconds)
    stats.attempted += 1
    if err is None:
        try:
            err = op.check(out)
        except Exception as exc:  # output so malformed that the check itself broke
            err = f"check raised {type(exc).__name__}: {exc}"
    if err is None:
        return
    stats.failed += 1
    stats.failed_by_kind[op.kind] = stats.failed_by_kind.get(op.kind, 0) + 1
    if op.known_fault is None and len(stats.unexpected) < 20:
        stats.unexpected.append(f"{op.label}: {err}")


class CpuPicker:
    """Keeps this process on whichever allowed CPU is fastest right now.

    On a shared VM one CPU can sit beside a busy neighbour for minutes and
    run the same code 1.5x slower than the other.  Every `every` seconds
    the process times a fixed big-integer product on each CPU it may use
    and pins itself (and the children it starts) to the fastest.
    """

    def __init__(self, every: float = 2.0):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.every = every
        self.last = -every

    @staticmethod
    def _probe() -> float:
        a, b = 3**20000, 7**20000
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            a * b
            best = min(best, time.perf_counter() - t0)
        return best

    def maybe_repin(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or now - self.last < self.every:
            return
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((self._probe(), cpu))
        os.sched_setaffinity(0, {min(timings)[1]})
        self.last = now


def run_passes(ops, seconds: float, on_pass=None, min_passes: int = 1, between=None) -> PassStats:
    """Whole passes over ops while another pass still fits in the time left.

    on_pass(pass_no, index, op), if given, replaces execute(op) for each
    call (the traced mode switches tracing with it).  between(elapsed), if
    given, runs after each pass, untimed but inside the run's seconds.
    """
    stats = PassStats(best=[float("inf")] * len(ops))
    picker = CpuPicker()
    start = time.perf_counter()
    last = 0.0
    while stats.passes < min_passes or time.perf_counter() - start + last <= seconds:
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            picker.maybe_repin()
            dt, out, err = execute(op) if on_pass is None else on_pass(stats.passes, i, op)
            record(stats, i, op, dt, out, err)
        stats.passes += 1
        last = time.perf_counter() - t_pass
        if between is not None:
            between(time.perf_counter() - start)
    return stats


# --------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans around module-level functions, kept in memory.

    A span is [name, start_ns, end_ns, parent_index, count].  ``wrap``
    replaces a name in a module's namespace, so it traces calls made
    through that binding: wrapping ``log_binom_pmf`` in
    ``certiprob.binom_tail`` traces the lead term of every bracket.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.enabled = False

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            span = [name, time.perf_counter_ns(), 0, tracer._stack[-1] if tracer._stack else -1, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        self._patches.append((module, attr, orig))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()


def layer_totals(spans, first: int, last: int) -> dict:
    """{span name: [calls, self_ns, count]} over spans[first:last]."""
    child_ns = {}
    for s in spans[first:last]:
        if s[3] >= first:
            child_ns[s[3]] = child_ns.get(s[3], 0) + s[2] - s[1]
    out: dict = {}
    for i in range(first, last):
        name, t0, t1, _, count = spans[i]
        agg = out.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += t1 - t0 - child_ns.get(i, 0)
        agg[2] += count
    return out


def traced_passes(ops, seconds: float, tracer: Tracer):
    """Alternate traced and untraced passes, traced first.

    Returns (stats, best_traced, best_untraced, per-op layer totals of the
    fastest traced execution).
    """
    best_t = [float("inf")] * len(ops)
    best_u = [float("inf")] * len(ops)
    layers = [dict() for _ in ops]

    def one(pass_no, i, op):
        tracer.enabled = pass_no % 2 == 0
        first = len(tracer.spans)
        dt, out, err = execute(op)
        tracer.enabled = False
        if pass_no % 2 == 0:
            if dt < best_t[i]:
                best_t[i] = dt
                layers[i] = layer_totals(tracer.spans, first, len(tracer.spans))
        else:
            best_u[i] = min(best_u[i], dt)
        return dt, out, err

    stats = run_passes(ops, seconds, on_pass=one, min_passes=2)
    return stats, best_t, best_u, layers
