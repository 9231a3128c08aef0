"""Shared machinery of the benchmark workloads.

An operation is one call into the program with a time budget and an answer
check.  It succeeds only when it returns in budget and its answer passes the
check; otherwise it fails and every timing metric charges it its budget, so
that turning a fast failure into a slower correct answer reads as a gain.

Spans are kept in memory (Tracer) and written to a file when the run ends.
A pass is one run of a workload's fixed operation script, in a process of
its own (bench/worker.py).
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager


class BudgetExceeded(BaseException):
    """Raised by the interval timer in an in-process operation.

    A BaseException, so that library code catching Exception cannot
    swallow it."""


class WrongAnswer(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


class Tracer:
    """Spans (name, start, end, parent) recorded around calls into a layer."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class Op:
    """Outcome of one operation."""

    def __init__(self, name: str, group: str, budget: float):
        self.name = name
        self.group = group
        self.budget = budget
        self.elapsed = 0.0
        self.outcome = "ok"  # ok, error, overrun, wrong, not-run
        self.detail = ""
        self.value = None
        self.payload_s = None  # the program's own timing of the call, if it reports one

    FIELDS = ("name", "group", "budget", "elapsed", "outcome", "detail", "payload_s")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.FIELDS}

    @classmethod
    def from_json(cls, obj: dict) -> "Op":
        op = cls(obj["name"], obj["group"], obj["budget"])
        for k in cls.FIELDS[3:]:
            setattr(op, k, obj[k])
        return op

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def charged(self) -> float:
        return self.elapsed if self.ok else self.budget


class Pass:
    """One run of a workload's operation script."""

    def __init__(self, tracer: Tracer | None, time_left: float):
        self.tracer = tracer
        self.ops: list[Op] = []
        self.setup_s = 0.0  # set-up that preceded this pass, in the same process
        self.peak_rss_mb = 0.0
        self._end = time.perf_counter() + time_left

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def remaining(self) -> float:
        return self._end - time.perf_counter()

    def to_json(self) -> dict:
        return {"ops": [op.to_json() for op in self.ops], "setup_s": self.setup_s,
                "peak_rss_mb": self.peak_rss_mb,
                "spans": self.tracer.spans if self.tracer else None}

    @classmethod
    def from_json(cls, obj: dict) -> "Pass":
        p = cls(None, 0.0)
        if obj["spans"] is not None:
            p.tracer = Tracer()
            p.tracer.spans = obj["spans"]
        p.ops = [Op.from_json(o) for o in obj["ops"]]
        p.setup_s, p.peak_rss_mb = obj["setup_s"], obj["peak_rss_mb"]
        return p

    @contextmanager
    def span(self, name: str, **attrs):
        if self.tracer is None:
            yield None
        else:
            with self.tracer.span(name, **attrs) as rec:
                yield rec

    def fail(self, name: str, group: str, budget: float, outcome: str,
             detail: str) -> Op:
        op = Op(name, group, budget)
        op.outcome, op.detail = outcome, detail
        self.ops.append(op)
        return op

    def run(self, name: str, group: str, budget: float, call, check,
            layer: str | None = None, in_process: bool = True) -> Op:
        """Time one call under its budget, then check its value.

        In process, an interval timer interrupts call() at the budget;
        otherwise call(limit) enforces the limit itself (a subprocess
        timeout) and raises BudgetExceeded.  check(value) raises on a wrong
        answer and runs outside the timed region."""
        limit = min(budget, self.remaining())
        if limit <= 0:
            return self.fail(name, group, budget, "not-run", "run time limit reached")
        op = Op(name, group, budget)
        self.ops.append(op)

        def on_alarm(signum, frame):
            raise BudgetExceeded

        old = signal.signal(signal.SIGALRM, on_alarm) if in_process else None
        start = time.perf_counter()
        try:
            with self.span(layer or name, op=name):
                if not in_process:
                    op.value = call(limit)
                else:
                    signal.setitimer(signal.ITIMER_REAL, limit)
                    try:
                        op.value = call()
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            op.outcome, op.detail = "overrun", f"exceeded {limit:.1f} s"
        except Exception as e:  # the program's own failure, reported
            op.outcome, op.detail = "error", f"{type(e).__name__}: {e}"[:300]
        finally:
            op.elapsed = time.perf_counter() - start
            if in_process:
                signal.signal(signal.SIGALRM, old)
        if op.ok and op.elapsed > budget:
            op.outcome, op.detail = "overrun", f"took {op.elapsed:.2f} s"
        if op.ok:
            try:
                check(op.value)
            except Exception as e:
                op.outcome, op.detail = "wrong", f"{type(e).__name__}: {e}"[:300]
        return op

    def charged(self, group: str | None = None) -> float:
        return sum(op.charged for op in self.ops if group is None or op.group == group)


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, sample count) of the highest nearest-rank
    percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return math.nan, 0, n
    ordered = sorted(values)
    return ordered[n - 11], math.floor(100 * (n - 10) / n), n
