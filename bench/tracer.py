"""Span tracing of rmgb's layers from outside the library.

Timing wrappers replace the module globals through which the layers call
each other, so no file of rmgb is edited: a call from ``decode`` to
``syndrome`` looks ``syndrome`` up in ``rmgb.decoder`` at call time and
finds the wrapper.  Each call becomes a span (name, op id, parent span,
start, end, note) kept in memory; spans are written out at the end.  A
span's self time is its duration minus the durations of its direct
children.  The benchmark runs on one thread, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

NAME, OP, PARENT, START, END, NOTE = range(6)


def _divide_note(args, result):
    # dividend terms, and whether the remainder is zero
    return (len(args[0].support), not result.remainder)


def wrap_points(rmgb):
    """(owner, attribute, span name, note) for every traced layer boundary."""
    return [
        (rmgb.rmcode, "encode", "rmcode.encode", None),
        (rmgb.decoder, "decode", "decoder.decode", None),
        (rmgb.decoder, "syndrome", "decoder.syndrome", None),
        (rmgb.decoder, "word_to_poly", "rmcode.word_to_poly", None),
        (rmgb.decoder, "poly_to_word", "rmcode.poly_to_word", None),
        # `remainder` calls `divide` through this global, so it is covered too
        (rmgb.division, "divide", "division.divide", _divide_note),
        (rmgb.groebner, "s_polynomial", "groebner.s_polynomial", None),
        (rmgb.groebner, "buchberger_complete", "groebner.buchberger_complete", None),
        (rmgb.groebner, "reduce_basis", "groebner.reduce_basis", None),
        (rmgb.groebner, "check_basis", "groebner.check_basis", None),
        (rmgb.polyring.Poly, "__mul__", "polyring.mul", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def _open(self, name):
        span = [name, self.op, self._stack[-1] if self._stack else -1, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op_span(self):
        """Root span of one benchmark op; layer spans opened inside are its children."""
        self.op += 1
        span = self._open("op")
        span[START] = perf_counter_ns()
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            span = self._open(name)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, rmgb):
        """Install the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, note in wrap_points(rmgb):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times_ns(self):
        """Self time of every span, in span order."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self):
        """Per span name: the number of calls and the total self time in ns."""
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for s, own in zip(self.spans, self.self_times_ns()):
            calls[s[NAME]] += 1
            self_ns[s[NAME]] += own
        return calls, self_ns

    def check_accounting(self):
        """Each op's duration must equal the self times of its spans, summed."""
        total = defaultdict(int)
        for s, own in zip(self.spans, self.self_times_ns()):
            total[s[OP]] += own
        for s in self.spans:
            if s[PARENT] < 0 and total[s[OP]] != s[END] - s[START]:
                raise RuntimeError(f"op {s[OP]}: self times do not sum to its duration")

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
