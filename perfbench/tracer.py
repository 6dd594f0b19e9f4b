"""Span recorder for the benchmark's traced run, and the arithmetic the
benchmark reports with.

The recorder swaps functions in a module's namespace for thin wrappers that
record one span per call: (span id, parent span id, name, start, end, thread,
tag).  Spans and counters stay in memory until the benchmark writes them out.
Nothing here imports singletsim; the benchmark decides what to wrap.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Tail percentiles tried from the highest down; the first with at least
# TAIL_MIN_BEYOND samples above it is reported.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records spans at wrapped call boundaries and counts at the same points.

    A span's parent is the innermost open span of the same thread.  The only
    threads besides the main one are run_experiment's worker pool, so a worker
    span with no open span of its own takes the main thread's innermost open
    span as its parent.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()
        self._patches = []

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans = []
        self.counts = defaultdict(float)
        return spans, counts

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0

    @contextmanager
    def region(self, name):
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), None))

    def add(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def wrap(self, module, attr, name, count=None, tag=None):
        """Replace ``module.attr`` with a recording wrapper, if it exists.

        ``count(tracer, args, kwargs, result)`` runs after the call, outside
        the span; ``tag(args, kwargs)`` labels the span.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return
        ids = self._ids
        stack_of = self._stack
        parent_of = self._parent
        clock = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = parent_of(stack)
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, ident(),
                                tag(args, kwargs) if tag else None))
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._patches.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def wrap_everywhere(self, modules, owner, attr, name=None, count=None, tag=None):
        """Wrap ``owner.attr`` in every module whose namespace holds that same
        function object, so each call is recorded once, as its caller sees it."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        name = name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        for mod in modules:
            if getattr(mod, attr, None) is fn:
                self.wrap(mod, attr, name, count, tag)

    def unwrap(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# arithmetic

def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail_percentile(samples):
    """(percentile, value) for the highest percentile in TAIL_LADDER that has
    at least TAIL_MIN_BEYOND samples strictly above its nearest-rank index;
    (0.0, 0.0) when there are too few samples for any of them."""
    s = sorted(samples)
    n = len(s)
    for pct in TAIL_LADDER:
        idx = max(0, math.ceil(pct / 100.0 * n) - 1)
        if n - 1 - idx >= TAIL_MIN_BEYOND:
            return pct, s[idx]
    return 0.0, 0.0


def union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_index(spans):
    kids = defaultdict(list)
    for sp in spans:
        kids[sp[1]].append(sp)
    return kids


def self_time(span, kids):
    """A span's duration minus the part of it that its child spans cover."""
    sid, _, _, t0, t1 = span[:5]
    return (t1 - t0) - union_length(((c[3], c[4]) for c in kids.get(sid, ())), t0, t1)


def failed_ratio(failed, attempted):
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def proposals_per_sample(proposed, returned):
    """Sphere points proposed per point returned; 0 when nothing was sampled."""
    return proposed / returned if returned else 0.0

