"""In-memory span recording for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end
(perf_counter seconds), the span that was open when it started, and the
invocation id shared by every span of one CLI call.  Wrappers are
installed from outside the package by rebinding module or class
attributes; `Patches` remembers every original and puts it back.

The recorder keeps a single call stack, so it traces single-threaded
commands only (none of the benchmark's workloads start threads).
"""

from __future__ import annotations

import functools
import resource
import time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Collects spans; `wrap` turns a callable into a recording one."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """Record a span around each call of `fn`.

        `note(args, kwargs, result)` may return extra fields (counts,
        bytes) for the span; it runs after the span's end time is taken.
        Each span also carries `rss_growth_mb`, the rise of the process's
        peak resident set while the call ran.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "invocation": self.invocation,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            rss0 = _maxrss_mb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                span["rss_growth_mb"] = _maxrss_mb() - rss0
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        return wrapper


class Patches:
    """Attribute rebinding with guaranteed restoration of every original."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, new) -> None:
        # class attributes are saved from the class dict so that restoring
        # puts back the plain function, not a bound or inherited lookup
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self.saved:
            owner, attr, old = self.saved.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def children(spans) -> dict:
    """(invocation, id) -> list of direct child spans."""
    out: dict = {}
    for s in spans:
        if s["parent"] is not None:
            out.setdefault((s["invocation"], s["parent"]), []).append(s)
    return out


def self_time(span: dict, kids) -> float:
    """Span duration minus the union of its children's intervals,
    clipped to the span itself."""
    lo, hi = span["start"], span["end"]
    inner = [(max(k["start"], lo), min(k["end"], hi)) for k in kids]
    return duration(span) - covered((a, b) for a, b in inner if b > a)


def outermost(spans, pred):
    """Spans matching `pred` that have no ancestor matching `pred`."""
    by_key = {(s["invocation"], s["id"]): s for s in spans}
    out = []
    for s in spans:
        if not pred(s):
            continue
        parent = s["parent"]
        while parent is not None:
            p = by_key[(s["invocation"], parent)]
            if pred(p):
                break
            parent = p["parent"]
        else:
            out.append(s)
    return out
