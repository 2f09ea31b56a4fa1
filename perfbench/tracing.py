"""In-memory span tracing for the benchmark's traced runs.

A span is (name, start, end, parent).  Spans come from two places, both in
the benchmark's own files: ``Tracer.span`` around a block of benchmark code
that calls into a layer, and ``Tracer.wrap``, which replaces a public
function at the module attribute (or dict entry) its caller looks it up
through and restores it afterwards.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``
        (``owner[attr]`` when owner is a dict).  A missing name is listed in
        ``absent`` instead of failing, so a renamed function reads as absent."""
        is_map = isinstance(owner, dict)
        original = owner.get(attr) if is_map else getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result)
            return result

        if is_map:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, is_map))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, is_map = self._undo.pop()
            if is_map:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (time in outermost spans of that name, self time, calls).

        Self time is a span's duration minus the time its direct children
        cover; a span nested in another of the same name adds to the self
        time and the calls but not to the outermost time.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            entry = out.setdefault(name, [0.0, 0.0, 0])
            entry[1] += end - start - child_time[i]
            entry[2] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                entry[0] += end - start
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path: str, extra: dict) -> None:
        """Write spans (times in ns from the first span), counts and ``extra``
        as gzipped JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        ns = lambda t: round((t - t0) * 1e9)  # noqa: E731
        payload = {
            "spans": [[n, ns(s), ns(e), p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "absent": self.absent,
            **extra,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


class NoTracer:
    """Stand-in used with tracing off: a span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null
