"""In-memory span recorder for the traced benchmark run.

A span is a call into one layer: its name, start and end (perf_counter
seconds), the index of the enclosing span (or None) and a tuple of counts
taken from the call's arguments or result.  Spans stay in memory and are
written out once, when the run ends.

Spans are recorded from the benchmark's side only: `patched` swaps selected
module attributes for recording wrappers and restores them on exit.  A
caller that looks the attribute up at call time (``_kernels.sweep_rounds``
inside ``simulator.sweep``, ``route`` inside ``secure_split``) therefore
reaches the wrapper, and its span nests under the caller's span.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Iterable

# (module, attribute, span name, counts(args, result) -> tuple or None)
Target = tuple[Any, str, str, Callable[[tuple, Any], tuple] | None]


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the span record."""
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, ()]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, counts=None) -> Callable:
        def wrapped(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if counts is not None:
                    rec[4] = counts(args, out)
                return out

        return wrapped

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy_s (sum of durations), self_s (busy minus
        time covered by direct child spans) and the element-wise sum of counts."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            agg = out.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": []}
            )
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child_s[i]
            if len(agg["counts"]) < len(counts):
                agg["counts"] += [0] * (len(counts) - len(agg["counts"]))
            for q, c in enumerate(counts):
                agg["counts"][q] += c
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "counts": list(c)}
            for n, s, e, p, c in self.spans
        ]


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    def span(self, name: str):
        return contextlib.nullcontext()


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Iterable[Target]):
    """Swap each target attribute for a recording wrapper; always restore."""
    saved = []
    try:
        for module, attr, name, counts in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counts))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
