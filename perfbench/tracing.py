"""In-memory spans recorded around calls into srsg, from outside the package.

A span is [name, start, end, parent index, kept data].  Wrappers are
installed at the module attributes where srsg's own callers look functions
up (for example `srsg.search.canonical_form`), so a call made inside
`search_srsg` becomes a child span of the `search_srsg` span.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, keep=None):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if keep is not None:
            rec[4] = keep(out)
        return out

    def wrap(self, module, attr: str, name: str, keep=None) -> None:
        """Replace module.attr by a span-recording wrapper until restore()."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args):
            return self.call(name, fn, *args, keep=keep)

        self._installed.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, durations, kept data."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, kept) in enumerate(self.spans):
            s = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "kept": []}
            )
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["durations"].append(end - start)
            if kept is not None:
                s["kept"].append(kept)
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent, _ in self.spans
        ]


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, keep=None):
        return fn(*args)
