"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent) with times from time.perf_counter and
parent the index of the enclosing span (-1 at the root).  Spans are recorded
by the benchmark around its calls into the package, or by wrapping a
module-level name that a package module calls, and are written out only when
the pass ends.  Everything runs on one thread, so a plain stack gives the
parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap module attributes, given as (module, attribute, span name),
        for the duration of the block."""
        saved = []
        try:
            for module, attr, name in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out

    def write(self, fh) -> None:
        for name, start, end, parent in self.spans:
            fh.write(
                json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "pass": self.pass_id}
                )
                + "\n"
            )
