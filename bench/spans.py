"""In-memory spans and counters recorded around calls into powersemi.

The benchmark never edits the program. A traced run swaps each
instrumented public function, in every powersemi module namespace that
holds it, for a wrapper that records a span (name, start, end, parent,
op index) and bumps counters from the call's arguments and result. The
swap is undone when the ``instrumented`` block exits. An untraced run
calls the plain functions, so it pays nothing.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps


class Tracer:
    """Spans and counters of one run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op]
        self.counts = Counter()
        self.op = None       # the op whose calls are being traced
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, func, note=None):
        """func with a span around each call; note(tracer, args, result)
        turns the call into counters."""

        @wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def totals(self):
        """Inclusive and self seconds per span name, and the largest span."""
        inclusive = Counter()
        child = Counter()
        longest = Counter()
        for name, start, end, parent, _ in self.spans:
            length = end - start
            inclusive[name] += length
            longest[name] = max(longest[name], length)
            if parent is not None:
                child[parent] += length
        own = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return inclusive, own, longest


@contextmanager
def instrumented(targets):
    """Swap each (function, wrapper) pair into every powersemi module that
    binds the function, restoring the originals on exit.

    A target may name one module; then only that module's binding is
    patched (used where the class itself must stay unpatched).
    """
    saved = []
    try:
        for func, wrapper, only in targets:
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("powersemi") or module is None:
                    continue
                if only is not None and mod_name != only:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is func:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
