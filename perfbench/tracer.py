"""Span recorder for the traced benchmark run.

The recorder wraps public functions of llltool from outside the package:
each wrapper replaces the function object under every module attribute
that refers to it, because llltool modules import each other's functions
by name (`from .csp import violates`), so a call is only seen where the
name is looked up. Wrapped functions come in two kinds:

- span functions record (id, parent id, name, start, end) and accumulate
  calls, inclusive time and self time, which is the span's duration minus
  the durations of its direct child spans;
- counted functions (hot ones such as `csp.violates` and `Table.get`) only
  bump a call counter, so tracing them costs one dict update per call.

Spans are kept in memory and written out once, after measuring.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


class Recorder:
    """Per-pass call counts, self and inclusive time, and the full span log."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)

    def take_totals(self) -> dict:
        """Totals since the last call, then zeroed in place (wrappers hold them)."""
        totals = {
            "calls": Counter(self.calls),
            "counts": Counter(self.counts),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
        }
        for table in (self.calls, self.counts, self.self_s, self.total_s):
            table.clear()
        return totals

    def open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "spans must close in LIFO order"
        span_id, name, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else 0, name, start, end))

    def write(self, path) -> None:
        """One JSON list per line: id, parent id (0 = root), name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _span_wrapper(rec: Recorder, name: str, fn, on_result, on_error):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        frame = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(rec.counts, exc)
            raise
        finally:
            rec.close(frame)
        if on_result is not None:
            on_result(rec.counts, result)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    calls = rec.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder, package: str, spans, counted) -> None:
    """Wrap every listed function of `package` wherever it is looked up.

    `spans` maps "module.function" to an (on_result, on_error) pair of
    optional hooks that add work counts; `counted` lists "module.function"
    or "module.Class.method" names that get call counts only.
    """
    modules = [
        mod for key, mod in list(sys.modules.items())
        if key == package or key.startswith(package + ".")
    ]

    def replace(original, wrapper):
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise LookupError(f"{original!r} is not reachable from {package}")

    for name, (on_result, on_error) in spans.items():
        module, attr = name.split(".")
        original = getattr(sys.modules[f"{package}.{module}"], attr)
        replace(original, _span_wrapper(rec, name, original, on_result, on_error))
    for name in counted:
        parts = name.split(".")
        owner = sys.modules[f"{package}.{parts[0]}"]
        if len(parts) == 3:
            cls = getattr(owner, parts[1])
            original = cls.__dict__[parts[2]]
            setattr(cls, parts[2], _count_wrapper(rec, name, original))
        else:
            original = getattr(owner, parts[1])
            replace(original, _count_wrapper(rec, name, original))
