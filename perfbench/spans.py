"""Span recorder that wraps fusenav's public functions from outside.

``Tracer.install`` replaces each named function (or method) with a wrapper
that records one span per call: ``(name, start, end, parent, note)``.
``parent`` is the index of the span that was open when the call began, or
-1; ``note`` is an optional value taken from the call's arguments or
return value (a count, a byte size) so that counters are measured at the
same boundary as the time.  Spans stay in memory; ``uninstall`` restores
the originals.  A name that no longer exists is listed in ``absent``
instead of raising, so a refactor that removes a layer shows up as a
missing layer rather than a crash.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def install(self, modules: dict, table) -> None:
        """Wrap every ``(target, span_name, note)`` of ``table``.

        ``target`` is ``"module.attr"`` or ``"module.Class.method"``;
        ``modules`` maps the short module names to imported modules.
        """
        for target, name, note in table:
            mod_name, *path = target.split(".")
            owner = modules[mod_name]
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(fn):
                self.absent.append(target)
                continue
            self._restore.append((owner, path[-1], fn))
            setattr(owner, path[-1], self._wrap(fn, name, note))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, perf_counter(), parent, None)
                stack.pop()
                raise
            t1 = perf_counter()
            stack.pop()
            spans[idx] = (
                name, t0, t1, parent, None if note is None else note(args, kwargs, result)
            )
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def file_size(args, kwargs, result):
    """Note for readers and writers: size of the file named by argument 0."""
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


def outermost(spans, names) -> list:
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    out = []
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, t0, t1, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += t1 - t0 - child[i]
    return dict(out)
