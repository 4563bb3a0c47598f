"""In-memory span recorder for the traced benchmark run.

The recorder wraps, from outside the package, the attributes that reglab
looks up at call time: module functions (every ``reglab.*`` module that
bound the same function object is patched, so ``from .x import f`` aliases
are covered) and methods on classes. Each wrapped call appends a span
``[name, start, end, parent, root, info]``; ``root`` is the name of the
outermost span above it, which lets the benchmark keep registration work
and training work apart. A span opened as *opaque* records its own time but
none of the wrapped calls beneath it.

A target that no longer exists is listed in ``missing`` instead of raising,
so that a renamed or removed public name makes its metric absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, ROOT, INFO = range(6)


def _resolve(path: str):
    """(owner, attribute, value) for a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        owner = None
        for attr in parts[cut:]:
            owner = obj
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return owner, parts[-1], obj
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.enabled = False
        self._stack: list[int] = []
        self._opaque_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else name
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a public call."""
        if not self.enabled:
            yield None
            return
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, path: str, name, info=None) -> bool:
        """Record a span for every call of ``path``.

        ``name`` is a string, or a function of (args, kwargs) returning
        (name, opaque). ``info`` maps (args, kwargs, result) to a value kept
        on the span.
        """
        found = _resolve(path)
        if found is None:
            self.missing.append(path)
            return False
        owner, attr, orig = found
        tracer = self
        namer = name if callable(name) else (lambda args, kwargs: (name, False))

        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._opaque_depth:
                return orig(*args, **kwargs)
            span_name, opaque = namer(args, kwargs)
            idx = tracer._open(span_name)
            tracer._opaque_depth += opaque
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._opaque_depth -= opaque
                tracer._close(idx)
            if info is not None:
                tracer.spans[idx][INFO] = info(args, kwargs, out)
            return out

        wrapper.__wrapped__ = orig
        if isinstance(owner, type):
            self._patch(owner, attr, orig, wrapper)
        else:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "reglab" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)
        return True

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    # -- reading ---------------------------------------------------------------

    def summary(self, roots=None) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and the info values.

        Self time is a span's duration minus the durations of its direct
        children. ``roots`` keeps only spans below the named root spans.
        Names never seen read as zero calls.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": []}
        )
        for i, s in enumerate(self.spans):
            if roots is not None and s[ROOT] not in roots:
                continue
            entry = out[s[NAME]]
            entry["calls"] += 1
            entry["total_s"] += s[END] - s[START]
            entry["self_s"] += s[END] - s[START] - child_time[i]
            if s[INFO] is not None:
                entry["info"].append(s[INFO])
        return out

    def dump(self) -> list[list]:
        """Spans as (name, start, end, parent) rows, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return [
            [s[NAME], round(s[START] - t0, 9), round(s[END] - t0, 9), s[PARENT]]
            for s in self.spans
        ]
