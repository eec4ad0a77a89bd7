"""In-memory spans around calls into the program, and their self time.

The benchmark never edits the program: :func:`patch` swaps a public
function or method for a timing wrapper in every ``repro`` module that
holds a reference to it, so calls from anywhere in the program record
a span.  Spans are kept in memory (name, start, end, parent) and
written out once, when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int, float]:
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append((name, start, end, sid, parent))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str | None, fn, on_call=None):
        """*fn* recording a span *name* per call (no span when *name* is
        ``None``).  ``on_call(recorder, args, result)`` may add work
        counts.  Generator functions record one span per resumption, so
        a consumer's own time between items is not charged to the
        generator."""
        rec = self

        if name is None:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_call(rec, args, result)
                return result
            return counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid, parent, start = rec._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec._close(name, sid, parent, start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = rec._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(name, sid, parent, start)
            if on_call is not None:
                on_call(rec, args, result)
            return result
        return wrapper

    def to_dict(self) -> dict:
        with self._lock:
            return {"spans": list(self.spans), "counts": dict(self.counts)}


def patch(rec: Recorder, target: str, name: str | None,
          on_call=None) -> None:
    """Wrap *target*, ``"module:attr"`` or ``"module:Class.method"``,
    with :meth:`Recorder.wrap`.

    A module-level function is replaced in every loaded ``repro``
    module that imported it by name; a method is replaced on its class.
    """
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(name, raw.__func__,
                                                     on_call)))
        else:
            setattr(cls, attr, rec.wrap(name, raw, on_call))
        return
    original = getattr(module, path)
    wrapped = rec.wrap(name, original, on_call)
    for mod in list(sys.modules.values()):
        mod_name = getattr(mod, "__name__", "")
        if mod is module or mod_name.startswith("repro."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span counted for its duration minus
    the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, _sid, parent in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for name, start, end, sid, _parent in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] += (end - start) - covered
    return dict(out)


def call_counts(spans) -> dict[str, int]:
    """Number of spans per name."""
    out: dict[str, int] = defaultdict(int)
    for name, *_rest in spans:
        out[name] += 1
    return dict(out)
