"""In-memory span tracer that wraps the program's public functions.

The program has no tracing of its own, so the traced run replaces module
and class attributes (the functions named in :data:`catalog.WRAPS`) with
timing wrappers for the duration of a :class:`Tracer` context, and puts
the originals back on exit.  A module-level function is replaced in its
defining module *and* in every loaded ``repro`` module that imported it
by name, so ``from x import f`` call sites are traced too.

Spans are ``[name, start, end, parent, op]`` rows kept in a list and
only reduced when the run ends.  Only the main thread is traced: the
service worker's heartbeat thread calls straight through.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

OP = "op"


class Tracer:
    """Collects spans while installed (``with Tracer(...) as tracer``)."""

    def __init__(self, wraps, hooks: Optional[dict] = None):
        #: ``(span name, module, attribute path)`` triples to wrap
        self.wraps = wraps
        #: span name -> ``hook(tracer, args, kwargs, result)`` called
        #: after each traced call (counters read at call boundaries)
        self.hooks = hooks or {}
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op: Optional[int] = None
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, module_name, path in self.wraps:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            is_static = isinstance(raw, staticmethod)
            func = raw.__func__ if is_static else raw
            wrapper = self._wrapper(name, func)
            if owner is not module:  # a method
                self._replace(owner, attr, raw,
                              staticmethod(wrapper) if is_static
                              else wrapper)
                continue
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") \
                        and getattr(loaded, attr, None) is func:
                    self._replace(loaded, attr, func, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        originals = {}
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
            originals.setdefault(attr, []).append(original)
        # A module first imported while tracing bound the wrapper by
        # name; put the original back there too.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, candidates in originals.items():
                wrapped = getattr(getattr(loaded, attr, None),
                                  "__wrapped__", None)
                if any(wrapped is original for original in candidates):
                    setattr(loaded, attr, wrapped)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, name: str, func: Callable) -> Callable:
        hook = self.hooks.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), None,
                          stack[-1] if stack else None, self._op])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- ops -----------------------------------------------------------------

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; every span inside carries its id."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append([OP, time.perf_counter(), None, None, op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
            self._op = None


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the time its children cover.

    Children of one span are sequential (one traced thread), so the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            covered[parent] += end - start
    return [span[2] - span[1] - covered[index]
            for index, span in enumerate(spans)]


def summarize(spans: list[list], ops: Optional[set] = None) -> dict:
    """Reduce spans of the ops in ``ops`` (all when ``None``).

    Returns ``{"self": {name: s}, "total": {name: s}, "op_wall": s,
    "entry_self": s, "ops": n}``: per-name self and inclusive time summed
    over the ops, the summed wall time of the op root spans, and the
    summed self time of the *entry* spans (the op root's direct
    children: the calls the benchmark itself makes).
    """
    own = self_times(spans)
    self_sum: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    op_wall = entry_self = 0.0
    op_ids = set()
    for index, (name, start, end, parent, op) in enumerate(spans):
        if ops is not None and op not in ops:
            continue
        if name == OP:
            op_wall += end - start
            op_ids.add(op)
        elif parent is not None and spans[parent][0] == OP:
            entry_self += own[index]
        self_sum[name] += own[index]
        total[name] += end - start
    return {"self": dict(self_sum), "total": dict(total),
            "op_wall": op_wall, "entry_self": entry_self,
            "ops": len(op_ids)}
