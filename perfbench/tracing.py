"""Spans around roadsync's functions, installed from outside the program.

``Tracer.install`` replaces each traced function at every name it is bound
to: ``roadsync.cli.shortest_reset_word`` and ``roadsync.srcp.shortest_reset_word``
are two bindings of one function, and both get the same wrapper.  The traced
functions are the public module-level functions of each module plus the two
private kernels ``srcp._sync_mask_chunk`` and ``srcpw._fixed_word_at``; the
time of any other helper counts as self time of its caller.

A span is (name, start, end, parent span, query id).  Spans are kept in flat
arrays in memory and written out by ``save``; self time (span minus its
child spans) is accumulated as each span closes.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "automata", "graphs", "syncsolve", "srcp", "srcpw", "compose", "satreduce")
PRIVATE_TRACED = {"srcp._sync_mask_chunk", "srcpw._fixed_word_at"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_query = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # Counts taken at the same boundaries as the spans.
        self.sweep_colorings: dict[tuple[int, int], int] = defaultdict(int)
        self.sweep_s: dict[tuple[int, int], float] = defaultdict(float)
        self.first_hit_fracs: list[float] = []
        self.fixed_word_hits = 0
        self.query = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._bindings: list[tuple[object, str, object]] = []
        self.bindings_wrapped = 0
        self._hooks = {
            "srcp._sync_mask_chunk": self._on_chunk,
            "srcpw._fixed_word_at": self._on_fixed_word_at,
        }

    # -- recording ---------------------------------------------------------

    def _on_chunk(self, args, result, self_s: float) -> None:
        _, _, t, k, idx = args[:5]
        self.sweep_colorings[(t, k)] += len(idx)
        self.sweep_s[(t, k)] += self_s

    def _on_fixed_word_at(self, args, result, self_s: float) -> None:
        self.fixed_word_hits += result is not None

    def _close(self, name: str, nid: int, frame: list, start: float) -> float:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - start
        parent = -1
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][0]
        self_s = dur - frame[1]
        self.calls[name] += 1
        self.self_s[name] += self_s
        self.span_name.append(nid)
        self.span_id.append(frame[0])
        self.span_parent.append(parent)
        self.span_query.append(self.query)
        self.span_start.append(start)
        self.span_end.append(end)
        return self_s

    def _span(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        hook = self._hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, nid, frame, start)
                raise
            self_s = tracer._close(name, nid, frame, start)
            if hook is not None:
                hook(args, result, self_s)
            return result

        return wrapper

    def _sweep(self, fn):
        """Generator wrapper: records where the first witness of a sweep lies."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            first = None
            try:
                for index in fn(g, *args, **kwargs):
                    if first is None:
                        first = index
                    yield index
            finally:
                tracer.first_hit_fracs.append(1.0 if first is None else first / (1 << g.t))

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = sys.modules[f"roadsync.{short}"]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if attr.startswith("_") and name not in PRIVATE_TRACED:
                    continue
                if inspect.isgeneratorfunction(obj):
                    if name == "srcp.sweep_sync_indices":
                        wrappers[id(obj)] = (obj, self._sweep(obj))
                    continue
                wrappers[id(obj)] = (obj, self._span(obj, name))
        for modname, mod in list(sys.modules.items()):
            if modname != "roadsync" and not modname.startswith("roadsync."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._bindings.append((mod, attr, obj))
        self.bindings_wrapped = len(self._bindings)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._bindings):
            setattr(mod, attr, obj)
        self._bindings.clear()

    # -- output --------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span as columns of one .npz file."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            query=np.frombuffer(self.span_query, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
