"""Span tracing of qctl by wrapping each module's public callables.

``install`` walks every loaded ``qctl`` module, takes the functions named in
the ``__all__`` of the module that defines them, and rebinds each one, in
every ``qctl`` namespace that binds it, to a wrapper that records a span.  The
layer of a span is the defining module's short name (``packets``,
``ensembles``, ...), so the set of wrapped names follows refactors without
edits here.  Classes are left alone: replacing a class by a function would
change ``isinstance`` and ``type`` results inside the program.

A span is recorded only when a call enters a layer from another layer; a call
from ``packets`` to ``packets`` runs inside its caller's span.  Layer self
time is the same either way, and the number of spans stays bounded by the
number of layer crossings.  Spans are held in flat arrays and written out
once, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span store: name id, parent index, start, end, points."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.originals: dict[str, object] = {}
        self._stack: list[tuple[int, str | None]] = [(-1, None)]

    def wrap(self, layer: str, func):
        qualified = f"{layer}.{func.__name__}"
        nid = self.name_ids.setdefault(qualified, len(self.names))
        if nid == len(self.names):
            self.names.append(qualified)
        self.originals[qualified] = func
        stack, clock = self._stack, time.perf_counter
        name, parent, start, end, points = self.name, self.parent, self.start, self.end, self.points

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent_index, parent_layer = stack[-1]
            if parent_layer == layer:
                return func(*args, **kwargs)
            index = len(start)
            name.append(nid)
            parent.append(parent_index)
            points.append(_points(args, kwargs))
            end.append(0.0)
            stack.append((index, layer))
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            points=np.frombuffer(self.points, dtype=np.int64),
            names=np.array(json.dumps(self.names)),
        )


def _points(args, kwargs) -> int:
    """Size of the largest numeric argument: the points a call evaluates."""
    n = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray):
            n = max(n, value.size)
        elif isinstance(value, (float, int)) and not isinstance(value, bool):
            n = max(n, 1)
    return n


def install(package: str = "qctl") -> Tracer:
    """Wrap the public callables of every loaded module of ``package``."""
    tracer = Tracer()
    modules = {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == package or name.startswith(package + "."))
    }
    wrappers: dict[int, object] = {}
    for modname, module in modules.items():
        layer = modname.rsplit(".", 1)[-1]
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr, None)
            if not callable(obj) or inspect.isclass(obj):
                continue
            if getattr(obj, "__module__", None) != modname:
                continue
            wrappers[id(obj)] = (obj, tracer.wrap(layer, obj))
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return tracer
