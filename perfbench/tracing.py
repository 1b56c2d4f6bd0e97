"""Span timers installed from outside the program.

The tracer replaces chosen functions of the layer modules with
timing wrappers under every module-global name the package binds them
to (``rlcm.cli.em_fit``, ``rlcm.inference.simulate``,
``rlcm.identifiability.response_distribution``, ...), so calls between
layers are recorded without any change to the program.  Spans live in
memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("fileio", "inference", "models", "tmatrix", "identifiability")


class Tracer:
    """Records nested spans while an operation is open.

    Outside :meth:`operation` the wrappers only forward the call, so the
    benchmark's own checks and probes leave no spans.
    """

    def __init__(self):
        self.spans = []          # [op_id, span_id, parent_id, name, start, end]
        self.on_return = {}      # span name -> callback(args, kwargs, result)
        self._stack = []
        self._op_id = None
        self._ops = 0

    def install(self, package, names) -> None:
        """Wrap the layer functions ``names`` ("layer.function") of ``package``.

        Each wrapper replaces the function under every module-global name
        bound to it in the layer modules and ``cli``.  Functions not named
        stay unwrapped, so their time counts in their caller's self time.
        """
        modules = [getattr(package, name) for name in LAYERS + ("cli",)]
        wrappers = {}
        for name in names:
            layer, attr = name.split(".")
            fn = getattr(getattr(package, layer), attr)
            wrappers[fn] = self._wrap(fn, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            hook = self.on_return.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def operation(self):
        """Group the spans of one benchmark operation; yields its id."""
        self._op_id = self._ops
        self._ops += 1
        try:
            yield self._op_id
        finally:
            self._op_id = None
            self._stack.clear()

    @contextlib.contextmanager
    def span(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op_id, span_id, parent, name, time.perf_counter(), None])
        self._stack.append(span_id)
        try:
            yield
        finally:
            self.spans[span_id][5] = time.perf_counter()
            self._stack.pop()

    def self_times(self, op_id):
        """Per span name: (self seconds, calls) within one operation.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        spans = [s for s in self.spans if s[0] == op_id]
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for _, span_id, _, name, start, end in spans:
            totals[name][0] += (end - start) - child_time[span_id]
            totals[name][1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
