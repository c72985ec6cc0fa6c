"""Spans and counts around the calls into each layer of the ``crossdock``
package, recorded from outside the package.

``Tracer.install`` replaces every public function of every module with a
wrapper that records a span (name, start, end, parent). A function imported
by name into another module (``objective_value`` into ``exact``, ``vns`` and
``reproduce``) is replaced there too, so every call site is seen. The
``exact._Tables`` interface that ``vns`` shares is wrapped on the class:
its constructor gets a span, its two leaf evaluators a call count.
``Tracer.uninstall`` puts every original back.

Self time is computed as spans close: a span's duration minus the time its
child spans cover. It is exact whatever the span buffer keeps; the buffer
keeps the first ``SPAN_CAP`` spans for the output file and counts the rest.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter

from crossdock.subproblem import DockConflictError, InfeasibilityWitness

MODULES = (
    "model",
    "instance_io",
    "formulations",
    "subproblem",
    "exact",
    "vns",
    "diagnosis",
    "lp_export",
    "reproduce",
    "cli",
)

#: Helpers called inside the innermost loops; a span around each call would
#: cost more than the work it measures.
UNWRAPPED = {"formulations.time_margin"}

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def span(self, name: str, fn, on_result=None, on_error=None):
        """``fn`` wrapped in a span; ``on_result`` and ``on_error`` update
        counts from what the call returned or raised."""
        name_id = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if len(self.span_start) < SPAN_CAP:
                    self.span_id.append(span_id)
                    self.span_name.append(name_id)
                    self.span_parent.append(parent)
                    self.span_start.append(start)
                    self.span_end.append(end)
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------ installation

    def _hooks(self, name: str):
        """Counts derived from a call's result or exception, by span name."""
        counts = self.counts
        if name == "subproblem.select_transfers":

            def inexact(r):
                if not r[1]:
                    counts["subproblem.select_transfers.inexact"] += 1

            return inexact, None
        if name == "subproblem.induced_transfers_crossdock":

            def witness(r):
                if isinstance(r, InfeasibilityWitness):
                    counts["subproblem.induced_transfers_crossdock.witness"] += 1

            return witness, None
        if name == "subproblem.optimal_transfers_rcrossdock":

            def conflict(exc):
                if isinstance(exc, DockConflictError):
                    counts["subproblem.optimal_transfers_rcrossdock.dock_conflict"] += 1

            return None, conflict
        return None, None

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"crossdock.{name}") for name in MODULES}
        package = importlib.import_module("crossdock")
        wrapped = {}
        for mod_name, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped at its home
                name = f"{mod_name}.{attr}"
                if name in UNWRAPPED:
                    continue
                wrapped[id(obj)] = self.span(name, obj, *self._hooks(name))
        for module in (*modules.values(), package):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._replace(module, attr, wrapped[id(obj)])
        tables = modules["exact"]._Tables
        self._replace(tables, "__init__", self.span("exact.tables", tables.__init__))
        self._replace(tables, "fast_value", self.counted("exact.leaf.table", tables.fast_value))
        self._replace(
            tables, "build_solution", self.counted("exact.leaf.subproblem", tables.build_solution)
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- output

    def reset(self) -> None:
        """Clear the per-call aggregates; the span buffer is kept."""
        for counter in (self.calls, self.self_s, self.total_s, self.counts):
            counter.clear()

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, seconds in self.self_s.items():
            module = name.split(".", 1)[0]
            if module in out:
                out[module] += seconds
        return out

    def write(self, path) -> None:
        """Write the kept spans as parallel columns: span id, index into
        ``names``, parent span id (-1 for none), start and end in seconds."""
        doc = {
            "names": self.names,
            "id": self.span_id.tolist(),
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "dropped": self.dropped,
        }
        path.write_text(json.dumps(doc))
