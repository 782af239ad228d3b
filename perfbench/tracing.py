"""Outside-in span tracing of relaxbdf, installed from the benchmark's side.

The program is not edited.  ``Tracer.install`` wraps the public functions of
every ``relaxbdf`` submodule (its ``__all__``, or its public names when it has
none) plus the methods in ``WRAPPED_METHODS``.  A ``from .x import f`` binds
``f`` at import time, so each wrapper is rebound in the defining module *and*
in every loaded module that holds the original object; ``uninstall`` puts
every original back and reports any binding it could not restore.

A span is ``(name, start, end, parent, cell, count)``: ``parent`` indexes the
span open when the call began (-1 at top level), ``cell`` names the study
cell, and ``count`` is the work a call announces in its arguments (BDF steps
of ``integrator.run``, ARS substeps of ``integrator.ars_startup``).  Spans
stay in memory and are written once, by ``write``, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
import types
from collections import defaultdict

# Methods that carry per-call work the module functions do not show.
WRAPPED_METHODS = (
    ("linalg", "LUFactorization", "solve"),
    ("spectral", "SpectralField", "__post_init__"),
)

# The span whose calls are table cells when run by the study harness.
CELL_SPAN, CELL_PARENT = "integrator.run", "harness.run_convergence_study"

_MARK = "__perfbench_traced__"


def _bdf_steps(arguments) -> int:
    total = round((arguments["t_final"] - arguments["t_start"]) / arguments["dt"])
    return max(0, total - (arguments["q"] - 1))


def _ars_substeps(arguments) -> int:
    return max(0, arguments["q"] - 1) * arguments["substep_divisor"]


COUNTERS = {"integrator.run": _bdf_steps, "integrator.ars_startup": _ars_substeps}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self, package: types.ModuleType):
        self.package = package
        self.spans: list = []
        self.study = ""
        self.cell = ""
        self.names: set[str] = set()
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self._bindings: list = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def _targets(self):
        prefix = self.package.__name__ + "."
        for module_name, module in sorted(sys.modules.items()):
            if module_name.startswith(prefix) and isinstance(module, types.ModuleType):
                short = module_name[len(prefix):]
                for name, fn in _public_functions(module):
                    yield f"{short}.{name}", None, fn
        for short, cls_name, method in WRAPPED_METHODS:
            cls = getattr(sys.modules[prefix + short], cls_name)
            yield f"{short}.{cls_name}.{method}", cls, vars(cls)[method]

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for name, cls, fn in self._targets():
            wrapper = self._wrap(name, fn)
            self.names.add(name)
            if cls is None:
                by_id[id(fn)] = (fn, wrapper)
            else:
                self._bindings.append((cls, fn.__name__, fn))
                setattr(cls, fn.__name__, wrapper)
        for module in list(sys.modules.values()):
            if not isinstance(module, types.ModuleType):
                continue
            namespace = vars(module)
            for attribute, value in list(namespace.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attribute, value))
                    namespace[attribute] = hit[1]

    def uninstall(self) -> list[str]:
        """Restore every original binding; return those still wrapped."""
        for owner, attribute, original in reversed(self._bindings):
            setattr(owner, attribute, original)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attribute}"
            for owner, attribute, original in self._bindings
            if vars(owner).get(attribute) is not original
        ]
        for module in list(sys.modules.values()):
            if isinstance(module, types.ModuleType):
                leftovers += [
                    f"{module.__name__}.{attribute}"
                    for attribute, value in list(vars(module).items())
                    if getattr(value, _MARK, False) is True
                ]
        self._bindings.clear()
        return leftovers

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter or name == CELL_SPAN else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent, caller = stack[-1] if stack else (-1, "")
            count = 0
            cell = tracer.cell
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                if counter is not None:
                    count = counter(arguments)
                if name == CELL_SPAN and caller == CELL_PARENT:
                    tracer.cell = (
                        f"{tracer.study}/eps={arguments['system'].epsilon:.6g}"
                        f"/dt={arguments['dt']:.6g}"
                    )
            stack.append((index, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.cell, count)
                tracer.cell = cell

        setattr(traced, _MARK, True)
        return traced

    def set_study(self, label: str) -> None:
        self.study = self.cell = label

    # -- analysis ----------------------------------------------------------

    def layers(self, lo: int, hi: int) -> dict:
        """Per-name calls, total, self time and counts over spans[lo:hi].

        Self time is a span's duration minus the durations of its direct
        children.  ``by_parent`` splits calls and time of each name by the
        name of the calling span.
        """
        child = defaultdict(float)
        for index in range(lo, hi):
            _, start, end, parent, _, _ = self.spans[index]
            if parent >= lo:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0,
                                     "by_parent": defaultdict(lambda: [0, 0.0])})
        for index in range(lo, hi):
            name, start, end, parent, _, count = self.spans[index]
            row = table[name]
            duration = end - start
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child[index]
            row["count"] += count
            caller = self.spans[parent][0] if parent >= 0 else ""
            split = row["by_parent"][caller]
            split[0] += 1
            split[1] += duration
        return {name: {**row, "by_parent": dict(row["by_parent"])} for name, row in table.items()}

    def write(self, path) -> None:
        """Write every span as gzipped JSON lines: a header, then one list each."""
        names = sorted({span[0] for span in self.spans})
        cells = sorted({span[4] for span in self.spans})
        name_index = {name: i for i, name in enumerate(names)}
        cell_index = {cell: i for i, cell in enumerate(cells)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            header = {"fields": ["name", "start", "end", "parent", "cell", "count"],
                      "names": names, "cells": cells, "clock": "time.perf_counter"}
            handle.write(json.dumps(header) + "\n")
            for name, start, end, parent, cell, count in self.spans:
                handle.write(
                    f"[{name_index[name]},{start!r},{end!r},{parent},{cell_index[cell]},{count}]\n"
                )
