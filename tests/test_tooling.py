"""The benchmark's traced spans still name functions and methods of relaxbdf.

``perfbench/tracing.py`` wraps a module's public functions (its ``__all__``,
defined in that module) and the methods in its ``WRAPPED_METHODS``; a span
that ``perfbench/run.py``'s ``PER_LAYER`` reads and the tracer cannot find is
otherwise reported only by a traced benchmark run.  Both files are read with
``ast``, so nothing under ``perfbench`` is imported.
"""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assignments(path):
    """Module-level ``name = value`` nodes of a source file, by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def traced_spans():
    run = _assignments(PERFBENCH / "run.py")
    spans = set()
    for row in run["PER_LAYER"].elts:
        span = row.elts[3]
        spans.add(ast.literal_eval(run[span.id] if isinstance(span, ast.Name) else span))
    methods = ast.literal_eval(_assignments(PERFBENCH / "tracing.py")["WRAPPED_METHODS"])
    return spans | {".".join(method) for method in methods}


def resolves(span):
    module_name, *path = span.split(".")
    module = importlib.import_module(f"relaxbdf.{module_name}")
    if len(path) == 2:
        cls = getattr(module, path[0], None)
        return isinstance(cls, type) and path[1] in vars(cls)
    names = getattr(module, "__all__", [name for name in vars(module) if not name.startswith("_")])
    function = getattr(module, path[0], None)
    return (path[0] in names and isinstance(function, types.FunctionType)
            and function.__module__ == module.__name__)


def test_every_traced_span_resolves():
    spans = traced_spans()
    assert {"oracle.fine_step_reference", "linalg.LUFactorization.solve"} <= spans
    assert sorted(span for span in spans if not resolves(span)) == []
