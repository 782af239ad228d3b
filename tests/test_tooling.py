"""Rules about the source tree, checked by reading files with ``ast``.

The benchmark's traced spans still name functions and methods of relaxbdf:
``perfbench/tracing.py`` wraps a module's public functions (its ``__all__``,
defined in that module) and the methods in its ``WRAPPED_METHODS``; a span
that ``perfbench/run.py``'s ``PER_LAYER`` reads and the tracer cannot find is
otherwise reported only by a traced benchmark run.  Nothing under
``perfbench`` is imported.

relaxbdf imports only numpy and the standard library, and only the two
solves ``numpy.linalg`` cannot do use the hand-written LU.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SOURCES = sorted((ROOT / "src" / "relaxbdf").glob("*.py"))


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


def test_runtime_imports_are_numpy_or_stdlib():
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] != "numpy"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_only_the_pade_and_stiff_block_solves_use_the_hand_lu():
    # linalg's Pade kernel solves in long double, which numpy.linalg rejects;
    # integrator's stiff-block inverse reads the LU's pivots.
    users = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                named = {node.name, node.asname}
            if named & {"lu_factor", "LUFactorization"}:
                users.add(path.name)
    assert users == {"linalg.py", "integrator.py"}
