"""The benchmark's traced call graph, checked on a small copy of each workload.

A traced benchmark run (``perfbench/run.py --trace 1``) counts a run as
incorrect when a per-layer span is never reached through its caller on a
workload meant to reach it, or when a wrapper is left behind, and its record
does not say which.  This module installs ``perfbench/tracing.py``'s
``Tracer``, runs a few cheap calls of each workload (model builds and their
certificates, one ``ars:50`` study, one ``fine:DT`` study, ``cli.main`` with
``check-stability`` and ``run``), and judges the spans with ``run.py``'s own
``PER_LAYER`` and ``layer_metrics``.  A change that stops the harness from
calling ``integrator.run``, or that moves the implicit solve off an
``integrator`` caller, fails here.

``run.py`` is loaded by path and never edited; importing it pins the BLAS
thread variables, so ``os.environ``, ``sys.path`` and the modules it adds are
restored afterwards.
"""

import contextlib
import importlib
import importlib.util
import io
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import relaxbdf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "harness", "integrator", "models", "oracle", "system", "theory")


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module, with the process state it touches restored."""
    environ, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        for name in ("tracing", "workloads"):
            if name not in modules:
                sys.modules.pop(name, None)
    return module


def _study(lib, model, **fields):
    config = lib.harness.ExperimentConfig(model=model, epsilons=(1e-2,), dts=(1 / 20, 1 / 40),
                                          t_final=0.5, **fields)
    return lib.harness.run_convergence_study(config, lib.models.build_model(model))


def _cli(lib, *argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return lib.cli.main(list(argv))


def _paper(lib, certify, tmp_path):
    _, failures = certify(lib, ("arz", "broadwell", "grad"), (2,))
    table = _study(lib, "arz", order=2, modes=8, startup="ars:50")
    return failures, [row.l2_error for row in table.rows], _cli(
        lib, "check-stability", "--model", "broadwell")


def _fine(lib, certify, tmp_path):
    _, failures = certify(lib, ("broadwell", "arz"), (3,))
    table = _study(lib, "broadwell", order=3, modes=4, startup="exact", reference="fine:1/160")
    return failures, [row.l2_error for row in table.rows], 0


def _stiff(lib, certify, tmp_path):
    _, failures = certify(lib, ("grad",), (4,))
    out = tmp_path / "table.csv"
    code = _cli(lib, "run", "--model", "grad", "--order", "4", "--eps", "1e-10",
                "--dt", "1/20,1/40", "--modes", "8", "--tfinal", "1/2", "--startup", "exact",
                "--ref", "exact", "--out", str(out))
    rows = lib.harness.parse_table_csv(out.read_text(encoding="utf-8")).rows
    return failures, [row.l2_error for row in rows], code


CALLS = {"paper": _paper, "fine": _fine, "stiff": _stiff}


@pytest.mark.parametrize("workload", CALLS)
def test_every_layer_is_reached_through_its_caller(bench, workload, tmp_path):
    lib = types.SimpleNamespace(
        np=np, **{name: importlib.import_module(f"relaxbdf.{name}") for name in MODULES}
    )
    tracer = bench.tracing.Tracer(relaxbdf)
    tracer.install()
    try:
        failures, errors, code = CALLS[workload](lib, bench.workloads.certify, tmp_path)
    finally:
        leftovers = tracer.uninstall()
    assert leftovers == []
    assert failures == [] and code == 0
    assert len(errors) == 2 and None not in errors
    _, missing = bench.layer_metrics(tracer.layers(0, len(tracer.spans)), workload)
    assert missing == []
