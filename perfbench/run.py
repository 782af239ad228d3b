"""relaxbdf benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload paper|fine|stiff --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  With ``--trace 0`` it reports the end-to-end metrics
(``setup_s``, ``study_s``, ``peak_rss_mb``); with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  Every cell is
checked; ``failed``/``attempted`` in the last output line count failed or
out-of-check cells (their ratio is the failed share).  A full record of each
run, every cell error in full precision included, goes to
``.perfbench_out/`` at the checkout root, as do the traced spans.
See README.md in this directory for the workloads and metrics.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: the kernels are tiny and the
# machine's cores are shared with the rest of the run.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import logging
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 15
MODULES = ("harness", "integrator", "models", "oracle", "system", "theory", "cli")

ALL = ("paper", "fine", "stiff")
SOLVE = "linalg.LUFactorization.solve"


def _implicit(caller):
    return caller.startswith("integrator.") or caller == "oracle.fine_step_reference"


def _pade(caller):
    return caller == "linalg.matrix_exponential"


# (metric, unit, field, span name, caller filter, workloads meant to call it)
PER_LAYER = (
    ("integrator.ars_startup.self_s", "s", "self_s", "integrator.ars_startup", None, ("paper",)),
    ("integrator.ars_startup.substeps", "count", "count", "integrator.ars_startup", None, ("paper",)),
    ("integrator.run.self_s", "s", "self_s", "integrator.run", None, ALL),
    ("oracle.fine_step_reference.self_s", "s", "self_s", "oracle.fine_step_reference", None, ("fine",)),
    ("integrator.bdf_steps", "count", "count", "integrator.run", None, ALL),
    ("linalg.lu_solve.implicit.s", "s", "s", SOLVE, _implicit, ALL),
    ("linalg.lu_solve.implicit.calls", "count", "calls", SOLVE, _implicit, ALL),
    ("oracle.exact_evolve.s", "s", "s", "oracle.exact_evolve", None, ALL),
    ("oracle.exact_evolve.calls", "count", "calls", "oracle.exact_evolve", None, ALL),
    ("linalg.matrix_exponential.self_s", "s", "self_s", "linalg.matrix_exponential", None, ALL),
    ("linalg.matrix_exponential.calls", "count", "calls", "linalg.matrix_exponential", None, ALL),
    ("linalg.lu_solve.pade.s", "s", "s", SOLVE, _pade, ALL),
    ("linalg.lu_solve.pade.calls", "count", "calls", SOLVE, _pade, ALL),
    ("spectral.SpectralField.s", "s", "s", "spectral.SpectralField.__post_init__", None, ALL),
    ("spectral.SpectralField.calls", "count", "calls", "spectral.SpectralField.__post_init__", None, ALL),
    ("models.build_model.s", "s", "s", "models.build_model", None, ALL),
    ("models.initial_data.s", "s", "s", "models.initial_data", None, ALL),
    ("system.find_symmetrizer.s", "s", "s", "system.find_symmetrizer", None, ("paper", "fine")),
    ("system.check_structural_stability.s", "s", "s", "system.check_structural_stability", None, ALL),
    ("theory.verify_multiplier_identity.s", "s", "s", "theory.verify_multiplier_identity", None, ALL),
    ("theory.truncation_residual.s", "s", "s", "theory.truncation_residual", None, ALL),
    ("harness.run_convergence_study.self_s", "s", "self_s", "harness.run_convergence_study", None, ALL),
    ("harness.grid_error.s", "s", "s", "harness.grid_error", None, ALL),
    ("cli.main.self_s", "s", "self_s", "cli.main", None, ("paper", "stiff")),
)
OVERHEAD = ("trace.overhead_s", "s")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_identity() -> dict:
    """Commit (when the checkout is a git repository) and a digest of src."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
    digest = hashlib.sha256()
    for path in sorted((SRC / "relaxbdf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def fresh_import():
    """Drop any loaded relaxbdf and import it again from the checkout."""
    for name in [n for n in sys.modules if n == "relaxbdf" or n.startswith("relaxbdf.")]:
        del sys.modules[name]
    package = importlib.import_module("relaxbdf")
    lib = types.SimpleNamespace(
        package=package,
        np=numpy,
        **{name: importlib.import_module(f"relaxbdf.{name}") for name in MODULES},
    )
    return lib


def timed_setup(workload):
    start = time.perf_counter()
    lib = fresh_import()
    _, failures = workloads.certify(lib, workload.models, workload.orders)
    return time.perf_counter() - start, lib, failures


def load_acceptance():
    spec = importlib.util.spec_from_file_location("perfbench_acceptance", ACCEPTANCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pass(workload, lib, models, tracer=None):
    """Run every study once; return per-study wall times and the payloads."""
    seconds, payloads = {}, []
    gc.collect()
    for label, study in workload.studies():
        if tracer is not None:
            tracer.set_study(label)
        start = time.perf_counter()
        payload = study(lib, models)
        seconds[label] = time.perf_counter() - start
        payloads.append((label, payload))
    return seconds, payloads


def study_seconds(passes):
    """Median wall time of a pass (all of the workload's studies)."""
    return statistics.median(sum(seconds.values()) for seconds in passes)


def check_pass(workload, payloads):
    return [cell for label, payload in payloads for cell in workload.check(label, payload)]


def fingerprint(cells):
    return [{k: v for k, v in cell.items() if k not in ("ok", "why")} for cell in cells]


def layer_metrics(table, workload_name):
    """Per-layer metric values of one traced iteration, plus the metrics whose
    spans never occurred on a workload meant to exercise them."""
    values, missing = {}, []
    for metric, unit, field, span, caller_ok, home in PER_LAYER:
        row = table.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "by_parent": {}})
        calls, value = row["calls"], row[field]
        if caller_ok is not None:
            splits = [split for caller, split in row["by_parent"].items() if caller_ok(caller)]
            calls = sum(split[0] for split in splits)
            value = calls if field == "calls" else sum(split[1] for split in splits)
        values[metric] = value
        if workload_name in home and calls == 0:
            missing.append(metric)
    return values, missing


def shares(table, pass_seconds):
    """Inclusive shares of a traced pass that the workload design relies on."""
    def get(span, field="s"):
        return table.get(span, {}).get(field, 0.0)

    implicit = sum(split[1] for caller, split in table.get(SOLVE, {}).get("by_parent", {}).items()
                   if _implicit(caller))
    return {
        "ars_startup": get("integrator.ars_startup") / pass_seconds,
        "stepping_plus_implicit_solve": (
            get("integrator.run", "self_s") + get("oracle.fine_step_reference", "self_s") + implicit
        ) / pass_seconds,
        "matrix_exponential": get("linalg.matrix_exponential") / pass_seconds,
        "exact_evolve": get("oracle.exact_evolve") / pass_seconds,
    }


def iteration(workload, lib, tracer=None):
    """Certify and run one pass, traced when a tracer is given.

    Returns per-study seconds, checked cells, the layer tables of the whole
    iteration and of the pass alone (traced only), and the problems found.
    """
    problems, tables = [], None
    if tracer is not None:
        tracer.install()
        unwrapped = {span for _, _, _, span, _, _ in PER_LAYER} - tracer.names
        if unwrapped:
            problems.append(f"layers not found to wrap: {sorted(unwrapped)}")
        lo = len(tracer.spans)
        tracer.set_study("setup")
    try:
        models, failures = workloads.certify(lib, workload.models, workload.orders)
        problems += failures
        mid = len(tracer.spans) if tracer is not None else 0
        seconds, payloads = run_pass(workload, lib, models, tracer)
    finally:
        if tracer is not None:
            leftovers = tracer.uninstall()
            if leftovers:
                problems.append(f"wrappers left behind: {leftovers}")
    if tracer is not None:
        hi = len(tracer.spans)
        tables = tracer.layers(lo, hi), tracer.layers(mid, hi)
    return seconds, check_pass(workload, payloads), tables, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relaxbdf" / "__init__.py").is_file():
        fail(f"no relaxbdf sources under {SRC}")
    if args.workload == "paper" and not ACCEPTANCE.is_file():
        fail(f"paper workload needs the acceptance reference tables at {ACCEPTANCE}")
    sys.path.insert(0, str(SRC))

    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    # The "1/N^2" stability-bound notice fires on every table run by design.
    logging.getLogger("relaxbdf.harness").setLevel(logging.ERROR)
    OUT.mkdir(exist_ok=True)

    extra = (load_acceptance(),) if args.workload == "paper" else ()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT, *extra)
    setup_times, problems = [], []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        seconds, lib, failures = timed_setup(workload)
        setup_times.append(seconds)
    problems += failures
    if not Path(lib.package.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"relaxbdf imported from {lib.package.__file__}, not from {SRC}")

    tracer = tracing.Tracer(lib.package) if args.trace else None
    passes = {False: [], True: []}  # traced? -> per-study seconds of each pass
    layer_tables = []
    reference = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for traced in (False, True) if args.trace else (False,):
            seconds, cells, tables, faults = iteration(workload, lib, tracer if traced else None)
            passes[traced].append(seconds)
            problems += faults
            if tables is not None:
                layer_tables.append((*tables, sum(seconds.values())))
            prints = fingerprint(cells)
            if reference is None:
                reference = (cells, prints)
            differing = sum(a != b for a, b in zip(prints, reference[1]))
            differing += abs(len(prints) - len(reference[1]))
            if differing:
                problems.append(f"{differing} cells of a {'traced' if traced else 'untraced'}"
                                " pass differ from the first pass")
            attempted += len(cells)
            failed += max(differing, sum(not cell["ok"] for cell in cells))
        per_round = 1.05 * sum(sum(kind[-1].values()) for kind in passes.values() if kind)
        if time.perf_counter() - start + per_round > args.seconds:
            break

    if args.trace:
        per_iteration = []
        for table, _, _ in layer_tables:
            values, missing = layer_metrics(table, args.workload)
            per_iteration.append(values)
            if missing:
                problems.append(f"layers not exercised on {args.workload}: {missing}")
        metrics = {metric: {"value": statistics.median_low(v[metric] for v in per_iteration),
                            "unit": unit} for metric, unit, *_ in PER_LAYER}
        metrics[OVERHEAD[0]] = {
            "value": study_seconds(passes[True]) - study_seconds(passes[False]),
            "unit": OVERHEAD[1],
        }
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "study_s": {"value": study_seconds(passes[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }

    problems += [f"cell out of check: {cell}" for cell in reference[0] if not cell["ok"]]
    correct = not problems and failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            **source_identity(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
            "platform": platform.platform(),
        },
        "inputs": workload.describe(),
        "setup_seconds": setup_times,
        "pass_seconds": {"untraced": passes[False], "traced": passes[True]},
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "cells": reference[0],
    }
    if args.trace:
        record["layers"] = [table for table, _, _ in layer_tables]
        record["pass_shares"] = [shares(table, seconds) for _, table, seconds in layer_tables]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']!r} {entry['unit']}")
    print(f"failed_share = {failed / attempted!r} ({failed}/{attempted} cells)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
