"""The benchmark's workloads: ``paper``, ``fine`` and ``stiff``.

Each workload is chosen to load one layer of relaxbdf and leave the others
nearly idle (see README.md).  A workload turns the seed into its inputs, runs
one *pass* of its studies through the public API, and checks every cell of
the pass afterwards.  All relaxbdf calls go through module attributes of the
``lib`` namespace so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import tempfile

# The acceptance suite's Broadwell q=4 criterion excludes rows at or below
# this error as machine-precision-limited; the finest-pair order checks of
# `fine` and `stiff` use the finest pair above it.
MACHINE_PRECISION_FLOOR = 1e-11

# Finest-pair observed order must lie within this of the design order.
ORDER_SLACK = 0.2

# `stiff` reads its table back from the CLI's CSV, which prints three
# significant digits; two stiff-limit tables agree when their errors differ by
# less than two units in that last digit.
STIFF_AGREEMENT_RTOL = 0.02

CERTIFICATE_TOL = 1e-10  # the `check-stability` default
TRANSCRIBED_IDENTITY_ORDERS = (1, 2)


def _log_uniform_strata(rng: random.Random, lo_exp: float, hi_exp: float, count: int):
    """One log-uniform draw from each of ``count`` equal slices of [10^lo, 10^hi].

    Stratifying keeps every seed's cost close to the regime average: the
    number of squarings, and whether extended precision is used, follow
    ``log(1/eps)``.
    """
    width = (hi_exp - lo_exp) / count
    return [10.0 ** (lo_exp + width * (i + rng.random())) for i in range(count)]


def certify(lib, model_names, orders):
    """Build each model and certify it and the scheme orders.

    Checks the stability certificate of every model (normal form and raw
    witness), the multiplier identities for the orders they are transcribed
    for, and the truncation-residual slope q+1 of every order the workload
    runs.  Returns the models and the failed checks.
    """
    models, failures = {}, []
    for name in model_names:
        model = lib.models.build_model(name)
        witnesses = [(model.system, model.witness)]
        if model.raw_witness is not None:
            witnesses.append(((model.raw_convection, model.raw_source), model.raw_witness))
        for system, witness in witnesses:
            report = lib.system.check_structural_stability(system, witness, CERTIFICATE_TOL)
            if not report.passed:
                failures.append(f"{name}: certificate failed\n{report.summary()}")
        models[name] = model
    rng = lib.np.random.default_rng(0)
    for q in TRANSCRIBED_IDENTITY_ORDERS:
        residual = lib.theory.verify_multiplier_identity(
            lib.theory.multiplier_data(q), lib.integrator.bdf_coefficients(q), rng=rng
        )
        if residual > 1e-11:
            failures.append(f"multiplier identity q={q}: residual {residual:.3e}")
    arz = models.get("arz") or lib.models.build_model("arz")
    system = arz.system_at(1.0)
    dts = (1e-2, 5e-3, 2.5e-3)
    for q in orders:
        u0 = lib.models.initial_data(arz, max(q, 2), 8, 1.0)
        coeffs = lib.integrator.bdf_coefficients(q)
        residuals = [
            lib.theory.truncation_residual(
                system, lambda t: lib.oracle.exact_evolve(u0, system, t), coeffs, dt
            )
            for dt in dts
        ]
        slope = lib.theory.fit_order(dts, residuals)
        if abs(slope - (q + 1)) > ORDER_SLACK:
            failures.append(f"truncation slope q={q}: {slope:.3f}")
    return models, failures


def _cell(study, row, ok, why=""):
    return {
        "study": study,
        "eps": row.epsilon,
        "dt": row.dt,
        "error": None if row.l2_error is None else repr(row.l2_error),
        "order": None if row.order is None else repr(row.order),
        "ok": ok and row.l2_error is not None,
        "why": why if row.l2_error is not None else "cell failed to compute",
    }


def _finest_order_check(study, rows, q):
    """Cells of one eps block; the finest pair above the floor must show order q."""
    cells = [_cell(study, row, True) for row in rows]
    usable = [i for i, row in enumerate(rows)
              if row.order is not None and row.l2_error > MACHINE_PRECISION_FLOOR]
    if not usable:
        cells[-1].update(ok=False, why="no pair above the precision floor")
        return cells
    i = usable[-1]
    if abs(rows[i].order - q) > ORDER_SLACK:
        cells[i].update(ok=False, why=f"finest-pair order {rows[i].order:.3f}, q={q}")
    return cells


class Workload:
    models: tuple[str, ...] = ()
    orders: tuple[int, ...] = ()

    def __init__(self, seed: int, scratch):
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.epsilons = {}

    def studies(self):
        """(label, callable(lib, models) -> payload) in the seed's order."""
        return self.plan

    def check(self, label, payload) -> list[dict]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"studies": [label for label, _ in self.plan], "epsilons": self.epsilons}


class Paper(Workload):
    """Criteria 1-3 of the acceptance suite plus the CLI certificate checks."""

    models = ("arz", "broadwell", "grad")
    orders = (2, 3, 4)
    T_FINAL = {"arz": 1.0, "broadwell": 2.0, "grad": 1.0}  # as the criteria run them
    GRAD_EPS = 1e-2  # criterion 3's single epsilon

    def __init__(self, seed, scratch, acceptance):
        super().__init__(seed, scratch)
        self.acceptance = acceptance
        ref = acceptance
        tables = [("arz", q, eps, ref.ARZ_DTS, targets)
                  for (q, eps), targets in ref.ARZ_TABLE.items()]
        tables += [("broadwell", 3, eps, ref.BROADWELL_DTS, targets)
                   for eps, targets in ref.BROADWELL_Q3.items()]
        tables += [("broadwell", 4, eps, ref.BROADWELL_DTS, targets)
                   for eps, targets in ref.BROADWELL_Q4.items()]
        tables.append(("grad", 4, self.GRAD_EPS, ref.GRAD_DTS, ref.GRAD_Q4_EPS2))
        self.targets = {}
        plan = []
        for model, q, eps, dts, targets in tables:
            label = f"{model}-q{q}-eps{eps:g}"
            self.targets[label] = (model, q, targets)
            plan.append((label, self._table(model, q, eps, dts)))
        argvs = [["check-stability", "--model", m] for m in self.models]
        argvs += [["verify-theory", "--q", q] for q in ("1", "2")]
        plan += [(" ".join(argv), self._cli(argv)) for argv in argvs]
        self.rng.shuffle(plan)
        self.plan = plan

    def _table(self, model, q, eps, dts):
        t_final = self.T_FINAL[model]

        def run(lib, models):
            config = lib.harness.ExperimentConfig(
                model=model, order=q, epsilons=(eps,), dts=dts, t_final=t_final,
                modes=100, startup="ars:500", reference="exact", error_norm="grid",
            )
            return lib.harness.run_convergence_study(config, models[model]).rows

        return run

    @staticmethod
    def _cli(argv):
        def run(lib, models):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = lib.cli.main(list(argv))
            return code, out.getvalue()

        return run

    def check(self, label, payload):
        if label not in self.targets:
            code, output = payload
            return [{"study": label, "output": output, "rc": code, "ok": code == 0,
                     "why": "" if code == 0 else f"exit code {code}"}]
        _, q, targets = self.targets[label]
        ref = self.acceptance
        cells = []
        for row, target in zip(payload, targets):
            failures = []
            if q == 4 and label.startswith("broadwell"):
                # Criterion 2's q=4 rule: order only, machine-limited rows excluded.
                ref_error, ref_order = target
                if ref_error > MACHINE_PRECISION_FLOOR and ref_order is not None and (
                    row.order is None or abs(row.order - 4.0) > ref.ORDER_TOL
                ):
                    failures.append(f"order {row.order}")
            else:
                ref.check_block([row], [target], q, failures, label)
            cells.append(_cell(label, row, not failures, "; ".join(failures)))
        if len(cells) != len(targets):
            cells.append({"study": label, "ok": False, "why": "table has missing rows"})
        return cells


class Fine(Workload):
    """Fine-step cross-reference studies: BDF stepping and the implicit solve."""

    models = ("broadwell", "arz")
    orders = (3, 4)
    DTS = (1 / 200, 1 / 400, 1 / 800, 1 / 1600)
    SPECS = (("broadwell", 4, -8.0, 0.0), ("arz", 3, -7.0, 0.0))  # model, q, eps range

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        plan = []
        self.orders_of = {}
        for model, q, lo, hi in self.SPECS:
            epsilons = tuple(_log_uniform_strata(self.rng, lo, hi, 2))
            label = f"{model}-q{q}"
            self.orders_of[label] = q
            self.epsilons[label] = epsilons
            plan.append((label, self._study(model, q, epsilons)))
        self.rng.shuffle(plan)
        self.plan = plan

    def _study(self, model, q, epsilons):
        def run(lib, models):
            config = lib.harness.ExperimentConfig(
                model=model, order=q, epsilons=epsilons, dts=self.DTS, t_final=1.0,
                modes=100, startup="exact", reference="fine:1/12800",
            )
            return lib.harness.run_convergence_study(config, models[model])

        return run

    def check(self, label, table):
        q = self.orders_of[label]
        cells = []
        for rows in table.blocks().values():
            cells += _finest_order_check(label, rows, q)
        return cells


class Stiff(Workload):
    """A large-N `relaxbdf run` study deep in the stiff limit: the exact oracle."""

    Q = 4
    models = ("grad",)
    orders = (Q,)
    DTS = "1/20,1/40,1/80,1/160"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        epsilons = _log_uniform_strata(self.rng, -12.0, -8.0, 2)
        self.rng.shuffle(epsilons)
        self.label = "grad-q4-N1000"
        self.epsilons[self.label] = epsilons
        self.plan = [(self.label, self._study)]

    def _study(self, lib, models):
        workdir = tempfile.mkdtemp(dir=self.scratch)
        try:
            path = os.path.join(workdir, "table.csv")
            argv = ["run", "--model", "grad", "--order", str(self.Q),
                    "--eps", ",".join(repr(e) for e in self.epsilons[self.label]),
                    "--dt", self.DTS, "--modes", "1000", "--tfinal", "1/2",
                    "--startup", "exact", "--ref", "exact", "--out", path]
            code = lib.cli.main(argv)
            with open(path, encoding="utf-8") as handle:
                table = lib.harness.parse_table_csv(handle.read())
        finally:
            shutil.rmtree(workdir)
        return code, table

    def check(self, label, payload):
        code, table = payload
        blocks = list(table.blocks().values())
        cells = []
        for rows in blocks:
            cells += _finest_order_check(label, rows, self.Q)
        if code != 0:
            for cell in cells:
                cell.update(ok=False, why=f"exit code {code}")
        if len(blocks) != 2 or len({len(rows) for rows in blocks}) != 1:
            cells.append({"study": label, "ok": False, "why": "expected two equal eps blocks"})
            return cells
        # Uniform in eps: both stiff-limit tables give the same errors.
        width = len(blocks[0])
        for i, (a, b) in enumerate(zip(*blocks)):
            if a.l2_error is None or b.l2_error is None:
                continue
            gap = abs(a.l2_error - b.l2_error) / max(a.l2_error, b.l2_error)
            if gap > STIFF_AGREEMENT_RTOL:
                for cell in (cells[i], cells[width + i]):
                    cell.update(ok=False, why=f"eps tables differ by {gap:.2%}")
        return cells


WORKLOADS = {"paper": Paper, "fine": Fine, "stiff": Stiff}
