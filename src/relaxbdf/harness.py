"""Experiment runner: convergence tables over (epsilon, dt) grids.

A study fixes a model, a scheme order and a mode cutoff, then sweeps a list
of relaxation times against a decreasing list of time steps, comparing each
run with a reference solution at the final time (the exact per-mode
propagator by default, or a fine-step integrator run).  Each block of one
relaxation time runs its cells first and its reference after them, so a
failing reference marks the block without stopping its cells.  Results are
collected into a table of L2 errors and observed orders and can be emitted
as CSV or Markdown.
"""

from __future__ import annotations

import inspect
import json
import logging
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

from .integrator import _integer_step_count, _startup_divisor, bdf_coefficients, run
from .linalg import _check_positive
from .models import MODEL_BUILDERS, ModelSpec, build_model, initial_data
from .oracle import exact_evolve, fine_step_reference
from .spectral import SpectralField
from .system import _parse_number

__all__ = [
    "ShapeMismatchError",
    "ExperimentConfig",
    "TableRow",
    "ConvergenceTable",
    "compute_error",
    "grid_error",
    "run_convergence_study",
    "emit_table",
    "parse_table_csv",
]

logger = logging.getLogger(__name__)


class ShapeMismatchError(ValueError):
    """Two fields that should be comparable have different layouts."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one convergence study.

    ``startup`` is an :func:`relaxbdf.integrator.run` startup spec: "exact",
    "ars" or "ars:N".  ``reference`` is "exact" or "fine:DT", whose step must
    divide the interval.  ``order`` (a BDF order, 1..4) and ``modes`` are
    integers or integer strings.  Every epsilon must be finite and positive,
    and the times finite.
    """

    model: str
    order: int
    epsilons: tuple[float, ...]
    dts: tuple[float, ...]
    t_final: float
    t_start: float = 0.0
    modes: int = 100
    startup: str = "ars:500"
    reference: str = "exact"
    error_norm: str = "grid"
    output: str | None = None
    fmt: str = "csv"
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("order", "modes"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "overrides", dict(self.overrides))
        object.__setattr__(self, "epsilons", tuple(_number("epsilon", e) for e in self.epsilons))
        object.__setattr__(self, "dts", tuple(_number("dt", d) for d in self.dts))
        for name in ("t_start", "t_final"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if not self.epsilons:
            raise ValueError("at least one epsilon is required")
        if not self.dts:
            raise ValueError("at least one dt is required")
        for epsilon in self.epsilons:
            _check_positive("epsilon", epsilon)
        if any(b >= a for a, b in zip(self.dts, self.dts[1:])):
            raise ValueError("dts must be strictly decreasing")
        for name, value in (("t_start", self.t_start), ("t_final", self.t_final)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        span = self.t_final - self.t_start
        if span <= 0.0:
            raise ValueError("t_final must exceed t_start")
        bdf_coefficients(self.order)
        for dt in self.dts:
            _integer_step_count(span, dt, self.order)
        if self.fmt not in ("csv", "md"):
            raise ValueError(f"format must be 'csv' or 'md', got {self.fmt!r}")
        if self.error_norm not in ("grid", "continuum"):
            raise ValueError(f"error_norm must be 'grid' or 'continuum', got {self.error_norm!r}")
        _startup_divisor(self.startup)
        kind, dt_ref = _parse_reference(self.reference)
        if kind == "fine":
            _integer_step_count(span, dt_ref, self.order)

    @classmethod
    def from_json(cls, text: str | dict, **cli_overrides) -> "ExperimentConfig":
        """Build a config from a JSON document (or dict) and command-line values.

        Non-None ``cli_overrides`` win over the document, unknown keys are
        ignored and absent fields take the dataclass defaults.
        """
        doc = json.loads(text) if isinstance(text, str) else dict(text)
        doc.update({k: v for k, v in cli_overrides.items() if v is not None})
        missing = [f.name for f in fields(cls)
                   if f.name not in doc and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"missing required fields: {missing}")
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})


def _integer(name: str, value) -> int:
    """An integer, an integral float or an integer string as an int; anything
    else, a bool included, is a ``ValueError`` naming the field."""
    integral = isinstance(value, float) and value.is_integer()
    if integral or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _number(name: str, value) -> float:
    """``_parse_number`` of a config value; a bad one is a ``ValueError``
    naming the field."""
    try:
        return _parse_number(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} must be a number or a fraction string, got {value!r}") from exc


def _parse_reference(spec: str) -> tuple[str, float]:
    if spec == "exact":
        return "exact", 0.0
    if spec.startswith("fine:"):
        dt_ref = _number("reference step", spec.split(":", 1)[1])
        _check_positive("reference step", dt_ref)
        return "fine", dt_ref
    raise ValueError(f"reference must be 'exact' or 'fine:<dt>', got {spec!r}")


@dataclass(frozen=True)
class TableRow:
    epsilon: float
    dt: float
    l2_error: float | None  # None marks a failed cell
    order: float | None  # None on the first row of each epsilon block


@dataclass
class ConvergenceTable:
    rows: list[TableRow]

    def blocks(self) -> dict[float, list[TableRow]]:
        grouped: dict[float, list[TableRow]] = {}
        for row in self.rows:
            grouped.setdefault(row.epsilon, []).append(row)
        return grouped


def compute_error(u: SpectralField, ref: SpectralField) -> float:
    """L2 norm of the componentwise difference of two matching fields."""
    if not u.same_layout(ref):
        raise ShapeMismatchError(
            f"field layouts differ: {u.coeffs.shape} vs {ref.coeffs.shape}"
        )
    return (u - ref).l2_norm()


def grid_error(u: SpectralField, ref: SpectralField) -> float:
    """Root-sum-of-squares of the error over the 2N+1 collocation samples.

    For trigonometric polynomials of degree N this equals
    ``sqrt((2N+1)/L)`` times the continuum L2 norm (the 2N+1-point DFT is
    unitary up to that scale).  This is the normalization used by the
    reference error tables the harness reproduces.
    """
    points = 2 * u.cutoff + 1
    return compute_error(u, ref) * math.sqrt(points / u.domain_length)


def _reference_field(
    config: ExperimentConfig,
    u0: SpectralField,
    system,
) -> SpectralField:
    kind, dt_ref = _parse_reference(config.reference)
    if kind == "exact":
        return exact_evolve(u0, system, config.t_final - config.t_start)
    return fine_step_reference(
        u0,
        system,
        config.order,
        dt_ref,
        config.t_final,
        t_start=config.t_start,
    )


def _check_model(config: ExperimentConfig, model: ModelSpec) -> None:
    """Raise ``ValueError`` unless ``model`` is the model ``config`` builds:
    its name, and each builder parameter at the config's override or else at
    the builder's default."""
    if model.name != config.model:
        raise ValueError(f"config is for model {config.model!r}, got model {model.name!r}")
    signature = inspect.signature(MODEL_BUILDERS[model.name]).parameters
    expected = {name: parameter.default for name, parameter in signature.items()}
    expected.update(config.overrides)
    differ = [f"{name}={model.parameters.get(name)!r} (config {value!r})"
              for name, value in expected.items() if model.parameters.get(name) != value]
    if differ:
        raise ValueError(f"model {model.name!r} differs from its config: {', '.join(differ)}")


def run_convergence_study(
    config: ExperimentConfig, model: ModelSpec | None = None
) -> ConvergenceTable:
    """Run the full (epsilon, dt) grid of a study and assemble the table.

    Cells are independent; a failing cell is recorded with an error marker and
    the remaining cells still run.  A block runs its steps finest first and
    computes its reference after its cells; a failing reference marks every
    row of its block.  The rows come in config order.  An order the model's
    initial data does not define raises ``UnsupportedOrderError`` before the
    first block.  A ``model`` passed in must be the one the config builds,
    else ``ValueError``.  Output is deterministic for identical configs.
    """
    if model is None:
        model = build_model(config.model, **config.overrides)
    else:
        _check_model(config, model)
    if config.modes < model.data_cutoff:
        raise ValueError(
            f"modes={config.modes} cannot represent initial data with cutoff {model.data_cutoff}"
        )
    # An order the initial data does not define would fail every block alike.
    model.profile(model, config.order, model.data_cutoff, config.epsilons[0])
    error_metric = grid_error if config.error_norm == "grid" else compute_error
    # Only the data's modes evolve; every other mode stays exactly zero.
    kappa = 2.0 * math.pi * model.data_cutoff / model.domain_length
    over = [f"{dt:g}" for dt in config.dts if dt * kappa ** 2 > 1.0]
    if over:
        logger.warning(
            "dt %s exceed the sufficient stability bound 1/kappa^2 = %.3g of the data's "
            "modes; proceeding anyway", ", ".join(over), 1.0 / kappa ** 2,
        )
    rows: list[TableRow] = []
    for epsilon in config.epsilons:
        system = model.system_at(epsilon)
        finals: dict[float, SpectralField | None] = {}
        try:
            u0 = initial_data(model, config.order, config.modes, epsilon)
            for dt in reversed(config.dts):
                try:
                    finals[dt] = run(
                        u0,
                        system,
                        config.order,
                        dt,
                        config.t_final,
                        t_start=config.t_start,
                        startup=config.startup,
                    )
                except Exception as exc:
                    logger.exception("cell failed: epsilon=%g dt=%g: %s", epsilon, dt, exc)
                    finals[dt] = None
            reference = _reference_field(config, u0, system)
            errors = {dt: None if final is None else error_metric(final, reference)
                      for dt, final in finals.items()}
            del finals, reference  # before the next block's cells run
        except Exception:
            logger.exception("block failed for epsilon=%g", epsilon)
            rows.extend(TableRow(epsilon, dt, None, None) for dt in config.dts)
            continue
        previous: tuple[float, float] | None = None
        for dt in config.dts:
            error, order = errors[dt], None
            if error is not None and previous is not None and error > 0.0 and previous[1] > 0.0:
                order = math.log(previous[1] / error) / math.log(previous[0] / dt)
            rows.append(TableRow(epsilon, dt, error, order))
            previous = None if error is None else (dt, error)
    return ConvergenceTable(rows)


def _format_error(value: float | None) -> str:
    return "ERROR" if value is None else f"{value:.2e}"


def _format_order(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def emit_table(table: ConvergenceTable, fmt: str = "csv") -> str:
    """Render a table as CSV (order blank on block-leading rows) or Markdown."""
    if fmt == "csv":
        lines = ["epsilon,dt,l2_error,order"]
        for row in table.rows:
            order = "" if row.order is None else f"{row.order:.2f}"
            lines.append(f"{row.epsilon:g},{row.dt:.2e},{_format_error(row.l2_error)},{order}")
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = [
            "| epsilon | dt | L2 error | order |",
            "| --- | --- | --- | --- |",
        ]
        for row in table.rows:
            lines.append(
                f"| {row.epsilon:g} | {row.dt:.2e} | "
                f"{_format_error(row.l2_error)} | {_format_order(row.order)} |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_table_csv(text: str) -> ConvergenceTable:
    """Inverse of ``emit_table(..., 'csv')`` for round-trip checks."""
    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0] != "epsilon,dt,l2_error,order":
        raise ValueError("not a convergence-table CSV")
    rows = []
    for line in lines[1:]:
        eps_token, dt_token, err_token, order_token = line.split(",")
        rows.append(
            TableRow(
                epsilon=float(eps_token),
                dt=float(dt_token),
                l2_error=None if err_token == "ERROR" else float(err_token),
                order=float(order_token) if order_token else None,
            )
        )
    return ConvergenceTable(rows)
