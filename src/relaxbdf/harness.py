"""Experiment runner: convergence tables over (epsilon, dt) grids.

A study fixes a model, a scheme order and a mode cutoff, then sweeps a list
of relaxation times against a decreasing list of time steps, comparing each
run with a reference solution at the final time (the exact per-mode
propagator by default, or a fine-step integrator run).  Results are collected
into a table of L2 errors and observed orders and can be emitted as CSV or
Markdown.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import MISSING, dataclass, field, fields

from .integrator import _integer_step_count, _startup_divisor, bdf_coefficients, run
from .models import ModelSpec, build_model, initial_data
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
    divide the interval.  ``order`` must be a BDF order, 1..4.
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
        object.__setattr__(self, "epsilons", tuple(_parse_number(e) for e in self.epsilons))
        object.__setattr__(self, "dts", tuple(_parse_number(d) for d in self.dts))
        if not self.epsilons:
            raise ValueError("at least one epsilon is required")
        if not self.dts:
            raise ValueError("at least one dt is required")
        if any(b >= a for a, b in zip(self.dts, self.dts[1:])):
            raise ValueError("dts must be strictly decreasing")
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
        specs = [f for f in fields(cls) if f.name in doc]
        missing = [f.name for f in fields(cls)
                   if f.name not in doc and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"missing required fields: {missing}")
        return cls(**{f.name: _FROM_JSON.get(f.name, lambda v: v)(doc[f.name]) for f in specs})


# How from_json reads the scalar fields; __post_init__ parses the number lists.
_FROM_JSON = {"order": int, "modes": int, "t_final": _parse_number, "t_start": _parse_number,
              "overrides": dict}


def _parse_reference(spec: str) -> tuple[str, float]:
    if spec == "exact":
        return "exact", 0.0
    if spec.startswith("fine:"):
        dt_ref = _parse_number(spec.split(":", 1)[1])
        if dt_ref <= 0.0:
            raise ValueError("reference step must be positive")
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
    if u.coeffs.shape != ref.coeffs.shape or not u.same_layout(ref):
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


def run_convergence_study(
    config: ExperimentConfig, model: ModelSpec | None = None
) -> ConvergenceTable:
    """Run the full (epsilon, dt) grid of a study and assemble the table.

    Cells are independent; a failing cell is recorded with an error marker and
    the remaining cells still run.  An order the model's initial data does
    not define raises ``UnsupportedOrderError`` before the first block.
    Output is deterministic for identical configs.
    """
    if model is None:
        model = build_model(config.model, **config.overrides)
    if config.modes < model.data_cutoff:
        raise ValueError(
            f"modes={config.modes} cannot represent initial data with cutoff {model.data_cutoff}"
        )
    # An order the initial data does not define would fail every block alike.
    model.profile(model, config.order, model.data_cutoff, config.epsilons[0])
    error_metric = grid_error if config.error_norm == "grid" else compute_error
    max_kappa = 2.0 * math.pi * config.modes / model.domain_length
    if any(dt * max_kappa ** 2 > 1.0 for dt in config.dts):
        logger.warning(
            "some dt exceed the sufficient stability bound 1/N^2; proceeding anyway"
        )
    rows: list[TableRow] = []
    for epsilon in config.epsilons:
        system = model.system_at(epsilon)
        try:
            u0 = initial_data(model, config.order, config.modes, epsilon)
            reference = _reference_field(config, u0, system)
        except Exception:
            logger.exception("block setup failed for epsilon=%g", epsilon)
            rows.extend(TableRow(epsilon, dt, None, None) for dt in config.dts)
            continue
        previous: tuple[float, float] | None = None
        for dt in config.dts:
            try:
                final = run(
                    u0,
                    system,
                    config.order,
                    dt,
                    config.t_final,
                    t_start=config.t_start,
                    startup=config.startup,
                )
                error = error_metric(final, reference)
            except Exception:
                logger.exception(
                    "cell failed: epsilon=%g dt=%g", epsilon, dt
                )
                rows.append(TableRow(epsilon, dt, None, None))
                previous = None
                continue
            order = None
            if previous is not None and error > 0.0 and previous[1] > 0.0:
                order = math.log(previous[1] / error) / math.log(previous[0] / dt)
            rows.append(TableRow(epsilon, dt, error, order))
            previous = (dt, error)
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
