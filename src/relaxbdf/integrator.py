"""IMEX-BDF time stepping in Fourier space.

The order-q scheme advances the spectral coefficients of a normal-form
relaxation system by

    sum_i alpha_i u^{n+i}  +  dt * A * sum_{i<q} gamma_i d_x u^{n+i}
        =  (beta * dt / epsilon) * Q u^{n+q},

treating convection explicitly (extrapolated through the gamma weights) and
the stiff source implicitly.  Because the implicit matrix
``alpha_q I - beta dt/eps Q`` is real and the same for every mode, it is
factored (with the singular-pivot check) and inverted once per run; each step
then applies the inverse to all modes with one matrix product.

Startup values for q >= 2 apply one per-mode map of a step ``dt`` q-1
times: the exact propagator ("exact", the default for testing) or N refined
substeps of an ARS-type IMEX Runge-Kutta scheme ("ars:N", or "ars" for
N=500, used for table reproduction).  An ARS substep is ``R_k = I + D_k``;
binary powering in increment form gives ``R_k^N = I + E`` and a slab is one
``v + E v``.  No O(substep) entry is rounded against 1, as it would be in
``matrix_power(I + D, N)``, so no compensated summation is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import lu_factor
from .oracle import _propagators
from .spectral import SpectralField
from .system import RelaxationSystem

__all__ = [
    "UnsupportedOrderError",
    "NonIntegerStepCountError",
    "BDFCoefficients",
    "bdf_coefficients",
    "SolverState",
    "make_solver_state",
    "imex_bdf_step",
    "ImexRungeKuttaTableau",
    "ars_tableau",
    "ars_startup",
    "run",
]


class UnsupportedOrderError(ValueError):
    """Requested scheme order is outside the implemented family."""


class NonIntegerStepCountError(ValueError):
    """The time interval is not an integer number of steps, or too few steps
    for the startup history of the scheme order."""


@dataclass(frozen=True)
class BDFCoefficients:
    """Coefficient family (alpha, gamma, beta) of the order-q scheme."""

    q: int
    alpha: np.ndarray  # length q+1, alpha[q] == 1
    gamma: np.ndarray  # length q
    beta: float

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if alpha.shape != (self.q + 1,) or gamma.shape != (self.q,):
            raise ValueError("coefficient arrays have inconsistent lengths")
        alpha.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)


def _fractions(*values) -> tuple[float, ...]:
    return tuple(float(Fraction(v)) for v in values)


# alpha from the backward-differentiation weights; gamma = beta times the
# order-q extrapolation weights from nodes 0..q-1 to node q.
_BDF_TABLE = {
    1: (_fractions(-1, 1), _fractions(1), 1.0),
    2: (_fractions("1/3", "-4/3", 1), _fractions("-2/3", "4/3"), float(Fraction(2, 3))),
    3: (
        _fractions("-2/11", "9/11", "-18/11", 1),
        _fractions("6/11", "-18/11", "18/11"),
        float(Fraction(6, 11)),
    ),
    4: (
        _fractions("3/25", "-16/25", "36/25", "-48/25", 1),
        _fractions("-12/25", "48/25", "-72/25", "48/25"),
        float(Fraction(12, 25)),
    ),
}


def bdf_coefficients(q: int) -> BDFCoefficients:
    """Coefficients of the order-q scheme, q in 1..4."""
    try:
        alpha, gamma, beta = _BDF_TABLE[q]
    except (KeyError, TypeError) as exc:
        raise UnsupportedOrderError(f"order must be 1..4, got {q}") from exc
    return BDFCoefficients(q=q, alpha=np.array(alpha), gamma=np.array(gamma), beta=beta)


@dataclass
class SolverState:
    """Mutable per-run state: the history ring plus the cached implicit solve.

    ``history[i]`` holds the coefficients of ``u^{n+i}`` (oldest first) as a
    complex array of shape (2N+1, n).  ``implicit_inverse`` is the real n x n
    inverse of ``alpha_q I - beta dt/eps Q``.
    """

    history: list[np.ndarray]
    step_index: int
    dt: float
    implicit_inverse: np.ndarray
    wavenumbers: np.ndarray
    domain_length: float
    real_valued: bool


def _implicit_matrix(system: RelaxationSystem, coeffs: BDFCoefficients, dt: float) -> np.ndarray:
    n = system.dimension
    return coeffs.alpha[-1] * np.eye(n) - (coeffs.beta * dt / system.epsilon) * np.asarray(
        system.source
    )


def make_solver_state(
    history: Sequence[SpectralField],
    system: RelaxationSystem,
    coeffs: BDFCoefficients,
    dt: float,
) -> SolverState:
    """Build a ready-to-step state from the q startup fields."""
    if len(history) != coeffs.q:
        raise ValueError(f"history must hold {coeffs.q} fields, got {len(history)}")
    first = history[0]
    for other in history[1:]:
        if not first.same_layout(other):
            raise ValueError("history fields must share (n, N, L)")
    if first.n != system.dimension:
        raise ValueError(
            f"fields have {first.n} components but system dimension is {system.dimension}"
        )
    return SolverState(
        history=[np.array(f.coeffs) for f in history],
        step_index=0,
        dt=dt,
        implicit_inverse=lu_factor(_implicit_matrix(system, coeffs, dt)).solve(
            np.eye(system.dimension)
        ),
        wavenumbers=first.wavenumbers,
        domain_length=first.domain_length,
        real_valued=all(f.real_valued for f in history),
    )


def _advance(state: SolverState, system: RelaxationSystem, coeffs: BDFCoefficients) -> np.ndarray:
    alpha, gamma = coeffs.alpha, coeffs.gamma
    q = coeffs.q
    newest = state.history[-1]
    # Difference form of -sum_{i<q} alpha_i u^{n+i}: identical algebraically
    # (the alphas sum to zero) but exact when the history is constant, which
    # keeps conserved k=0 components free of drift.
    rhs = newest.copy()
    for i in range(q - 1):
        rhs -= alpha[i] * (state.history[i] - newest)
    extrapolated = gamma[0] * state.history[0]
    for i in range(1, q):
        extrapolated += gamma[i] * state.history[i]
    convected = extrapolated @ np.asarray(system.convection).T
    rhs -= (state.dt * 1j * state.wavenumbers)[:, np.newaxis] * convected
    new = rhs @ state.implicit_inverse.T
    state.history.pop(0)
    state.history.append(new)
    state.step_index += 1
    return new


def imex_bdf_step(
    state: SolverState, system: RelaxationSystem, coeffs: BDFCoefficients
) -> SpectralField:
    """Advance the state by one step and return the new field."""
    new = _advance(state, system, coeffs)
    return SpectralField(new, state.domain_length, state.real_valued)


# -- ARS IMEX Runge-Kutta startup ---------------------------------------------


@dataclass(frozen=True)
class ImexRungeKuttaTableau:
    """Paired explicit/implicit Butcher tableaux with a trivial first stage."""

    name: str
    explicit: np.ndarray  # (s+1, s+1), strictly lower triangular
    implicit: np.ndarray  # (s+1, s+1), first column zero, nonzero diagonal after
    weights_explicit: np.ndarray
    weights_implicit: np.ndarray

    @property
    def stages(self) -> int:
        return self.explicit.shape[0]


def _ars222() -> ImexRungeKuttaTableau:
    g = 1.0 - math.sqrt(2.0) / 2.0
    d = 1.0 - 1.0 / (2.0 * g)
    explicit = np.array([
        [0.0, 0.0, 0.0],
        [g, 0.0, 0.0],
        [d, 1.0 - d, 0.0],
    ])
    implicit = np.array([
        [0.0, 0.0, 0.0],
        [0.0, g, 0.0],
        [0.0, 1.0 - g, g],
    ])
    return ImexRungeKuttaTableau(
        name="ARS(2,2,2)",
        explicit=explicit,
        implicit=implicit,
        weights_explicit=np.array([d, 1.0 - d, 0.0]),
        weights_implicit=np.array([0.0, 1.0 - g, g]),
    )


def _ars443() -> ImexRungeKuttaTableau:
    explicit = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 2, 0.0, 0.0, 0.0, 0.0],
        [11 / 18, 1 / 18, 0.0, 0.0, 0.0],
        [5 / 6, -5 / 6, 1 / 2, 0.0, 0.0],
        [1 / 4, 7 / 4, 3 / 4, -7 / 4, 0.0],
    ])
    implicit = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1 / 2, 0.0, 0.0, 0.0],
        [0.0, 1 / 6, 1 / 2, 0.0, 0.0],
        [0.0, -1 / 2, 1 / 2, 1 / 2, 0.0],
        [0.0, 3 / 2, -3 / 2, 1 / 2, 1 / 2],
    ])
    return ImexRungeKuttaTableau(
        name="ARS(4,4,3)",
        explicit=explicit,
        implicit=implicit,
        weights_explicit=np.array([1 / 4, 7 / 4, 3 / 4, -7 / 4, 0.0]),
        weights_implicit=np.array([0.0, 3 / 2, -3 / 2, 1 / 2, 1 / 2]),
    )


_ARS222 = _ars222()
_ARS443 = _ars443()


def ars_tableau(q: int) -> ImexRungeKuttaTableau:
    """Startup scheme for an order-q run: ARS(2,2,2) for q<=3, ARS(4,4,3) for q=4."""
    if q in (2, 3):
        return _ARS222
    if q == 4:
        return _ARS443
    raise UnsupportedOrderError(f"no startup tableau for order {q}")


def _ars_increment(
    system: RelaxationSystem,
    tableau: ImexRungeKuttaTableau,
    substep: float,
    wavenumbers: np.ndarray,
) -> np.ndarray:
    """Per-mode increments ``D_k = R_k - I`` of one ARS substep, shape (2N+1, n, n).

    The substep is linear and acts on each mode separately, so stage i is a
    per-mode matrix ``K_i`` (``K_0 = I``).  The weighted stage sum is formed
    without the leading ``I``: no O(substep) entry is rounded against 1.
    """
    diag = np.diag(tableau.implicit)[1:]
    if not np.allclose(diag, diag[0]):
        raise ValueError("implicit tableau must have a constant diagonal")
    n = system.dimension
    explicit = np.multiply.outer(-1j * wavenumbers, system.convection)
    source = np.asarray(system.source) / system.epsilon
    stage_inverse = lu_factor(np.eye(n) - substep * diag[0] * source).solve(np.eye(n))
    identity = np.broadcast_to(np.eye(n, dtype=complex), (len(wavenumbers), n, n))
    fe, fi = [], []

    def weighted_sum(total, explicit_row, implicit_row):
        for fe_j, fi_j, a_e, a_i in zip(fe, fi, explicit_row, implicit_row):
            if a_e != 0.0:
                total += (substep * a_e) * fe_j
            if a_i != 0.0:
                total += (substep * a_i) * fi_j
        return total

    for i in range(tableau.stages):
        rhs = weighted_sum(identity.copy(), tableau.explicit[i], tableau.implicit[i])
        stage = stage_inverse @ rhs if i else rhs
        fe.append(explicit @ stage)
        fi.append(source @ stage)
    return weighted_sum(np.zeros_like(identity), tableau.weights_explicit, tableau.weights_implicit)


def _increment_power(increment: np.ndarray, count: int) -> np.ndarray:
    """``E`` with ``I + E = (I + increment)^count``, by binary powering in
    increment form: ``E_2m = 2 E_m + E_m E_m``, ``E_(a+b) = E_a + E_b + E_a E_b``."""
    result = None
    while True:
        if count & 1:
            result = increment if result is None else result + increment + result @ increment
        count >>= 1
        if not count:
            return result
        increment = 2.0 * increment + increment @ increment


# Substeps per step of the "ars" startup, the protocol of the reference tables.
_DEFAULT_SUBSTEP_DIVISOR = 500


def ars_startup(
    u0: SpectralField,
    system: RelaxationSystem,
    q: int,
    dt: float,
    substep_divisor: int = _DEFAULT_SUBSTEP_DIVISOR,
) -> list[SpectralField]:
    """Produce the q startup fields at t = 0, dt, ..., (q-1) dt.

    Each slab of width dt is integrated with the order-matched ARS scheme at
    the refined substep ``dt / substep_divisor``, so the startup error sits
    far below the multistep truncation error.  The substeps of a slab are
    composed into one per-mode map ``I + E``, applied as ``v + E v``.
    """
    if q == 1:
        return [u0]
    if substep_divisor < 1:
        raise ValueError("substep_divisor must be >= 1")
    increment = _ars_increment(system, ars_tableau(q), dt / substep_divisor, u0.wavenumbers)
    slab = _increment_power(increment, substep_divisor)
    return _startup_history(u0, q, lambda v: v + (slab @ v[..., np.newaxis])[..., 0])


def _startup_history(u0: SpectralField, q: int, step) -> list[SpectralField]:
    """The q startup fields ``u0, step(u0), ...`` of a per-mode map ``step``."""
    fields = [u0]
    for _ in range(q - 1):
        values = step(np.asarray(fields[-1].coeffs))
        fields.append(SpectralField(values, u0.domain_length, u0.real_valued))
    return fields


def _startup_divisor(spec: str) -> int | None:
    """ARS substep divisor named by a startup spec, or None for "exact".

    The specs are "exact", "ars" (``_DEFAULT_SUBSTEP_DIVISOR`` substeps) and
    "ars:N" with an integer N >= 1.
    """
    if spec == "exact":
        return None
    if spec == "ars":
        return _DEFAULT_SUBSTEP_DIVISOR
    if spec.startswith("ars:"):
        divisor = int(spec.split(":", 1)[1])
        if divisor < 1:
            raise ValueError("startup divisor must be >= 1")
        return divisor
    raise ValueError(f"startup must be 'exact', 'ars' or 'ars:<divisor>', got {spec!r}")


def _integer_step_count(span: float, dt: float, q: int) -> int:
    """Number of steps of size ``dt`` in ``span``; it must be an integer that
    holds the q-1 startup steps of an order-q history."""
    steps = span / dt
    rounded = round(steps)
    if abs(steps - rounded) > 1e-9 * max(1.0, abs(rounded)):
        raise NonIntegerStepCountError(
            f"interval {span!r} is not an integer multiple of dt {dt!r}"
        )
    if rounded < q - 1:
        raise NonIntegerStepCountError(
            f"{rounded} steps cannot accommodate an order-{q} history"
        )
    return int(rounded)


def run(
    u0: SpectralField,
    system: RelaxationSystem,
    q: int,
    dt: float,
    t_final: float,
    *,
    t_start: float = 0.0,
    startup: str = "exact",
) -> SpectralField:
    """Integrate from ``t_start`` to ``t_final`` and return the final field.

    ``startup`` selects how the first q-1 values are produced: "exact" uses
    the closed-form per-mode propagator, "ars" or "ars:N" the refined IMEX-RK
    sweep with N substeps per step.  Bit-for-bit deterministic for identical
    inputs.
    """
    if u0.n != system.dimension:
        raise ValueError("initial field does not match the system dimension")
    divisor = _startup_divisor(startup)
    coeffs = bdf_coefficients(q)
    total = _integer_step_count(t_final - t_start, dt, q)
    if divisor is not None:
        history = ars_startup(u0, system, q, dt, substep_divisor=divisor)
    elif q == 1:
        history = [u0]
    else:
        step = _propagators(system, u0.cutoff, dt)
        history = _startup_history(u0, q, lambda v: (step @ v[..., np.newaxis])[..., 0])
    if total == q - 1:
        return history[-1]
    state = make_solver_state(history, system, coeffs, dt)
    final = None
    for _ in range(total - (q - 1)):
        final = _advance(state, system, coeffs)
    return SpectralField(final, state.domain_length, state.real_valued)
