"""IMEX-BDF time stepping in Fourier space.

The order-q scheme advances the spectral coefficients of a normal-form
relaxation system by

    sum_i alpha_i u^{n+i}  +  dt * A * sum_{i<q} gamma_i d_x u^{n+i}
        =  (beta * dt / epsilon) * Q u^{n+q},

treating convection explicitly (extrapolated through the gamma weights) and
the stiff source implicitly.  Because the implicit matrix
``alpha_q I - beta dt/eps Q`` is real and the same for every mode, it is
inverted once per run; each step then applies the inverse to all modes with
one matrix product.  In the normal form ``Q = diag(0, S)`` this matrix, like
the ARS stage matrix ``I - h g Q/eps``, is block diagonal with a multiple of
the identity as its bulk block, so only the stiff block is factored (with
the singular-pivot check).  A factorization of the whole matrix would judge
the bulk pivot against entries of size dt/eps and fail below eps ~ 1e-16.
A singular stiff block raises ``SingularMatrixError`` naming the matrix,
eps and the step.

A step works on the float64 views (rows, 2n) of the complex coefficients
(real and imaginary parts side by side).  The convection product, with the
factor i of ``d_x`` folded in, and the implicit inverse are real block forms
built once per run, so both products are plain float64 matrix products.  The
weighted sums keep the complex step's operations and order, so a step is
bit-identical to its complex form (up to the sign of exact zeros).  One loop
runs the steps; it writes each new value into the history buffer it retires,
so no step allocates.  A step that overflows or makes a NaN raises
``NonFiniteStepError`` naming the step, eps and dt.

The modes decouple and a zero mode stays exactly zero, so the steps and the
startup run only on the rows ``k`` and ``-k`` of the modes the data occupies.
A real-valued history (``u_hat[-k] = conj(u_hat[k])``) is first made the
exact mirror of its rows ``k >= 0``, with a real ``k = 0`` row; every step
operation is elementwise or a right product with a real block matrix, both
symmetric under a sign change in IEEE arithmetic, so the mirror stays exact.

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
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import PIVOT_RTOL, SingularMatrixError, _check_positive, lu_factor
from .oracle import _check_matches, _exact_step, _map_rows, _occupied
from .spectral import SpectralField
from .system import RelaxationSystem

__all__ = [
    "UnsupportedOrderError",
    "NonIntegerStepCountError",
    "NonFiniteStepError",
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


@dataclass(eq=False)
class SolverState:
    """Mutable per-run state: the history ring plus the per-run constants.

    ``history[i]`` holds the coefficients of ``u^{n+i}`` (oldest first) on
    the stepped ``rows`` (a mask of the 2N+1 rows of a returned field) as the
    float64 view of a complex (rows, n) array: columns 2j and 2j+1 are the
    real and imaginary parts of component j.  The q buffers are fixed: a step
    writes the new value into the oldest one and moves it to the end.  The
    constants, on the same rows, act on such views from the right:

    * ``convection_block`` is ``kron(A^T, [[0, 1], [-1, 0]])``, the product
      with ``i A`` (the factor i of ``d_x`` folded in);
    * ``implicit_block`` is ``kron(inv(alpha_q I - beta dt/eps Q)^T, I_2)``;
    * ``scaled_wavenumbers`` is the column ``dt * kappa`` repeated over the
      2n columns (a contiguous operand is scaled faster than a broadcast one).

    ``alpha`` and ``gamma`` are the scheme weights as 0-d float64 arrays,
    which a ufunc takes without converting a scalar on every call, and
    ``scratch`` holds the step's three temporaries; no history buffer lives
    in it.  States compare by identity.
    """

    history: list[np.ndarray]
    step_index: int
    dt: float
    convection_block: np.ndarray
    implicit_block: np.ndarray
    scaled_wavenumbers: np.ndarray
    alpha: tuple[np.ndarray, ...]
    gamma: tuple[np.ndarray, ...]
    scratch: np.ndarray
    rows: np.ndarray
    domain_length: float
    real_valued: bool


# Right factor of a real view that multiplies each complex entry by i.
_TIMES_I = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _normal_form_inverse(
    system: RelaxationSystem, diagonal: float, stiff: np.ndarray, label: str
) -> np.ndarray:
    """Inverse of ``d I - c Q = diag(d I_b, stiff)``, with ``d = diagonal``,
    for the normal form ``Q = diag(0, S)``.

    ``stiff`` is the block ``d I_r - c S`` as the caller builds it, so each
    matrix keeps its own rounding.  Only that block is factored; the bulk
    block inverts to ``I_b / d`` exactly.  The stiff pivots are judged
    against ``d`` as well as the block's largest entry, as in a
    factorization of the whole matrix.  Where that factorization succeeds,
    the result equals its inverse to rounding, and bit for bit on the
    built-in models.  ``label`` names the matrix when the stiff block is
    singular.
    """
    try:
        factors = lu_factor(stiff)
        pivot = np.abs(np.diagonal(factors.packed)).min()
        if pivot <= PIVOT_RTOL * abs(diagonal):
            raise SingularMatrixError(
                f"pivot {pivot:.3e} below threshold {PIVOT_RTOL * abs(diagonal):.3e} of the diagonal"
            )
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"{label} is singular: {exc}") from exc
    b = system.bulk_size
    inverse = np.zeros((system.dimension, system.dimension))
    inverse[:b, :b] = np.eye(b) / diagonal
    inverse[b:, b:] = factors.solve(np.eye(system.stiff_size))
    return inverse


def make_solver_state(
    history: Sequence[SpectralField],
    system: RelaxationSystem,
    coeffs: BDFCoefficients,
    dt: float,
) -> SolverState:
    """Build a ready-to-step state from the q startup fields.

    It steps the rows any of them occupies; a real-valued history is first
    made the exact mirror of its rows ``k >= 0``, with a real ``k = 0`` row.
    """
    if len(history) != coeffs.q:
        raise ValueError(f"history must hold {coeffs.q} fields, got {len(history)}")
    first = history[0]
    for other in history[1:]:
        if not first.same_layout(other):
            raise ValueError("history fields must share (n, N, L)")
    _check_matches(first, system)
    n = system.dimension
    real_valued = all(f.real_valued for f in history)
    rows = np.logical_or.reduce([_occupied(f) for f in history])
    values = np.array([f.coeffs[rows] for f in history])
    if real_valued:
        modes = first.mode_numbers[rows]
        values[:, modes < 0] = np.conj(values[:, modes > 0][:, ::-1])
        values.imag[:, modes == 0] = 0.0
    inverse = _normal_form_inverse(
        system,
        coeffs.alpha[-1],
        coeffs.alpha[-1] * np.eye(system.stiff_size)
        - (coeffs.beta * dt / system.epsilon) * system.stiff_block,
        f"BDF implicit matrix (eps={system.epsilon:g}, dt={dt:g})",
    )
    views = list(values.view(np.float64))
    return SolverState(
        history=views,
        step_index=0,
        dt=dt,
        convection_block=np.kron(np.asarray(system.convection, dtype=float).T, _TIMES_I),
        implicit_block=np.kron(inverse.T, np.eye(2)),
        scaled_wavenumbers=np.repeat((dt * first.wavenumbers)[rows, np.newaxis], 2 * n, axis=1),
        alpha=tuple(np.array(a) for a in coeffs.alpha),
        gamma=tuple(np.array(g) for g in coeffs.gamma),
        scratch=np.empty((3,) + views[0].shape),
        rows=rows,
        domain_length=first.domain_length,
        real_valued=real_valued,
    )


def _advance(state: SolverState, count: int = 1) -> np.ndarray:
    """``count`` steps on the real views; returns the newest view.

    Each new value is written into the history buffer it retires, so no step
    allocates; the returned view is overwritten ``q`` steps later.  The
    operations are those of the complex step, in the same order, so the
    result is bit-identical to it up to the sign of exact zeros.
    """
    history, alpha, gamma = state.history, state.alpha, state.gamma
    convection, implicit = state.convection_block, state.implicit_block
    wavenumbers = state.scaled_wavenumbers
    rhs, extrapolated, term = state.scratch
    subtract, multiply, add, dot = np.subtract, np.multiply, np.add, np.dot
    older = range(len(history) - 1)
    newer = range(1, len(history))
    for _ in range(count):
        newest = history[-1]
        # Difference form of -sum_{i<q} alpha_i u^{n+i}: identical
        # algebraically (the alphas sum to zero) but exact when the history is
        # constant, which keeps conserved k=0 components free of drift.  The
        # first subtraction reads ``newest`` directly, so no copy of it is made.
        minuend = newest
        for i in older:
            subtract(history[i], newest, term)
            multiply(term, alpha[i], term)
            subtract(minuend, term, rhs)
            minuend = rhs
        multiply(history[0], gamma[0], extrapolated)
        for i in newer:
            multiply(history[i], gamma[i], term)
            add(extrapolated, term, extrapolated)
        # i * dt * kappa * (A u): the i sits in convection_block.
        dot(extrapolated, convection, term)
        multiply(term, wavenumbers, term)
        subtract(minuend, term, rhs)
        oldest = history.pop(0)
        dot(rhs, implicit, oldest)
        history.append(oldest)
        state.step_index += 1
    return history[-1]


def _field(state: SolverState, view: np.ndarray) -> SpectralField:
    """The field of a history view: its stepped rows, zeros elsewhere."""
    values = np.zeros((len(state.rows), view.shape[1] // 2), dtype=complex)
    values[state.rows] = view.view(np.complex128)
    return SpectralField(values, state.domain_length, state.real_valued)


class NonFiniteStepError(ValueError):
    """A step overflowed or produced a non-finite value: the run blew up."""


@contextmanager
def _blow_up_check(state: SolverState, system: RelaxationSystem):
    """Turn an overflow or invalid operation of the steps inside into
    ``NonFiniteStepError``, naming the step that raised it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteStepError(
            f"non-finite value in BDF step {state.step_index + 1} "
            f"(eps={system.epsilon:g}, dt={state.dt:g}): {exc}"
        ) from exc


def imex_bdf_step(
    state: SolverState, system: RelaxationSystem, coeffs: BDFCoefficients
) -> SpectralField:
    """Advance the state by one step and return the new field.

    ``system`` and ``coeffs`` must be those the state was made from; the
    state holds the constants derived from them.
    """
    with _blow_up_check(state, system):
        new = _advance(state)
    return _field(state, new)


# -- ARS IMEX Runge-Kutta startup ---------------------------------------------


@dataclass(frozen=True)
class ImexRungeKuttaTableau:
    """Paired explicit/implicit Butcher tableaux with a trivial first stage.

    Both schemes are globally stiffly accurate: the weights are the last rows.
    """

    name: str
    explicit: np.ndarray  # (s+1, s+1), strictly lower triangular
    implicit: np.ndarray  # (s+1, s+1), first column zero, nonzero diagonal after

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
    return ImexRungeKuttaTableau(name="ARS(2,2,2)", explicit=explicit, implicit=implicit)


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
    return ImexRungeKuttaTableau(name="ARS(4,4,3)", explicit=explicit, implicit=implicit)


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
    """Per-mode increments ``D_k = R_k - I`` of one ARS substep, one per wavenumber.

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
    stage_inverse = _normal_form_inverse(
        system,
        1.0,
        np.eye(system.stiff_size) - substep * diag[0] * (system.stiff_block / system.epsilon),
        f"ARS stage matrix (eps={system.epsilon:g}, substep dt={substep:g})",
    )
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
    return weighted_sum(np.zeros_like(identity), tableau.explicit[-1], tableau.implicit[-1])


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
    composed into one per-mode map ``I + E``, applied as ``v + E v`` on the
    rows ``u0`` occupies; the other rows stay zero.
    """
    _check_matches(u0, system)
    if type(substep_divisor) is not int or substep_divisor < 1:
        raise ValueError(f"substep_divisor must be an integer >= 1, got {substep_divisor!r}")
    if q == 1:
        return [u0]
    rows = _occupied(u0)
    increment = _ars_increment(system, ars_tableau(q), dt / substep_divisor, u0.wavenumbers[rows])
    slab = [(rows, _increment_power(increment, substep_divisor))]
    return _startup_history(u0, q, lambda v: v + _map_rows(slab, v))


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
        try:
            divisor = int(spec.split(":", 1)[1])
        except ValueError:
            divisor = 0
        if divisor >= 1:
            return divisor
    raise ValueError(
        f"startup must be 'exact', 'ars' or 'ars:<divisor>' with an integer divisor >= 1, "
        f"got {spec!r}"
    )


def _integer_step_count(span: float, dt: float, q: int) -> int:
    """Number of steps of size ``dt`` in ``span``; it must be an integer that
    holds the q-1 startup steps of an order-q history."""
    _check_positive("dt", dt)
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
    sweep with N substeps per step.  Bit-for-bit deterministic for
    identical inputs.
    """
    _check_matches(u0, system)
    divisor = _startup_divisor(startup)
    coeffs = bdf_coefficients(q)
    total = _integer_step_count(t_final - t_start, dt, q)
    if divisor is not None:
        history = ars_startup(u0, system, q, dt, substep_divisor=divisor)
    elif q == 1:
        history = [u0]
    else:
        history = _startup_history(u0, q, _exact_step(u0, system, dt))
    if total == q - 1:
        return history[-1]
    state = make_solver_state(history, system, coeffs, dt)
    del history  # the state holds copies; free the startup fields while stepping
    with _blow_up_check(state, system):
        final = _advance(state, total - (q - 1))
    return _field(state, final)
