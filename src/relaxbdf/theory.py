"""Machine checks of the algebraic identities behind the stability analysis.

The multistep energy argument rests on two quadratic-form identities tied to
the scheme coefficients: multiplying the combination
``u_q - L1(u_1..u_{q-1})`` against the alpha-sum telescopes a positive
definite form G plus a complete square, and against ``u_q`` telescopes a
semidefinite form A plus a squared linear form L2.  This module transcribes
the known coefficient sets (orders 1 and 2), verifies both identities and
their weighted-inner-product generalization on random data, assembles the
discrete energy they induce, and measures the one-step truncation residual of
the full scheme against an exact trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .integrator import BDFCoefficients, UnsupportedOrderError, bdf_coefficients
from .linalg import is_negative_semidefinite, is_spd
from .spectral import SpectralField, field_inner_product
from .system import RelaxationSystem, StabilityWitness

__all__ = [
    "MultiplierData",
    "multiplier_data",
    "verify_multiplier_identity",
    "discrete_energy",
    "truncation_residual",
    "fit_order",
]


@dataclass(frozen=True)
class MultiplierData:
    """Coefficients of the order-q multiplier identities.

    ``energy_form`` is the q x q grid of the positive-definite form G,
    ``history_form`` the (q-1) x (q-1) grid of the semidefinite form A,
    ``correction`` the weights of L1, ``residual_form`` the weights of L2,
    ``damping`` the coefficient d1 > 0 and ``extrapolation_weight`` d2.
    """

    q: int
    energy_form: np.ndarray
    history_form: np.ndarray
    correction: np.ndarray
    residual_form: np.ndarray
    damping: float
    extrapolation_weight: float

    def __post_init__(self):
        g = np.asarray(self.energy_form, dtype=float)
        a = np.asarray(self.history_form, dtype=float)
        if g.shape != (self.q, self.q):
            raise ValueError("energy form has the wrong shape")
        if a.shape != (self.q - 1, self.q - 1):
            raise ValueError("history form has the wrong shape")
        if not self.damping > 0.0:
            raise ValueError("damping coefficient must be positive")
        if not is_spd(g, 1e-12):
            raise ValueError("energy form must be positive definite")
        if a.size and not is_negative_semidefinite(-a, 1e-12):
            raise ValueError("history form must be positive semidefinite")
        for name, value in (("energy_form", g), ("history_form", a)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def multiplier_data(q: int) -> MultiplierData:
    """Transcribed multiplier coefficients; only orders 1 and 2 are known here.

    The order-3 and order-4 coefficient sets live in the literature on
    multistep G-stability and are deliberately not reproduced, so requesting
    them raises ``UnsupportedOrderError``.
    """
    sixth = float(Fraction(1, 6))
    third = float(Fraction(1, 3))
    if q == 1:
        return MultiplierData(
            q=1,
            energy_form=np.array([[0.5]]),
            history_form=np.zeros((0, 0)),
            correction=np.zeros(0),
            residual_form=np.array([1.0]),
            damping=0.5,
            extrapolation_weight=1.0,
        )
    if q == 2:
        return MultiplierData(
            q=2,
            energy_form=np.array([[sixth, -third], [-third, float(Fraction(5, 6))]]),
            history_form=np.zeros((1, 1)),
            correction=np.zeros(1),
            residual_form=np.array([0.0, 1.0]),
            damping=sixth,
            extrapolation_weight=1.5,
        )
    raise UnsupportedOrderError(f"multiplier coefficients are transcribed for q=1,2 only, got {q}")


def _identity_residuals(
    data: MultiplierData,
    coeffs: BDFCoefficients,
    tuples: np.ndarray,
    weight: np.ndarray,
) -> float:
    """Max residual of both identities on a batch of (q+1)-tuples of vectors."""
    q = data.q
    gram = np.einsum("smi,il,sol->smo", tuples, weight, tuples)  # pairings of u_0..u_q

    def form(grid: np.ndarray, offset: int) -> np.ndarray:
        m = grid.shape[0]
        if m == 0:
            return np.zeros(gram.shape[0])
        block = gram[:, offset:offset + m, offset:offset + m]
        return np.einsum("ij,sij->s", grid, block)

    multiplier = tuples[:, q] - np.einsum(
        "i,sid->sd", data.correction, tuples[:, 1:q]
    )
    alpha_sum = np.einsum("i,sid->sd", coeffs.alpha, tuples)
    gamma_sum = np.einsum("i,sid->sd", coeffs.gamma, tuples[:, :q])
    residual_vec = np.einsum("i,sid->sd", data.residual_form, tuples[:, 1:q + 1])
    square_arg = multiplier - data.extrapolation_weight * gamma_sum

    def pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("sd,de,se->s", u, weight, v)

    lhs1 = pair(multiplier, alpha_sum)
    rhs1 = form(data.energy_form, 1) - form(data.energy_form, 0) + data.damping * pair(
        square_arg, square_arg
    )
    lhs2 = pair(multiplier, tuples[:, q])
    rhs2 = form(data.history_form, 2) - form(data.history_form, 1) + pair(
        residual_vec, residual_vec
    )
    return float(max(np.abs(lhs1 - rhs1).max(), np.abs(lhs2 - rhs2).max()))


# Length of the vector tuples of the weighted identity.
_VECTOR_DIM = 3


def _random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random SPD matrix with eigenvalues in [0.1, 10] (condition <= 100)."""
    seed_matrix = rng.standard_normal((dim, dim))
    _, vectors = np.linalg.eigh(seed_matrix + seed_matrix.T)
    eigenvalues = rng.uniform(0.1, 10.0, size=dim)
    return vectors @ np.diag(eigenvalues) @ vectors.T


def verify_multiplier_identity(
    data: MultiplierData,
    coeffs: BDFCoefficients,
    samples: int = 1000,
    rng: np.random.Generator | None = None,
) -> float:
    """Max absolute residual of both identities over random tuples.

    Checks the scalar identities on ``samples`` uniform tuples in
    ``[-1, 1]^(q+1)`` and the weighted generalization on vector tuples under
    a batch of random SPD weights (tuples of ``_VECTOR_DIM``-vectors).
    """
    if data.q != coeffs.q:
        raise ValueError("multiplier data and scheme coefficients disagree on the order")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(0) if rng is None else rng
    scalar_tuples = rng.uniform(-1.0, 1.0, size=(samples, data.q + 1, 1))
    worst = _identity_residuals(data, coeffs, scalar_tuples, np.eye(1))
    batches = 8
    per_batch = max(1, samples // batches)
    for _ in range(batches):
        weight = _random_spd(rng, _VECTOR_DIM)
        vector_tuples = rng.uniform(-1.0, 1.0, size=(per_batch, data.q + 1, _VECTOR_DIM))
        worst = max(worst, _identity_residuals(data, coeffs, vector_tuples, weight))
    return worst


def discrete_energy(
    history: Sequence[SpectralField],
    system: RelaxationSystem,
    witness: StabilityWitness,
    dt: float,
) -> float:
    """Energy functional of a length-q history window.

    For q <= 2 this is the full multiplier energy
    ``int G_A0(U^n..U^{n+q-1}) + (beta dt / eps) int A_M(W^{n+1}..)``; for
    q >= 3 the coefficients are not transcribed, so it degrades to the
    symmetrizer-weighted surrogate ``sum_i |U^i|_A0^2``.
    """
    q = len(history)
    if q == 0:
        raise ValueError("history must contain at least one field")
    symmetrizer = np.asarray(witness.symmetrizer)
    if q > 2:
        return sum(field_inner_product(u, u, symmetrizer) for u in history)

    data = multiplier_data(q)
    coeffs = bdf_coefficients(q)
    energy = 0.0
    for i in range(q):
        for j in range(q):
            g = data.energy_form[i, j]
            if g != 0.0:
                energy += g * field_inner_product(history[i], history[j], symmetrizer)
    if data.history_form.size:
        bulk = system.bulk_size
        stiff_weight = -(
            witness.normal_form_symmetrizer()[bulk:, bulk:] @ system.stiff_block
        )
        components = list(range(bulk, system.dimension))
        for i in range(q - 1):
            for j in range(q - 1):
                a = data.history_form[i, j]
                if a != 0.0:
                    u = history[i + 1].coeffs[:, components]
                    v = history[j + 1].coeffs[:, components]
                    pairing = np.sum(np.conj(u) * (v @ stiff_weight.T)).real
                    energy += (
                        coeffs.beta * dt / system.epsilon
                    ) * history[0].domain_length * a * pairing
    return energy


def truncation_residual(
    system: RelaxationSystem,
    exact: Callable[[float], SpectralField],
    coeffs: BDFCoefficients,
    dt: float,
) -> float:
    """L2 norm of the one-step defect of the scheme on an exact trajectory.

    ``exact`` must supply the solution at ``i*dt`` for i = 0..q; the returned
    norm scales like dt^(q+1) for smooth-in-time solutions.
    """
    fields = [exact(i * dt) for i in range(coeffs.q + 1)]
    first = fields[0]
    ikappa = (1j * first.wavenumbers)[:, np.newaxis]
    residual = coeffs.alpha[0] * np.asarray(fields[0].coeffs)
    for i in range(1, coeffs.q + 1):
        residual = residual + coeffs.alpha[i] * fields[i].coeffs
    extrapolated = coeffs.gamma[0] * np.asarray(fields[0].coeffs)
    for i in range(1, coeffs.q):
        extrapolated = extrapolated + coeffs.gamma[i] * fields[i].coeffs
    residual = residual + dt * ikappa * (extrapolated @ np.asarray(system.convection).T)
    residual = residual - (coeffs.beta * dt / system.epsilon) * (
        fields[-1].coeffs @ np.asarray(system.source).T
    )
    return SpectralField(residual, first.domain_length, real_valued=False).l2_norm()


def fit_order(step_sizes: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(step size)."""
    steps = np.asarray(step_sizes, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if steps.shape != errs.shape or steps.size < 2:
        raise ValueError("need matching lists with at least two entries")
    if np.any(errs <= 0.0):
        raise ValueError("errors must be positive for a log-log fit")
    x = np.log(steps)
    y = np.log(errs)
    x_centered = x - x.mean()
    return float((x_centered @ (y - y.mean())) / (x_centered @ x_centered))
