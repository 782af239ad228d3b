"""Exact reference solutions of the Fourier-Galerkin semi-discretization.

For a constant-coefficient linear system the spectral modes decouple: mode k
evolves by ``u_hat_k' = M_k u_hat_k`` with ``M_k = -i*kappa_k*A + Q/eps``, so
the semi-discrete solution is a matrix exponential per mode.  For band-limited
initial data this is also the exact PDE solution, which makes it the
reference of choice for convergence studies; a conventional fine-step
reference is provided as a cross-check.  A mode whose data is zero stays
exactly zero, so only the modes the data occupies are exponentiated, one
:func:`~relaxbdf.linalg.matrix_exponential` call per block of them: the
band-limited initial data of the built-in models occupies a few of the
study's hundreds of modes.  The same map serves a study's exact startups.
A propagator's error is about ``|t M_k|_1 u`` relative, ``u`` being the
working precision of its squarings, once ``t M_k`` is rounded to float64;
the k=0 one is the identity on the conserved components.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .linalg import ExponentialOverflowError, matrix_exponential
from .spectral import _PERIOD_RTOL, SpectralField
from .system import RelaxationSystem

__all__ = ["mode_matrix", "exact_evolve", "fine_step_reference"]

# Modes per stacked exponential: large enough to amortize the per-call work,
# small enough that the long-double temporaries stay a few hundred kB.
_MODE_BLOCK = 64


def mode_matrix(system: RelaxationSystem, k: int | np.ndarray) -> np.ndarray:
    """Generator ``M_k = -i*kappa_k*A + Q/eps`` of the k-th spectral mode.

    ``k`` may be an integer array of mode numbers; the generators then come
    as a stack ``(len(k), n, n)``.
    """
    kappa = 2.0 * np.pi * np.asarray(k) / system.domain_length
    return np.multiply.outer(-1j * kappa, system.convection) + np.asarray(system.source) / system.epsilon


def _check_matches(field: SpectralField, system: RelaxationSystem) -> None:
    """Raise ``ValueError`` unless ``field`` has the system's dimension and period."""
    if field.n != system.dimension or not math.isclose(
            field.domain_length, system.domain_length, rel_tol=_PERIOD_RTOL):
        raise ValueError(f"field (n={field.n}, L={field.domain_length!r}) does not match the "
                         f"system (n={system.dimension}, L={system.domain_length!r})")


def _occupied(field: SpectralField) -> np.ndarray:
    """Mask of the rows ``k`` and ``-k`` of each mode ``k`` occupied in either row."""
    nonzero = field.coeffs.any(axis=1)
    return nonzero | nonzero[::-1]


def _map_rows(maps, values: np.ndarray) -> np.ndarray:
    """``P v`` on the rows of each ``(rows, P)`` of ``maps``; zero on the other rows."""
    mapped = np.zeros(values.shape, dtype=complex)
    for rows, matrices in maps:
        mapped[rows] = (matrices @ values[rows][..., np.newaxis])[..., 0]
    return mapped


def _exact_step(u0: SpectralField, system: RelaxationSystem, t: float):
    """The per-mode map ``v -> exp(t M_k) v`` on the modes ``u0`` occupies.

    Only the modes ``k >= 0`` whose row ``k`` or row ``-k`` of ``u0`` is
    nonzero are exponentiated, in blocks of ``_MODE_BLOCK``; mode ``-k`` has
    the conjugate generator and gets the entrywise conjugate, which keeps
    real fields exactly real.  The map leaves every other row zero, so it
    serves ``u0`` and every field it maps ``u0`` to.  An
    ``ExponentialOverflowError`` names the mode, ``t`` and ``eps``.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and non-negative, got {t!r}")
    support = np.flatnonzero(_occupied(u0)[u0.cutoff:])
    maps = []
    for first in range(0, len(support), _MODE_BLOCK):
        ks = support[first:first + _MODE_BLOCK]
        try:
            block = matrix_exponential(mode_matrix(system, ks), t)
        except ExponentialOverflowError as exc:
            raise ExponentialOverflowError(
                f"mode k={ks[exc.index]} at t={t:g}, eps={system.epsilon:g}: {exc}"
            ) from exc
        # Rows -k before +k: row 0 is then left holding P_0 v, not its conjugate's.
        maps += [(u0.cutoff - ks, np.conj(block)), (u0.cutoff + ks, block)]
    return partial(_map_rows, maps)


def exact_evolve(u0: SpectralField, system: RelaxationSystem, t: float) -> SpectralField:
    """Propagate a field exactly by time ``t >= 0``; an
    ``ExponentialOverflowError`` names the mode, ``t`` and ``eps``.

    Only the modes the field occupies are exponentiated, and the others stay
    exactly zero.
    """
    _check_matches(u0, system)
    values = _exact_step(u0, system, t)(np.asarray(u0.coeffs))
    return SpectralField(values, u0.domain_length, u0.real_valued)


def fine_step_reference(
    u0: SpectralField,
    system: RelaxationSystem,
    q: int,
    dt_ref: float,
    t_final: float,
    *,
    t_start: float = 0.0,
) -> SpectralField:
    """Reference by brute force: the IMEX-BDF integrator at a much finer step,
    with the exact startup.

    Exists to cross-validate :func:`exact_evolve`; ``dt_ref`` must divide the
    interval.
    """
    from .integrator import run

    return run(u0, system, q, dt_ref, t_final, t_start=t_start)
