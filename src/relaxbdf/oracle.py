"""Exact reference solutions of the Fourier-Galerkin semi-discretization.

For a constant-coefficient linear system the spectral modes decouple: mode k
evolves by ``u_hat_k' = M_k u_hat_k`` with ``M_k = -i*kappa_k*A + Q/eps``, so
the semi-discrete solution is a matrix exponential per mode.  For band-limited
initial data this is also the exact PDE solution, which makes it the
reference of choice for convergence studies; a conventional fine-step
reference is provided as a cross-check.  The modes are exponentiated in
blocks, one stacked :func:`~relaxbdf.linalg.matrix_exponential` call per
block.
"""

from __future__ import annotations

import numpy as np

from .linalg import ExponentialOverflowError, matrix_exponential
from .spectral import SpectralField
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


def exact_evolve(u0: SpectralField, system: RelaxationSystem, t: float) -> SpectralField:
    """Propagate a field exactly by time ``t >= 0``.

    Modes ``k`` and ``-k`` have complex-conjugate generators, so only the
    non-negative half is exponentiated; the mirrored propagator is the
    entrywise conjugate, which also preserves real-valuedness exactly.  An
    ``ExponentialOverflowError`` names the mode, ``t`` and ``eps``.
    """
    if u0.n != system.dimension:
        raise ValueError("field does not match the system dimension")
    if t < 0.0:
        raise ValueError("t must be non-negative")
    center = u0.cutoff
    coeffs = np.asarray(u0.coeffs)
    out = np.empty_like(coeffs)
    for first in range(0, center + 1, _MODE_BLOCK):
        ks = np.arange(first, min(first + _MODE_BLOCK, center + 1))
        try:
            propagators = matrix_exponential(mode_matrix(system, ks), t)
        except ExponentialOverflowError as exc:
            raise ExponentialOverflowError(
                f"mode k={ks[exc.index]} at t={t:g}, eps={system.epsilon:g}: {exc}"
            ) from exc
        # Rows -k before +k: row 0 is then left propagated by P_0, not its conjugate.
        out[center - ks] = (np.conj(propagators) @ coeffs[center - ks, :, np.newaxis])[..., 0]
        out[center + ks] = (propagators @ coeffs[center + ks, :, np.newaxis])[..., 0]
    return SpectralField(out, u0.domain_length, u0.real_valued)


def fine_step_reference(
    u0: SpectralField,
    system: RelaxationSystem,
    q: int,
    dt_ref: float,
    t_final: float,
    *,
    t_start: float = 0.0,
    startup: str = "exact",
) -> SpectralField:
    """Reference by brute force: the IMEX-BDF integrator at a much finer step.

    Exists to cross-validate :func:`exact_evolve`; ``dt_ref`` must divide the
    interval.
    """
    from .integrator import run

    return run(
        u0,
        system,
        q,
        dt_ref,
        t_final,
        t_start=t_start,
        startup=startup,
    )
