"""Exact reference solutions of the Fourier-Galerkin semi-discretization.

For a constant-coefficient linear system the spectral modes decouple: mode k
evolves by ``u_hat_k' = M_k u_hat_k`` with ``M_k = -i*kappa_k*A + Q/eps``, so
the semi-discrete solution is a matrix exponential per mode.  For band-limited
initial data this is also the exact PDE solution, which makes it the
reference of choice for convergence studies; a conventional fine-step
reference is provided as a cross-check.  The propagators of all modes form
one stack, one :func:`~relaxbdf.linalg.matrix_exponential` call per block of
modes.  Successive stacks of one system may share a list of squaring chains,
one per block: a stack at twice the previous time squares that call's
working-precision powers once more wherever that is bit-identical to a
separate call, and any other time starts over.  So a study's exact startups
at ``dt, 2 dt, 4 dt, ...``, taken finest first, cost about one squaring each.
A propagator's error is about ``|t M_k|_1 u`` relative, ``u`` being the
working precision of its squaring chain; the k=0 one is the identity on the
conserved components.
"""

from __future__ import annotations

import numpy as np

from .linalg import ExponentialOverflowError, SquaringChain, matrix_exponential
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


def _propagators(
    system: RelaxationSystem, cutoff: int, t: float, chains: list[SquaringChain] | None = None
) -> np.ndarray:
    """Stack ``(2N+1, n, n)`` of the mode propagators ``exp(t M_k)``, k = -N..N.

    Only modes ``k >= 0`` are exponentiated, in blocks of ``_MODE_BLOCK``;
    mode ``-k`` has the conjugate generator and gets the entrywise conjugate,
    which keeps real fields exactly real.  ``chains`` is a list the calls
    of one system and cutoff share; it gets one ``SquaringChain`` per block
    on first use, which carries that block's powers to the next call.
    """
    stack = np.empty((2 * cutoff + 1, system.dimension, system.dimension), dtype=complex)
    for index, first in enumerate(range(0, cutoff + 1, _MODE_BLOCK)):
        ks = np.arange(first, min(first + _MODE_BLOCK, cutoff + 1))
        matrix = mode_matrix(system, ks)
        if chains is not None and index == len(chains):
            chains.append(SquaringChain())
        try:
            block = matrix_exponential(matrix, t, chain=None if chains is None else chains[index])
        except ExponentialOverflowError as exc:
            raise ExponentialOverflowError(
                f"mode k={ks[exc.index]} at t={t:g}, eps={system.epsilon:g}: {exc}"
            ) from exc
        # Rows -k before +k: row 0 is then left holding P_0, not its conjugate.
        stack[cutoff - ks] = np.conj(block)
        stack[cutoff + ks] = block
    return stack


def exact_evolve(u0: SpectralField, system: RelaxationSystem, t: float) -> SpectralField:
    """Propagate a field exactly by time ``t >= 0``; an
    ``ExponentialOverflowError`` names the mode, ``t`` and ``eps``."""
    if u0.n != system.dimension:
        raise ValueError("field does not match the system dimension")
    if t < 0.0:
        raise ValueError("t must be non-negative")
    propagated = _propagators(system, u0.cutoff, t) @ np.asarray(u0.coeffs)[..., np.newaxis]
    return SpectralField(propagated[..., 0], u0.domain_length, u0.real_valued)


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
