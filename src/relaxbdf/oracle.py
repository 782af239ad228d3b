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
The study's exact reference at ``t = m dt`` then only reads the chains: it
raises each block's last powers to the m-th power
(:meth:`~relaxbdf.linalg.SquaringChain.power`), a few products instead of a
few dozen squarings, and is exact to the same error model but not to the
bit.  A propagator's error is about ``|t M_k|_1 u`` relative, ``u`` being the
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


def _mode_blocks(
    system: RelaxationSystem, cutoff: int, t: float, chains: list[SquaringChain] | None, keep: bool
):
    """Yield ``(ks, exp(t M_k))`` for the modes ``k = 0..cutoff``, in blocks
    of ``_MODE_BLOCK``.

    ``chains`` holds one ``SquaringChain`` per block.  With ``keep`` each
    block is a ``matrix_exponential`` call that carries its powers to the
    next call, and a block without a chain gets one.  Without ``keep`` the
    chains are only read: a block takes ``SquaringChain.power`` of its
    chain, and a block without one is exponentiated from scratch.
    """
    for index, first in enumerate(range(0, cutoff + 1, _MODE_BLOCK)):
        ks = np.arange(first, min(first + _MODE_BLOCK, cutoff + 1))
        matrix = mode_matrix(system, ks)
        if keep and chains is not None and index == len(chains):
            chains.append(SquaringChain())
        chain = chains[index] if chains is not None and index < len(chains) else None
        try:
            if keep or chain is None:
                block = matrix_exponential(matrix, t, chain=chain)
            else:
                block = chain.power(matrix, t)
        except ExponentialOverflowError as exc:
            raise ExponentialOverflowError(
                f"mode k={ks[exc.index]} at t={t:g}, eps={system.epsilon:g}: {exc}"
            ) from exc
        yield ks, block


def _propagators(
    system: RelaxationSystem, cutoff: int, t: float, chains: list[SquaringChain] | None = None
) -> np.ndarray:
    """Stack ``(2N+1, n, n)`` of the mode propagators ``exp(t M_k)``, k = -N..N.

    Only modes ``k >= 0`` are exponentiated; mode ``-k`` has the conjugate
    generator and gets the entrywise conjugate, which keeps real fields
    exactly real.  ``chains`` is a list the calls of one system and cutoff
    share; it gets one ``SquaringChain`` per block on first use, which
    carries that block's powers to the next call.
    """
    stack = np.empty((2 * cutoff + 1, system.dimension, system.dimension), dtype=complex)
    for ks, block in _mode_blocks(system, cutoff, t, chains, keep=True):
        # Rows -k before +k: row 0 is then left holding P_0, not its conjugate.
        stack[cutoff - ks] = np.conj(block)
        stack[cutoff + ks] = block
    return stack


def exact_evolve(
    u0: SpectralField,
    system: RelaxationSystem,
    t: float,
    chains: list[SquaringChain] | None = None,
) -> SpectralField:
    """Propagate a field exactly by time ``t >= 0``; an
    ``ExponentialOverflowError`` names the mode, ``t`` and ``eps``.

    ``chains``, left by the exact startups of the same system and cutoff,
    are only read: a block of modes whose chain holds powers at ``t / m``,
    for an integer ``m >= 1``, raises them to the m-th power, and every
    other block is exponentiated from scratch.  Each block is applied as it
    comes, so no stack of all propagators is built.
    """
    if u0.n != system.dimension:
        raise ValueError("field does not match the system dimension")
    if t < 0.0:
        raise ValueError("t must be non-negative")
    coeffs = np.asarray(u0.coeffs)[..., np.newaxis]
    propagated = np.empty(coeffs.shape, dtype=complex)
    for ks, block in _mode_blocks(system, u0.cutoff, t, chains, keep=False):
        # Rows -k before +k, as in _propagators.
        for rows, propagators in ((u0.cutoff - ks, np.conj(block)), (u0.cutoff + ks, block)):
            propagated[rows] = propagators @ coeffs[rows]
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
