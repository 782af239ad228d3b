"""Fourier-Galerkin representation of periodic vector fields.

A field with ``n`` components on a period-``L`` domain is stored as the dense
block of Fourier coefficients ``u_hat[k] in C^n`` for ``|k| <= N`` (row ``j``
holds mode ``k = j - N``).  With the mode counts used here (N <= a few
hundred, n <= ~16) direct DFT summation is cheap, so no transform library is
involved.  The underlying basis is ``exp(i * 2*pi*k*x / L)`` and the L2 norm
follows Parseval for that basis: ``|u|^2 = L * sum_k |u_hat[k]|^2``.
The module has no dump format of its own: a field's coefficients are the
read-only array ``coeffs`` and its point values come from ``evaluate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import _check_positive

__all__ = [
    "SpectralField",
    "project",
    "zero_field",
    "field_inner_product",
]

_SYMMETRY_RTOL = 1e-12
_PERIOD_RTOL = 1e-14  # relative tolerance of two periods that are the same


def _check_conjugate_symmetry(coeffs: np.ndarray) -> None:
    mirror = np.conj(coeffs[::-1])
    if (coeffs == mirror).all():  # an exact mirror, as a stepped real field is
        return
    scale = float(np.abs(coeffs).max()) if coeffs.size else 0.0
    residual = float(np.abs(coeffs - mirror).max())
    if residual > _SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError(
            f"conjugate-symmetry residual {residual:.3e} too large for a real-valued field"
        )


@dataclass(frozen=True)
class SpectralField:
    """Immutable truncated Fourier series of an ``n``-component periodic field.

    Attributes
    ----------
    coeffs : complex array of shape (2N+1, n)
        Mode ``k`` lives in row ``k + N``.
    domain_length : float
        Spatial period ``L``.
    real_valued : bool
        Marks fields with conjugate symmetry ``u_hat[-k] = conj(u_hat[k])``;
        the symmetry is asserted on construction.
    """

    coeffs: np.ndarray
    domain_length: float
    real_valued: bool = True

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
        if arr.ndim != 2 or arr.shape[0] % 2 != 1:
            raise ValueError(f"coeffs must have shape (2N+1, n), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients contain non-finite entries")
        _check_positive("domain_length", self.domain_length)
        if self.real_valued:
            _check_conjugate_symmetry(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- basic geometry ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    @property
    def cutoff(self) -> int:
        """Largest retained mode index N."""
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def mode_numbers(self) -> np.ndarray:
        cutoff = self.cutoff
        return np.arange(-cutoff, cutoff + 1)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers ``2*pi*k/L`` for each stored mode."""
        return 2.0 * np.pi * self.mode_numbers / self.domain_length

    def mode(self, k: int) -> np.ndarray:
        return self.coeffs[k + self.cutoff]

    def same_layout(self, other: "SpectralField") -> bool:
        return self.coeffs.shape == other.coeffs.shape and math.isclose(
            self.domain_length, other.domain_length, rel_tol=_PERIOD_RTOL)

    # -- calculus ----------------------------------------------------------

    def differentiate(self) -> "SpectralField":
        """Spatial derivative: multiply mode ``k`` by ``i * 2*pi*k/L``."""
        deriv = self.coeffs * (1j * self.wavenumbers)[:, np.newaxis]
        return SpectralField(deriv, self.domain_length, self.real_valued)

    def l2_norm(self, components: Sequence[int] | slice | None = None) -> float:
        """Parseval L2 norm, optionally restricted to selected components."""
        block = self.coeffs if components is None else self.coeffs[:, components]
        return float(np.sqrt(self.domain_length * np.sum(np.abs(block) ** 2)))

    def evaluate(self, x) -> np.ndarray:
        """Synthesize the field at point(s) ``x``; real output for real fields."""
        points = np.atleast_1d(np.asarray(x, dtype=float))
        phases = np.exp(1j * np.outer(points, self.wavenumbers))
        values = phases @ self.coeffs
        if self.real_valued:
            values = values.real
        return values[0] if np.isscalar(x) or np.ndim(x) == 0 else values

    # -- linear-space arithmetic -------------------------------------------

    def _binary(self, other: "SpectralField", op) -> "SpectralField":
        if not isinstance(other, SpectralField) or not self.same_layout(other):
            raise ValueError("fields must share (n, N, L) for arithmetic")
        return SpectralField(
            op(self.coeffs, other.coeffs),
            self.domain_length,
            self.real_valued and other.real_valued,
        )

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        stays_real = self.real_valued and scalar.imag == 0.0
        return SpectralField(self.coeffs * scalar, self.domain_length, stays_real)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def zero_field(n: int, cutoff: int, domain_length: float) -> SpectralField:
    return SpectralField(np.zeros((2 * cutoff + 1, n), dtype=complex), domain_length)


def project(
    sampler: Callable[[float], Sequence[float]],
    n: int,
    cutoff: int,
    domain_length: float,
) -> SpectralField:
    """Project a periodic sampler onto modes ``|k| <= cutoff``.

    Uses the trapezoidal DFT on ``2*(2N+1)`` uniform samples, which recovers
    the coefficients of band-limited inputs exactly (to roundoff).  The field
    is flagged real when all samples are real.
    """
    _check_positive("domain_length", domain_length)  # before sampling at x = L j / m
    m = 2 * (2 * cutoff + 1)
    points = np.arange(m) * (domain_length / m)
    samples = np.empty((m, n), dtype=complex)
    for j, x in enumerate(points):
        value = np.atleast_1d(np.asarray(sampler(float(x))))
        if value.shape != (n,):
            raise ValueError(f"sampler returned shape {value.shape}, expected ({n},)")
        samples[j] = value
    modes = np.arange(-cutoff, cutoff + 1)
    dft = np.exp(-2j * np.pi * np.outer(modes, np.arange(m)) / m)
    coeffs = dft @ samples / m
    real = bool(np.abs(samples.imag).max() == 0.0)
    return SpectralField(coeffs, domain_length, real)


def field_inner_product(u: SpectralField, v: SpectralField, weight) -> float:
    """Integral of ``u^T W v`` over the period, via Parseval.

    ``weight`` is a constant SPD matrix.  For real-valued fields the result is
    the exact (real) weighted L2 inner product.
    """
    if not u.same_layout(v):
        raise ValueError("fields must share (n, N, L)")
    pairing = np.sum(np.conj(u.coeffs) * (v.coeffs @ np.asarray(weight, dtype=float).T))
    return float(u.domain_length * pairing.real)
