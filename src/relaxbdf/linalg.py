"""Dense linear algebra kernels for small matrices.

Everything downstream (implicit solves, stability certificates, per-mode
propagators) works with constant matrices of size n <= ~16, so this module
implements two kernels directly: a partial-pivoting LU and a
scaling-and-squaring matrix exponential.  The LU has two callers, each a
solve ``numpy.linalg`` cannot do: the exponential's Pade solve, which runs
in long double on deep squaring chains (a dtype ``numpy.linalg`` rejects),
and the integrator's stiff-block inverse, whose singularity check reads
the pivots.  Every other inverse uses ``numpy.linalg``.  The definiteness
checks of the stability certificate (``is_spd``,
``is_negative_semidefinite``) take ``numpy.linalg.eigvalsh`` of the
symmetric part and report a :class:`ConditionCheck`.  All routines are
deterministic and operate on plain ``numpy`` arrays.

The LU and the exponential also take a stack of matrices ``(K, n, n)``, a
single matrix being a stack of one, and treat every slice exactly as they
would treat it alone: the per-mode oracle exponentiates a block of modes in
one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularMatrixError",
    "ExponentialOverflowError",
    "ConditionCheck",
    "LUFactorization",
    "validate_matrix",
    "lu_factor",
    "matrix_exponential",
    "is_spd",
    "is_negative_semidefinite",
]

# Pivots at most this times the largest input entry, and singular values at
# most this times the largest one (``system``), are treated as singular.
PIVOT_RTOL = 1e-14

# Squaring depth above which the exponential is reported rather than computed.
MAX_SQUARINGS = 64


class SingularMatrixError(ArithmeticError):
    """A pivot fell below the singularity threshold during factorization."""


class ExponentialOverflowError(OverflowError):
    """The matrix exponential left the representable floating-point range.

    ``index`` is the position of the failing matrix in a stacked input.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def validate_matrix(entries, *, stack: bool = True, name: str = "matrix") -> np.ndarray:
    """Coerce ``entries`` to a square float/complex matrix ``(n, n)`` or, when
    ``stack`` is set, a stack of them ``(K, n, n)``, and reject non-finite
    data."""
    arr = np.array(entries, copy=True)
    if arr.dtype.kind in "iub":
        arr = arr.astype(float)
    if arr.dtype.kind not in "fc":
        raise TypeError(f"{name} must be numeric, got dtype {arr.dtype}")
    if arr.ndim not in ((2, 3) if stack else (2,)) or min(arr.shape) < 1:
        kind = "a 2-D matrix or a stack of them" if stack else "a 2-D matrix"
        raise ValueError(f"{name} must be {kind}, got shape {arr.shape}")
    if arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class LUFactorization:
    """Packed LU factors of a row-permuted square matrix, or of each matrix of
    a stack.

    ``packed`` holds the unit-lower factor strictly below the diagonal and the
    upper factor on and above it; ``row_order`` is the permutation ``p`` such
    that ``A[p] = L @ U``.  A stack ``(K, n, n)`` keeps its leading axis in
    both.
    """

    packed: np.ndarray
    row_order: np.ndarray

    def solve(self, rhs) -> np.ndarray:
        """Solve ``A X = rhs`` for a matrix of right-hand sides ``(n, m)``.

        A stacked factorization takes a stack of them, ``(K, n, m)``, and
        solves each slice with its own factors.
        """
        stacked = self.packed.ndim == 3
        lu = self.packed if stacked else self.packed[np.newaxis]
        order = self.row_order if stacked else self.row_order[np.newaxis]
        b = np.asarray(rhs)
        if not stacked:
            b = b[np.newaxis]
        if b.ndim != 3 or b.shape[:2] != order.shape:
            raise ValueError(
                f"rhs of shape {np.shape(rhs)} does not match factors of shape {self.packed.shape}"
            )
        dtype = np.result_type(lu.dtype, b.dtype)
        x = np.take_along_axis(b, order[..., np.newaxis], axis=1).astype(dtype)
        n = lu.shape[-1]
        for i in range(1, n):
            x[:, i] -= (lu[:, i, np.newaxis, :i] @ x[:, :i])[:, 0]
        for i in range(n - 1, -1, -1):
            if i < n - 1:
                x[:, i] -= (lu[:, i, np.newaxis, i + 1:] @ x[:, i + 1:])[:, 0]
            x[:, i] /= lu[:, i, i, np.newaxis]
        return x if stacked else x[0]


def lu_factor(matrix) -> LUFactorization:
    """Partial-pivoting LU factorization of a matrix or of each matrix of a
    stack; raises ``SingularMatrixError``.

    Each slice pivots on its own columns and is singular below its own
    threshold, ``PIVOT_RTOL`` times its largest entry.
    """
    a = validate_matrix(matrix, name="lu_factor input")
    stacked = a.ndim == 3
    if not stacked:
        a = a[np.newaxis]
    count, n = a.shape[0], a.shape[-1]
    slices = np.arange(count)
    thresholds = PIVOT_RTOL * np.maximum(np.abs(a).max(axis=(1, 2)), np.finfo(float).tiny)
    order = np.tile(np.arange(n), (count, 1))
    for col in range(n):
        pivot_rows = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        pivots = np.abs(a[slices, pivot_rows, col])
        singular = np.flatnonzero(pivots <= thresholds)
        if singular.size:
            j = singular[0]
            where = f" in slice {j}" if stacked else ""
            raise SingularMatrixError(
                f"pivot {pivots[j]:.3e} in column {col} below threshold {thresholds[j]:.3e}{where}"
            )
        for rows in (a, order):
            pivot_row = rows[slices, pivot_rows].copy()
            rows[slices, pivot_rows] = rows[:, col]
            rows[:, col] = pivot_row
        a[:, col + 1:, col] /= a[:, col, col, np.newaxis]
        a[:, col + 1:, col + 1:] -= a[:, col + 1:, col, np.newaxis] * a[:, col, np.newaxis, col + 1:]
    if not stacked:
        return LUFactorization(packed=a[0], row_order=order[0])
    return LUFactorization(packed=a, row_order=order)


# Pade(13,13) numerator coefficients for the exponential kernel.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


def _pade13(a: np.ndarray) -> np.ndarray:
    b = _PADE13
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return lu_factor(v - u).solve(v + u)


# Above this squaring depth the chain runs in extended precision (when the
# platform provides one): every squaring can lose a bit, and stiff mode
# generators routinely need 20+ squarings.
_EXTENDED_PRECISION_DEPTH = 10

_LONGDOUBLE_HELPS = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def _working_dtype(squarings: int, dtype: np.dtype) -> np.dtype:
    """Precision of a squaring chain of the given depth on ``dtype`` data."""
    if squarings > _EXTENDED_PRECISION_DEPTH and _LONGDOUBLE_HELPS:
        return np.dtype(np.clongdouble if dtype.kind == "c" else np.longdouble)
    return dtype


def matrix_exponential(matrix, t: float = 1.0) -> np.ndarray:
    """Compute ``exp(t * matrix)`` by scaling and squaring.

    The scaled matrix is brought to 1-norm <= 1 with ``ceil(log2(|t M|_1))``
    squarings and exponentiated with a degree-13 Pade kernel, so a single code
    path stays accurate from the non-stiff regime up to ``|t M|`` of order
    1/epsilon.  Deep chains switch to extended precision to keep the roundoff
    floor below the accuracy of the solutions compared against this oracle.
    Squaring depth is capped at ``MAX_SQUARINGS`` and an overflow of ``t M``,
    of the squarings or of the cast back raises ``ExponentialOverflowError``.

    ``matrix`` may be a stack ``(K, n, n)``; a single matrix is a stack of
    one.  Each slice gets its own depth and precision, and the slices that
    share a depth run through the Pade kernel and the squarings together, so
    every slice sees exactly the arithmetic it would see alone.  The rows of
    ``exp(t M)`` where ``M`` has a zero row are exact identity rows.  An
    error names the failing slice in its ``index``.
    """
    a = validate_matrix(matrix, name="matrix_exponential input")
    stacked = a.ndim == 3
    if not stacked:
        a = a[np.newaxis]
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    result = np.empty_like(a, dtype=np.result_type(a.dtype, np.float64))
    # An overflow is reported below, by slice, as a non-finite norm or power.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = t * a
        norms = np.abs(scaled).sum(axis=1).max(axis=1)
        depths = np.full(len(scaled), -1)  # -1 for a zero slice
        for index, norm1 in enumerate(norms.tolist()):
            if norm1 == 0.0:
                continue
            if not math.isfinite(norm1):
                raise ExponentialOverflowError(f"|t*matrix|_1 overflows at t = {t:.3e}", index)
            squarings = max(0, math.ceil(math.log2(norm1)))
            if squarings > MAX_SQUARINGS:
                raise ExponentialOverflowError(
                    f"|t*matrix|_1 = {norm1:.3e} needs {squarings} squarings (cap {MAX_SQUARINGS})",
                    index,
                )
            depths[index] = squarings
        for squarings in dict.fromkeys(depths[depths >= 0].tolist()):
            members = np.flatnonzero(depths == squarings)
            group = scaled[members].astype(_working_dtype(squarings, scaled.dtype), copy=False)
            power = _pade13(group / 2.0 ** squarings)
            for _ in range(squarings):
                power = power @ power
            power = power.astype(result.dtype, copy=False)
            overflowed = np.flatnonzero(~np.isfinite(power).all(axis=(1, 2)))
            if overflowed.size:
                raise ExponentialOverflowError(
                    f"matrix exponential overflowed during {squarings} squarings",
                    members[overflowed[0]],
                )
            result[members] = power
    # A zero row of M is an identity row of exp(tM), and a zero slice is all
    # zero rows.  Set them exactly: complex division (b/b as b*(1/b)) in the
    # Pade solve can round a 1 down.
    slices, rows = np.nonzero(~scaled.any(axis=2))
    result[slices, rows] = np.eye(scaled.shape[-1])[rows]
    return result if stacked else result[0]


@dataclass(frozen=True)
class ConditionCheck:
    """Verdict of one check; ``value`` is the figure that decided it (an
    eigenvalue, a residual or an asymmetry) and ``detail`` names it."""

    passed: bool
    value: float
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def _check_positive(name: str, value: float) -> None:
    """Reject a ``value`` that is not finite and positive, naming it."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def symmetry_residual(matrix) -> float:
    a = np.asarray(matrix)
    return float(np.abs(a - a.T).max())


def _eigenvalue_check(matrix, tol: float, *, largest: bool, bound: float, name: str) -> ConditionCheck:
    """Judge one end of the spectrum of a real symmetric matrix.

    A matrix that is not symmetric within ``tol`` fails with its asymmetry as
    the value; an imaginary part counts as asymmetry.  Otherwise the value is
    the largest eigenvalue of the symmetric part, passing when ``<= bound``,
    or the smallest, passing when ``> bound``.
    """
    _check_positive("tol", tol)
    a = validate_matrix(matrix, stack=False, name=f"{name} input")
    asymmetry = max(symmetry_residual(a), float(np.abs(a.imag).max()))
    if asymmetry > tol:
        return ConditionCheck(False, asymmetry, f"asymmetry exceeds tol {tol:.1e}")
    eigenvalues = np.linalg.eigvalsh(0.5 * (a + a.T).real)
    if largest:
        value = float(eigenvalues[-1])
        return ConditionCheck(value <= bound, value, "largest eigenvalue")
    value = float(eigenvalues[0])
    return ConditionCheck(value > bound, value, "smallest eigenvalue")


def is_spd(matrix, tol: float = 1e-10) -> ConditionCheck:
    """Symmetric within ``tol`` with smallest eigenvalue above ``tol``."""
    return _eigenvalue_check(matrix, tol, largest=False, bound=tol, name="is_spd")


def is_negative_semidefinite(matrix, tol: float = 1e-10) -> ConditionCheck:
    """Symmetric within ``tol`` with largest eigenvalue at most ``tol``."""
    return _eigenvalue_check(matrix, tol, largest=True, bound=tol, name="is_negative_semidefinite")
