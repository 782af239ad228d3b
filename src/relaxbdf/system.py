"""Relaxation-system data model and the structural stability certificate.

A system is the constant-coefficient PDE ``U_t + A U_x = Q U / epsilon`` on a
periodic domain.  Systems handled by the solvers are kept in *normal form*:
the source matrix vanishes outside its bottom-right ``r x r`` block, and that
block (the stiff block) is invertible.  The certificate checks the three
structural stability conditions for a candidate witness ``(P, A0)``:

  (i)   ``P Q P^-1`` is in normal form with an invertible stiff block,
  (ii)  ``A0`` is SPD and ``A0 A`` is symmetric,
  (iii) ``A0 Q + Q^T A0 + P^T diag(0, I_r) P`` is negative semidefinite,

plus the extra requirement that the transformed symmetrizer is block
diagonal with ``A02 * S_hat`` symmetric negative-definite.  Each condition
is reported as a :class:`ConditionCheck`.  The three definiteness questions
(``A0`` SPD, (iii) and ``A02 * S_hat``) check symmetry within ``tol`` and
then take ``numpy.linalg.eigvalsh`` of the symmetric part; their ``value``
is the deciding eigenvalue, or the asymmetry when that check fails.
Invertibility is judged by singular values: a transform or a stiff block is
singular when its smallest singular value is at most ``PIVOT_RTOL`` times
its largest, and (i) needs the stiff block's smallest one above
``tol * max(1, |Q|)``.  Inverses are ``numpy.linalg.inv``.

:func:`find_symmetrizer` builds witnesses with ``P = I`` for normal-form
systems.  It scans directions of the symmetric block-diagonal ``A0`` with
``A0 A`` symmetric (the null space of that linear constraint, from an SVD),
on a fixed coefficient grid and within a fixed budget of directions.  Only (iii) depends on the scale ``c`` of a direction; it reads
``2c A02 S_hat + I <= 0`` and so fixes ``c = -1/(2 lam)`` in closed form,
where ``lam < 0`` is the largest eigenvalue of ``A02 S_hat``.  The verifier
above judges every witness the search returns.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, NamedTuple

import numpy as np

from .linalg import (
    PIVOT_RTOL,
    ConditionCheck,
    _check_positive,
    _eigenvalue_check,
    is_negative_semidefinite,
    is_spd,
    symmetry_residual,
    validate_matrix,
)

__all__ = [
    "DimensionMismatchError",
    "SingularTransformError",
    "NotNormalFormError",
    "SymmetrizerNotFoundError",
    "RelaxationSystem",
    "StabilityWitness",
    "ConditionCheck",
    "CertificateReport",
    "check_structural_stability",
    "transform_to_normal_form",
    "find_symmetrizer",
    "system_to_json",
    "system_from_json",
]

_NORMAL_FORM_TOL = 1e-12
_SEARCH_TOL = 1e-10  # rank cut and certificate tolerance of the symmetrizer search


class DimensionMismatchError(ValueError):
    """Matrix/witness shapes are inconsistent."""


class SingularTransformError(ValueError):
    """The supplied transform matrix is singular."""


class NotNormalFormError(ValueError):
    """The transform does not block-diagonalize the source matrix."""


class SymmetrizerNotFoundError(RuntimeError):
    """The symmetrizer search exhausted its budget without a valid witness."""


def _off_block_residual(source: np.ndarray, r: int) -> float:
    n = source.shape[0]
    bulk = n - r
    masked = source.copy()
    masked[bulk:, bulk:] = 0.0
    return float(np.abs(masked).max()) if masked.size else 0.0


def _require_invertible(matrix: np.ndarray, error: type[ValueError], name: str) -> None:
    """Raise ``error`` when the smallest singular value of ``matrix`` is at
    most ``PIVOT_RTOL`` times its largest."""
    singular = np.linalg.svd(matrix, compute_uv=False)
    threshold = PIVOT_RTOL * singular[0]
    if not singular[-1] > threshold:
        raise error(
            f"{name} is singular: smallest singular value {singular[-1]:.3e}"
            f" at most threshold {threshold:.3e}"
        )


def _snap_normal_form(source: np.ndarray, r: int) -> np.ndarray:
    """``source`` with its off-block entries set to exact zeros.

    Raises ``NotNormalFormError`` when an off-block entry exceeds
    ``_NORMAL_FORM_TOL`` of the matrix scale or the stiff block is singular.
    Exact structural zeros keep the conserved components exact.
    """
    scale = max(float(np.abs(source).max()), 1.0)
    residual = _off_block_residual(source, r)
    if residual > _NORMAL_FORM_TOL * scale:
        raise NotNormalFormError(
            f"source has off-block residual {residual:.3e}; not in normal form"
        )
    bulk = source.shape[0] - r
    cleaned = np.zeros_like(source)
    cleaned[bulk:, bulk:] = source[bulk:, bulk:]
    _require_invertible(cleaned[bulk:, bulk:], NotNormalFormError, "stiff block")
    return cleaned


@dataclass(frozen=True)
class RelaxationSystem:
    """Normal-form system ``U_t + A U_x = diag(0, S_hat) U / epsilon``."""

    convection: np.ndarray
    source: np.ndarray
    stiff_size: int
    epsilon: float
    domain_length: float

    def __post_init__(self):
        conv = validate_matrix(self.convection, name="convection")
        src = validate_matrix(self.source, name="source")
        if conv.shape != src.shape or conv.ndim != 2:
            raise DimensionMismatchError(
                f"convection {conv.shape} and source {src.shape} must be one matrix shape"
            )
        n = conv.shape[0]
        if not 0 < self.stiff_size <= n:
            raise ValueError(f"stiff_size must be in (0, {n}], got {self.stiff_size}")
        _check_positive("epsilon", self.epsilon)
        _check_positive("domain_length", self.domain_length)
        cleaned = _snap_normal_form(src, self.stiff_size)
        conv.setflags(write=False)
        cleaned.setflags(write=False)
        object.__setattr__(self, "convection", conv)
        object.__setattr__(self, "source", cleaned)

    @property
    def dimension(self) -> int:
        return self.convection.shape[0]

    @property
    def bulk_size(self) -> int:
        """Number of non-stiff (conserved-at-k=0) components."""
        return self.dimension - self.stiff_size

    @property
    def stiff_block(self) -> np.ndarray:
        b = self.bulk_size
        return self.source[b:, b:]

    def with_epsilon(self, epsilon: float) -> "RelaxationSystem":
        return replace(self, epsilon=epsilon)


@dataclass(frozen=True)
class StabilityWitness:
    """Candidate certificate ``(P, A0)`` for the structural stability condition."""

    transform: np.ndarray
    symmetrizer: np.ndarray
    stiff_size: int

    def __post_init__(self):
        p = validate_matrix(self.transform, name="transform")
        a0 = validate_matrix(self.symmetrizer, name="symmetrizer")
        if p.shape != a0.shape or p.ndim != 2:
            raise DimensionMismatchError(f"transform {p.shape} vs symmetrizer {a0.shape}")
        if not 0 < self.stiff_size <= p.shape[0]:
            raise ValueError(f"stiff_size out of range for dimension {p.shape[0]}")
        _require_invertible(p, SingularTransformError, "transform")
        p.setflags(write=False)
        a0.setflags(write=False)
        object.__setattr__(self, "transform", p)
        object.__setattr__(self, "symmetrizer", a0)

    @property
    def dimension(self) -> int:
        return self.transform.shape[0]

    def normal_form_symmetrizer(self) -> np.ndarray:
        """The symmetrizer seen by the transformed system: ``P^-T A0 P^-1``."""
        p_inv = np.linalg.inv(self.transform)
        return p_inv.T @ self.symmetrizer @ p_inv


# The six conditions of a certificate: (report field, summary label).
_CONDITIONS = (
    ("normal_form", "(i) source normal form / stiff block invertible"),
    ("symmetrizer_spd", "(ii) symmetrizer SPD"),
    ("convection_symmetry", "(ii) A0*A symmetry"),
    ("dissipation", "(iii) dissipation inequality"),
    ("block_structure", "transformed symmetrizer block-diagonal"),
    ("stiff_coupling", "A02*S_hat symmetric negative-definite"),
)


@dataclass(frozen=True)
class CertificateReport:
    """Per-condition outcome of a structural stability check."""

    normal_form: ConditionCheck
    symmetrizer_spd: ConditionCheck
    convection_symmetry: ConditionCheck
    dissipation: ConditionCheck
    block_structure: ConditionCheck
    stiff_coupling: ConditionCheck
    tol: float

    @property
    def passed(self) -> bool:
        return all(getattr(self, name).passed for name, _ in _CONDITIONS)

    def summary(self) -> str:
        lines = [f"structural stability certificate (tol={self.tol:.1e})"]
        for name, label in _CONDITIONS:
            check = getattr(self, name)
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{status}] {label}: {check.value:.3e} ({check.detail})")
        lines.append("  overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _system_matrices(system) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(system, RelaxationSystem):
        return np.asarray(system.convection), np.asarray(system.source)
    conv, src = system
    return (
        validate_matrix(conv, stack=False, name="convection"),
        validate_matrix(src, stack=False, name="source"),
    )


def check_structural_stability(system, witness: StabilityWitness, tol: float = 1e-10) -> CertificateReport:
    """Evaluate conditions (i)-(iii) plus the stiff-coupling assumption.

    ``system`` may be a :class:`RelaxationSystem` or a raw ``(convection,
    source)`` pair; the latter lets a witness with a nontrivial transform be
    certified against the untransformed matrices.
    """
    _check_positive("tol", tol)
    conv, src = _system_matrices(system)
    n = conv.shape[0]
    r = witness.stiff_size
    if witness.dimension != n:
        raise DimensionMismatchError(
            f"witness dimension {witness.dimension} does not match system dimension {n}"
        )
    if isinstance(system, RelaxationSystem) and system.stiff_size != r:
        raise DimensionMismatchError(
            f"witness stiff size {r} does not match system stiff size {system.stiff_size}"
        )
    bulk = n - r
    transform = np.asarray(witness.transform)
    symmetrizer = np.asarray(witness.symmetrizer)

    # (i): P Q P^-1 in normal form with invertible stiff block.  Invertibility
    # is judged against the certificate tolerance, not just machine scale.
    transformed_source = transform @ src @ np.linalg.inv(transform)
    off_residual = _off_block_residual(transformed_source, r)
    stiff_block = transformed_source[bulk:, bulk:]
    smallest = float(np.linalg.svd(stiff_block, compute_uv=False)[-1])
    stiff_ok = smallest > tol * max(1.0, float(np.abs(src).max()))
    stiff_detail = "stiff block invertible" if stiff_ok else f"smallest singular value {smallest:.3e}"
    normal_form = ConditionCheck(
        off_residual <= tol and stiff_ok, off_residual, f"off-block residual; {stiff_detail}"
    )

    # (ii): A0 SPD and A0*A symmetric.
    symmetrizer_spd = is_spd(symmetrizer, tol)
    sym_residual = symmetry_residual(symmetrizer @ conv)
    convection_symmetry = ConditionCheck(sym_residual <= tol, sym_residual, "A0*A asymmetry")

    # (iii): A0 Q + Q^T A0 + P^T diag(0, I_r) P <= 0, the last term from P's stiff rows.
    coupling = symmetrizer @ src + src.T @ symmetrizer + transform[bulk:].T @ transform[bulk:]
    dissipation = is_negative_semidefinite(coupling, max(tol, 1e-12))

    # Transformed symmetrizer must be block diagonal; its stiff block couples
    # with the stiff source block symmetrically and negative-definitely.
    normal_symmetrizer = witness.normal_form_symmetrizer()
    cross = normal_symmetrizer[:bulk, bulk:]
    cross_residual = float(np.abs(cross).max()) if cross.size else 0.0
    block_structure = ConditionCheck(
        cross_residual <= tol, cross_residual, "off-block magnitude of P^-T A0 P^-1"
    )
    stiff_coupling = _eigenvalue_check(
        normal_symmetrizer[bulk:, bulk:] @ stiff_block,
        max(tol, 1e-10),
        largest=True,
        bound=-tol,
        name="A02*S_hat",
    )

    return CertificateReport(
        normal_form=normal_form,
        symmetrizer_spd=symmetrizer_spd,
        convection_symmetry=convection_symmetry,
        dissipation=dissipation,
        block_structure=block_structure,
        stiff_coupling=stiff_coupling,
        tol=tol,
    )


class TransformedSystem(NamedTuple):
    """Named triple ``(convection, source, stiff_size)`` in normal form."""

    convection: np.ndarray
    source: np.ndarray
    stiff_size: int


def _infer_stiff_size(source: np.ndarray, tol: float) -> int:
    """Largest r such that rows/columns outside the trailing r-block vanish."""
    n = source.shape[0]
    scale = max(float(np.abs(source).max()), 1.0)
    bulk = 0
    while bulk < n:
        row_clear = np.abs(source[bulk, :]).max() <= tol * scale
        col_clear = np.abs(source[:, bulk]).max() <= tol * scale
        if not (row_clear and col_clear):
            break
        bulk += 1
    return n - bulk


def transform_to_normal_form(convection, source, transform) -> TransformedSystem:
    """Change variables by ``P``: returns ``(P A P^-1, P Q P^-1, r)``.

    Raises ``SingularTransformError`` if ``P`` is singular and
    ``NotNormalFormError`` if the transformed source is not block diagonal
    with an invertible stiff block (within 1e-12 of the matrix scale).
    """
    conv = validate_matrix(convection, name="convection")
    src = validate_matrix(source, name="source")
    p = validate_matrix(transform, name="transform")
    if conv.shape != src.shape or conv.shape != p.shape or conv.ndim != 2:
        raise DimensionMismatchError("convection, source and transform must share one matrix shape")
    _require_invertible(p, SingularTransformError, "transform")
    p_inv = np.linalg.inv(p)
    new_conv = p @ conv @ p_inv
    new_src = p @ src @ p_inv
    r = _infer_stiff_size(new_src, _NORMAL_FORM_TOL)
    if r == 0:
        raise NotNormalFormError("transformed source vanishes; no stiff block")
    return TransformedSystem(new_conv, _snap_normal_form(new_src, r), r)


# -- symmetrizer search -----------------------------------------------------

_SEARCH_TICKS = np.arange(-2.0, 2.125, 0.25)
_SEARCH_BUDGET = 200_000


def _block_diag_basis(n: int, r: int) -> list[np.ndarray]:
    """Symmetric block-diagonal basis matrices with blocks of sizes (n-r, r)."""
    basis = []
    bulk = n - r
    for block_start, block_stop in ((0, bulk), (bulk, n)):
        for i in range(block_start, block_stop):
            for j in range(i, block_stop):
                mat = np.zeros((n, n))
                mat[i, j] = 1.0
                mat[j, i] = 1.0
                basis.append(mat)
    return basis


def _symmetrizer_solution_space(system: RelaxationSystem) -> list[np.ndarray]:
    """Basis of symmetric block-diagonal A0 with ``A0 A`` symmetric."""
    n = system.dimension
    conv = np.asarray(system.convection)
    basis = _block_diag_basis(n, system.stiff_size)
    rows = []
    for mat in basis:
        asym = mat @ conv - conv.T @ mat
        rows.append(asym[np.triu_indices(n, k=1)])
    constraint = np.array(rows).T  # (n(n-1)/2, d)
    # The trailing rows of vt span the null space; an SVD of the constraint
    # itself keeps its conditioning (its Gram matrix would square it).
    _, singular, vt = np.linalg.svd(constraint)
    rank = int(np.count_nonzero(singular > _SEARCH_TOL * max(np.max(singular, initial=0.0), 1.0)))
    null_vectors = vt[rank:]
    space = []
    for vec in null_vectors:
        candidate = sum(c * mat for c, mat in zip(vec, basis))
        candidate /= max(np.abs(candidate).max(), np.finfo(float).tiny)
        space.append(candidate)
    return space


def _integer_like_rescale(system: RelaxationSystem, witness_matrix: np.ndarray):
    """Try small scalings that turn the symmetrizer into integer entries."""
    peak = np.abs(witness_matrix).max()
    for target in range(1, 17):
        candidate = witness_matrix * (target / peak)
        rounded = np.round(candidate)
        if np.abs(candidate - rounded).max() > 1e-9 * target:
            continue
        witness = StabilityWitness(
            np.eye(system.dimension), rounded, stiff_size=system.stiff_size
        )
        if check_structural_stability(system, witness, _SEARCH_TOL).passed:
            return witness
    return None


def find_symmetrizer(system: RelaxationSystem) -> StabilityWitness:
    """Search for a block-diagonal symmetrizer certifying a normal-form system.

    The symmetric block-diagonal candidates satisfying the linear constraint
    ``A0 A = A^T A0`` form a subspace; its basis is the null space of that
    constraint, from an SVD.  Directions in that subspace are
    scanned on the coefficient grid ``_SEARCH_TICKS`` in ``itertools.product``
    order, at most ``_SEARCH_BUDGET`` of them.

    Only the scale of a direction is left free.  With ``P = I`` every check
    except the dissipation inequality (iii) is invariant under a positive
    scale ``c``, and (iii) reduces to ``2c A02 S + I <= 0``.  So a direction
    whose ``A02 S`` is symmetric within ``_SEARCH_TOL`` with largest eigenvalue
    ``lam < 0`` is taken at ``c = -1/(2 lam)``; other directions are skipped.
    The first scaled direction that :func:`check_structural_stability`
    passes is returned, rescaled to integer entries when a small integer
    scale also passes.

    Raises ``SymmetrizerNotFoundError`` with the number of directions scanned
    when none passes.
    """
    space = _symmetrizer_solution_space(system)
    if not space:
        raise SymmetrizerNotFoundError("constraint A0*A = A^T*A0 admits only A0 = 0")
    if len(space) > 6:
        raise SymmetrizerNotFoundError(
            f"solution space dimension {len(space)} exceeds the search budget"
        )
    bulk = system.bulk_size
    ident = np.eye(system.dimension)
    scanned = 0
    for combo in itertools.product(_SEARCH_TICKS, repeat=len(space)):
        if scanned >= _SEARCH_BUDGET:
            break
        if not any(combo):
            continue
        scanned += 1
        direction = sum(c * mat for c, mat in zip(combo, space))
        coupling = _eigenvalue_check(
            direction[bulk:, bulk:] @ system.stiff_block, _SEARCH_TOL, largest=True, bound=0.0,
            name="A02*S_hat",
        )
        if not (coupling.passed and coupling.value < 0.0):
            continue
        candidate = direction * (-0.5 / coupling.value)
        witness = StabilityWitness(ident, candidate, stiff_size=system.stiff_size)
        if check_structural_stability(system, witness, _SEARCH_TOL).passed:
            return _integer_like_rescale(system, candidate) or witness
    raise SymmetrizerNotFoundError(f"no witness among {scanned} directions")


# -- JSON interchange ---------------------------------------------------------


def _parse_number(value) -> float:
    """Accept plain numbers or exact decimal/fraction strings such as '1/700'.

    A value past the float range is +-inf, as ``float("1e400")`` is.
    """
    number = Fraction(value) if isinstance(value, str) else value
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def _parse_matrix(doc, n: int, name: str) -> np.ndarray:
    flat = np.asarray(doc, dtype=object).ravel()
    if flat.size != n * n:
        raise ValueError(f"{name} must have {n * n} entries, got {flat.size}")
    return np.array([_parse_number(v) for v in flat], dtype=float).reshape(n, n)


def system_to_json(system: RelaxationSystem, witness: StabilityWitness | None = None) -> str:
    doc = {
        "n": system.dimension,
        "r": system.stiff_size,
        "epsilon": system.epsilon,
        "domain_length": system.domain_length,
        "A": [float(v) for v in np.asarray(system.convection).ravel()],
        "Q": [float(v) for v in np.asarray(system.source).ravel()],
    }
    if witness is not None:
        doc["witness"] = {
            "P": [float(v) for v in np.asarray(witness.transform).ravel()],
            "A0": [float(v) for v in np.asarray(witness.symmetrizer).ravel()],
        }
    return json.dumps(doc, indent=2)


def system_from_json(text: str | Mapping) -> tuple[RelaxationSystem, StabilityWitness | None]:
    doc = json.loads(text) if isinstance(text, str) else dict(text)
    n = int(doc["n"])
    system = RelaxationSystem(
        convection=_parse_matrix(doc["A"], n, "A"),
        source=_parse_matrix(doc["Q"], n, "Q"),
        stiff_size=int(doc["r"]),
        epsilon=_parse_number(doc["epsilon"]),
        domain_length=_parse_number(doc["domain_length"]),
    )
    witness = None
    if "witness" in doc and doc["witness"] is not None:
        witness = StabilityWitness(
            transform=_parse_matrix(doc["witness"]["P"], n, "P"),
            symmetrizer=_parse_matrix(doc["witness"]["A0"], n, "A0"),
            stiff_size=system.stiff_size,
        )
    return system, witness
