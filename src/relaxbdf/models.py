"""Built-in relaxation systems: traffic flow, discrete-velocity gas, moments.

Three linearized models ship with the library:

* ``arz`` - the Aw-Rascle-Zhang traffic model linearized about a uniform
  state, a 2x2 system on [0, 1];
* ``broadwell`` - the three-velocity Broadwell gas linearized about its
  Maxwellian, a 3x3 system on [-pi, pi];
* ``grad`` - the linearized Grad moment hierarchy with M+1 scaled moment
  variables on [-pi, pi].

Each model records its raw matrices, the change of variables bringing the
source to normal form, a verified stability witness, and the standard initial
profiles, including the epsilon-dependent corrections that make the data
well prepared for the higher-order schemes.  Models are built at eps = 1;
``ModelSpec.system_at`` sets eps.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .integrator import UnsupportedOrderError
from .linalg import _check_positive
from .spectral import SpectralField, project
from .system import RelaxationSystem, StabilityWitness, find_symmetrizer, transform_to_normal_form

__all__ = [
    "InvalidParameterError",
    "ModelSpec",
    "make_arz",
    "make_broadwell",
    "make_grad",
    "build_model",
    "initial_data",
    "MODEL_BUILDERS",
]


class InvalidParameterError(ValueError):
    """A model parameter is outside its admissible range."""


@dataclass(frozen=True)
class ModelSpec:
    """A concrete model: normal-form system plus provenance of the transform.

    Every model is built at ``epsilon = 1``; ``system_at(epsilon)`` is its
    system at another relaxation time.  ``profile(model, q, cutoff, epsilon)``
    returns the raw-variable initial coefficients, shape (2*cutoff+1, n), well
    prepared for order q; it raises ``UnsupportedOrderError`` for orders it
    does not define.
    """

    name: str
    parameters: Mapping[str, float]
    system: RelaxationSystem
    witness: StabilityWitness
    raw_convection: np.ndarray
    raw_source: np.ndarray
    transform: np.ndarray
    raw_witness: StabilityWitness | None
    data_cutoff: int  # largest mode carried by the initial profiles
    profile: Callable[["ModelSpec", int, int, float], np.ndarray]

    @property
    def domain_length(self) -> float:
        return self.system.domain_length

    def system_at(self, epsilon: float) -> RelaxationSystem:
        return self.system.with_epsilon(epsilon)


def _model(name, parameters, convection, source, transform, domain_length, data_cutoff,
           profile, raw_symmetrizer=None) -> ModelSpec:
    """The model of ``U_t + A U_x = Q U / eps`` in the variables ``P U``, at eps 1.

    Its witness is ``(P, raw_symmetrizer)`` moved to normal form, or else
    the one :func:`find_symmetrizer` finds.
    """
    system = RelaxationSystem(*transform_to_normal_form(convection, source, transform),
                              epsilon=1.0, domain_length=domain_length)
    if raw_symmetrizer is None:
        raw_witness, witness = None, find_symmetrizer(system)
    else:
        raw_witness = StabilityWitness(transform, raw_symmetrizer, system.stiff_size)
        witness = StabilityWitness(
            np.eye(system.dimension), raw_witness.normal_form_symmetrizer(), system.stiff_size
        )
    return ModelSpec(name, parameters, system, witness, convection, source, transform,
                     raw_witness, data_cutoff, profile)


def make_arz(
    c0: float = 1.5,
    gamma: float = 1.0,
    rho_m: float = 8.0,
    v_f: float = 4.0,
    rho_star: float = 1.0,
    v_star: float = 1.0,
) -> ModelSpec:
    """Linearized Aw-Rascle-Zhang traffic model on [0, 1].

    Density/velocity dynamics about the uniform state ``(rho*, v*)`` with
    pressure ``p = c0 rho^gamma`` and Greenshields equilibrium speed
    ``V(rho) = v_f (1 - rho/rho_m)``; the velocity relaxes toward
    ``V'(rho*) rho`` on the timescale epsilon.  The hand-written raw
    symmetrizer certifies the default parameters only.
    """
    pressure_slope = c0 * gamma * rho_star ** (gamma - 1.0)
    relax_slope = -v_f / rho_m
    convection = np.array([
        [v_star, rho_star],
        [0.0, v_star - rho_star * pressure_slope],
    ])
    source = np.array([
        [0.0, 0.0],
        [relax_slope, -1.0],
    ])
    # Left eigenvector of the source at its nonzero eigenvalue gives the
    # second row of the normal-form transform.
    transform = np.array([
        [1.0, 0.0],
        [-relax_slope, 1.0],
    ])
    defaults = (c0, gamma, rho_m, v_f, rho_star, v_star) == (1.5, 1.0, 8.0, 4.0, 1.0, 1.0)
    return _model(
        "arz",
        {"c0": c0, "gamma": gamma, "rho_m": rho_m, "v_f": v_f,
         "rho_star": rho_star, "v_star": v_star},
        convection, source, transform, 1.0, 1, _arz_profile,
        np.array([[3.0, 2.0], [2.0, 4.0]]) if defaults else None,
    )


def make_broadwell() -> ModelSpec:
    """Linearized Broadwell gas in (density, momentum, energy-flux) variables.

    Linearization point is the Maxwellian with ``rho* = 2, m* = 0, z* = 1``.
    The source is not block diagonal in these variables; the normal-form
    transform below brings it there, and the witness comes from the
    symmetrizer search (then verified).
    """
    convection = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ])
    source = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [1.0, 0.0, -2.0],
    ])
    # Rows: the null rows of the source (rho, m), then its row space (z - rho/2).
    transform = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [-0.5, 0.0, 1.0],
    ])
    return _model(
        "broadwell",
        {"rho_star": 2.0, "m_star": 0.0, "z_star": 1.0, "a_rho": 0.3, "a_u": 0.1},
        convection, source, transform, 2.0 * math.pi, 4, _broadwell_profile,
    )


def make_grad(moments: int = 5) -> ModelSpec:
    """Linearized Grad moment system with moments up to order ``moments``.

    The (M+1)-dimensional state stacks density, velocity, scaled temperature
    and the scaled higher moments; convection is the symmetric tridiagonal
    matrix with off-diagonal entries sqrt(1..M), and the source damps every
    moment beyond the conserved first three.  Identity transform and identity
    symmetrizer certify the stability condition.
    """
    if moments < 3:
        raise InvalidParameterError(f"moment count must be >= 3, got {moments}")
    off_diagonal = np.sqrt(np.arange(1.0, moments + 1.0))
    convection = np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    source = -np.diag([0.0, 0.0, 0.0] + [1.0] * (moments - 2))
    identity = np.eye(moments + 1)
    return _model("grad", {"moments": float(moments)}, convection, source, identity,
                  2.0 * math.pi, 2, _grad_profile, identity)


MODEL_BUILDERS = {
    "arz": make_arz,
    "broadwell": make_broadwell,
    "grad": make_grad,
}


def build_model(name: str, **overrides) -> ModelSpec:
    """Construct a model by name, at eps 1, with optional parameter overrides."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError as exc:
        raise InvalidParameterError(
            f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}"
        ) from exc
    signature = inspect.signature(builder).parameters
    unknown = sorted(set(overrides) - set(signature))
    if unknown:
        raise InvalidParameterError(
            f"model {name!r} has no parameters {unknown}; its parameters are {list(signature)}"
        )
    for key, value in overrides.items():
        kind = numbers.Integral if isinstance(signature[key].default, int) else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
            raise InvalidParameterError(
                f"model {name!r} parameter {key!r} must be a finite "
                f"{'integer' if kind is numbers.Integral else 'number'}, got {value!r}"
            )
    return builder(**overrides)


def _arz_profile(model: ModelSpec, q: int, cutoff: int, epsilon: float) -> np.ndarray:
    if q not in (2, 3, 4):
        raise UnsupportedOrderError(f"arz data is defined for orders 2..4, got {q}")
    base = project(lambda x: [math.sin(2.0 * math.pi * x) + 1.1], 1, cutoff, 1.0)
    rho = base.coeffs[:, 0]
    ikappa = 1j * base.wavenumbers
    velocity = -0.5 * rho
    if q >= 3:
        velocity = velocity - 0.5 * epsilon * ikappa * rho
    if q >= 4:
        velocity = velocity - 0.25 * epsilon ** 2 * ikappa ** 2 * rho
    return np.stack([rho, velocity], axis=1)


def _broadwell_profile(model: ModelSpec, q: int, cutoff: int, epsilon: float) -> np.ndarray:
    if q not in (2, 3, 4):
        raise UnsupportedOrderError(f"broadwell data is defined for orders 2..4, got {q}")
    a_rho = model.parameters["a_rho"]
    a_u = model.parameters["a_u"]

    def sampler(x: float):
        rho = 1.0 + a_rho * math.sin(2.0 * x)
        momentum = rho * (0.5 + a_u * math.cos(2.0 * x))
        return [rho, momentum]

    base = project(sampler, 2, cutoff, model.domain_length)
    rho = base.coeffs[:, 0]
    momentum = base.coeffs[:, 1]
    ikappa = 1j * base.wavenumbers
    flux = 0.5 * rho
    if q >= 3:
        flux = flux - 0.25 * epsilon * ikappa * momentum
    if q >= 4:
        flux = flux - epsilon ** 2 / 16.0 * ikappa ** 2 * rho
    return np.stack([rho, momentum, flux], axis=1)


def _grad_profile(model: ModelSpec, q: int, cutoff: int, epsilon: float) -> np.ndarray:
    if q < 1:
        raise UnsupportedOrderError(f"order must be >= 1, got {q}")
    n = model.system.dimension

    def sampler(x: float):
        values = [0.0] * n
        values[0] = math.sin(2.0 * x) + 1.1
        values[1] = 0.0
        values[2] = 1.0  # temperature sqrt(2), scaled by 1/sqrt(2) in the state
        return values

    return np.array(project(sampler, n, cutoff, model.domain_length).coeffs)


def initial_data(model: ModelSpec, q: int, cutoff: int, epsilon: float) -> SpectralField:
    """The model's initial profile as a spectral field in normal-form variables.

    The higher-order corrections are built by spectral differentiation of the
    base profile, then the physical variables are mapped through the model's
    normal-form transform.  All shipped profiles are band-limited: they are
    projected at their own cutoff and zero-padded, so every mode beyond
    ``model.data_cutoff`` is exactly zero (roundoff there would otherwise seed
    modes the large-step table runs cannot damp).
    """
    if cutoff < model.data_cutoff:
        raise ValueError(
            f"cutoff {cutoff} cannot represent data with modes up to {model.data_cutoff}"
        )
    _check_positive("epsilon", epsilon)
    raw = model.profile(model, q, model.data_cutoff, epsilon)
    transformed = raw @ np.asarray(model.transform).T
    padded = np.zeros((2 * cutoff + 1, transformed.shape[1]), dtype=complex)
    pad = cutoff - model.data_cutoff
    padded[pad:pad + transformed.shape[0]] = transformed
    return SpectralField(padded, model.domain_length, real_valued=True)
