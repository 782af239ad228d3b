import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaxbdf
from relaxbdf.spectral import (
    SpectralField,
    field_inner_product,
    project,
    zero_field,
)

TWO_PI = 2.0 * math.pi


def quadrature_coefficient(sampler, k, length, points=10_000):
    """Independent oracle: trapezoid quadrature of the Fourier integral."""
    xs = np.arange(points) * (length / points)
    values = np.array([sampler(x) for x in xs])
    kernel = np.exp(-2j * np.pi * k * xs / length)
    return (values * kernel).mean()


def random_band_limited(rng, n=2, cutoff=12, length=TWO_PI):
    half = rng.standard_normal((cutoff, n)) + 1j * rng.standard_normal((cutoff, n))
    coeffs = np.zeros((2 * cutoff + 1, n), dtype=complex)
    coeffs[cutoff + 1:] = half
    coeffs[:cutoff] = np.conj(half)[::-1]
    coeffs[cutoff] = rng.standard_normal(n)
    return SpectralField(coeffs, length)


class TestProjection:
    def test_constant(self):
        field = project(lambda x: [2.5], 1, 8, TWO_PI)
        np.testing.assert_allclose(field.mode(0), [2.5], atol=1e-14)
        others = np.delete(field.coeffs, field.cutoff, axis=0)
        assert np.abs(others).max() < 1e-14

    def test_sine_plus_offset_on_two_pi(self):
        # sin(2x) + 1.1: mode 0 carries 1.1, modes +/-2 carry -/+ 0.5i.
        field = project(lambda x: [math.sin(2 * x) + 1.1], 1, 8, TWO_PI)
        np.testing.assert_allclose(field.mode(0), [1.1], atol=1e-14)
        np.testing.assert_allclose(field.mode(2), [-0.5j], atol=1e-14)
        np.testing.assert_allclose(field.mode(-2), [0.5j], atol=1e-14)

    def test_unit_interval_against_quadrature_oracle(self):
        sampler = lambda x: math.sin(2 * math.pi * x) + 1.1
        field = project(lambda x: [sampler(x)], 1, 6, 1.0)
        for k in range(-3, 4):
            expected = quadrature_coefficient(sampler, k, 1.0)
            np.testing.assert_allclose(field.mode(k)[0], expected, atol=1e-12)

    def test_band_limited_roundtrip(self):
        rng = np.random.default_rng(1)
        field = random_band_limited(rng, n=3, cutoff=5)
        reprojected = project(lambda x: field.evaluate(x), 3, 5, field.domain_length)
        np.testing.assert_allclose(reprojected.coeffs, field.coeffs, atol=1e-12)

    def test_spectral_decay_on_analytic_function(self):
        # Projection error for exp(sin x) decays faster than any power of 1/N.
        target = lambda x: math.exp(math.sin(x))
        errors = {}
        for cutoff in (8, 16, 32):
            field = project(lambda x: [target(x)], 1, cutoff, TWO_PI)
            xs = np.linspace(0.0, TWO_PI, 257)
            exact = np.array([target(x) for x in xs])
            errors[cutoff] = np.abs(field.evaluate(xs)[:, 0] - exact).max()
        assert errors[32] < 1e-3 * errors[8]
        assert errors[16] < 1e-1 * errors[8]


class TestDifferentiate:
    def test_constant_derivative_is_zero(self):
        field = project(lambda x: [3.0], 1, 4, TWO_PI)
        assert field.differentiate().l2_norm() < 1e-13

    def test_sine_derivative(self):
        field = project(lambda x: [math.sin(3 * x)], 1, 8, TWO_PI)
        derivative = field.differentiate()
        xs = np.linspace(0.0, TWO_PI, 33)
        np.testing.assert_allclose(
            derivative.evaluate(xs)[:, 0], 3.0 * np.cos(3 * xs), atol=1e-12
        )

    def test_inverse_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            cutoff = int(rng.integers(2, 16))
            length = float(rng.uniform(0.5, 8.0))
            field = random_band_limited(rng, n=2, cutoff=cutoff, length=length)
            bound = (2 * math.pi * cutoff / length) * field.l2_norm()
            assert field.differentiate().l2_norm() <= bound * (1 + 1e-12)


class TestNorm:
    def test_zero(self):
        assert zero_field(2, 5, TWO_PI).l2_norm() == 0.0

    def test_constant(self):
        field = project(lambda x: [2.0], 1, 4, TWO_PI)
        assert field.l2_norm() == pytest.approx(math.sqrt(TWO_PI) * 2.0, rel=1e-13)

    def test_sine_norm_matches_quadrature(self):
        # integral of sin^2(2x) over a period is pi.
        field = project(lambda x: [math.sin(2 * x)], 1, 8, TWO_PI)
        assert field.l2_norm() == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_parseval_against_physical_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            field = random_band_limited(rng, n=2, cutoff=10)
            xs = np.arange(4096) * (field.domain_length / 4096)
            values = field.evaluate(xs)
            quadrature = math.sqrt(
                (np.abs(values) ** 2).sum() * field.domain_length / 4096
            )
            assert field.l2_norm() == pytest.approx(quadrature, rel=1e-9)

    def test_component_selection(self):
        coeffs = np.zeros((5, 2), dtype=complex)
        coeffs[2] = [3.0, 4.0]
        field = SpectralField(coeffs, 1.0)
        assert field.l2_norm([0]) == pytest.approx(3.0)
        assert field.l2_norm([1]) == pytest.approx(4.0)
        assert field.l2_norm() == pytest.approx(5.0)


class TestEvaluate:
    def test_mean_mode_only(self):
        field = project(lambda x: [1.5], 1, 3, TWO_PI)
        assert field.evaluate(1.234)[0] == pytest.approx(1.5, abs=1e-13)

    def test_matches_sampler_on_band_limited(self):
        sampler = lambda x: [math.sin(x) + 0.25 * math.cos(4 * x), 1.0]
        field = project(sampler, 2, 6, TWO_PI)
        for x in np.linspace(0.0, TWO_PI, 17):
            np.testing.assert_allclose(field.evaluate(x), sampler(x), atol=1e-12)

    def test_real_field_returns_real(self):
        rng = np.random.default_rng(4)
        field = random_band_limited(rng)
        values = field.evaluate(np.linspace(0.0, 1.0, 7))
        assert values.dtype.kind == "f"


class TestFieldAlgebra:
    def test_linearity(self):
        rng = np.random.default_rng(31)
        u = random_band_limited(rng)
        v = random_band_limited(rng)
        combined = 2.0 * u + v - 0.5 * v
        np.testing.assert_allclose(
            combined.coeffs, 2.0 * u.coeffs + 0.5 * v.coeffs, atol=1e-14
        )

    def test_conjugate_symmetry_enforced(self):
        bad = np.zeros((3, 1), dtype=complex)
        bad[2] = 1.0 + 1.0j  # positive mode without its mirror
        with pytest.raises(ValueError):
            SpectralField(bad, 1.0, real_valued=True)
        SpectralField(bad, 1.0, real_valued=False)  # fine as a complex field

    def test_conjugate_symmetry_enforced_under_optimize_flag(self):
        # ``python -O`` sets ``__debug__`` to False; a real field stays checked.
        script = (
            "import numpy as np\n"
            "from relaxbdf.spectral import SpectralField\n"
            "print('debug', __debug__)\n"
            "try:\n"
            "    SpectralField(np.array([[0.0], [0.0], [1.0 + 1.0j]]), 1.0, real_valued=True)\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n"
        )
        package_root = str(Path(relaxbdf.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
        assert result.stdout.splitlines() == [
            "debug False",
            "ValueError: conjugate-symmetry residual 1.414e+00 too large for a real-valued field",
        ]

    @pytest.mark.parametrize("length", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("build", [
        lambda length: SpectralField(np.zeros((3, 1)), length),
        lambda length: zero_field(1, 1, length),
        lambda length: project(lambda x: [math.sin(x)], 1, 1, length),
    ], ids=["SpectralField", "zero_field", "project"])
    def test_period_must_be_finite_and_positive(self, build, length):
        # On an infinite period a zero field's l2_norm() was nan.
        message = f"domain_length must be finite and positive, got {length!r}"
        with pytest.raises(ValueError, match=message):
            build(length)

    def test_layout_mismatch_rejected(self):
        u = zero_field(1, 3, 1.0)
        v = zero_field(1, 4, 1.0)
        with pytest.raises(ValueError):
            _ = u + v

    def test_inner_product_weighted(self):
        rng = np.random.default_rng(12)
        u = random_band_limited(rng, n=2, cutoff=6)
        weight = np.array([[2.0, 0.5], [0.5, 1.0]])
        xs = np.arange(8192) * (u.domain_length / 8192)
        values = u.evaluate(xs)
        oracle = (
            np.einsum("xi,ij,xj->", values, weight, values) * u.domain_length / 8192
        )
        assert field_inner_product(u, u, weight) == pytest.approx(oracle, rel=1e-9)
