import math
from dataclasses import replace

import numpy as np
import pytest

from relaxbdf.integrator import UnsupportedOrderError
from relaxbdf.models import (
    InvalidParameterError,
    build_model,
    initial_data,
    make_arz,
    make_broadwell,
    make_grad,
)
from relaxbdf.oracle import exact_evolve
from relaxbdf.system import check_structural_stability


def quadratic_eigenvalues(matrix):
    """Closed-form eigenvalues of a 2x2 matrix."""
    trace = matrix[0, 0] + matrix[1, 1]
    det = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
    disc = math.sqrt(trace * trace - 4.0 * det)
    return sorted(((trace - disc) / 2.0, (trace + disc) / 2.0))


class TestTrafficModel:
    def test_raw_matrices(self):
        model = make_arz()
        np.testing.assert_allclose(model.raw_convection, [[1.0, 1.0], [0.0, -0.5]])
        np.testing.assert_allclose(model.raw_source, [[0.0, 0.0], [-0.5, -1.0]])
        np.testing.assert_allclose(model.transform, [[1.0, 0.0], [0.5, 1.0]])

    def test_transformed_source_is_diagonal(self):
        model = make_arz()
        np.testing.assert_allclose(model.system.source, np.diag([0.0, -1.0]), atol=1e-14)

    def test_characteristic_speeds_preserved(self):
        # Similarity keeps the eigenvalues {1, -1/2} of the convection matrix.
        model = make_arz()
        speeds = quadratic_eigenvalues(np.asarray(model.system.convection))
        np.testing.assert_allclose(speeds, [-0.5, 1.0], atol=1e-12)

    def test_witnesses_pass(self):
        model = make_arz()
        assert check_structural_stability(model.system, model.witness, 1e-10).passed
        raw_report = check_structural_stability(
            (model.raw_convection, model.raw_source), model.raw_witness, 1e-10
        )
        assert raw_report.passed

    def test_domain_is_unit_interval(self):
        assert make_arz().domain_length == 1.0

    def test_custom_parameters_get_searched_witness(self):
        model = make_arz(v_f=2.0, rho_m=4.0)
        assert model.raw_witness is None
        assert check_structural_stability(model.system, model.witness, 1e-8).passed


class TestBroadwellModel:
    def test_raw_matrices(self):
        model = make_broadwell()
        np.testing.assert_array_equal(
            model.raw_convection, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        )
        np.testing.assert_array_equal(
            model.raw_source, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, -2.0]]
        )

    def test_conserved_rows_are_zero(self):
        model = make_broadwell()
        np.testing.assert_array_equal(model.raw_source[:2], np.zeros((2, 3)))
        assert model.system.bulk_size == 2

    def test_stiff_block_eigenvalue(self):
        # Characteristic polynomial of the raw source: eigenvalues {0, 0, -2}.
        model = make_broadwell()
        np.testing.assert_allclose(model.system.stiff_block, [[-2.0]], atol=1e-12)

    def test_witness_passes(self):
        model = make_broadwell()
        assert check_structural_stability(model.system, model.witness, 1e-8).passed

    def test_domain(self):
        assert make_broadwell().domain_length == pytest.approx(2 * math.pi)


class TestMomentModel:
    def test_minimal_moment_count(self):
        model = make_grad(3)
        off = np.diag(np.asarray(model.system.convection), 1)
        np.testing.assert_allclose(off, [1.0, math.sqrt(2.0), math.sqrt(3.0)])
        np.testing.assert_array_equal(
            model.system.source, -np.diag([0.0, 0.0, 0.0, 1.0])
        )
        assert model.system.stiff_size == 1

    def test_convection_exactly_symmetric(self):
        conv = np.asarray(make_grad(5).system.convection)
        assert np.abs(conv - conv.T).max() == 0.0

    def test_default_is_six_dimensional(self):
        model = make_grad(5)
        assert model.system.dimension == 6
        assert model.system.stiff_size == 3

    def test_witness_passes(self):
        model = make_grad(5)
        assert check_structural_stability(model.system, model.witness, 1e-10).passed

    def test_too_few_moments_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_grad(2)


class TestRegistry:
    def test_build_by_name(self):
        assert build_model("arz").name == "arz"
        assert build_model("grad", moments=4).system.dimension == 5

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            build_model("navier-stokes")

    def test_unknown_parameter_names_the_parameters(self):
        with pytest.raises(InvalidParameterError, match=r"no parameters \['foo'\].*'c0'"):
            build_model("arz", foo=1.0)
        with pytest.raises(InvalidParameterError, match=r"its parameters are \[\]"):
            build_model("broadwell", moments=4)

    @pytest.mark.parametrize(
        "name, overrides, message",
        [
            ("arz", {"c0": "abc"}, r"'c0' must be a finite number, got 'abc'"),
            ("arz", {"v_f": float("nan")}, r"'v_f' must be a finite number, got nan"),
            ("arz", {"gamma": True}, r"'gamma' must be a finite number, got True"),
            ("grad", {"moments": 4.5}, r"'moments' must be a finite integer, got 4.5"),
        ],
    )
    def test_non_numeric_override_names_parameter_and_value(self, name, overrides, message):
        with pytest.raises(InvalidParameterError, match=message):
            build_model(name, **overrides)

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    def test_epsilon_is_not_a_build_parameter(self, name):
        # Models are built at eps = 1; system_at sets eps.
        with pytest.raises(InvalidParameterError, match=r"no parameters \['epsilon'\]"):
            build_model(name, epsilon=1e-3)
        model = build_model(name)
        assert model.system.epsilon == 1.0
        assert model.system_at(1e-3).epsilon == 1e-3
        assert model.domain_length == model.system.domain_length

    def test_numeric_overrides_of_any_numeric_type_accepted(self):
        assert build_model("grad", moments=np.int64(4)).system.dimension == 5
        assert build_model("arz", c0=2).parameters["c0"] == 2


class TestInitialData:
    def test_arz_equilibrium_data_has_zero_stiff_part(self):
        model = make_arz()
        field = initial_data(model, 2, 16, 1e-6)
        assert field.l2_norm([1]) == 0.0

    def test_arz_first_correction_is_half_eps_gradient(self):
        model = make_arz()
        eps = 1e-3
        field = initial_data(model, 3, 16, eps)
        # Transformed stiff variable equals -eps/2 * d/dx(density).
        density_gradient = field.coeffs[:, 0] * (1j * field.wavenumbers)
        np.testing.assert_allclose(
            field.coeffs[:, 1], -0.5 * eps * density_gradient, atol=1e-18
        )

    def test_arz_second_correction_adds_second_derivative(self):
        model = make_arz()
        eps = 1e-2
        third = initial_data(model, 3, 16, eps)
        fourth = initial_data(model, 4, 16, eps)
        extra = fourth.coeffs[:, 1] - third.coeffs[:, 1]
        second_derivative = third.coeffs[:, 0] * (1j * third.wavenumbers) ** 2
        np.testing.assert_allclose(extra, -0.25 * eps ** 2 * second_derivative, atol=1e-18)

    def test_arz_physical_profile(self):
        model = make_arz()
        field = initial_data(model, 2, 8, 1.0)
        xs = np.linspace(0.0, 1.0, 13)
        density = np.sin(2 * np.pi * xs) + 1.1
        values = field.evaluate(xs)
        np.testing.assert_allclose(values[:, 0], density, atol=1e-12)
        # Second transformed component: rho/2 + v = 0 for equilibrium data.
        np.testing.assert_allclose(values[:, 1], 0.0, atol=1e-12)

    def test_broadwell_flux_corrections(self):
        model = make_broadwell()
        eps = 5e-3
        second = initial_data(model, 2, 16, eps)
        third = initial_data(model, 3, 16, eps)
        fourth = initial_data(model, 4, 16, eps)
        assert second.l2_norm([2]) == 0.0
        momentum_gradient = third.coeffs[:, 1] * (1j * third.wavenumbers)
        np.testing.assert_allclose(
            third.coeffs[:, 2], -0.25 * eps * momentum_gradient, atol=1e-17
        )
        extra = fourth.coeffs[:, 2] - third.coeffs[:, 2]
        density_curvature = third.coeffs[:, 0] * (1j * third.wavenumbers) ** 2
        np.testing.assert_allclose(extra, -eps ** 2 / 16.0 * density_curvature, atol=1e-17)

    def test_broadwell_physical_profile(self):
        model = make_broadwell()
        field = initial_data(model, 2, 8, 1.0)
        xs = np.linspace(-math.pi, math.pi, 17)
        rho = 1.0 + 0.3 * np.sin(2 * xs)
        momentum = rho * (0.5 + 0.1 * np.cos(2 * xs))
        values = field.evaluate(xs)
        np.testing.assert_allclose(values[:, 0], rho, atol=1e-12)
        np.testing.assert_allclose(values[:, 1], momentum, atol=1e-12)

    def test_grad_scaled_state(self):
        model = make_grad(5)
        field = initial_data(model, 4, 12, 1e-5)
        mean_state = field.mode(0).real
        np.testing.assert_allclose(mean_state, [1.1, 0.0, 1.0, 0.0, 0.0, 0.0], atol=1e-14)
        assert field.l2_norm([3, 4, 5]) == 0.0
        wave = field.mode(2)
        assert wave[0] == pytest.approx(-0.5j, abs=1e-12)

    def test_grad_data_order_independent(self):
        model = make_grad(5)
        one = initial_data(model, 1, 12, 1e-4)
        four = initial_data(model, 4, 12, 1e-4)
        np.testing.assert_array_equal(one.coeffs, four.coeffs)

    def test_band_limits_are_exact(self):
        for name, cutoff in (("arz", 1), ("broadwell", 4), ("grad", 2)):
            model = build_model(name)
            field = initial_data(model, 3, 64, 1e-4)
            beyond = [k for k in field.mode_numbers if abs(k) > cutoff]
            for k in beyond:
                assert np.all(field.mode(int(k)) == 0.0)

    def test_unsupported_orders(self):
        model = make_arz()
        for q in (1, 5):
            with pytest.raises(UnsupportedOrderError):
                initial_data(model, q, 8, 1.0)
        with pytest.raises(UnsupportedOrderError):
            initial_data(make_broadwell(), 1, 8, 1.0)

    def test_profile_comes_from_the_spec_not_the_name(self):
        model = build_model("grad")
        renamed = replace(model, name="custom")
        np.testing.assert_array_equal(
            initial_data(renamed, 2, 8, 1.0).coeffs, initial_data(model, 2, 8, 1.0).coeffs
        )

    def test_cutoff_too_small_rejected(self):
        with pytest.raises(ValueError):
            initial_data(make_broadwell(), 3, 2, 1.0)

    @pytest.mark.parametrize("epsilon", [0.0, float("inf"), float("nan")])
    def test_nonpositive_or_nonfinite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match=f"epsilon must be finite and positive, got {epsilon!r}"):
            initial_data(make_broadwell(), 3, 8, epsilon)

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    def test_relaxed_stiff_part_scales_with_epsilon(self, name):
        # After the initial transient the stiff components sit at O(eps).
        model = build_model(name)
        ratios = []
        for eps in (1e-2, 1e-4):
            system = model.system_at(eps)
            u0 = initial_data(model, 3, 16, eps)
            final = exact_evolve(u0, system, 1.0)
            stiff = list(range(system.bulk_size, system.dimension))
            ratios.append(final.l2_norm(stiff) / eps)
        assert max(ratios) <= 5.0 * min(ratios)
