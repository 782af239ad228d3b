from dataclasses import replace

import numpy as np
import pytest

from relaxbdf.integrator import (
    UnsupportedOrderError,
    bdf_coefficients,
    imex_bdf_step,
    make_solver_state,
)
from relaxbdf.models import build_model, initial_data
from relaxbdf.oracle import exact_evolve
from relaxbdf.spectral import SpectralField, zero_field
from relaxbdf.theory import (
    discrete_energy,
    fit_order,
    multiplier_data,
    truncation_residual,
    verify_multiplier_identity,
)


class TestMultiplierData:
    def test_first_order_constants(self):
        data = multiplier_data(1)
        np.testing.assert_array_equal(data.energy_form, [[0.5]])
        assert data.damping == pytest.approx(0.5)
        assert data.extrapolation_weight == pytest.approx(1.0)
        np.testing.assert_array_equal(data.residual_form, [1.0])

    def test_second_order_constants(self):
        data = multiplier_data(2)
        np.testing.assert_allclose(
            data.energy_form, [[1 / 6, -1 / 3], [-1 / 3, 5 / 6]]
        )
        assert data.damping == pytest.approx(1 / 6)
        assert data.extrapolation_weight == pytest.approx(1.5)
        np.testing.assert_array_equal(data.history_form, [[0.0]])
        np.testing.assert_array_equal(data.residual_form, [0.0, 1.0])

    @pytest.mark.parametrize("q", [3, 4])
    def test_higher_orders_not_transcribed(self, q):
        with pytest.raises(UnsupportedOrderError):
            multiplier_data(q)


    def test_forms_are_checked(self):
        data = multiplier_data(2)
        with pytest.raises(ValueError, match="energy form must be positive definite"):
            replace(data, energy_form=-data.energy_form)
        with pytest.raises(ValueError, match="history form must be positive semidefinite"):
            replace(data, history_form=np.array([[-1e-3]]))


class TestIdentities:
    def test_second_order_worked_example(self):
        # Tuple (1, 2, 3): the first identity evaluates to 2 on both sides.
        data = multiplier_data(2)
        coeffs = bdf_coefficients(2)
        u = np.array([1.0, 2.0, 3.0])
        lhs = u[2] * float(coeffs.alpha @ u)
        g = data.energy_form
        g_new = g[0, 0] * u[1] ** 2 + 2 * g[0, 1] * u[1] * u[2] + g[1, 1] * u[2] ** 2
        g_old = g[0, 0] * u[0] ** 2 + 2 * g[0, 1] * u[0] * u[1] + g[1, 1] * u[1] ** 2
        square = (u[2] - data.extrapolation_weight * float(coeffs.gamma @ u[:2])) ** 2
        rhs = g_new - g_old + data.damping * square
        assert lhs == pytest.approx(2.0, abs=1e-14)
        assert rhs == pytest.approx(2.0, abs=1e-14)

    def test_first_order_second_identity_is_trivial(self):
        # u1 * u1 = 0 - 0 + L2(u1)^2 with L2(u1) = u1.
        data = multiplier_data(1)
        assert data.history_form.size == 0
        np.testing.assert_array_equal(data.residual_form, [1.0])

    @pytest.mark.parametrize("q", [1, 2])
    def test_residuals_below_tolerance(self, q):
        rng = np.random.default_rng(1234)
        residual = verify_multiplier_identity(
            multiplier_data(q), bdf_coefficients(q), samples=1000, rng=rng
        )
        assert residual <= 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_weighted_identities(self, q):
        # Explicit diagonal weight, checked without the batching helper.
        data = multiplier_data(q)
        coeffs = bdf_coefficients(q)
        weight = np.diag([2.0, 5.0])
        rng = np.random.default_rng(7)
        tuples = rng.uniform(-1.0, 1.0, size=(200, q + 1, 2))

        def pair(u, v):
            return np.einsum("sd,de,se->s", u, weight, v)

        multiplier = tuples[:, q] - np.einsum(
            "i,sid->sd", data.correction, tuples[:, 1:q]
        )
        alpha_sum = np.einsum("i,sid->sd", coeffs.alpha, tuples)
        gamma_sum = np.einsum("i,sid->sd", coeffs.gamma, tuples[:, :q])

        def grid_value(grid, offset):
            total = np.zeros(tuples.shape[0])
            for i in range(grid.shape[0]):
                for j in range(grid.shape[1]):
                    total += grid[i, j] * pair(
                        tuples[:, offset + i], tuples[:, offset + j]
                    )
            return total

        lhs = pair(multiplier, alpha_sum)
        rhs = (
            grid_value(data.energy_form, 1)
            - grid_value(data.energy_form, 0)
            + data.damping
            * pair(
                multiplier - data.extrapolation_weight * gamma_sum,
                multiplier - data.extrapolation_weight * gamma_sum,
            )
        )
        assert np.abs(lhs - rhs).max() <= 1e-12

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            verify_multiplier_identity(multiplier_data(1), bdf_coefficients(1), samples=samples)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            verify_multiplier_identity(multiplier_data(1), bdf_coefficients(2))


class TestDiscreteEnergy:
    def test_zero_history(self):
        model = build_model("arz")
        fields = [zero_field(2, 4, 1.0)]
        assert discrete_energy(fields, model.system, model.witness, 0.1) == 0.0

    def test_first_order_constant_field(self):
        # E = (1/2) * L * c^T A0 c for a constant state.
        model = build_model("grad")
        system = model.system_at(1.0)
        state = np.array([1.0, 0.5, -0.25, 0.0, 0.0, 0.0])
        coeffs = np.zeros((9, 6), dtype=complex)
        coeffs[4] = state
        field = SpectralField(coeffs, system.domain_length)
        energy = discrete_energy([field], system, model.witness, 0.1)
        expected = 0.5 * system.domain_length * float(state @ state)  # A0 = I
        assert energy == pytest.approx(expected, rel=1e-12)

    def test_second_order_bracketing(self):
        # C^-1 sum |U|^2 <= E <= C sum |U|^2 with C from the extreme
        # eigenvalues of the coefficient grid and the symmetrizer.
        model = build_model("arz")
        system = model.system_at(1e-2)
        witness = model.witness
        rng = np.random.default_rng(3)
        data = multiplier_data(2)
        g_eigs = np.linalg.eigvalsh(np.asarray(data.energy_form))
        a0_eigs = np.linalg.eigvalsh(np.asarray(witness.symmetrizer))
        lower = g_eigs[0] * a0_eigs[0]
        upper = g_eigs[-1] * a0_eigs[-1]
        for _ in range(10):
            def random_field():
                half = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
                coeffs = np.zeros((9, 2), dtype=complex)
                coeffs[5:] = half
                coeffs[:4] = np.conj(half)[::-1]
                coeffs[4] = rng.standard_normal(2)
                return SpectralField(coeffs, system.domain_length)

            history = [random_field(), random_field()]
            total = sum(f.l2_norm() ** 2 for f in history)
            energy = discrete_energy(history, system, witness, 1e-3)
            assert lower * total * (1 - 1e-9) <= energy <= upper * total * (1 + 1e-9)

    def test_surrogate_for_higher_orders(self):
        model = build_model("grad")
        system = model.system_at(1.0)
        u0 = initial_data(model, 2, 6, 1.0)
        history = [u0, u0, u0]
        surrogate = discrete_energy(history, system, model.witness, 0.1)
        assert surrogate == pytest.approx(3.0 * u0.l2_norm() ** 2, rel=1e-12)

    @pytest.mark.parametrize("epsilon", [1e-8, 1e-4, 1.0])
    def test_first_order_energy_growth_bounded(self, epsilon):
        # E^{n+1} <= (1 + C dt) E^n along a first-order run, with one C
        # serving every epsilon.
        model = build_model("arz")
        system = model.system_at(epsilon)
        cutoff = 16
        dt = 0.5 / cutoff ** 2
        u0 = initial_data(model, 2, cutoff, epsilon)
        coeffs = bdf_coefficients(1)
        state = make_solver_state([u0], system, coeffs, dt)
        energy = discrete_energy([u0], system, model.witness, dt)
        growth = 0.0
        for _ in range(256):
            stepped = imex_bdf_step(state, system, coeffs)
            next_energy = discrete_energy([stepped], system, model.witness, dt)
            if energy > 0.0:
                growth = max(growth, (next_energy / energy - 1.0) / dt)
            energy = next_energy
        assert growth <= 10.0


class TestTruncationResidual:
    def test_equilibrium_constant_field_has_zero_residual(self):
        model = build_model("arz")
        system = model.system_at(1e-3)
        coeffs = np.zeros((9, 2), dtype=complex)
        coeffs[4, 0] = 1.1  # constant density, zero stiff part: Q U = 0, U_x = 0
        field = SpectralField(coeffs, system.domain_length)
        residual = truncation_residual(
            system, lambda t: field, bdf_coefficients(2), 1e-2
        )
        assert residual == 0.0

    def test_second_order_slope(self):
        model = build_model("arz")
        system = model.system_at(1.0)
        u0 = initial_data(model, 2, 8, 1.0)
        coeffs = bdf_coefficients(2)
        dts = [1e-2, 5e-3, 2.5e-3]
        residuals = [
            truncation_residual(
                system, lambda t: exact_evolve(u0, system, t), coeffs, dt
            )
            for dt in dts
        ]
        assert fit_order(dts, residuals) == pytest.approx(3.0, abs=0.2)

    def test_fourth_order_coefficients_validated_by_slope(self):
        model = build_model("arz")
        system = model.system_at(1.0)
        u0 = initial_data(model, 4, 8, 1.0)
        coeffs = bdf_coefficients(4)
        dts = [2e-2, 1e-2, 5e-3]
        residuals = [
            truncation_residual(
                system, lambda t: exact_evolve(u0, system, t), coeffs, dt
            )
            for dt in dts
        ]
        assert fit_order(dts, residuals) == pytest.approx(5.0, abs=0.2)

    @pytest.mark.parametrize("q", [2, 3])
    def test_stiff_slope_after_transient(self, q):
        # Well-prepared data, sampled past the initial layer: the residual
        # keeps its non-stiff order up to a wider tolerance.
        model = build_model("arz")
        system = model.system_at(1e-6)
        u0 = initial_data(model, q, 8, 1e-6)
        coeffs = bdf_coefficients(q)
        dts = [1e-2, 5e-3, 2.5e-3]
        residuals = [
            truncation_residual(
                system, lambda t: exact_evolve(u0, system, 0.25 + t), coeffs, dt
            )
            for dt in dts
        ]
        assert fit_order(dts, residuals) == pytest.approx(q + 1.0, abs=0.3)


class TestFitOrder:
    def test_exact_power_law(self):
        dts = [0.1, 0.05, 0.025]
        errors = [7.0 * dt ** 3 for dt in dts]
        assert fit_order(dts, errors) == pytest.approx(3.0, rel=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_order([0.1], [1.0])
        with pytest.raises(ValueError):
            fit_order([0.1, 0.05], [1.0, 0.0])
