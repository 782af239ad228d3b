import math

import numpy as np
import pytest

from relaxbdf.harness import compute_error
from relaxbdf.linalg import SingularMatrixError, lu_factor
from relaxbdf.integrator import (
    NonIntegerStepCountError,
    UnsupportedOrderError,
    ars_startup,
    ars_tableau,
    bdf_coefficients,
    imex_bdf_step,
    make_solver_state,
    run,
)
from relaxbdf.models import build_model, initial_data
from relaxbdf.oracle import exact_evolve
from relaxbdf.spectral import SpectralField, zero_field
from relaxbdf.system import RelaxationSystem
from relaxbdf.theory import fit_order

TWO_PI = 2.0 * math.pi


def scalar_decay_system(epsilon=1.0, rate=-1.0):
    """n=1 system with no convection: a pure relaxation mode."""
    return RelaxationSystem(
        convection=np.array([[0.0]]),
        source=np.array([[rate]]),
        stiff_size=1,
        epsilon=epsilon,
        domain_length=TWO_PI,
    )


def constant_field(value=1.0, cutoff=2, n=1, length=TWO_PI):
    coeffs = np.zeros((2 * cutoff + 1, n), dtype=complex)
    coeffs[cutoff] = value
    return SpectralField(coeffs, length)


def substep_loop_startup(u0, system, q, dt, substep_divisor, real=np.float64):
    """Reference ARS startup: every stage of every substep on the whole field.

    ``real`` sets the working precision; the inputs are the float64 ones.
    """
    tableau = ars_tableau(q)
    substep = real(dt / substep_divisor)
    source = np.asarray(system.source).astype(real)
    conv_t = np.asarray(system.convection).astype(real).T
    source_t = source.T / real(system.epsilon)
    ikappa = (1j * u0.wavenumbers.astype(real))[:, np.newaxis]
    stage_lu = lu_factor(
        np.eye(system.dimension, dtype=real)
        - substep * real(tableau.implicit[1, 1]) / real(system.epsilon) * source
    )

    def f_explicit(u):
        return -ikappa * (u @ conv_t)

    def f_implicit(u):
        return u @ source_t

    fields = [np.array(u0.coeffs).astype(ikappa.dtype)]
    u = fields[0]
    for _ in range(q - 1):
        for _ in range(substep_divisor):
            fe = [f_explicit(u)]
            fi = [np.zeros_like(u)]
            for i in range(1, tableau.stages):
                rhs = u.copy()
                for j in range(i):
                    if tableau.explicit[i, j] != 0.0:
                        rhs += (substep * tableau.explicit[i, j]) * fe[j]
                    if tableau.implicit[i, j] != 0.0:
                        rhs += (substep * tableau.implicit[i, j]) * fi[j]
                stage = stage_lu.solve(rhs.T).T
                fe.append(f_explicit(stage))
                fi.append(f_implicit(stage))
            update = u.copy()
            for j in range(tableau.stages):
                if tableau.weights_explicit[j] != 0.0:
                    update += (substep * tableau.weights_explicit[j]) * fe[j]
                if tableau.weights_implicit[j] != 0.0:
                    update += (substep * tableau.weights_implicit[j]) * fi[j]
            u = update
        fields.append(u)
    return fields


class TestCoefficients:
    def test_second_order_values(self):
        coeffs = bdf_coefficients(2)
        np.testing.assert_allclose(coeffs.alpha, [1 / 3, -4 / 3, 1.0])
        np.testing.assert_allclose(coeffs.gamma, [-2 / 3, 4 / 3])
        assert coeffs.beta == pytest.approx(2 / 3)

    def test_third_order_values(self):
        coeffs = bdf_coefficients(3)
        np.testing.assert_allclose(coeffs.alpha, [-2 / 11, 9 / 11, -18 / 11, 1.0])
        np.testing.assert_allclose(coeffs.gamma, [6 / 11, -18 / 11, 18 / 11])
        assert coeffs.beta == pytest.approx(6 / 11)

    def test_fourth_order_values(self):
        coeffs = bdf_coefficients(4)
        np.testing.assert_allclose(
            coeffs.alpha, [3 / 25, -16 / 25, 36 / 25, -48 / 25, 1.0]
        )
        np.testing.assert_allclose(coeffs.gamma, [-12 / 25, 48 / 25, -72 / 25, 48 / 25])
        assert coeffs.beta == pytest.approx(12 / 25)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_order_conditions(self, q):
        # Differentiation weights: sum_i i^p alpha_i = p * beta * q^(p-1) for
        # p = 0..q; extrapolation weights: sum_i i^p gamma_i = beta * q^p for
        # p = 0..q-1.
        coeffs = bdf_coefficients(q)
        nodes = np.arange(q + 1.0)
        for p in range(q + 1):
            lhs = float(np.sum(nodes ** p * coeffs.alpha)) if p else float(coeffs.alpha.sum())
            rhs = 0.0 if p == 0 else p * coeffs.beta * float(q) ** (p - 1)
            assert lhs == pytest.approx(rhs, abs=1e-12)
        for p in range(q):
            lhs = float(np.sum(nodes[:q] ** p * coeffs.gamma))
            assert lhs == pytest.approx(coeffs.beta * float(q) ** p, abs=1e-12)

    @pytest.mark.parametrize("q", [0, 5, -1])
    def test_unsupported_orders(self, q):
        with pytest.raises(UnsupportedOrderError):
            bdf_coefficients(q)


class TestStep:
    def test_backward_euler_scalar_decay(self):
        system = scalar_decay_system()
        u0 = constant_field(1.0)
        coeffs = bdf_coefficients(1)
        state = make_solver_state([u0], system, coeffs, dt=0.1)
        stepped = imex_bdf_step(state, system, coeffs)
        assert stepped.mode(0)[0].real == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_conserved_components_bitwise_constant(self):
        model = build_model("broadwell")
        system = model.system_at(1e-4)
        u0 = initial_data(model, 2, 8, 1e-4)
        coeffs = bdf_coefficients(2)
        state = make_solver_state([u0, u0], system, coeffs, dt=1e-3)
        conserved_before = u0.mode(0)[:2].copy()
        for _ in range(1000):
            stepped = imex_bdf_step(state, system, coeffs)
        assert np.array_equal(stepped.mode(0)[:2], conserved_before)

    def test_implicit_solve_with_nonsymmetric_source(self):
        # Backward-Euler step checked against a direct per-mode solve; the
        # stiff block is not symmetric, so a transposed inverse would show.
        system = RelaxationSystem(
            convection=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]]),
            source=np.array([[0.0, 0.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.5, -3.0]]),
            stiff_size=2,
            epsilon=0.1,
            domain_length=TWO_PI,
        )
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        u0 = SpectralField(coeffs, TWO_PI, real_valued=False)
        dt = 0.05
        state = make_solver_state([u0], system, bdf_coefficients(1), dt=dt)
        stepped = imex_bdf_step(state, system, bdf_coefficients(1))
        matrix = np.eye(3) - (dt / system.epsilon) * system.source
        for k in range(-4, 5):
            kappa = 2.0 * math.pi * k / TWO_PI
            rhs = u0.mode(k) - dt * 1j * kappa * (system.convection @ u0.mode(k))
            np.testing.assert_allclose(stepped.mode(k), np.linalg.solve(matrix, rhs), rtol=1e-14)

    def test_singular_implicit_matrix_rejected(self):
        # alpha_q - (beta dt/eps) * 1 vanishes for a growing mode at dt == eps.
        system = scalar_decay_system(epsilon=0.25, rate=1.0)
        with pytest.raises(SingularMatrixError):
            make_solver_state([constant_field(1.0)], system, bdf_coefficients(1), dt=0.25)

    def test_one_step_error_second_order_for_q1(self):
        model = build_model("arz")
        system = model.system_at(1.0)
        u0 = initial_data(model, 2, 8, 1.0)
        coeffs = bdf_coefficients(1)
        errors = []
        dts = [1e-3, 5e-4, 2.5e-4]
        for dt in dts:
            state = make_solver_state([u0], system, coeffs, dt=dt)
            stepped = imex_bdf_step(state, system, coeffs)
            errors.append(compute_error(stepped, exact_evolve(u0, system, dt)))
        assert fit_order(dts, errors) == pytest.approx(2.0, abs=0.1)


class TestArsStartup:
    def test_first_order_returns_initial(self):
        u0 = constant_field(2.0)
        fields = ars_startup(u0, scalar_decay_system(), 1, 0.1)
        assert fields == [u0]

    def test_scalar_decay_accuracy(self):
        system = scalar_decay_system(epsilon=1.0)
        u0 = constant_field(1.0)
        dt = 0.2
        exact = math.exp(-dt)
        errors = []
        divisors = [25, 50, 100]
        for divisor in divisors:
            fields = ars_startup(u0, system, 2, dt, substep_divisor=divisor)
            errors.append(abs(fields[1].mode(0)[0].real - exact))
        substeps = [dt / d for d in divisors]
        assert fit_order(substeps, errors) == pytest.approx(2.0, abs=0.1)
        assert errors[-1] < (dt / 100) ** 2

    def test_third_order_tableau_convergence(self):
        system = scalar_decay_system(epsilon=0.5)
        u0 = constant_field(1.0)
        dt = 0.15
        errors = []
        divisors = [8, 16, 32]
        for divisor in divisors:
            fields = ars_startup(u0, system, 4, dt, substep_divisor=divisor)
            exact = math.exp(-3 * dt / 0.5)
            errors.append(abs(fields[3].mode(0)[0].real - exact) + 1e-18)
        assert fit_order([dt / d for d in divisors], errors) == pytest.approx(3.0, abs=0.25)

    def test_startup_matches_exact_oracle(self):
        model = build_model("arz")
        system = model.system_at(1.0)
        u0 = initial_data(model, 4, 8, 1.0)
        fields = ars_startup(u0, system, 4, 1e-3, substep_divisor=500)
        for i, field in enumerate(fields):
            reference = exact_evolve(u0, system, i * 1e-3)
            assert compute_error(field, reference) < 1e-10

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-8])
    def test_propagator_matches_substep_loop(self, name, q, epsilon):
        model = build_model(name)
        system = model.system_at(epsilon)
        u0 = initial_data(model, q, 8, epsilon)
        fields = ars_startup(u0, system, q, 1e-2, substep_divisor=7)
        reference = substep_loop_startup(u0, system, q, 1e-2, 7)
        assert len(fields) == len(reference) == q
        for field, expected in zip(fields, reference):
            scale = np.abs(expected).max()
            assert np.abs(field.coeffs - expected).max() <= 1e-13 * scale

    @pytest.mark.parametrize("name", ["arz", "broadwell"])
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-8])
    @pytest.mark.parametrize("divisor", [1, 2, 3, 8, 13])
    def test_powering_matches_substep_loop_for_every_divisor(self, name, q, epsilon, divisor):
        # 1, 2 and 8 are single bits; 3 and 13 compose partial powers.
        model = build_model(name)
        system = model.system_at(epsilon)
        u0 = initial_data(model, q, 8, epsilon)
        fields = ars_startup(u0, system, q, 1e-2, substep_divisor=divisor)
        reference = substep_loop_startup(u0, system, q, 1e-2, divisor)
        for field, expected in zip(fields, reference):
            scale = np.abs(expected).max()
            assert np.abs(field.coeffs - expected).max() <= 1e-13 * scale

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="needs an extended-precision long double",
    )
    @pytest.mark.parametrize("q", [3, 4])
    def test_no_roundoff_growth_over_substeps(self, q):
        # 1000-1500 substeps: the float64 stage loop drifts from an
        # extended-precision sweep by up to ~1e-14 relative; the compensated
        # propagator must stay within one float64 ulp of the field scale.
        model = build_model("arz")
        system = model.system_at(1.0)
        u0 = initial_data(model, q, 8, 1.0)
        fields = ars_startup(u0, system, q, 1 / 700, substep_divisor=500)
        reference = substep_loop_startup(u0, system, q, 1 / 700, 500, real=np.longdouble)
        for field, expected in zip(fields, reference):
            deviation = np.abs(field.coeffs - expected).max() / np.abs(expected).max()
            assert deviation <= np.finfo(float).eps

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-4, 1e-8])
    def test_conserved_components_bitwise_constant(self, name, q, epsilon):
        model = build_model(name)
        system = model.system_at(epsilon)
        u0 = initial_data(model, q, 8, epsilon)
        bulk = system.bulk_size
        conserved = u0.mode(0)[:bulk].copy()
        for field in ars_startup(u0, system, q, 1e-2, substep_divisor=50):
            assert np.array_equal(field.mode(0)[:bulk], conserved)
        final = run(u0, system, q, 1e-2, 0.5, startup="ars:50")
        assert np.array_equal(final.mode(0)[:bulk], conserved)

    def test_tableau_row_sums_consistent(self):
        for tableau in (ars_tableau(2), ars_tableau(4)):
            explicit_sums = tableau.explicit.sum(axis=1)
            implicit_sums = tableau.implicit.sum(axis=1)
            np.testing.assert_allclose(explicit_sums, implicit_sums, atol=1e-14)


class TestRun:
    def test_zero_field_stays_zero(self):
        model = build_model("grad")
        system = model.system_at(1e-3)
        u0 = zero_field(system.dimension, 8, system.domain_length)
        final = run(u0, system, 2, 1e-2, 0.5)
        assert final.l2_norm() == 0.0

    def test_linearity(self):
        model = build_model("arz")
        system = model.system_at(1e-2)
        u = initial_data(model, 2, 8, 1e-2)
        v = initial_data(model, 3, 8, 1e-2)
        combined = run(2.0 * u + 0.5 * v, system, 2, 1e-2, 0.5)
        separate = 2.0 * run(u, system, 2, 1e-2, 0.5) + 0.5 * run(v, system, 2, 1e-2, 0.5)
        assert compute_error(combined, separate) < 1e-12 * max(combined.l2_norm(), 1.0)

    def test_deterministic(self):
        model = build_model("broadwell")
        system = model.system_at(1e-5)
        u0 = initial_data(model, 3, 16, 1e-5)
        first = run(u0, system, 3, 1e-2, 1.0, startup="ars:50")
        second = run(u0, system, 3, 1e-2, 1.0, startup="ars:50")
        assert np.array_equal(first.coeffs, second.coeffs)

    def test_non_integer_step_count_rejected(self):
        model = build_model("arz")
        system = model.system_at(1.0)
        u0 = initial_data(model, 2, 4, 1.0)
        with pytest.raises(NonIntegerStepCountError):
            run(u0, system, 2, 0.3, 1.0)

    def test_too_few_steps_for_history_rejected(self):
        model = build_model("grad")
        system = model.system_at(1.0)
        u0 = initial_data(model, 4, 4, 1.0)
        with pytest.raises(NonIntegerStepCountError, match="2 steps cannot accommodate an order-4"):
            run(u0, system, 4, 0.5, 1.0)

    def test_unknown_startup_rejected(self):
        model = build_model("arz")
        system = model.system_at(1.0)
        u0 = initial_data(model, 2, 4, 1.0)
        with pytest.raises(ValueError):
            run(u0, system, 2, 0.25, 1.0, startup="cold")

    @pytest.mark.parametrize("spec", ["ars:0", "rk"])
    def test_bad_startup_spec_rejected(self, spec):
        model = build_model("arz")
        system = model.system_at(1.0)
        u0 = initial_data(model, 2, 4, 1.0)
        with pytest.raises(ValueError):
            run(u0, system, 2, 0.25, 1.0, startup=spec)

    def test_ars_spec_divisor_matches_manual_stepping(self):
        model = build_model("broadwell")
        system = model.system_at(1e-3)
        q, dt = 4, 1 / 40
        u0 = initial_data(model, q, 8, 1e-3)
        final = run(u0, system, q, dt, 0.5, startup="ars:7")
        coeffs = bdf_coefficients(q)
        state = make_solver_state(
            ars_startup(u0, system, q, dt, substep_divisor=7), system, coeffs, dt
        )
        for _ in range(20 - (q - 1)):
            expected = imex_bdf_step(state, system, coeffs)
        assert np.array_equal(final.coeffs, expected.coeffs)

    def test_bare_ars_spec_means_500_substeps(self):
        model = build_model("arz")
        system = model.system_at(1e-2)
        u0 = initial_data(model, 3, 8, 1e-2)
        bare = run(u0, system, 3, 0.25, 1.0, startup="ars")
        explicit = run(u0, system, 3, 0.25, 1.0, startup="ars:500")
        assert np.array_equal(bare.coeffs, explicit.coeffs)

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-4, 1e-8, 1e-12])
    def test_exact_startup_keeps_conserved_components_bitwise(self, name, q, epsilon):
        model = build_model(name)
        system = model.system_at(epsilon)
        u0 = initial_data(model, q, 8, epsilon)
        bulk = system.bulk_size
        conserved = u0.mode(0)[:bulk].copy()
        for t in (1e-3, 2e-2, 0.7):
            assert np.array_equal(exact_evolve(u0, system, t).mode(0)[:bulk], conserved)
        final = run(u0, system, q, 1e-2, 0.5, startup="exact")
        assert np.array_equal(final.mode(0)[:bulk], conserved)

    def test_exact_startup_exponentiates_once_per_block(self, monkeypatch):
        # 130 non-negative modes make blocks of 64, 64 and 2; the q-1 startup
        # values reuse the propagators of one step, and q=1 needs none.
        from relaxbdf import oracle

        calls = []
        original = oracle.matrix_exponential

        def counting(matrix, t=1.0):
            calls.append((len(matrix), t))
            return original(matrix, t)

        monkeypatch.setattr(oracle, "matrix_exponential", counting)
        model = build_model("broadwell")
        system = model.system_at(1e-3)
        u0 = initial_data(model, 4, 129, 1e-3)
        run(u0, system, 4, 1 / 40, 0.5, startup="exact")
        assert calls == [(64, 1 / 40), (64, 1 / 40), (2, 1 / 40)]
        run(u0, system, 1, 1 / 40, 0.5, startup="exact")  # no startup values
        assert len(calls) == 3

    def test_nonzero_start_time(self):
        system = scalar_decay_system()
        u0 = constant_field(1.0)
        final = run(u0, system, 1, 0.125, 2.0, t_start=1.0)
        steps = int(round(1.0 / 0.125))
        assert final.mode(0)[0].real == pytest.approx((1 / 1.125) ** steps, rel=1e-14)

    @pytest.mark.parametrize("epsilon", [1e-7, 1.0])
    def test_order_two_against_exact_oracle(self, epsilon):
        model = build_model("arz")
        system = model.system_at(epsilon)
        u0 = initial_data(model, 2, 16, epsilon)
        reference = exact_evolve(u0, system, 0.5)
        dts = [1 / 100, 1 / 200, 1 / 400]
        errors = [
            compute_error(run(u0, system, 2, dt, 0.5), reference) for dt in dts
        ]
        assert fit_order(dts, errors) == pytest.approx(2.0, abs=0.15)


class TestUniformStability:
    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_stability_bound(self, name, q):
        # Final-time norm controlled by the initial data uniformly in epsilon,
        # with the sqrt(dt/eps)-weighted stiff part allowed for.
        model = build_model(name)
        cutoff = 32
        dt = 0.5 / cutoff ** 2
        for epsilon in (1e-8, 1e-4, 1.0):
            system = model.system_at(epsilon)
            u0 = initial_data(model, max(q, 2), cutoff, epsilon)
            final = run(u0, system, q, dt, 1.0)
            stiff_components = list(range(system.bulk_size, system.dimension))
            allowance = 10.0 * (
                u0.l2_norm()
                + math.sqrt(dt / epsilon) * u0.l2_norm(stiff_components)
            )
            assert final.l2_norm() <= allowance
