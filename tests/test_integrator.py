import math
import re

import numpy as np
import pytest

from relaxbdf.harness import ExperimentConfig, compute_error, grid_error, run_convergence_study
from relaxbdf.linalg import SingularMatrixError, lu_factor
from relaxbdf.integrator import (
    NonFiniteStepError,
    NonIntegerStepCountError,
    UnsupportedOrderError,
    _advance,
    ars_startup,
    ars_tableau,
    bdf_coefficients,
    imex_bdf_step,
    make_solver_state,
    run,
)
from relaxbdf.models import build_model, initial_data
from relaxbdf.oracle import _occupied, exact_evolve
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
                if tableau.explicit[-1, j] != 0.0:
                    update += (substep * tableau.explicit[-1, j]) * fe[j]
                if tableau.implicit[-1, j] != 0.0:
                    update += (substep * tableau.implicit[-1, j]) * fi[j]
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

    def test_states_compare_by_identity(self):
        model = build_model("arz")
        system = model.system_at(1e-2)
        u0 = initial_data(model, 2, 8, 1e-2)
        coeffs = bdf_coefficients(2)
        state, other = (make_solver_state([u0, u0], system, coeffs, dt=1e-2) for _ in range(2))
        assert state == state
        assert state != other

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

    def test_singular_stiff_block_names_matrix_eps_and_dt(self):
        system = scalar_decay_system(epsilon=0.25, rate=1.0)
        with pytest.raises(SingularMatrixError, match=r"^BDF implicit matrix \(eps=0.25, dt=0.25\)"):
            make_solver_state([constant_field(1.0)], system, bdf_coefficients(1), dt=0.25)
        # ARS(4,4,3) stage: 1 - (h/2)/eps vanishes at h = 2 eps.
        with pytest.raises(SingularMatrixError, match=r"^ARS stage matrix \(eps=0.25, substep dt=0.5\)"):
            ars_startup(constant_field(1.0), system, 4, dt=0.5, substep_divisor=1)

    def test_near_singular_stiff_block_judged_against_bulk_diagonal(self):
        # 1 - dt/eps = -2.2e-16: tiny against the bulk diagonal 1, though it
        # is the stiff block's own largest entry.
        system = RelaxationSystem(
            convection=np.zeros((2, 2)),
            source=np.array([[0.0, 0.0], [0.0, 1.0]]),
            stiff_size=1,
            epsilon=0.1,
            domain_length=TWO_PI,
        )
        with pytest.raises(SingularMatrixError, match="below threshold 1.000e-14"):
            make_solver_state(
                [constant_field(1.0, n=2)], system, bdf_coefficients(1), dt=0.1 * (1 + 2**-52)
            )

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


def complex_step(history, system, coeffs, dt, wavenumbers, inverse):
    """The step in complex arithmetic, the reference for the real-view kernel."""
    alpha, gamma, q = coeffs.alpha, coeffs.gamma, coeffs.q
    newest = history[-1]
    rhs = newest.copy()
    for i in range(q - 1):
        rhs -= alpha[i] * (history[i] - newest)
    extrapolated = gamma[0] * history[0]
    for i in range(1, q):
        extrapolated += gamma[i] * history[i]
    convected = extrapolated @ np.asarray(system.convection).T
    rhs -= (dt * 1j * wavenumbers)[:, np.newaxis] * convected
    return rhs @ inverse.T


class TestRealViewStep:
    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-8])
    def test_matches_complex_step_bitwise(self, name, q, epsilon):
        # The model's data, and its k=0 row alone: one stepped row takes a
        # different BLAS path from several.
        model = build_model(name)
        system = model.system_at(epsilon)
        coeffs = bdf_coefficients(q)
        dt = 1e-3
        u0 = initial_data(model, max(q, 2), 16, epsilon)
        mean = np.zeros_like(u0.coeffs)
        mean[16] = u0.mode(0)
        matrix = coeffs.alpha[-1] * np.eye(system.dimension) - (
            coeffs.beta * dt / epsilon
        ) * np.asarray(system.source)
        inverse = lu_factor(matrix).solve(np.eye(system.dimension))
        one_row = SpectralField(mean, u0.domain_length)
        for data, rows in ((u0, 2 * model.data_cutoff + 1), (one_row, 1)):
            fields = [exact_evolve(data, system, i * dt) for i in range(q)]
            state = make_solver_state(fields, system, coeffs, dt)
            assert len(state.history[0]) == rows
            history = [np.array(f.coeffs) for f in fields]
            for _ in range(50):
                expected = complex_step(history, system, coeffs, dt, u0.wavenumbers, inverse)
                history = history[1:] + [expected]
                stepped = imex_bdf_step(state, system, coeffs)
                assert np.array_equal(stepped.coeffs, expected)

    def test_returned_field_survives_later_steps(self):
        model = build_model("broadwell")
        system = model.system_at(1e-2)
        q = 3
        coeffs = bdf_coefficients(q)
        u0 = initial_data(model, q, 8, 1e-2)
        state = make_solver_state([u0] * q, system, coeffs, dt=1e-2)
        first = imex_bdf_step(state, system, coeffs)
        kept, ring = first.coeffs.copy(), state.history[-1]
        for _ in range(q - 1):
            imex_bdf_step(state, system, coeffs)
        assert state.history[0] is ring
        assert not np.shares_memory(ring, state.scratch)
        assert np.array_equal(ring.view(complex), kept[_occupied(u0)])
        assert np.array_equal(first.coeffs, kept)


class TestHalfSpectrum:
    """A real field steps the rows its data occupies, as its complex twin does,
    and comes out an exact mirror."""

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-8])
    def test_matches_full_rows_bitwise(self, name, q, epsilon):
        model = build_model(name)
        system = model.system_at(epsilon)
        u0 = initial_data(model, max(q, 2), 16, epsilon)
        full = SpectralField(u0.coeffs, u0.domain_length, real_valued=False)
        half_run = run(u0, system, q, 1 / 40, 0.5)
        full_run = run(full, system, q, 1 / 40, 0.5)
        assert half_run.real_valued and not full_run.real_valued
        assert np.array_equal(half_run.coeffs, full_run.coeffs)

    @pytest.mark.parametrize("real_valued", [True, False])
    def test_steps_reuse_the_history_buffers(self, real_valued):
        model = build_model("broadwell")
        system = model.system_at(1e-2)
        q, cutoff = 3, 8
        coeffs = bdf_coefficients(q)
        u0 = initial_data(model, q, cutoff, 1e-2)
        u0 = SpectralField(u0.coeffs, u0.domain_length, real_valued)
        state = make_solver_state([u0] * q, system, coeffs, dt=1e-2)
        buffers = list(state.history)
        rows = 2 * model.data_cutoff + 1
        assert all(b.shape == (rows, 2 * system.dimension) for b in buffers)
        for i, buffer in enumerate(buffers):
            assert not np.shares_memory(buffer, state.scratch)
            assert not any(np.shares_memory(buffer, other) for other in buffers[i + 1:])
        for _ in range(q):
            imex_bdf_step(state, system, coeffs)
        assert all(a is b for a, b in zip(state.history, buffers))
        _advance(state, q)
        assert all(a is b for a, b in zip(state.history, buffers))
        assert state.step_index == 2 * q

    def test_run_and_single_steps_name_the_same_blow_up_step(self):
        model = build_model("arz")
        system = model.system_at(1.0)
        q, dt = 4, 0.5
        coeffs = bdf_coefficients(q)
        u0 = initial_data(model, q, 100, 1.0)
        with pytest.raises(NonFiniteStepError) as by_run:
            run(u0, system, q, dt, 500, startup="ars:7")
        state = make_solver_state(
            ars_startup(u0, system, q, dt, substep_divisor=7), system, coeffs, dt
        )
        with pytest.raises(NonFiniteStepError) as by_step:
            for _ in range(1000):
                imex_bdf_step(state, system, coeffs)
        assert str(by_step.value) == str(by_run.value)

    def test_near_symmetric_field_steps_to_exact_mirror(self):
        # Rows -k that match rows k only within the symmetry tolerance, and a
        # k=0 row with a tiny imaginary part, are dropped: the result is the
        # step of the exact mirror of rows k >= 0.
        model = build_model("grad")
        system = model.system_at(1e-3)
        q, cutoff = 2, 12
        coeffs = bdf_coefficients(q)
        u0 = initial_data(model, q, cutoff, 1e-3)
        rng = np.random.default_rng(11)
        noisy = np.array(u0.coeffs)
        noisy[: cutoff + 1] += 1e-14 * rng.standard_normal(noisy[: cutoff + 1].shape) * (1 + 1j)
        near = SpectralField(noisy, u0.domain_length)
        assert not np.array_equal(near.coeffs, np.conj(near.coeffs[::-1]))
        exact = np.array(noisy)
        exact[cutoff] = exact[cutoff].real
        exact[:cutoff] = np.conj(exact[:cutoff:-1])
        mirrored = SpectralField(exact, u0.domain_length)
        states = [make_solver_state([f] * q, system, coeffs, 1e-2) for f in (near, mirrored)]
        for _ in range(5):
            stepped, expected = (imex_bdf_step(s, system, coeffs) for s in states)
            assert np.array_equal(stepped.coeffs, np.conj(stepped.coeffs[::-1]))
            assert np.array_equal(stepped.coeffs, expected.coeffs)


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

    @pytest.mark.parametrize("divisor", [2.5, 2.0, "4", True, 0, -3])
    def test_divisor_must_be_a_positive_integer(self, divisor):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(divisor))}$"):
            ars_startup(constant_field(), scalar_decay_system(), 2, 0.1, substep_divisor=divisor)

    def test_increments_cover_only_the_data_modes(self, monkeypatch):
        from relaxbdf import integrator

        sizes = []
        original = integrator._ars_increment

        def recording(system, tableau, substep, wavenumbers):
            sizes.append(len(wavenumbers))
            return original(system, tableau, substep, wavenumbers)

        monkeypatch.setattr(integrator, "_ars_increment", recording)
        model = build_model("grad")
        u0 = initial_data(model, 4, 100, 1e-2)
        fields = ars_startup(u0, model.system_at(1e-2), 4, 1e-2, substep_divisor=5)
        assert sizes == [2 * model.data_cutoff + 1]
        band = slice(100 - model.data_cutoff, 100 + model.data_cutoff + 1)
        for field in fields:
            outside = np.delete(np.asarray(field.coeffs), band, axis=0)
            assert not outside.any()

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

    @pytest.mark.parametrize("spec", ["ars:x", "ars:", "ars:1.5", "ars:-3"])
    def test_startup_spec_error_names_spec_and_forms(self, spec):
        model = build_model("arz")
        u0 = initial_data(model, 2, 4, 1.0)
        with pytest.raises(ValueError) as info:
            run(u0, model.system_at(1.0), 2, 0.25, 1.0, startup=spec)
        message = str(info.value)
        assert repr(spec) in message
        assert "'exact', 'ars' or 'ars:<divisor>'" in message

    @pytest.mark.parametrize("dt", [0.0, -0.25, float("inf"), float("nan")])
    def test_nonpositive_or_nonfinite_dt_rejected(self, dt):
        model = build_model("arz")
        u0 = initial_data(model, 2, 4, 1.0)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            run(u0, model.system_at(1.0), 2, dt, 1.0)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_step_map_startup_matches_exact(self, q):
        # The exact startup applies one step map q-1 times: each startup
        # value is exact_evolve of the one before, and BDF stepping goes on
        # from them.
        model = build_model("broadwell")
        system = model.system_at(1e-6)
        q_data, dt = max(q, 2), 1 / 40
        u0 = initial_data(model, q_data, 12, 1e-6)
        history = [u0]
        for _ in range(q - 1):
            history.append(exact_evolve(history[-1], system, dt))
        coeffs = bdf_coefficients(q)
        state = make_solver_state(history, system, coeffs, dt)
        for _ in range(20 - (q - 1)):
            expected = imex_bdf_step(state, system, coeffs)
        final = run(u0, system, q, dt, 0.5, startup="exact")
        assert np.asarray(final.coeffs).tobytes() == np.asarray(expected.coeffs).tobytes()

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
        # A dense field's 130 non-negative modes make blocks of 64, 64 and 2;
        # band-limited data makes one block of its modes 0..4.  The q-1
        # startup values reuse the propagators of one step, and q=1 needs none.
        from relaxbdf import oracle

        calls = []
        original = oracle.matrix_exponential

        def counting(matrix, t=1.0):
            calls.append((len(matrix), t))
            return original(matrix, t)

        monkeypatch.setattr(oracle, "matrix_exponential", counting)
        model = build_model("broadwell")
        system = model.system_at(1e-3)
        rng = np.random.default_rng(129)
        shape = (2 * 129 + 1, system.dimension)
        dense = SpectralField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                              model.domain_length, real_valued=False)
        run(dense, system, 4, 1 / 40, 3 / 40, startup="exact")  # the startup alone
        assert calls == [(64, 1 / 40), (64, 1 / 40), (2, 1 / 40)]
        calls.clear()
        u0 = initial_data(model, 4, 129, 1e-3)
        run(u0, system, 4, 1 / 40, 0.5, startup="exact")
        assert calls == [(model.data_cutoff + 1, 1 / 40)]
        run(u0, system, 1, 1 / 40, 0.5, startup="exact")  # no startup values
        assert len(calls) == 1

    def test_field_period_must_match_the_system(self):
        # Stepped with the field's kappa and exponentiated with the system's,
        # a period-1 field against the 2pi Grad system has grid error 0.56.
        model = build_model("grad")
        system = model.system_at(1.0)
        u0 = initial_data(model, 4, 8, 1.0)
        other = SpectralField(u0.coeffs, 1.0)
        message = r"field \(n=6, L=1\.0\) does not match the system \(n=6, L=6\.283185307179586\)"
        with pytest.raises(ValueError, match=message):
            run(other, system, 4, 1 / 80, 1.0)
        with pytest.raises(ValueError, match=message):
            exact_evolve(other, system, 1.0)
        with pytest.raises(ValueError, match=message):
            ars_startup(other, system, 4, 1 / 80, substep_divisor=50)
        with pytest.raises(ValueError, match=message):
            make_solver_state([other] * 4, system, bdf_coefficients(4), 1 / 80)
        close = SpectralField(u0.coeffs, system.domain_length * (1 + 1e-15))
        final = run(close, system, 4, 1 / 80, 1.0)
        assert compute_error(final, exact_evolve(close, system, 1.0)) < 1e-4

    def test_blow_up_names_step_eps_and_dt(self):
        # dt=0.5 is far past the stability bound at N=100: the run overflows.
        model = build_model("arz")
        u0 = initial_data(model, 4, 100, 1.0)
        with pytest.raises(NonFiniteStepError, match=r"BDF step \d+ \(eps=1, dt=0\.5\)"):
            run(u0, model.system_at(1.0), 4, 0.5, 500)

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


class TestModeCount:
    """N enters only through the norm: the data's rows do not depend on it."""

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("startup", ["exact", "ars:50"])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-6])
    def test_data_rows_are_the_same_for_every_n(self, name, startup, epsilon):
        # The continuum error sums over 2N+1 rows, which may group its terms
        # differently: Broadwell at N >= 100 moves by up to 1.9e-16 relative.
        model = build_model(name)
        system = model.system_at(epsilon)
        data = model.data_cutoff
        results = []
        for cutoff in (data, 8, 100, 1000):
            u0 = initial_data(model, 4, cutoff, epsilon)
            final = run(u0, system, 4, 1 / 80, 1.0, startup=startup)
            exact = exact_evolve(u0, system, 1.0)
            band = slice(cutoff - data, cutoff + data + 1)
            results.append((np.asarray(final.coeffs)[band].tobytes(),
                            np.asarray(exact.coeffs)[band].tobytes(), compute_error(final, exact)))
        first = results[0]
        for computed, reference, error in results[1:]:
            assert computed == first[0]
            assert reference == first[1]
            assert error == pytest.approx(first[2], rel=4 * np.finfo(float).eps, abs=0.0)


def dense_implicit_inverse(system, coeffs, dt):
    """Inverse of the whole n x n BDF implicit matrix by one pivoted LU."""
    matrix = coeffs.alpha[-1] * np.eye(system.dimension) - (
        coeffs.beta * dt / system.epsilon
    ) * np.asarray(system.source)
    return lu_factor(matrix).solve(np.eye(system.dimension))


class TestStiffLimit:
    """Only the stiff block of the implicit matrix is factored, so the
    solver works for every eps the exact oracle reaches."""

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_inverse_matches_dense_lu_bitwise(self, name, q):
        model = build_model(name)
        coeffs = bdf_coefficients(q)
        for epsilon in (1.0, 1e-4, 1e-8, 1e-12, 1e-14):
            system = model.system_at(epsilon)
            u0 = initial_data(model, max(q, 2), 4, epsilon)
            n, b = system.dimension, system.bulk_size
            for dt in (1 / 20, 1 / 640, 1 / 12800):
                state = make_solver_state([u0] * q, system, coeffs, dt)
                expected = np.kron(dense_implicit_inverse(system, coeffs, dt).T, np.eye(2))
                assert np.array_equal(state.implicit_block, expected)
                assert np.array_equal(state.implicit_block[: 2 * b], np.eye(2 * n)[: 2 * b])

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_solver_state_below_double_precision_eps(self, name, q):
        model = build_model(name)
        system = model.system_at(1e-18)
        u0 = initial_data(model, max(q, 2), 4, 1e-18)
        state = make_solver_state([u0] * q, system, bdf_coefficients(q), 1 / 40)
        b = system.bulk_size
        assert np.array_equal(state.implicit_block[: 2 * b], np.eye(2 * system.dimension)[: 2 * b])
        assert np.isfinite(state.implicit_block).all()

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("q", [3, 4])
    @pytest.mark.parametrize("startup", ["exact", "ars:50"])
    def test_tables_uniform_down_to_eps_1e_18(self, name, q, startup):
        config = ExperimentConfig(
            model=name,
            order=q,
            epsilons=(1e-8, 1e-16, 1e-18),
            dts=(1 / 20, 1 / 40, 1 / 80),
            t_final=1.0,
            modes=16,
            startup=startup,
        )
        blocks = run_convergence_study(config).blocks()
        reference = blocks[1e-8]
        for epsilon in (1e-16, 1e-18):
            for row, ref in zip(blocks[epsilon], reference):
                assert row.l2_error is not None, f"ERROR cell at eps={epsilon:g}, dt={row.dt:g}"
                assert row.l2_error == pytest.approx(ref.l2_error, rel=1e-3)
                if ref.order is not None:
                    assert row.order == pytest.approx(ref.order, abs=0.01)


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


class TestUniformAccuracy:
    def test_one_error_bound_for_every_epsilon(self):
        """The paper's claim: the accuracy does not depend on eps.

        Over eps = 1e-16..1 (one per decade) and dt = 1/80..1/320 at t = 0.5,
        with exact startup and reference, the sup over eps of the grid error
        has slope q, and no eps errs more than eps = 1 does.  Measured: the
        worst slope is 3.950 (Broadwell q=4, 0.050 off q) and the largest
        ratio to eps = 1 is 1.022 (Grad q=1; every other pair's is 1.000).
        The margin 0.1 and the factor K = 1.05 are set from these.  Grad's
        data has no eps correction; the bound covers it all the same.
        """
        epsilons = [10.0 ** -k for k in range(16, -1, -1)]
        dts = (1 / 80, 1 / 160, 1 / 320)
        for name in ("arz", "broadwell", "grad"):
            model = build_model(name)
            for q in (1, 2, 3, 4):
                errors = {}
                for epsilon in epsilons:
                    system = model.system_at(epsilon)
                    u0 = initial_data(model, max(q, 2), model.data_cutoff, epsilon)
                    reference = exact_evolve(u0, system, 0.5)
                    errors[epsilon] = [
                        grid_error(run(u0, system, q, dt, 0.5, startup="exact"), reference)
                        for dt in dts
                    ]
                sup = [max(errors[epsilon][i] for epsilon in epsilons) for i in range(len(dts))]
                slope = fit_order(dts, sup)
                assert abs(slope - q) <= 0.1, f"{name} q={q}: sup-over-eps slope {slope:.3f}"
                for epsilon in epsilons:
                    for dt, error, bound in zip(dts, errors[epsilon], errors[1.0]):
                        assert error <= 1.05 * bound, (
                            f"{name} q={q} eps={epsilon:g} dt={dt:g}: error {error:.3e}"
                            f" > 1.05 x {bound:.3e} at eps=1"
                        )
