import math

import numpy as np
import pytest

from relaxbdf import linalg, oracle
from relaxbdf.harness import compute_error
from relaxbdf.integrator import run
from relaxbdf.linalg import ExponentialOverflowError, matrix_exponential
from relaxbdf.models import build_model, initial_data
from relaxbdf.oracle import exact_evolve, fine_step_reference, mode_matrix
from relaxbdf.spectral import SpectralField, field_inner_product, project, zero_field
from relaxbdf.system import RelaxationSystem
from relaxbdf.theory import fit_order

TWO_PI = 2.0 * math.pi
LONGDOUBLE_IS_EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def near_transport_system(speed=0.7):
    # n=1 with a negligible source: transport plus an O(1e-12) decay, used to
    # exercise the pure-advection behaviour within the normal-form contract.
    return RelaxationSystem(
        convection=np.array([[speed]]),
        source=np.array([[-1.0]]),
        stiff_size=1,
        epsilon=1e12,
        domain_length=TWO_PI,
    )


def per_mode_evolve(u0, system, t):
    """The oracle as one exponential per mode: the reference for the blocked one."""
    center = u0.cutoff
    out = np.empty_like(np.asarray(u0.coeffs))
    for k in range(center + 1):
        propagator = matrix_exponential(mode_matrix(system, k), t)
        out[center + k] = propagator @ u0.coeffs[center + k]
        if k > 0:
            out[center - k] = np.conj(propagator) @ u0.coeffs[center - k]
    return out


class TestExactEvolve:
    @pytest.mark.parametrize("name, epsilon", [("grad", 1e-12), ("arz", 1.0)])
    @pytest.mark.parametrize("cutoff", [0, 1, 63, 64, 65, 130])
    def test_blocks_match_per_mode_loop(self, name, epsilon, cutoff):
        model = build_model(name)
        system = model.system_at(epsilon)
        rng = np.random.default_rng(cutoff)
        shape = (2 * cutoff + 1, system.dimension)
        u0 = SpectralField(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            model.domain_length,
            real_valued=False,
        )
        evolved = np.asarray(exact_evolve(u0, system, 0.7).coeffs)
        assert evolved.tobytes() == per_mode_evolve(u0, system, 0.7).tobytes()

    @pytest.mark.parametrize("name, epsilon", [("broadwell", 1.0), ("broadwell", 1e-5),
                                               ("grad", 1e-10)])
    def test_each_dt_level_matches_per_mode_loop(self, name, epsilon):
        # 130 modes make three blocks; over the dt levels 1/160 .. 1/20, eps=1
        # has depth-0 modes, 1e-5 crosses the switch to extended precision
        # within a block and 1e-10 is deep throughout.
        model = build_model(name)
        system = model.system_at(epsilon)
        u0 = random_field(system, model.domain_length, 130)
        for level in range(4):
            t = 2.0 ** level / 160
            evolved = np.asarray(exact_evolve(u0, system, t).coeffs)
            assert evolved.tobytes() == per_mode_evolve(u0, system, t).tobytes()

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-5, 1e-12])
    def test_band_limited_data_matches_every_mode_exponentiated(self, name, epsilon):
        # The 127 or more empty modes of the 130 are skipped, and the field
        # is the one that exponentiating every mode gives.
        model = build_model(name)
        system = model.system_at(epsilon)
        u0 = initial_data(model, 3, 130, epsilon)
        evolved = np.asarray(exact_evolve(u0, system, 0.5).coeffs)
        assert np.array_equal(evolved, per_mode_evolve(u0, system, 0.5))

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-5, 1e-12])
    def test_conserved_mean_components_stay_bitwise(self, name, epsilon):
        model = build_model(name)
        system = model.system_at(epsilon)
        u0 = initial_data(model, 3, 130, epsilon)
        evolved = exact_evolve(u0, system, 0.5)
        bulk = slice(0, system.bulk_size)
        mean = np.asarray(evolved.coeffs)[130, bulk]
        assert mean.tobytes() == np.asarray(u0.coeffs)[130, bulk].tobytes()

    def test_mode_matrix_accepts_mode_arrays(self):
        system = build_model("grad").system_at(1e-2)
        stack = mode_matrix(system, np.array([3, -3]))
        assert stack.shape == (2, system.dimension, system.dimension)
        assert stack[0].tobytes() == mode_matrix(system, 3).tobytes()
        assert stack[1].tobytes() == mode_matrix(system, -3).tobytes()

    def test_time_zero_is_identity(self):
        model = build_model("broadwell")
        system = model.system_at(1e-3)
        u0 = initial_data(model, 3, 12, 1e-3)
        evolved = exact_evolve(u0, system, 0.0)
        np.testing.assert_array_equal(evolved.coeffs, u0.coeffs)

    def test_mode_matrix_conjugate_pairing(self):
        model = build_model("grad")
        system = model.system_at(1e-2)
        np.testing.assert_allclose(
            mode_matrix(system, -3), np.conj(mode_matrix(system, 3)), atol=0
        )

    def test_scalar_advection_translates(self):
        system = near_transport_system(speed=0.7)
        profile = lambda x: [math.sin(x) + 0.3 * math.cos(2 * x)]
        u0 = project(profile, 1, 8, TWO_PI)
        t = 1.3
        evolved = exact_evolve(u0, system, t)
        xs = np.linspace(0.0, TWO_PI, 23)
        shifted = np.array([profile(x - 0.7 * t)[0] for x in xs])
        np.testing.assert_allclose(evolved.evaluate(xs)[:, 0], shifted, atol=1e-9)

    def test_preserves_real_valuedness(self):
        model = build_model("arz")
        system = model.system_at(1e-6)
        u0 = initial_data(model, 3, 16, 1e-6)
        evolved = exact_evolve(u0, system, 1.0)
        mirror = np.conj(np.asarray(evolved.coeffs)[::-1])
        assert np.abs(evolved.coeffs - mirror).max() < 1e-11

    @pytest.mark.parametrize("epsilon", [1.0, 1e-4, 1e-8])
    def test_semigroup(self, epsilon):
        model = build_model("broadwell")
        system = model.system_at(epsilon)
        u0 = initial_data(model, 3, 12, epsilon)
        direct = exact_evolve(u0, system, 0.9)
        composed = exact_evolve(exact_evolve(u0, system, 0.5), system, 0.4)
        scale = max(direct.l2_norm(), 1.0)
        assert compute_error(direct, composed) / scale < 1e-9

    @pytest.mark.parametrize(
        "name, cutoff, epsilon, h",
        [
            ("grad", 1000, 1e-12, 1 / 20),
            ("grad", 1000, 1e-8, 1 / 20),
            ("grad", 1000, 1.0, 1 / 20),
            ("broadwell", 100, 1.0, 1 / 200),
            ("broadwell", 100, 1e-6, 1 / 200),
            ("arz", 100, 1e-4, 1 / 700),
        ],
    )
    def test_semigroup_residual_within_error_model(self, name, cutoff, epsilon, h):
        # Error model of the oracle: the squarings amplify the working
        # precision u by |t M_k|_1, and the chain runs in long double above
        # depth 10.  A full-spectrum field exercises the stiffest mode.
        model = build_model(name)
        system = model.system_at(epsilon)
        norm = float(np.abs(mode_matrix(system, np.arange(cutoff + 1))).sum(axis=1).max())
        amplification = max(1.0, 3 * h * norm)
        if math.ceil(math.log2(amplification)) > 10:
            if not LONGDOUBLE_IS_EXTENDED:
                pytest.skip("needs an extended-precision long double")
            unit = float(np.finfo(np.longdouble).eps)
        else:
            unit = float(np.finfo(float).eps)
        rng = np.random.default_rng(cutoff)
        shape = (2 * cutoff + 1, system.dimension)
        u0 = SpectralField(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            model.domain_length,
            real_valued=False,
        )
        direct = exact_evolve(u0, system, 3 * h)
        composed = u0
        for _ in range(3):
            composed = exact_evolve(composed, system, h)
        residual = np.abs(direct.coeffs - composed.coeffs).max() / np.abs(u0.coeffs).max()
        assert residual <= 4 * amplification * unit

    @pytest.mark.parametrize("name", ["arz", "broadwell", "grad"])
    def test_weighted_energy_non_increasing(self, name):
        model = build_model(name)
        system = model.system_at(1e-2)
        u0 = initial_data(model, 3, 12, 1e-2)
        weight = np.asarray(model.witness.symmetrizer)
        energies = []
        for t in np.linspace(0.0, 2.0, 9):
            evolved = exact_evolve(u0, system, float(t))
            energies.append(field_inner_product(evolved, evolved, weight))
        for earlier, later in zip(energies, energies[1:]):
            assert later <= earlier * (1.0 + 1e-9)

    def test_negative_time_rejected(self):
        model = build_model("arz")
        with pytest.raises(ValueError):
            exact_evolve(initial_data(model, 2, 4, 1.0), model.system_at(1.0), -0.1)

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    def test_nonfinite_or_negative_time_rejected_on_zero_data(self, t):
        # No mode is exponentiated, so the oracle checks t itself.
        model = build_model("arz")
        system = model.system_at(1.0)
        with pytest.raises(ValueError, match="t must be finite and non-negative"):
            exact_evolve(zero_field(system.dimension, 4, model.domain_length), system, t)

    def test_band_limited_data_exponentiates_its_support_once(self, monkeypatch):
        # Grad data occupies modes 0..2 of 1000: one call on those three
        # modes, each bitwise its per-mode propagator; every other row is zero.
        model = build_model("grad")
        system = model.system_at(1e-12)
        u0 = initial_data(model, 3, 1000, 1e-12)
        calls = counting_exponentials(monkeypatch)
        evolved = np.asarray(exact_evolve(u0, system, 0.5).coeffs)
        assert calls == [(model.data_cutoff + 1, 0.5)]
        band = slice(1000 - model.data_cutoff, 1000 + model.data_cutoff + 1)
        truncated = SpectralField(u0.coeffs[band], model.domain_length)
        assert evolved[band].tobytes() == per_mode_evolve(truncated, system, 0.5).tobytes()
        outside = np.ones(len(evolved), dtype=bool)
        outside[band] = False
        assert not evolved[outside].any()

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_one_sided_complex_field_matches_per_mode_loop(self, sign):
        # Mode 5 is exponentiated when only its row -5, or only its row +5,
        # carries data.
        model = build_model("broadwell")
        system = model.system_at(1e-6)
        coeffs = np.zeros((2 * 12 + 1, system.dimension), dtype=complex)
        coeffs[12 + sign * 5] = [1.0 + 2.0j, -0.5j, 0.25]
        u0 = SpectralField(coeffs, model.domain_length, real_valued=False)
        evolved = np.asarray(exact_evolve(u0, system, 0.3).coeffs)
        assert np.array_equal(evolved, per_mode_evolve(u0, system, 0.3))
        assert evolved[12 + sign * 5].any()

    def test_zero_field_makes_no_call(self, monkeypatch):
        model = build_model("grad")
        system = model.system_at(1e-12)
        u0 = zero_field(system.dimension, 100, model.domain_length)
        calls = counting_exponentials(monkeypatch)
        evolved = exact_evolve(u0, system, 0.5)
        assert calls == []
        assert evolved.coeffs.shape == u0.coeffs.shape and not np.asarray(evolved.coeffs).any()

    def test_only_modes_carrying_data_are_capped(self, monkeypatch):
        # At eps=1 |t M_k|_1 grows with k; the cap is lowered to the depth of
        # mode 2, so mode 50 is past it.  Zero there, it is never exponentiated.
        model = build_model("grad")
        system = model.system_at(1.0)
        norms = np.abs(0.5 * mode_matrix(system, np.arange(51))).sum(axis=1).max(axis=1)
        cap = math.ceil(math.log2(norms[2]))
        assert math.ceil(math.log2(norms[50])) > cap
        monkeypatch.setattr(linalg, "MAX_SQUARINGS", cap)
        u0 = initial_data(model, 2, 50, 1.0)
        exact_evolve(u0, system, 0.5)
        coeffs = np.array(u0.coeffs)
        coeffs[0] = coeffs[-1] = 1e-3
        with pytest.raises(ExponentialOverflowError, match=(
            rf"mode k=50 at t=0\.5, eps=1: \|t\*matrix\|_1 = \S+ needs \d+ squarings \(cap {cap}\)"
        )):
            exact_evolve(SpectralField(coeffs, model.domain_length), system, 0.5)

    def test_time_past_the_squaring_cap_names_mode_time_and_eps(self, monkeypatch):
        # The cap is lowered to the depth at t = 1/20; t = 1/2 needs four
        # more squarings.
        model = build_model("grad")
        system = model.system_at(1e-10)
        u0 = random_field(system, model.domain_length, 130)
        norm = np.abs(mode_matrix(system, np.arange(131)) / 20).sum(axis=1).max()
        monkeypatch.setattr(linalg, "MAX_SQUARINGS", math.ceil(math.log2(norm)))
        exact_evolve(u0, system, 1 / 20)
        with pytest.raises(ExponentialOverflowError, match=(
            r"mode k=\d+ at t=0\.5, eps=1e-10: \|t\*matrix\|_1 = \S+ needs \d+ squarings "
            rf"\(cap {linalg.MAX_SQUARINGS}\)"
        )):
            exact_evolve(u0, system, 0.5)


def random_field(system, domain_length, cutoff):
    rng = np.random.default_rng(cutoff)
    shape = (2 * cutoff + 1, system.dimension)
    return SpectralField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                         domain_length, real_valued=False)


def counting_exponentials(monkeypatch):
    """Record ``(stack size, t)`` of each exponential the oracle takes."""
    calls = []
    original = oracle.matrix_exponential

    def counting(matrix, t=1.0):
        calls.append((len(matrix), t))
        return original(matrix, t)

    monkeypatch.setattr(oracle, "matrix_exponential", counting)
    return calls


class TestFineStepReference:
    def test_degenerate_step_equals_run(self):
        model = build_model("grad")
        system = model.system_at(1e-2)
        u0 = initial_data(model, 2, 8, 1e-2)
        direct = run(u0, system, 2, 1e-2, 0.5)
        reference = fine_step_reference(u0, system, 2, 1e-2, 0.5)
        assert np.array_equal(direct.coeffs, reference.coeffs)

    def test_agrees_with_exact_oracle_at_tiny_step(self):
        model = build_model("arz")
        system = model.system_at(1.0)
        u0 = initial_data(model, 3, 8, 1.0)
        reference = fine_step_reference(u0, system, 3, 1e-6, 0.01)
        exact = exact_evolve(u0, system, 0.01)
        assert compute_error(reference, exact) < 1e-10

    def test_stiff_long_horizon_self_consistency(self):
        # A third-order run at a very fine step over the full horizon lands on
        # the closed-form solution: cross-validation of both routes.
        model = build_model("broadwell")
        system = model.system_at(1e-2)
        u0 = initial_data(model, 3, 8, 1e-2)
        reference = fine_step_reference(u0, system, 3, 2e-5, 2.0)
        exact = exact_evolve(u0, system, 2.0)
        assert compute_error(reference, exact) < 1e-9

    def test_converges_to_exact_at_scheme_order(self):
        model = build_model("broadwell")
        system = model.system_at(1.0)
        u0 = initial_data(model, 2, 8, 1.0)
        exact = exact_evolve(u0, system, 0.5)
        dts = [1 / 100, 1 / 200, 1 / 400]
        errors = [
            compute_error(fine_step_reference(u0, system, 2, dt, 0.5), exact)
            for dt in dts
        ]
        assert fit_order(dts, errors) == pytest.approx(2.0, abs=0.15)
