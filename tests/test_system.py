import numpy as np
import pytest

from relaxbdf.system import (
    DimensionMismatchError,
    NotNormalFormError,
    RelaxationSystem,
    SingularTransformError,
    StabilityWitness,
    SymmetrizerNotFoundError,
    check_structural_stability,
    find_symmetrizer,
    system_from_json,
    system_to_json,
)
from relaxbdf.models import make_arz, make_broadwell

ARZ_CONVECTION = np.array([[1.0, 1.0], [0.0, -0.5]])
ARZ_SOURCE = np.array([[0.0, 0.0], [-0.5, -1.0]])
ARZ_TRANSFORM = np.array([[1.0, 0.0], [0.5, 1.0]])
ARZ_SYMMETRIZER = np.array([[3.0, 2.0], [2.0, 4.0]])


def generated_certified_system(rng, n, r, damping=None):
    """A system built from the certificate side (Yong's structure).

    A block-diagonal SPD A0, A = A0^-1 B with B symmetric, and S = -A02^-1 N
    with N SPD of scale ``damping`` (drawn from 0.05, 1, 20 when None), so
    that A0 certifies the system at a large enough scale.
    """

    def spd(m, scale=1.0):
        x = rng.standard_normal((m, m))
        return scale * (x @ x.T + m * np.eye(m))

    bulk = n - r
    a0 = np.zeros((n, n))
    a0[:bulk, :bulk] = spd(bulk)
    a0[bulk:, bulk:] = spd(r)
    b = rng.standard_normal((n, n))
    if damping is None:
        damping = rng.choice([0.05, 1.0, 20.0])
    source = np.zeros((n, n))
    source[bulk:, bulk:] = -np.linalg.solve(a0[bulk:, bulk:], spd(r, damping))
    return RelaxationSystem(
        convection=np.linalg.solve(a0, b + b.T),
        source=source,
        stiff_size=r,
        epsilon=1.0,
        domain_length=1.0,
    )


class TestTransform:
    def test_traffic_model_by_hand(self):
        # 2x2 arithmetic done by hand: P A P^-1 and P Q P^-1.
        model = make_arz()
        np.testing.assert_array_equal(model.raw_convection, ARZ_CONVECTION)
        np.testing.assert_array_equal(model.raw_source, ARZ_SOURCE)
        np.testing.assert_array_equal(model.transform, ARZ_TRANSFORM)
        np.testing.assert_allclose(model.system.source, np.diag([0.0, -1.0]), atol=1e-14)
        np.testing.assert_allclose(
            model.system.convection, np.array([[0.5, 1.0], [0.5, 0.0]]), atol=1e-14
        )
        assert model.system.stiff_size == 1

    def test_singular_transform_rejected(self):
        with pytest.raises(SingularTransformError, match="transform is singular: smallest "
                           "singular value .* at most threshold 2.000e-14"):
            StabilityWitness(np.ones((2, 2)), ARZ_SYMMETRIZER, stiff_size=1)

    def test_broadwell_transform_block_diagonalizes(self):
        # The source has eigenvalues {0, 0, -2}: the stiff block must be -2.
        system = make_broadwell().system
        np.testing.assert_allclose(system.source, np.diag([0.0, 0.0, -2.0]), atol=1e-12)
        assert system.stiff_size == 1

    def test_broadwell_transform_pinned(self):
        # Its rows define the Broadwell normal-form variables, in which every
        # Broadwell table cell is measured.
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.5, 0.0, 1.0]])
        np.testing.assert_array_equal(make_broadwell().transform, expected)


class TestRelaxationSystem:
    def test_normal_form_enforced(self):
        with pytest.raises(NotNormalFormError):
            RelaxationSystem(
                convection=np.eye(2),
                source=ARZ_SOURCE,  # off-block entry -1/2
                stiff_size=1,
                epsilon=1.0,
                domain_length=1.0,
            )

    def test_singular_stiff_block_rejected(self):
        with pytest.raises(NotNormalFormError):
            RelaxationSystem(
                convection=np.eye(2),
                source=np.zeros((2, 2)),
                stiff_size=1,
                epsilon=1.0,
                domain_length=1.0,
            )

    def test_structural_zeros_are_exact(self):
        system = make_arz().system
        assert system.source[0, 0] == 0.0 and system.source[0, 1] == 0.0
        assert system.source[1, 0] == 0.0

    def test_epsilon_swap(self):
        system = make_arz().system
        assert system.with_epsilon(1e-6).epsilon == 1e-6
        with pytest.raises(ValueError):
            system.with_epsilon(-1.0)

    @pytest.mark.parametrize("epsilon", [0.0, float("inf"), float("nan")])
    def test_nonpositive_or_nonfinite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match=f"epsilon must be finite and positive, got {epsilon!r}"):
            make_arz().system.with_epsilon(epsilon)


class TestCertificate:
    def test_moment_system_identity_witness(self):
        off = np.sqrt(np.arange(1.0, 6.0))
        convection = np.diag(off, 1) + np.diag(off, -1)
        source = -np.diag([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        witness = StabilityWitness(np.eye(6), np.eye(6), stiff_size=3)
        report = check_structural_stability((convection, source), witness, 1e-10)
        assert report.passed, report.summary()

    def test_traffic_model_paper_witness_on_raw_matrices(self):
        witness = StabilityWitness(ARZ_TRANSFORM, ARZ_SYMMETRIZER, stiff_size=1)
        report = check_structural_stability((ARZ_CONVECTION, ARZ_SOURCE), witness, 1e-10)
        assert report.passed, report.summary()
        # The transformed symmetrizer P^-T A0 P^-1 is diag(2, 4).
        np.testing.assert_allclose(
            witness.normal_form_symmetrizer(), np.diag([2.0, 4.0]), atol=1e-12
        )

    def test_singular_stiff_block_fails_condition_i(self):
        source = np.array([[0.0, 0.0], [0.0, 1e-20]])
        witness = StabilityWitness(np.eye(2), np.eye(2), stiff_size=1)
        report = check_structural_stability((np.eye(2), source), witness, 1e-10)
        assert not report.normal_form.passed
        assert report.normal_form.detail.endswith("smallest singular value 1.000e-20")
        assert not report.passed

    def test_dissipation_violation_detected(self):
        # Positive source cannot satisfy the dissipation inequality.
        source = np.diag([0.0, 1.0])
        witness = StabilityWitness(np.eye(2), np.eye(2), stiff_size=1)
        report = check_structural_stability((np.zeros((2, 2)), source), witness, 1e-10)
        assert not report.dissipation.passed

    def test_dimension_mismatch(self):
        witness = StabilityWitness(np.eye(3), np.eye(3), stiff_size=1)
        with pytest.raises(DimensionMismatchError):
            check_structural_stability((np.eye(2), np.diag([0.0, -1.0])), witness)

    def test_matrix_stacks_rejected(self):
        stack = np.array([np.diag([0.0, -1.0])] * 2)
        with pytest.raises(DimensionMismatchError):
            RelaxationSystem(stack, stack, 1, 1.0, 1.0)
        with pytest.raises(DimensionMismatchError):
            StabilityWitness(np.array([np.eye(2)] * 2), np.array([np.eye(2)] * 2), stiff_size=1)

    def test_stacks_rejected_by_shape(self):
        stack = np.array([np.diag([0.0, -1.0])] * 2)
        witness = StabilityWitness(np.eye(2), np.eye(2), stiff_size=1)
        with pytest.raises(ValueError, match=r"2-D matrix, got shape \(2, 2, 2\)"):
            check_structural_stability((stack, stack), witness)

    # A certified 3x3 system with two stiff components (A = I, S = -I, P = A0
    # = I), and one perturbation aimed at each condition.  Each entry names
    # the conditions its perturbation breaks; with P = I an off-block A0 also
    # breaks (iii), whose bulk block is zero.
    PERTURBATIONS = {
        "normal_form": (
            "source",
            [[0.0, 1e-3, 0.0], [-1e-3, -1.0, 0.0], [0.0, 0.0, -1.0]],
            {"normal_form"},
        ),
        "symmetrizer_spd": ("symmetrizer", np.diag([-1.0, 1.0, 1.0]), {"symmetrizer_spd"}),
        "convection_symmetry": (
            "convection",
            [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            {"convection_symmetry"},
        ),
        "dissipation": ("source", np.diag([0.0, -0.1, -1.0]), {"dissipation"}),
        "block_structure": (
            "symmetrizer",
            [[1.0, 0.0, 0.1], [0.0, 1.0, 0.0], [0.1, 0.0, 1.0]],
            {"block_structure", "dissipation"},
        ),
        "stiff_coupling": (
            "source",
            [[0.0, 0.0, 0.0], [0.0, -1.0, 0.5], [0.0, -0.5, -1.0]],
            {"stiff_coupling"},
        ),
    }

    @staticmethod
    def failed_conditions(matrices):
        witness = StabilityWitness(np.eye(3), matrices["symmetrizer"], stiff_size=2)
        report = check_structural_stability(
            (matrices["convection"], matrices["source"]), witness, 1e-10
        )
        names = (
            "normal_form",
            "symmetrizer_spd",
            "convection_symmetry",
            "dissipation",
            "block_structure",
            "stiff_coupling",
        )
        failed = {name for name in names if not getattr(report, name).passed}
        assert report.passed == (not failed)
        return failed

    @pytest.mark.parametrize("target", sorted(PERTURBATIONS))
    def test_targeted_perturbation_fails_its_condition(self, target):
        base = {
            "convection": np.eye(3),
            "source": np.diag([0.0, -1.0, -1.0]),
            "symmetrizer": np.eye(3),
        }
        assert self.failed_conditions(base) == set()
        key, matrix, expected = self.PERTURBATIONS[target]
        assert self.failed_conditions({**base, key: np.array(matrix)}) == expected

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_tol_rejected(self, tol):
        witness = StabilityWitness(np.eye(2), np.eye(2), stiff_size=1)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            check_structural_stability((np.zeros((2, 2)), np.diag([0.0, -1.0])), witness, tol)

    def test_summary_mentions_all_conditions(self):
        witness = StabilityWitness(np.eye(2), np.eye(2), stiff_size=1)
        report = check_structural_stability(
            (np.zeros((2, 2)), np.diag([0.0, -2.0])), witness, 1e-10
        )
        text = report.summary()
        for token in ("normal form", "SPD", "symmetry", "dissipation", "block-diagonal"):
            assert token in text


class TestSymmetrizerSearch:
    def test_moment_system_returns_identity(self):
        off = np.sqrt(np.arange(1.0, 6.0))
        system = RelaxationSystem(
            convection=np.diag(off, 1) + np.diag(off, -1),
            source=-np.diag([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
            stiff_size=3,
            epsilon=1.0,
            domain_length=2 * np.pi,
        )
        witness = find_symmetrizer(system)
        np.testing.assert_allclose(witness.symmetrizer, np.eye(6), atol=1e-12)

    def test_traffic_model_solution_ray_matches_known_witness(self):
        # The known raw-variable symmetrizer maps through P to diag(2, 4);
        # the search space for the normal form must contain that ray.
        system = make_arz().system
        witness = find_symmetrizer(system)
        found = np.asarray(witness.symmetrizer)
        target = np.diag([2.0, 4.0])
        scale = found[0, 0] / target[0, 0]
        np.testing.assert_allclose(found, scale * target, atol=1e-10)
        assert check_structural_stability(system, witness, 1e-8).passed

    def test_broadwell_witness_verifies(self):
        system = make_broadwell().system
        witness = find_symmetrizer(system)
        assert check_structural_stability(system, witness, 1e-8).passed
        np.testing.assert_array_equal(witness.symmetrizer, np.diag([1.0, 2.0, 4.0]))

    def test_two_dimensional_solution_space(self):
        # Diagonal convection admits every diagonal symmetrizer; the search
        # must still pick one satisfying the dissipation inequality.
        system = RelaxationSystem(
            convection=np.diag([1.0, -1.0]),
            source=np.diag([0.0, -1.0]),
            stiff_size=1,
            epsilon=1.0,
            domain_length=1.0,
        )
        witness = find_symmetrizer(system)
        assert check_structural_stability(system, witness, 1e-10).passed

    def test_not_found_reports(self):
        # Rotation-like coupling admits only multiples of diag(1, -1), which
        # are indefinite, so no direction gives an SPD symmetrizer.
        system = RelaxationSystem(
            convection=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            source=np.diag([0.0, -1.0]),
            stiff_size=1,
            epsilon=1.0,
            domain_length=1.0,
        )
        with pytest.raises(SymmetrizerNotFoundError, match="among 16 directions"):
            find_symmetrizer(system)

    @pytest.mark.parametrize("damping", [0.1, 0.01])
    def test_weak_damping_needs_a_large_scale(self, damping):
        # (iii) needs A0 = diag(a, b) with b >= 1/(2 damping), beyond the
        # coefficient grid; the scale is set in closed form, not searched.
        system = RelaxationSystem(
            convection=np.diag([1.0, -1.0]),
            source=np.diag([0.0, -damping]),
            stiff_size=1,
            epsilon=1.0,
            domain_length=1.0,
        )
        witness = find_symmetrizer(system)
        assert check_structural_stability(system, witness, 1e-10).passed

    def test_weakly_damped_moment_system(self):
        off = np.sqrt(np.arange(1.0, 4.0))
        system = RelaxationSystem(
            convection=np.diag(off, 1) + np.diag(off, -1),
            source=-0.1 * np.diag([0.0, 0.0, 1.0, 1.0]),
            stiff_size=2,
            epsilon=1.0,
            domain_length=2 * np.pi,
        )
        witness = find_symmetrizer(system)
        assert check_structural_stability(system, witness, 1e-10).passed

    def test_witness_is_well_conditioned(self):
        system = RelaxationSystem(
            convection=np.diag([1.0, -1.0]),
            source=np.diag([0.0, -0.22]),
            stiff_size=1,
            epsilon=1.0,
            domain_length=1.0,
        )
        witness = find_symmetrizer(system)
        eigenvalues = np.linalg.eigvalsh(witness.symmetrizer)
        assert eigenvalues[0] >= 1e-3 * eigenvalues[-1]
        assert check_structural_stability(system, witness, 1e-10).passed

    def test_generated_certified_systems(self):
        # The damping scale of N ranges from weak (0.05) to strong (20).
        rng = np.random.default_rng(20231)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            system = generated_certified_system(rng, n, int(rng.integers(1, n)))
            witness = find_symmetrizer(system)
            assert check_structural_stability(system, witness, 1e-10).passed

    def test_weakly_damped_generated_systems(self):
        # The witness scale 1/(2|S|) ~ 1e4 multiplies any A0*A residual of
        # the searched direction.  A null space from the Gram matrix C^T C
        # left residuals up to ~1e-13 relative (1 of these 10 failed); the
        # SVD of C leaves rounding only.
        rng = np.random.default_rng(20231)
        for _ in range(10):
            system = generated_certified_system(rng, 3, 1, damping=1e-4)
            witness = find_symmetrizer(system)
            assert check_structural_stability(system, witness, 1e-10).passed


class TestJsonInterchange:
    def test_roundtrip(self):
        system = make_arz().system
        witness = StabilityWitness(np.eye(2), np.diag([2.0, 4.0]), stiff_size=1)
        text = system_to_json(system, witness)
        loaded, loaded_witness = system_from_json(text)
        np.testing.assert_array_equal(loaded.convection, system.convection)
        np.testing.assert_array_equal(loaded.source, system.source)
        assert loaded.epsilon == system.epsilon
        assert loaded.stiff_size == system.stiff_size
        np.testing.assert_array_equal(loaded_witness.symmetrizer, witness.symmetrizer)

    def test_fraction_strings(self):
        doc = {
            "n": 2,
            "r": 1,
            "epsilon": "1/1000",
            "domain_length": 1,
            "A": ["1/2", 1, "1/2", 0],
            "Q": [0, 0, 0, "-2/3"],
        }
        system, witness = system_from_json(doc)
        assert witness is None
        assert system.epsilon == pytest.approx(1e-3)
        assert system.convection[0, 0] == pytest.approx(0.5)
        assert system.source[1, 1] == pytest.approx(-2.0 / 3.0)

    def test_nested_rows_accepted(self):
        doc = {
            "n": 2,
            "r": 1,
            "epsilon": 1.0,
            "domain_length": 1.0,
            "A": [[0.5, 1.0], [0.5, 0.0]],
            "Q": [[0.0, 0.0], [0.0, -1.0]],
        }
        system, _ = system_from_json(doc)
        assert system.convection[0, 1] == 1.0

    @pytest.mark.parametrize("key", ["epsilon", "domain_length"])
    def test_scalar_past_the_float_range_rejected(self, key):
        doc = {"n": 2, "r": 1, "epsilon": 1, "domain_length": 1,
               "A": [1, 0, 0, 1], "Q": [0, 0, 0, -1], key: "1e400"}
        with pytest.raises(ValueError, match=f"{key} must be finite and positive, got inf"):
            system_from_json(doc)

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_json_numbers_rejected(self, token):
        text = (
            '{"n": 2, "r": 1, "epsilon": 1.0, "domain_length": 1.0,'
            f' "A": [{token}, 1.0, 0.5, 0.0], "Q": [0.0, 0.0, 0.0, -1.0]}}'
        )
        with pytest.raises(ValueError, match="non-finite"):
            system_from_json(text)
