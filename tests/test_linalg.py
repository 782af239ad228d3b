import numpy as np
import pytest

from relaxbdf.linalg import (
    MAX_SQUARINGS,
    ExponentialOverflowError,
    SingularMatrixError,
    is_negative_semidefinite,
    is_spd,
    lu_factor,
    matrix_exponential,
    validate_matrix,
)


def series_exponential(matrix, t, max_terms=200):
    """Independent oracle: term-by-term Taylor series summed to stagnation."""
    n = matrix.shape[0]
    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, max_terms):
        term = term @ (t * matrix) / k
        previous = total.copy()
        total = total + term
        if np.array_equal(previous, total):
            break
    return total


class TestLuSolve:
    def test_identity(self):
        x = lu_factor(np.eye(3)).solve(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(x, [[1.0], [2.0], [3.0]], rtol=0, atol=0)

    def test_diagonal(self):
        x = lu_factor(np.diag([2.0, 4.0])).solve(np.array([[2.0], [4.0]]))
        np.testing.assert_allclose(x, [[1.0], [1.0]])

    def test_random_multiply_back(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
            b = rng.standard_normal((5, 1))
            x = lu_factor(a).solve(b)
            residual = np.linalg.norm(a @ x - b)
            bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
            assert residual <= bound

    def test_matrix_rhs_and_complex(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        b = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        x = lu_factor(a).solve(b)
        assert np.abs(a @ x - b).max() < 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]])).solve(np.ones((2, 1)))

    def test_factor_reconstruction(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        fac = lu_factor(a)
        lower = np.tril(fac.packed, -1) + np.eye(6)
        reconstructed = lower @ np.triu(fac.packed)
        permuted = a[fac.row_order]
        rel = np.linalg.norm(reconstructed - permuted) / np.linalg.norm(a)
        assert rel <= 1e-12

    @pytest.mark.parametrize("dtype", [float, complex, np.longdouble, np.clongdouble])
    def test_stack_matches_single_factorizations(self, dtype):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((9, 5, 5)).astype(dtype)
        if np.dtype(dtype).kind == "c":
            a = a + 1j * rng.standard_normal((9, 5, 5))
        b = rng.standard_normal((9, 5, 3))
        fac = lu_factor(a)
        x = fac.solve(b)
        columns = fac.solve(b[..., :1])
        for j in range(9):
            single = lu_factor(a[j])
            np.testing.assert_array_equal(fac.packed[j], single.packed)
            np.testing.assert_array_equal(fac.row_order[j], single.row_order)
            np.testing.assert_array_equal(x[j], single.solve(b[j]))
            np.testing.assert_array_equal(columns[j], single.solve(b[j, :, :1]))

    def test_stack_singular_slice_is_named(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], np.eye(2)])
        with pytest.raises(SingularMatrixError, match="in column 1 below threshold .* in slice 1"):
            lu_factor(stack)

    def test_stack_threshold_is_per_slice(self):
        # A tiny slice is not singular because another slice is huge.
        stack = np.array([1e-20 * np.eye(3), 1e20 * np.eye(3)])
        x = lu_factor(stack).solve(np.ones((2, 3, 1)))
        np.testing.assert_array_equal(x, [[[1e20]] * 3, [[1e-20]] * 3])

    def test_stack_rhs_must_match(self):
        with pytest.raises(ValueError, match="does not match factors"):
            lu_factor(np.array([np.eye(2)] * 3)).solve(np.ones((2, 2, 1)))

    def test_vector_rhs_rejected(self):
        # Right-hand sides are matrices; a vector is a one-column matrix.
        with pytest.raises(ValueError, match=r"rhs of shape \(2,\) does not match"):
            lu_factor(np.eye(2)).solve(np.ones(2))
        with pytest.raises(ValueError, match=r"rhs of shape \(3, 2\) does not match"):
            lu_factor(np.array([np.eye(2)] * 3)).solve(np.ones((3, 2)))


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_exponential(np.zeros((3, 3)), 2.5), np.eye(3))

    def test_diagonal(self):
        result = matrix_exponential(np.diag([1.0, -2.0]), 0.3)
        np.testing.assert_allclose(np.diag(result), np.exp([0.3, -0.6]), rtol=1e-14)

    def test_random_vs_series_oracle(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((4, 4))
        expected = series_exponential(m, 0.7)
        np.testing.assert_allclose(matrix_exponential(m, 0.7), expected, rtol=0, atol=1e-13)

    def test_complex_vs_series_oracle(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expected = series_exponential(m, 0.4)
        np.testing.assert_allclose(matrix_exponential(m, 0.4), expected, atol=1e-13)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 50.0])
    def test_semigroup(self, scale):
        rng = np.random.default_rng(int(scale))
        m = rng.standard_normal((4, 4))
        m = (m - m.T) - 0.5 * np.eye(4)  # skew plus damping: bounded propagators
        m *= scale / max(np.abs(scale * m).sum(axis=0).max(), 1.0) * scale
        combined = matrix_exponential(m, 0.9)
        composed = matrix_exponential(m, 0.5) @ matrix_exponential(m, 0.4)
        denom = max(np.abs(combined).max(), 1.0)
        assert np.abs(combined - composed).max() / denom < 1e-10

    def test_derivative_matches_generator(self):
        # d/dt exp(tM) = M exp(tM), checked by central differences in t.
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 3))
        t, h = 0.6, 1e-5
        derivative = (matrix_exponential(m, t + h) - matrix_exponential(m, t - h)) / (2 * h)
        np.testing.assert_allclose(derivative, m @ matrix_exponential(m, t), atol=1e-8)

    def test_overflow_reported(self):
        with pytest.raises(ExponentialOverflowError):
            matrix_exponential(np.array([[1.0]]), 1e30)

    def test_stiff_relaxation_block_accuracy(self):
        # Stiff decay pins the deep-squaring path: exact answer is diagonal.
        m = np.diag([0.0, -2.0e6])
        result = matrix_exponential(m, 2.0)
        np.testing.assert_allclose(np.diag(result), [1.0, 0.0], atol=1e-14)
        assert np.abs(result - np.diag(np.diag(result))).max() == 0.0

    @pytest.mark.parametrize("t", [0.01, 0.3, 2.0, 1e3])
    def test_zero_rows_give_exact_identity_rows(self, t):
        # A relaxation generator at k=0: the conserved rows must not move.
        # Complex division in the Pade solve used to round their 1 down.
        m = np.array([[0, 0, 0], [0, 0, 0], [0.5, -1.0, -3.0]], dtype=complex)
        assert np.array_equal(matrix_exponential(m, t)[:2], np.eye(2, 3))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_slices_match_single_calls(self, dtype):
        # Zero, shallow float64 (<= 10 squarings) and deep extended-precision
        # slices, interleaved; each nonzero slice shares its depth with its
        # negative.  Skew(-Hermitian) slices keep the propagators bounded.
        rng = np.random.default_rng(21)
        base = rng.standard_normal((3, 4, 4)).astype(dtype)
        if base.dtype.kind == "c":
            base = base + 1j * rng.standard_normal((3, 4, 4))
        base = np.array([3.0, 2.0e6, 400.0])[:, None, None] * (base - np.conj(base.transpose(0, 2, 1)))
        zero = np.zeros_like(base[0])
        stack = np.array([zero, base[0], base[1], base[2], zero, -base[1], -base[2], -base[0]])
        t = 0.8
        norms = [np.abs(t * m).sum(axis=0).max() for m in stack]
        assert 0.0 < norms[1] <= 2.0 ** 10 and norms[2] > 2.0 ** 20
        result = matrix_exponential(stack, t)
        assert result.shape == stack.shape
        for j, matrix in enumerate(stack):
            assert result[j].tobytes() == matrix_exponential(matrix, t).tobytes()
        np.testing.assert_array_equal(result[0], np.eye(4))

    def test_stack_overflow_names_slice(self):
        stack = np.array([np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], -np.eye(2)])
        stack[1] *= 2.0 ** (MAX_SQUARINGS + 2)
        with pytest.raises(ExponentialOverflowError, match="needs 66 squarings") as info:
            matrix_exponential(stack, 1.0)
        assert info.value.index == 1

    def test_overflowing_scaled_matrix_names_slice(self):
        # t*M itself leaves float64: an overflow error, not a warning and a
        # bare OverflowError from the squaring count.
        with pytest.raises(ExponentialOverflowError, match="overflows") as info:
            matrix_exponential(np.array([[1e10]]), 1e300)
        assert info.value.index == 0
        stack = np.array([1e-300 * np.eye(2), [[0.0, 1e10], [-1e10, 0.0]], np.zeros((2, 2))])
        with pytest.raises(ExponentialOverflowError, match="overflows") as info:
            matrix_exponential(stack, 1e300)
        assert info.value.index == 1

    @pytest.mark.parametrize("entry", [800.0, 2000.0, 1e5])
    def test_overflow_in_the_squarings_or_the_cast_is_named(self, entry):
        # exp(800) leaves float64 in the float64 squarings; exp(2000) fits the
        # long-double squarings but not the cast back; exp(1e5) leaves long
        # double too.  Each is the named error, not a RuntimeWarning.
        with pytest.raises(ExponentialOverflowError, match=r"overflowed during \d+ squarings"):
            matrix_exponential(np.array([[entry]]))


class TestDefiniteness:
    def test_identity_spd(self):
        assert is_spd(np.eye(4))

    def test_indefinite_witness_pivot(self):
        report = is_spd(np.diag([1.0, -1.0]))
        assert not report
        assert report.value == pytest.approx(-1.0)

    def test_asymmetric_fails(self):
        report = is_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert not report and "asymmetry" in report.detail

    def test_arz_symmetrizer_is_spd(self):
        assert is_spd(np.array([[3.0, 2.0], [2.0, 4.0]]))

    def test_nsd_zero_and_diagonal(self):
        assert is_negative_semidefinite(np.zeros((3, 3)))
        assert is_negative_semidefinite(np.diag([-1.0, -2.0]))

    def test_nsd_rejects_positive(self):
        report = is_negative_semidefinite(np.diag([-1.0, 0.5]))
        assert not report
        assert report.value == pytest.approx(0.5, abs=1e-12)

    def test_imaginary_part_counts_as_asymmetry(self):
        for check in (is_spd, is_negative_semidefinite):
            report = check(np.diag([1.0, -1.0]) * 1j * 1e-3)
            assert not report and report.value == pytest.approx(1e-3)

    def test_nsd_requires_symmetry(self):
        report = is_negative_semidefinite(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not report and "asymmetry" in report.detail

    def test_moment_model_coupling_matrix(self):
        # With identity witness the 6x6 moment-system coupling matrix reduces
        # to -diag(0,0,0,1,1,1), assembled here by direct matrix arithmetic.
        source = -np.diag([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        projector = np.diag([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        coupling = source + source.T + projector
        np.testing.assert_array_equal(coupling, -projector)
        assert is_negative_semidefinite(coupling)

    def test_spd_matches_jacobi_sign_pattern(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            seed = rng.standard_normal((4, 4))
            sym = seed + seed.T
            eigenvalues = np.linalg.eigvalsh(sym)
            assert bool(is_spd(sym, 1e-12)) == bool(eigenvalues[0] > 1e-12)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare_when_required(self):
        with pytest.raises(ValueError):
            validate_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            validate_matrix(np.zeros((4, 2, 3)))

    def test_stack_accepted_and_checked(self):
        assert validate_matrix(np.zeros((4, 2, 2))).shape == (4, 2, 2)
        stack = np.zeros((4, 2, 2))
        stack[3, 1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            validate_matrix(stack)
        for shape in [(2,), (0, 2, 2), (2, 2, 2, 2)]:
            with pytest.raises(ValueError, match="2-D matrix or a stack"):
                validate_matrix(np.zeros(shape))

    @pytest.mark.parametrize("check", [is_spd, is_negative_semidefinite])
    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_definiteness_checks_reject_bad_tol(self, check, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            check(np.eye(2), tol)

    @pytest.mark.parametrize("check", [is_spd, is_negative_semidefinite])
    def test_definiteness_checks_reject_stacks(self, check):
        with pytest.raises(ValueError, match=r"2-D matrix, got shape \(2, 3, 3\)"):
            check(np.zeros((2, 3, 3)))
