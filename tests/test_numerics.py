import numpy as np
import pytest

from lconv.numerics import (DegenerateInputError, DimensionError, FormatError,
                            SeededRng, SingularSystemError, as_matrix,
                            cosine_correlation, finite_difference_gradient, frobenius,
                            least_squares_solve, read_matrix, write_matrix,
                            write_csv)


class TestAsMatrix:
    @pytest.mark.parametrize("shape", [(4,), (), (2, 2, 2)], ids=["1-D", "0-D", "3-D"])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(DimensionError, match=f"ndim={len(shape)}"):
            as_matrix(np.zeros(shape))


class TestCosineCorrelation:
    def test_self_correlation_is_one(self):
        rng = SeededRng(1)
        for _ in range(5):
            a = rng.uniform(4, 6)
            assert cosine_correlation(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_skew_is_zero(self):
        skew = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert cosine_correlation(np.eye(2), skew) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_and_scale_invariant(self):
        rng = SeededRng(2)
        a = rng.uniform(5, 5)
        b = rng.uniform(5, 5)
        c = cosine_correlation(a, b)
        assert cosine_correlation(b, a) == pytest.approx(c, abs=1e-14)
        assert cosine_correlation(3.0 * a, 0.5 * b) == pytest.approx(c, rel=1e-12)
        assert cosine_correlation(-3.0 * a, 0.5 * b) == pytest.approx(-c, rel=1e-12)

    def test_bounded_in_unit_interval(self):
        rng = SeededRng(3)
        for _ in range(50):
            c = cosine_correlation(rng.uniform(3, 7), rng.uniform(3, 7))
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_correlation(np.eye(2), np.eye(3))

    def test_zero_norm(self):
        with pytest.raises(DegenerateInputError):
            cosine_correlation(np.zeros((2, 2)), np.eye(2))


class TestLeastSquares:
    def test_identity_design_recovers_exactly(self):
        rng = SeededRng(4)
        g = rng.uniform(5, 5)
        r = least_squares_solve(np.eye(5), g)
        assert np.abs(r - g).max() < 1e-12

    def test_roundtrip_recovery(self):
        rng = SeededRng(5)
        r0 = rng.uniform(4, 4)
        x = rng.uniform(4, 100)
        r = least_squares_solve(x, r0 @ x)
        assert np.abs(r - r0).max() < 1e-10

    def test_residual_beats_random_candidates(self):
        rng = SeededRng(6)
        x = rng.uniform(4, 60)
        y = rng.uniform(4, 60)
        r = least_squares_solve(x, y)
        best = frobenius(y - r @ x)
        for _ in range(100):
            m = rng.uniform(4, 4, low=-1.0, high=1.0)
            assert best <= frobenius(y - m @ x) + 1e-9

    def test_residual_orthogonal_to_row_space(self):
        rng = SeededRng(7)
        x = rng.uniform(3, 40)
        y = rng.uniform(3, 40)
        r = least_squares_solve(x, y)
        assert np.abs((y - r @ x) @ x.T).max() < 1e-10

    def test_rank_deficient_rejected_with_cond(self):
        x = np.zeros((3, 10))
        x[0] = 1.0
        x[1] = 2.0 * x[0]
        with pytest.raises(SingularSystemError) as err:
            least_squares_solve(x, np.ones((3, 10)))
        assert err.value.cond > 1e12 or not np.isfinite(err.value.cond)


class TestFiniteDifference:
    def test_quadratic(self):
        g = finite_difference_gradient(lambda p: float(p @ p), np.array([1.0, 2.0]), 1e-5)
        assert np.abs(g - [2.0, 4.0]).max() < 1e-8

    def test_constant(self):
        g = finite_difference_gradient(lambda p: 3.5, np.array([0.3, -0.2, 1.0]), 1e-5)
        assert np.abs(g).max() < 1e-10

    def test_nonfinite_loss_raises(self):
        from lconv.numerics import EvaluationError
        with pytest.raises(EvaluationError):
            finite_difference_gradient(lambda p: float("nan"), np.array([1.0]), 1e-5)


class TestSeededRng:
    def test_streams_reproducible(self):
        a = SeededRng(99).uniform(10, 10)
        b = SeededRng(99).uniform(10, 10)
        assert np.array_equal(a, b)

    def test_range_convention(self):
        u = SeededRng(3).uniform(100, 100)
        assert u.min() >= -0.5 and u.max() < 0.5

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).uniform(5, 5), SeededRng(2).uniform(5, 5))

    @pytest.mark.parametrize("rows, cols, low, high", [
        (1, 1, -0.5, 0.5), (8, 50, -0.5, 0.5), (49, 3, 0.0, np.pi / 3),
        (7, 11, -3.0, 1e-3), (200, 9, 2.5, 7.25)])
    def test_uniform_bits_equal_reference_expression(self, rows, cols, low, high):
        # scaled in place: the same two roundings as low + (high - low) * u
        u = np.random.Generator(np.random.PCG64(17)).random((rows, cols))
        got = SeededRng(17).uniform(rows, cols, low=low, high=high)
        assert got.tobytes() == (low + (high - low) * u).tobytes()


class TestMatrixIO:
    def test_identity_roundtrip_bitexact(self, tmp_path):
        p = tmp_path / "eye.mat"
        write_matrix(p, np.eye(3))
        assert np.array_equal(read_matrix(p), np.eye(3))

    def test_large_random_roundtrip_bitexact(self, tmp_path):
        m = SeededRng(8).uniform(1000, 1000)
        p = tmp_path / "big.mat"
        write_matrix(p, m)
        back = read_matrix(p)
        assert back.dtype == np.float64 and np.array_equal(back, m)

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "trunc.mat"
        write_matrix(p, np.eye(4))
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(FormatError) as err:
            read_matrix(p)
        assert err.value.offset == len(raw) - 8

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mat"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(FormatError) as err:
            read_matrix(p)
        assert err.value.offset == 0

    def test_nonfinite_rejected_on_write(self, tmp_path):
        m = np.ones((2, 2))
        m[0, 0] = np.inf
        with pytest.raises(DegenerateInputError):
            write_matrix(tmp_path / "inf.mat", m)


class TestCsv:
    def test_rfc4180_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ("a", "b"), [(1, 0.5), (2, 1.25)])
        raw = p.read_bytes()
        assert raw == b"a,b\r\n1,0.5\r\n2,1.25\r\n"

    def test_numpy_scalars_written_as_numbers(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ("a", "b", "c"),
                  [(np.float64(0.1), np.float32(0.5), np.int64(3))])
        assert p.read_bytes() == b"a,b,c\r\n0.1,0.5,3\r\n"
