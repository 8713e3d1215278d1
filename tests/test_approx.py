import numpy as np
import pytest

from lconv.approx import (approx_group_element, circular_convolve,
                          cnn_equivalence_check, fit_loglog_slope,
                          gconv_reference, shift_approx_sweep)
from lconv.groups import (_circulant, _sw_generator_band,
                          sw_rotation_generator, sw_shift_generator,
                          sw_shift_matrix)
from lconv.layer import LConvLayer, group_action
from lconv.numerics import (DegenerateInputError, DimensionError, LconvError,
                            SeededRng, cosine_correlation, frobenius)


def _shifts(d, offsets):
    """The matrices of the integer SW shifts g_mu, as gconv_reference anchors."""
    return [sw_shift_matrix(d, mu).matrix for mu in offsets]


class TestGconvReference:
    def test_two_shift_anchors_match_direct_shifts(self):
        rng = SeededRng(41)
        d = 12
        f = rng.uniform(d, 1)
        out = gconv_reference(f, _shifts(d, [1, 2]), [0.7, -0.3])
        direct = 0.7 * np.roll(f, 1, axis=0) - 0.3 * np.roll(f, 2, axis=0)
        assert np.abs(out - direct).max() < 1e-10

    def test_zero_weights(self):
        d = 8
        f = SeededRng(42).uniform(d, 1)
        assert np.abs(gconv_reference(f, _shifts(d, [0, 1]), [0.0, 0.0])).max() == 0.0

    def test_equivariance_under_commuting_shifts(self):
        rng = SeededRng(43)
        d = 16
        f = rng.uniform(d, 2)
        anchors, weights = _shifts(d, [0, 1, 3]), [0.5, 0.3, -0.1]
        for z in (1.0, 0.4, -2.3):
            w = sw_shift_matrix(d, z)
            lhs = gconv_reference(group_action(w, f), anchors, weights)
            rhs = group_action(w, gconv_reference(f, anchors, weights))
            assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError, match="does not act on f's 6 rows"):
            gconv_reference(np.zeros((6, 1)), _shifts(8, [0]), [1.0])

    def test_anchor_not_square(self):
        with pytest.raises(DimensionError, match=r"shape \(8, 4\)"):
            gconv_reference(np.zeros((8, 1)), [np.eye(8), np.zeros((8, 4))], [1.0, 1.0])

    def test_needs_an_anchor(self):
        with pytest.raises(DimensionError, match="at least one anchor"):
            gconv_reference(np.zeros((8, 1)), [], [])

    def test_one_weight_per_anchor(self):
        with pytest.raises(DimensionError, match="2 anchors vs 1 weights"):
            gconv_reference(np.zeros((8, 1)), _shifts(8, [0, 1]), [1.0])


class TestApproxGroupElement:
    def test_zero_parameter_is_identity(self):
        gen = sw_shift_generator(8)
        for n in (1, 5, 64):
            assert np.abs(approx_group_element(gen, 0.0, n) - np.eye(8)).max() == 0.0

    def test_error_monotone_in_steps(self):
        d = 20
        rows = shift_approx_sweep(d, 2.0, [4, 8, 16, 32, 64])
        errs = [r[2] for r in rows]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        corrs = [r[3] for r in rows]
        assert all(corrs[i + 1] > corrs[i] for i in range(len(corrs) - 1))

    def test_paper_correlation_regime(self):
        # the d = 20 grid reproduces the reported two-pixel-shift quality:
        # about 0.77 at n = 8 and 0.93 at n = 16
        rows = dict((r[0], r[3]) for r in shift_approx_sweep(20, 2.0, [8, 16, 256]))
        assert abs(rows[8] - 0.77) < 0.05
        assert abs(rows[16] - 0.93) < 0.05
        assert rows[256] > 0.999

    def test_near_convergence_at_many_steps(self):
        for d in (16, 64):
            gen = sw_shift_generator(d)
            exact = sw_shift_matrix(d, 2.0).matrix
            approx = approx_group_element(gen, 2.0, 256)
            assert cosine_correlation(approx, exact) > 0.999

    @pytest.mark.parametrize("d", [8, 20, 64, 256])
    def test_sweep_matches_dense_scores(self, d):
        # the sweep scores the two circulants by their first columns; the
        # dense d x d formulas are the reference
        gen = sw_shift_generator(d)
        ns = [1, 4, 16, 256]
        for z in (2.0, -2.3, 0.5):
            exact = sw_shift_matrix(d, z).matrix
            for (n, eta, err, corr), m in zip(shift_approx_sweep(d, z, ns), ns):
                dense = approx_group_element(gen, z, m)
                assert (n, eta) == (m, z / m)
                ref_err = frobenius(dense - exact)
                ref_corr = cosine_correlation(dense, exact)
                assert abs(err - ref_err) <= 1e-13 * abs(ref_err), (z, n, err, ref_err)
                assert abs(corr - ref_corr) <= 1e-13 * abs(ref_corr), (z, n, corr, ref_corr)


def dense_power(gen, z, n):
    """The dense reference: matrix_power of the step."""
    return np.linalg.matrix_power(np.eye(len(gen)) + (z / n) * gen, n)


def _odd_circulant():
    return _circulant(_sw_generator_band(7))


def _one_ulp_off_sw():
    l = sw_shift_generator(16)
    l[3, 5] = np.nextafter(l[3, 5], np.inf)
    return l


def _low_rank():
    rng = SeededRng(48)
    return rng.uniform(12, 3) @ rng.uniform(3, 12)


ROLL_CASES = {"sw d=8": lambda: sw_shift_generator(8),
              "sw d=64": lambda: sw_shift_generator(64), "odd": _odd_circulant}

CIRCULANTS = [sw_shift_generator(d) for d in (8, 12, 20, 64)] + [_odd_circulant()]


class TestCirculantPower:
    """Exactly circulant generators are powered in Fourier space."""

    @pytest.mark.parametrize("gen", CIRCULANTS, ids=[
        "sw-shift-generator d=8", "sw-shift-generator d=12",
        "sw-shift-generator d=20", "sw-shift-generator d=64", "odd"])
    @pytest.mark.parametrize("z", [0.0, 2.0, -2.3])
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 1024])
    def test_matches_dense_power(self, gen, z, n):
        m = approx_group_element(gen, z, n)
        assert m.dtype == np.float64 and m.flags.c_contiguous
        assert np.abs(m - dense_power(gen, z, n)).max() <= 1e-11
        if z == 0.0:
            assert np.array_equal(m, np.eye(len(gen)))

    def test_matches_dense_power_d1024(self):
        gen = sw_shift_generator(1024)
        m = approx_group_element(gen, -2.3, 1024)
        assert m.dtype == np.float64 and m.flags.c_contiguous
        assert np.abs(m - dense_power(gen, -2.3, 1024)).max() <= 1e-11

    @pytest.mark.parametrize("gen", [
        sw_rotation_generator(7, 7),
        SeededRng(47).uniform(10, 10),
        _low_rank(),
        _one_ulp_off_sw(),
        np.ones((4, 8)),
        np.ones((8, 4)),
    ], ids=["sw-rotation-generator 7x7", "random dense", "low rank",
            "sw one ulp off", "constant 4x8", "constant 8x4"])
    def test_other_generators_rejected(self, gen):
        for z, n in ((2.0, 5), (-2.3, 64)):
            with pytest.raises(DegenerateInputError, match="not exactly circulant"):
                approx_group_element(gen, z, n)

    @pytest.mark.parametrize("name", list(ROLL_CASES))
    @pytest.mark.parametrize("change", ["none", "ulp at (0, 0)", "ulp at (0, j)",
                                        "ulp at (i, 0)", "ulp at (d-1, d-1)",
                                        "ulp at (0, d-1)", "ulp at (d-1, 0)",
                                        "ulp inside", "nan diagonal"])
    def test_circulant_rule_is_the_roll_rule(self, name, change):
        # accepted exactly when bit-equal to the diagonal roll; (0, d-1) and
        # (d-1, 0) are seen only by the wrapped row and column
        gen = ROLL_CASES[name]()
        d = len(gen)
        where = {"ulp at (0, 0)": (0, 0), "ulp at (0, j)": (0, d // 2),
                 "ulp at (i, 0)": (d - 2, 0), "ulp at (d-1, d-1)": (d - 1, d - 1),
                 "ulp at (0, d-1)": (0, d - 1), "ulp at (d-1, 0)": (d - 1, 0),
                 "ulp inside": (2, d - 3)}.get(change)
        if where is not None:
            gen[where] = np.nextafter(gen[where], np.inf)
        if change == "nan diagonal":
            # still a circulant pattern, but NaN != NaN
            np.fill_diagonal(gen, np.nan)
        rolled = np.array_equal(np.roll(gen, (1, 1), axis=(0, 1)), gen)
        assert rolled == (change == "none")
        if rolled:
            assert approx_group_element(gen, 2.0, 4).shape == (d, d)
        else:
            with pytest.raises(DegenerateInputError, match="not exactly circulant"):
                approx_group_element(gen, 2.0, 4)

    def test_one_by_one_is_its_own_roll(self):
        # only the corner compare sees a 1 x 1 generator
        assert approx_group_element(np.array([[0.5]]), 2.0, 4).shape == (1, 1)
        with pytest.raises(DegenerateInputError, match="not exactly circulant"):
            approx_group_element(np.array([[np.nan]]), 2.0, 4)

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_step_count_must_be_an_integer(self, n):
        with pytest.raises(LconvError):
            approx_group_element(sw_shift_generator(8), 2.0, n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_step_count_at_least_one(self, n):
        with pytest.raises(DimensionError):
            approx_group_element(sw_shift_generator(8), 2.0, n)

    @pytest.mark.parametrize("imag", [0.0, 1e-3], ids=["zero-imag", "imag"])
    def test_complex_generator_raises(self, imag):
        # a circulant complex generator would otherwise be cast to real,
        # its imaginary part dropped, and powered on the Fourier path
        gen = sw_shift_generator(8) + 1j * imag * np.eye(8)
        with pytest.raises(DegenerateInputError):
            approx_group_element(gen, 2.0, 4)
        with pytest.raises(DegenerateInputError):
            LConvLayer(np.eye(1), [np.eye(1)], [gen])


def stack_transport(gen, eps, n):
    """The matrix that n W0 = I layers with the 1 x 1 eps [[eps]] apply to
    f: column b is the stack applied to the unit image e_b."""
    layer = LConvLayer(np.eye(1), [np.array([[eps]])], [gen])
    f = np.eye(len(gen))[:, :, None]
    for _ in range(n):
        f = layer.forward(f)
    return f[:, :, 0].T


class TestLconvStack:
    def test_identity_anchor(self):
        gen = sw_shift_generator(8)
        assert np.abs(stack_transport(gen, 0.0, 4) - np.eye(8)).max() == 0.0

    def test_stack_equals_power_construction(self):
        gen = sw_shift_generator(12)
        n = 6
        direct = approx_group_element(gen, 2.0, n)
        assert np.abs(stack_transport(gen, 2.0 / n, n) - direct).max() < 1e-12

    def test_error_order_single_step_and_composed(self):
        d = 16
        gen = sw_shift_generator(d)
        # single step: || (I + eta L) - g(eta) || ~ O(eta^2)
        etas = [0.2, 0.1, 0.05, 0.025]
        single = [np.linalg.norm(np.eye(d) + eta * gen
                                 - sw_shift_matrix(d, eta).matrix)
                  for eta in etas]
        assert abs(fit_loglog_slope(etas, single) - 2.0) < 0.3
        # composed at fixed total shift z = 2: error ~ O(eta) with eta = z/n
        # (asymptotic step counts; the coarse-n prefactor inflates the slope)
        ns = [32, 64, 128, 256]
        exact = sw_shift_matrix(d, 2.0).matrix
        composed = [np.linalg.norm(approx_group_element(gen, 2.0, n) - exact)
                    for n in ns]
        assert abs(fit_loglog_slope([2.0 / n for n in ns], composed) - 1.0) < 0.2


class TestCnnEquivalence:
    def test_identity_kernel(self):
        f = np.arange(8, dtype=np.float64)[:, None]
        assert cnn_equivalence_check([1.0], 8, f) < 1e-12

    def test_moving_average(self):
        rng = SeededRng(44)
        f = rng.uniform(8, 1)
        gap = cnn_equivalence_check([0.5, 0.5], 8, f=f)
        assert gap < 1e-10
        direct = 0.5 * f + 0.5 * np.roll(f, 1, axis=0)
        out = gconv_reference(f, _shifts(8, [0, 1]), [0.5, 0.5])
        assert np.abs(out - direct).max() < 1e-10

    def test_one_hot_offset(self):
        rng = SeededRng(45)
        f = rng.uniform(12, 1)
        assert cnn_equivalence_check([0.0, 0.0, 0.0, 1.0], 12, f=f) < 1e-10

    def test_random_kernels(self):
        rng = SeededRng(46)
        for _ in range(10):
            d = 2 * int(rng.integers(3, 17))   # even sizes up to 32
            k = int(rng.integers(1, 6))
            taps = rng.uniform(k, 1).ravel()
            f = rng.uniform(d, 2)
            assert cnn_equivalence_check(taps, d, f=f) <= 1e-9

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            cnn_equivalence_check(np.ones(9), 8, np.zeros((8, 1)))

    def test_circular_convolve_reference(self):
        f = np.arange(5, dtype=float)[:, None]
        out = circular_convolve(f, [0.0, 1.0])
        assert np.array_equal(out.ravel(), np.roll(np.arange(5.0), 1))

