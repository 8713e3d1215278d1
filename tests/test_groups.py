import numpy as np
import pytest

from lconv.groups import (UnsupportedSizeError, _circulant, image_coords,
                          rotation_matrix_bilinear, sw_rotation_generator,
                          sw_shift_generator, sw_shift_matrix)
from lconv.numerics import SeededRng, cosine_correlation


def exact_shift(d, mu):
    m = np.zeros((d, d))
    m[np.arange(d), (np.arange(d) + mu) % d] = 1.0
    return m


class TestSwShift:
    def test_zero_is_identity(self):
        for d in (8, 16, 32):
            assert np.abs(sw_shift_matrix(d, 0.0) - np.eye(d)).max() < 1e-12

    def test_integer_shift_exact(self):
        for d in (8, 16, 32, 64):
            for mu in (1, 3, -2):
                g = sw_shift_matrix(d, mu)
                assert np.abs(g - exact_shift(d, mu)).max() < 1e-10

    def test_integer_closure(self):
        rng = SeededRng(10)
        d = 16
        for _ in range(50):
            w, z = (int(v) for v in rng.integers(-d, d, size=2))
            gw = sw_shift_matrix(d, w)
            gz = sw_shift_matrix(d, z)
            gwz = sw_shift_matrix(d, w + z)
            rel = np.linalg.norm(gw @ gz - gwz) / np.linalg.norm(gwz)
            assert rel < 1e-9

    def test_fractional_closure_off_nyquist(self):
        # g(w)g(z) = g(w+z) exactly on the Nyquist complement; the single
        # unpaired mode of an even grid carries the residual, whose size is
        # |sin(pi w) sin(pi z)| in closed form.
        d = 16
        ga = sw_shift_matrix(d, 0.3)
        gb = sw_shift_matrix(d, 0.7)
        gab = sw_shift_matrix(d, 1.0)
        diff = ga @ gb - gab
        nyq = np.cos(np.pi * np.arange(d)) / np.sqrt(d)
        deflated = diff - np.outer(nyq, nyq) * (nyq @ diff @ nyq)
        assert np.linalg.norm(deflated) < 1e-10
        assert abs(np.linalg.norm(diff)
                   - abs(np.sin(np.pi * 0.3) * np.sin(np.pi * 0.7))) < 1e-10

    def test_inverse_field(self):
        # the inverse is built by the parameter: g(-2) undoes g(2)
        d = 12
        inv = sw_shift_matrix(d, -2.0)
        assert np.abs(inv - exact_shift(d, -2)).max() < 1e-10
        assert np.abs(inv @ sw_shift_matrix(d, 2.0) - np.eye(d)).max() < 1e-10

    @pytest.mark.parametrize("d", [4, 16, 64, 1024])
    def test_reverse_shift_is_transpose(self, d):
        # D is even, so g(-z) = g(z)^T: the action w^{-T} f is w f
        for z in (0.3, -1.7, 2.4, 0.05, -123.4):
            gap = np.abs(sw_shift_matrix(d, -z) - sw_shift_matrix(d, z).T).max()
            assert gap <= 1e-12, (z, gap)

    def test_odd_size_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            sw_shift_matrix(9, 0.5)
        with pytest.raises(UnsupportedSizeError):
            sw_shift_generator(9)


class TestCirculant:
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 1024])
    def test_bits_match_loop_reference(self, d):
        band = SeededRng(d).uniform(d, 1).ravel()
        loop = np.array([[band[(i - j) % d] for j in range(d)] for i in range(d)])
        c = _circulant(band)
        assert c.dtype == np.float64 and c.flags.c_contiguous
        assert np.array_equal(c, loop)


class TestSwGenerator:
    def test_diagonal_zero_and_skew(self):
        for d in (8, 16, 64):
            l = sw_shift_generator(d)
            assert np.abs(np.diag(l)).max() < 1e-14
            assert np.abs(l + l.T).max() < 1e-12

    def test_matches_shift_derivative(self):
        d = 16
        h = 1e-5
        fd = (sw_shift_matrix(d, h) - sw_shift_matrix(d, -h)) / (2 * h)
        assert np.abs(sw_shift_generator(d) - fd).max() < 1e-6

    def test_acts_as_first_derivative_with_refinement(self):
        # L f approximates +df/dx for band-limited f; error decays as d grows
        errs = []
        for d in (16, 32, 64):
            x = np.arange(d)
            f = np.sin(2 * np.pi * x / d) + 0.3 * np.cos(4 * np.pi * x / d)
            fp = ((2 * np.pi / d) * np.cos(2 * np.pi * x / d)
                  - 0.3 * (4 * np.pi / d) * np.sin(4 * np.pi * x / d))
            errs.append(np.abs(sw_shift_generator(d) @ f - fp).max())
        assert errs[0] < 1e-12    # exact on its Fourier support
        assert all(e < 1e-12 for e in errs)

    def test_commutes_with_shifts(self):
        d = 32
        l = sw_shift_generator(d)
        for z in (0.4, 1.0, 2.7):
            g = sw_shift_matrix(d, z)
            assert np.linalg.norm(l @ g - g @ l) < 1e-9


class TestRotationBilinear:
    def test_zero_angle_identity(self):
        assert np.array_equal(rotation_matrix_bilinear(7, 7, 0.0), np.eye(49))

    def test_rows_at_most_four_weights_summing_to_one_or_less(self):
        m = rotation_matrix_bilinear(9, 7, 0.7)
        assert ((m > 0).sum(axis=1) <= 4).all()
        assert (m.sum(axis=1) <= 1.0 + 1e-12).all()

    def test_quarter_turn_permutation_fourth_power(self):
        r = rotation_matrix_bilinear(7, 7, np.pi / 2)
        assert np.abs(np.linalg.matrix_power(r, 4) - np.eye(49)).max() < 1e-10

    def test_roundtrip_on_smooth_interior_fields(self):
        # bilinear resampling is exact on linear fields; on a mild quadratic
        # the double resample stays within 0.02 at interior pixels
        x, y = image_coords(7, 7)
        interior = (np.abs(x) <= 1.5) & (np.abs(y) <= 1.5)
        r = rotation_matrix_bilinear(7, 7, np.pi / 10)
        r_inv = rotation_matrix_bilinear(7, 7, -np.pi / 10)
        linear = 0.1 * x + 0.2 * y + 0.3
        assert np.abs((r @ (r_inv @ linear) - linear))[interior].max() < 1e-12
        quad = (x * x + y * y) / 50.0
        assert np.abs((r @ (r_inv @ quad) - quad))[interior].max() < 0.02

    def test_intensity_preserved_for_interior_supported_smooth_images(self):
        for n in (16, 24):
            x, y = image_coords(n, n)
            f = np.exp(-((x / (n / 6.0)) ** 2 + (y / (n / 6.0)) ** 2))
            for theta in (-np.pi / 4, 0.3, np.pi / 4):
                ratio = (rotation_matrix_bilinear(n, n, theta) @ f).sum() / f.sum()
                assert abs(ratio - 1.0) < 0.01


class TestSwRotationGenerator:
    def test_annihilates_constants(self):
        l = sw_rotation_generator(8, 8)
        assert np.abs(l @ np.ones(64)).max() < 1e-8

    def test_skew(self):
        l = sw_rotation_generator(8, 6)
        assert np.abs(l + l.T).max() < 1e-10

    def test_rotation_invariant_field_killed_interior(self):
        # r^2 in unit-box coordinates is rotation invariant; the generator's
        # residual at the central quarter box shrinks O(1/d)
        errs = []
        for n in (16, 32, 64):
            l = sw_rotation_generator(n, n)
            x, y = image_coords(n, n)
            s = 2.0 / n
            r2 = (x * s) ** 2 + (y * s) ** 2
            inner = (np.abs(x * s) <= 0.5) & (np.abs(y * s) <= 0.5)
            errs.append(np.abs(l @ r2)[inner].max())
        assert errs[0] < 0.05
        assert errs[2] < errs[0] / 2

    def test_first_order_consistency_with_bilinear_rotation(self):
        # R(theta) ~ I + theta L on smooth interior-supported fields
        n = 16
        l = sw_rotation_generator(n, n)
        x, y = image_coords(n, n)
        f = np.exp(-(((x - 2.0) ** 2 + (y + 1.0) ** 2) / 6.0))
        theta = 0.05
        rp = rotation_matrix_bilinear(n, n, theta)
        rm = rotation_matrix_bilinear(n, n, -theta)
        lhs = (rp @ f - rm @ f) / (2 * theta)
        assert cosine_correlation(lhs[:, None], (l @ f)[:, None]) > 0.99

    def test_odd_sizes_supported(self):
        l = sw_rotation_generator(7, 7)
        assert l.shape == (49, 49)
        assert np.abs(l + l.T).max() < 1e-10
