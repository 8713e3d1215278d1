import numpy as np
import pytest

from lconv.fieldtheory import (FieldTheoryTerms, el_residual, field_terms,
                               helmholtz_convergence, helmholtz_field,
                               loss_invariance_check, loss_terms,
                               metric_equivariance_check, mse_loss_decomposed,
                               mse_loss_direct, noether_divergence)
from lconv.groups import sw_shift_generator, sw_shift_matrix
from lconv.layer import LConvLayer
from lconv.numerics import DimensionError, SeededRng


def nyquist_free(values):
    spec = np.fft.rfft(values, axis=0)
    spec[-1] = 0.0
    return np.fft.irfft(spec, n=values.shape[0], axis=0)


def scalar_terms(eps_scale, m2=1.0):
    return FieldTheoryTerms(
        m2=np.array([[m2]]),
        channel_metric=[[np.array([[eps_scale ** 2 * m2]])]],
        v=[np.array([[eps_scale * m2]])])


class TestFieldTerms:
    def test_identity_w0(self):
        layer = LConvLayer(np.eye(3), [SeededRng(50).uniform(3, 3)],
                           [sw_shift_generator(8)])
        terms = field_terms(layer)
        assert np.array_equal(terms.m2, np.eye(3))

    def test_single_scalar_channel_metric(self):
        eps = 0.3
        layer = LConvLayer(np.array([[0.7]]), [np.array([[eps]])], [sw_shift_generator(8)])
        terms = field_terms(layer)
        m2 = 0.49
        assert terms.channel_metric[0][0] == pytest.approx(eps * eps * m2)
        assert terms.v[0] == pytest.approx(eps * m2)

    def test_m2_positive_semidefinite(self):
        rng = SeededRng(51)
        for _ in range(10):
            w0 = rng.uniform_signed(1.0, (4, int(rng.integers(1, 6))))
            layer = LConvLayer(w0, [np.zeros((4, 4))], [sw_shift_generator(6)])
            eig = np.linalg.eigvalsh(field_terms(layer).m2)
            assert eig.min() >= -1e-12


class TestLossDecomposition:
    def test_zero_field(self):
        layer = LConvLayer(np.eye(2), [0.2 * np.eye(2)], [sw_shift_generator(8)])
        assert mse_loss_direct(np.zeros((8, 2)), layer) == 0.0

    def test_zero_eps_is_pure_mass_term(self):
        rng = SeededRng(52)
        layer = LConvLayer(rng.uniform(2, 2), [np.zeros((2, 2))], [sw_shift_generator(8)])
        phi = rng.uniform(8, 2)
        expected = float(np.sum((phi @ layer.w0) ** 2))
        assert mse_loss_direct(phi, layer) == pytest.approx(expected, rel=1e-14)

    def test_single_channel_matrix_eps_identity(self):
        rng = SeededRng(53)
        gen = sw_shift_generator(16)
        layer = LConvLayer(np.array([[0.8]]), [np.array([[0.35]])], [gen])
        phi = rng.uniform(16, 1)
        direct = mse_loss_direct(phi, layer)
        dec = mse_loss_decomposed(phi, field_terms(layer), [gen])
        assert abs(direct - dec) < 1e-8 * max(1.0, direct)

    def test_constant_field_mass_only(self):
        gen = sw_shift_generator(8)
        layer = LConvLayer(np.array([[0.5]]), [np.array([[0.3]])], [gen])
        phi = np.full((8, 1), 1.7)
        mass, kinetic, div = loss_terms(phi, field_terms(layer), [gen])
        assert kinetic < 1e-20
        assert abs(div) < 1e-12
        assert mass == pytest.approx(8 * (0.5 * 1.7) ** 2, rel=1e-12)

    def test_random_instances_scalar_eps(self):
        rng = SeededRng(54)
        for _ in range(10):
            d = int(rng.integers(4, 17)) * 2
            m = int(rng.integers(1, 4))
            gen = sw_shift_generator(d)
            layer = LConvLayer(rng.uniform_signed(0.9, (m, m)),
                               [rng.uniform_signed(0.5, ()) * np.eye(m)],
                               [gen])
            phi = rng.uniform(d, m)
            terms = field_terms(layer)
            direct = mse_loss_direct(phi, layer)
            dec = mse_loss_decomposed(phi, terms, [gen])
            assert abs(direct - dec) / direct < 1e-6
            assert abs(loss_terms(phi, terms, [gen])[2]) < 1e-9

    def test_matrix_eps_gap_closed_form(self):
        rng = SeededRng(55)
        d, m = 12, 3
        gen = sw_shift_generator(d)
        layer = LConvLayer(rng.uniform_signed(0.8, (m, m)),
                           [rng.uniform_signed(0.4, (m, m))], [gen])
        phi = rng.uniform(d, m)
        terms = field_terms(layer)
        gap = mse_loss_direct(phi, layer) - mse_loss_decomposed(phi, terms, [gen])
        # 2 sum_i <skew(v^i), Phi^T L_i Phi>, zero when every v^i is symmetric
        skew_v = 0.5 * (terms.v[0] - terms.v[0].T)
        closed_form = 2.0 * float(np.sum(skew_v * (phi.T @ (gen @ phi))))
        assert gap == pytest.approx(closed_form, abs=1e-10)

    def test_two_axis_image_grid(self):
        rng = SeededRng(56)
        w = h = 8
        ddx = np.kron(np.eye(h), sw_shift_generator(w))
        ddy = np.kron(sw_shift_generator(h), np.eye(w))
        gens = [ddx, ddy]
        layer = LConvLayer(rng.uniform_signed(0.7, (2, 2)),
                           [0.21 * np.eye(2), -0.4 * np.eye(2)], gens)
        phi = rng.uniform(w * h, 2)
        terms = field_terms(layer)
        direct = mse_loss_direct(phi, layer)
        dec = mse_loss_decomposed(phi, terms, gens)
        assert abs(direct - dec) / direct < 1e-6


class TestLossInvariance:
    def _layer_and_sample(self, seed, d=16, m=2):
        rng = SeededRng(seed)
        layer = LConvLayer(rng.uniform_signed(0.8, (m, m)),
                           [rng.uniform_signed(0.4, ()) * np.eye(m)],
                           [sw_shift_generator(d)])
        return layer, rng.uniform(d, m)

    def test_identity(self):
        layer, phi = self._layer_and_sample(57)
        assert loss_invariance_check(phi, layer, np.eye(16)) == 0.0

    def test_integer_shift_any_field(self):
        layer, phi = self._layer_and_sample(58)
        assert loss_invariance_check(phi, layer, sw_shift_matrix(16, 5)) < 1e-12

    def test_fractional_shift_on_band_limited_field(self):
        layer, phi = self._layer_and_sample(59)
        phi = nyquist_free(phi)
        assert loss_invariance_check(phi, layer, sw_shift_matrix(16, 0.5)) < 1e-9


class TestVariationalDiagnostics:
    def test_zero_field_zero_residual(self):
        terms = scalar_terms(1.0)
        res = el_residual(np.zeros((32, 1)), 0.1, terms)
        assert np.abs(res).max() == 0.0

    def test_helmholtz_residual_and_convergence(self):
        rows = helmholtz_convergence([32, 64, 128], 1.0)
        res = [r[1] for r in rows]
        assert res[-1] <= 1e-3
        slope = np.polyfit(np.log([r[0] for r in rows]), np.log(res), 1)[0]
        assert abs(slope + 2.0) < 0.3

    def test_noether_divergence_and_convergence(self):
        rows = helmholtz_convergence([32, 64, 128], 1.0)
        div = [r[2] for r in rows]
        assert div[-1] <= 5e-3
        slope = np.polyfit(np.log([r[0] for r in rows]), np.log(div), 1)[0]
        assert abs(slope + 2.0) < 0.3

    def test_constant_field_zero_current(self):
        terms = scalar_terms(0.7, m2=0.0)
        phi = np.full((64, 1), 2.2)
        assert noether_divergence(phi, 0.05, terms) < 1e-14

    def test_random_field_negative_control(self):
        rng = SeededRng(60)
        terms = scalar_terms(1.0)
        dx, _ = helmholtz_field(128, 1.0)
        phi = rng.uniform(128, 1)
        assert np.abs(el_residual(phi, dx, terms)).max() > 1e-3
        assert noether_divergence(phi, dx, terms) > 1e-3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_grids(self, n):
        # the EL residual needs an interior point (n >= 3); the Noether
        # divergence differences a current built from differences (n >= 5)
        terms = scalar_terms(1.0)
        dx, phi = helmholtz_field(n, 1.0)
        if n < 3:
            with pytest.raises(DimensionError, match="3 grid points"):
                el_residual(phi, dx, terms)
        else:
            assert el_residual(phi, dx, terms).shape == (n - 2, 1)
        with pytest.raises(DimensionError, match="5 grid points"):
            noether_divergence(phi, dx, terms)
        with pytest.raises(DimensionError, match="5 points"):
            helmholtz_convergence([32, n], 1.0)


class TestMetricEquivariance:
    def test_zero_rotation(self):
        assert metric_equivariance_check(0.3, 0.8, 0.0, 1.2) < 1e-15

    def test_full_alignment(self):
        theta = 0.9
        assert metric_equivariance_check(0.5, 1.1, theta, theta) < 1e-10

    def test_random_angles(self):
        rng = SeededRng(61)
        for _ in range(20):
            xi, theta = rng.uniform(2, 1, low=0, high=2 * np.pi).ravel()
            assert metric_equivariance_check(0.4, 0.9, xi, theta) <= 1e-10

    def test_matrix_channel_block(self):
        rng = SeededRng(62)
        eps = rng.uniform_signed(0.5, (2, 2))
        w0 = rng.uniform_signed(1.0, (2, 2))
        assert metric_equivariance_check(eps, w0, 1.3, 0.4) <= 1e-10
