import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lconv.discovery import (AngleRegressionTask, FixedAngleTask, OptimizerConfig,
                             train_angle_regression, train_fixed_angle)
from lconv.groups import sw_shift_generator, sw_shift_matrix
from lconv.layer import (LConvLayer, equivariance_residual,
                         gcn_propagation_matrix, gcn_reduction_check,
                         load_checkpoint, save_checkpoint)
from lconv.numerics import (DimensionError, FormatError, SeededRng,
                            finite_difference_gradient)


def random_layer(rng, d, m_in, m_out, n_gen=1):
    """W0 ~ U(+-1/sqrt(m_in)), eps ~ U(+-0.1/n_gen), generators ~
    U(+-1/sqrt(d)): the generator term a perturbation of the residual path."""
    w0 = rng.uniform_signed(1.0 / np.sqrt(m_in), (m_in, m_out))
    eps = [rng.uniform_signed(0.1 / n_gen, (m_in, m_in)) for _ in range(n_gen)]
    gens = [rng.uniform_signed(1.0 / np.sqrt(d), (d, d)) for _ in range(n_gen)]
    return LConvLayer(w0, eps, gens)


class TestForward:
    def test_zero_eps_is_pure_channel_mix(self):
        rng = SeededRng(20)
        w0 = rng.uniform(3, 2)
        layer = LConvLayer(w0, [np.zeros((3, 3))], [rng.uniform(5, 5)])
        f = rng.uniform(5, 3)
        assert np.abs(layer.forward(f) - f @ w0).max() < 1e-15

    def test_near_identity_transport(self):
        rng = SeededRng(21)
        d = 8
        l = sw_shift_generator(d)
        f = rng.uniform(d, 1)
        layer = LConvLayer(np.eye(1), [np.array([[0.01]])], [l])
        expected = f + 0.01 * (l @ f)
        assert np.abs(layer.forward(f) - expected).max() < 1e-14

    def test_hand_computed_ring(self):
        # d=3 ring with central-difference circulant, f = (1,2,3), eps = 0.1
        l = np.array([[0.0, 0.5, -0.5], [-0.5, 0.0, 0.5], [0.5, -0.5, 0.0]])
        layer = LConvLayer(np.eye(1), [np.array([[0.1]])], [2.0 * l])
        f = np.array([[1.0], [2.0], [3.0]])
        out = layer.forward(f)
        assert np.allclose(out.ravel(), [0.9, 2.2, 2.9], atol=1e-14)

    def test_linearity(self):
        rng = SeededRng(22)
        layer = random_layer(rng, 6, 2, 3, n_gen=2)
        f, g = rng.uniform(6, 2), rng.uniform(6, 2)
        a, b = 1.3, -0.7
        lhs = layer.forward(a * f + b * g)
        rhs = a * layer.forward(f) + b * layer.forward(g)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_errors_name_axis(self):
        rng = SeededRng(23)
        layer = random_layer(rng, 6, 2, 3)
        with pytest.raises(DimensionError, match="channels"):
            layer.forward(rng.uniform(6, 4))
        with pytest.raises(DimensionError, match="grid"):
            layer.forward(rng.uniform(5, 2))

    @pytest.mark.parametrize("gens", [
        [np.zeros((4, 3))],
        [np.zeros((4, 4)), np.zeros((5, 5))],
    ], ids=["dense-4x3", "4-and-5"])
    def test_generators_must_be_d_by_d_for_one_d(self, gens):
        with pytest.raises(DimensionError, match="d x d"):
            LConvLayer(np.eye(1), [np.eye(1)] * len(gens), gens)

    def test_one_eps_per_generator(self):
        with pytest.raises(DimensionError, match="2 eps blocks vs 1 generators"):
            LConvLayer(np.eye(1), [np.eye(1), np.eye(1)], [np.eye(3)])

    def test_needs_a_generator(self):
        with pytest.raises(DimensionError, match="at least one generator"):
            LConvLayer(np.eye(2), [], [])

    def test_float64_generator_is_held_as_given(self):
        m = SeededRng(35).uniform(4, 4)
        assert LConvLayer(np.eye(1), [np.eye(1)], [m]).generators[0] is m

    @pytest.mark.parametrize("eps", [[0.3], [np.float64(0.3)], [np.array(-0.2)]],
                             ids=["float", "float64", "0-d array"])
    def test_zero_d_eps_rejected(self, eps):
        # a scalar coupling e is the matrix e I
        with pytest.raises(DimensionError, match="2-D"):
            LConvLayer(np.eye(1), eps, [sw_shift_generator(4)])

    def test_mixed_scalar_and_matrix_eps_rejected(self):
        with pytest.raises(DimensionError):
            LConvLayer(np.eye(1), [0.5, np.eye(1)], [np.eye(3), np.eye(3)])


class TestBackward:
    def test_zero_upstream_zero_gradients(self):
        rng = SeededRng(24)
        layer = random_layer(rng, 5, 2, 2)
        f = rng.uniform(5, 2)
        g = layer.backward(f, np.zeros((5, 2)))
        assert np.abs(g.dW0).max() == 0.0
        assert np.abs(g.d_generators[0]).max() == 0.0
        assert np.abs(g.d_input).max() == 0.0

    @pytest.mark.parametrize("trial", range(20))
    def test_all_gradients_match_finite_differences(self, trial):
        rng = SeededRng(1000 + trial)
        d = int(rng.integers(3, 9))
        m_in = int(rng.integers(1, 4))
        m_out = int(rng.integers(1, 4))
        w0 = rng.uniform_signed(0.8, (m_in, m_out))
        eps = rng.uniform_signed(0.4, (m_in, m_in))
        gen = rng.uniform_signed(0.6, (d, d))
        sizes = [(m_in, m_out), (m_in, m_in), (d, d)]
        f = rng.uniform_signed(0.7, (d, m_in))
        tgt = rng.uniform_signed(0.7, (d, m_out))

        def build(p):
            w0, eps, gen = np.split(p, np.cumsum([a * b for a, b in sizes])[:-1])
            return LConvLayer(w0.reshape(sizes[0]), [eps.reshape(sizes[1])],
                              [gen.reshape(sizes[2])])

        p0 = np.concatenate([w0.ravel(), eps.ravel(), gen.ravel()])

        def loss(p):
            return 0.5 * float(np.sum((build(p).forward(f) - tgt) ** 2))

        fd = finite_difference_gradient(loss, p0, 1e-6)
        layer = build(p0)
        g = layer.backward(f, layer.forward(f) - tgt)
        an = np.concatenate([g.dW0.ravel(), g.d_eps[0].ravel(),
                             g.d_generators[0].ravel()])
        # floor the denominator at a fraction of the gradient scale so the
        # check measures the analytic gradients, not FD noise on ~zero entries
        rel = np.abs(an - fd) / np.maximum(1e-4 * np.abs(fd).max(), np.abs(fd))
        assert rel.max() < 1e-5

    def test_input_gradient(self):
        rng = SeededRng(26)
        layer = random_layer(rng, 6, 2, 3, n_gen=2)
        f = rng.uniform(6, 2)
        tgt = rng.uniform(6, 3)

        def loss(p):
            return 0.5 * float(np.sum((layer.forward(p.reshape(6, 2)) - tgt) ** 2))

        fd = finite_difference_gradient(loss, f.ravel(), 1e-6)
        g = layer.backward(f, layer.forward(f) - tgt)
        assert np.abs(g.d_input.ravel() - fd).max() < 1e-7


class TestRecursive:
    def test_matches_matrix_power_for_scalar_eps(self):
        rng = SeededRng(28)
        d = 6
        l = rng.uniform(d, d)
        layer = LConvLayer(np.eye(1), [np.array([[0.2]])], [l])
        f = rng.uniform(d, 1)
        out = f
        for _ in range(4):
            out = layer.forward(out)
        expected = np.linalg.matrix_power(np.eye(d) + 0.2 * l, 4) @ f
        assert np.abs(out - expected).max() < 1e-12


class TestEquivariance:
    def test_identity_element_zero(self):
        rng = SeededRng(30)
        d = 8
        layer = LConvLayer(rng.uniform(2, 2), [rng.uniform(2, 2)],
                           [sw_shift_generator(d)])
        f = rng.uniform(d, 2)
        assert equivariance_residual(f, np.eye(d), layer) == 0.0

    def test_residual_reads_w_times_f(self):
        # a random w commutes with no generator, so the residual is large
        # and pins the action: w acts on features as w @ f
        rng = SeededRng(34)
        d = 8
        layer = LConvLayer(rng.uniform(2, 3), [rng.uniform(2, 2)],
                           [sw_shift_generator(d)])
        f = rng.uniform(d, 2)
        w = rng.uniform_signed(1.0, (d, d))
        qf = layer.forward(f)
        expected = np.linalg.norm(layer.forward(w @ f) - w @ qf) / np.linalg.norm(qf)
        got = equivariance_residual(f, w, layer)
        assert expected > 0.1
        assert abs(got - expected) <= 1e-12 * expected

    def test_sw_shift_commutes(self):
        rng = SeededRng(31)
        d = 16
        layer = LConvLayer(rng.uniform(2, 3), [rng.uniform(2, 2)],
                           [sw_shift_generator(d)])
        f = rng.uniform(d, 2)
        for z in (0.3, 1.0, -1.7, 2.4):
            w = sw_shift_matrix(d, z)
            assert equivariance_residual(f, w, layer) < 1e-10

    def test_linearized_transport_residual_is_second_order(self):
        rng = SeededRng(32)
        d = 16
        gen = sw_shift_generator(d)
        layer = LConvLayer(rng.uniform(1, 1), [rng.uniform(1, 1)], [gen])
        f = rng.uniform(d, 1)
        qf = layer.forward(f)
        etas = [1e-1, 3e-2, 1e-2, 3e-3]
        res = []
        for eta in etas:
            w = sw_shift_matrix(d, eta)
            lhs = layer.forward(w @ f)
            lin = (np.eye(d) + eta * gen) @ qf
            res.append(np.linalg.norm(lhs - lin) / np.linalg.norm(qf))
        slope = np.polyfit(np.log(etas), np.log(res), 1)[0]
        assert abs(slope - 2.0) < 0.3


class TestGcnReduction:
    def test_random_graphs(self):
        rng = SeededRng(33)
        for _ in range(5):
            n = int(rng.integers(3, 8))
            a = (rng.uniform(n, n) > 0.2).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            prop = gcn_propagation_matrix(a)
            f = rng.uniform(n, 2)
            w = rng.uniform(3, 2)   # m_out x m_in
            assert gcn_reduction_check(f, prop, w) <= 1e-12

    def test_empty_graph(self):
        f = SeededRng(34).uniform(6, 2)
        assert gcn_reduction_check(f, np.zeros((6, 6)), np.ones((2, 2))) == 0.0

    def test_zero_features(self):
        assert gcn_reduction_check(np.zeros((4, 1)),
                                   gcn_propagation_matrix(np.ones((4, 4)) - np.eye(4)),
                                   np.ones((1, 1))) == 0.0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = SeededRng(37)
        layer = LConvLayer(rng.uniform(3, 2), [rng.uniform(3, 3), rng.uniform(3, 3)],
                           [rng.uniform(5, 5), rng.uniform(5, 5)])
        save_checkpoint(layer, tmp_path / "ckpt", extra={"epoch": 7})
        back, manifest = load_checkpoint(tmp_path / "ckpt")
        assert manifest == {"generators": 2, "extra": {"epoch": 7}}
        for a, b in zip([back.w0] + back.eps + back.generators,
                        [layer.w0] + layer.eps + layer.generators):
            assert np.array_equal(a, b)
        f = rng.uniform(5, 3)
        assert np.array_equal(back.forward(f), layer.forward(f))

    def test_generators_is_a_count(self, tmp_path):
        # the reader accepts exactly what save_checkpoint writes: the
        # generator count, an int of at least 1
        save_checkpoint(LConvLayer(np.eye(1), [np.array([[0.5]])], [np.eye(4)]),
                        tmp_path / "ckpt", {})
        path = tmp_path / "ckpt" / "manifest.json"
        written = json.loads(path.read_text())
        assert written["generators"] == 1
        # the list earlier versions wrote, and counts that are no int
        for bad in ([{"form": "dense"}], 1.0, True, "1"):
            path.write_text(json.dumps(dict(written, generators=bad)))
            with pytest.raises(FormatError, match="'generators' is not of type int"):
                load_checkpoint(tmp_path / "ckpt")
        for bad in (0, -1):
            path.write_text(json.dumps(dict(written, generators=bad)))
            with pytest.raises(DimensionError, match="at least one generator"):
                load_checkpoint(tmp_path / "ckpt")
        path.write_text(json.dumps(dict(written, has_bias=False, scalar_eps=False)))
        with pytest.raises(FormatError, match=(
                r"has keys \['extra', 'generators', 'has_bias', 'scalar_eps'\], "
                r"expected exactly \['extra', 'generators'\]")):
            load_checkpoint(tmp_path / "ckpt")

    def test_manifest_must_be_an_object(self, tmp_path):
        save_checkpoint(LConvLayer(np.eye(1), [np.eye(1)], [np.eye(4)]), tmp_path, {})
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(FormatError, match="holds no JSON object"):
            load_checkpoint(tmp_path)


def grid_major(a):
    """The C-ordered grid-major (d, *batch, m) array of a (*batch, d, m) one."""
    return np.ascontiguousarray(a.swapaxes(0, -2))


def left_apply(m, f):
    """m @ f along the grid axis of a (d, *batch, m) array."""
    return (m @ f.reshape(f.shape[0], -1)).reshape(m.shape[0], *f.shape[1:])


def rows(a):
    """The (d B, m) view of a (d, *batch, m) array."""
    return a.reshape(-1, a.shape[-1])


def explicit_forward(layer, f):
    """Q[f] = f W0 + sum_i (L_i f) (eps^i)^T W0 with every product formed
    on the grid-major array."""
    f, w0 = grid_major(f), layer.w0
    out = rows(f) @ w0
    for e, gen in zip(layer.eps, layer.generators):
        out = out + rows(left_apply(gen, f)) @ (e.T @ w0)
    return out.reshape(f.shape[:-1] + (w0.shape[1],)).swapaxes(0, -2)


def explicit_backward(layer, f, upstream):
    """(dW0, d_eps, d_generators, d_input) with every product formed on
    the grid-major arrays."""
    f, upstream = grid_major(f), grid_major(upstream)
    w0 = layer.w0
    lf = [rows(left_apply(g, f)) for g in layer.generators]
    a = rows(f).copy()
    for e, lfi in zip(layer.eps, lf):
        a = a + lfi @ e.T
    da = rows(upstream) @ w0.T
    d_input = da.copy().reshape(f.shape)
    d_eps, d_gens = [], []
    for e, lfi, gen in zip(layer.eps, lf, layer.generators):
        d_eps.append(da.T @ lfi)
        dpre = (da @ e).reshape(f.shape)
        d_gens.append(dpre.reshape(f.shape[0], -1) @ f.reshape(f.shape[0], -1).T)
        d_input = d_input + left_apply(gen.T, dpre)
    return a.T @ rows(upstream), d_eps, d_gens, d_input.swapaxes(0, -2)


def grad_arrays(g):
    return [g.dW0, *g.d_eps, *g.d_generators, g.d_input]


@st.composite
def layer_cases(draw, identity=None):
    """(layer, f, upstream) over shapes, batching, eps a multiple of I or
    general and W0 = I or random."""
    rng = SeededRng(draw(st.integers(0, 2 ** 16)))
    d, m = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    n_gen = draw(st.integers(1, 2))
    scalar = draw(st.booleans())
    eye = draw(st.booleans()) if identity is None else identity
    w0 = np.eye(m) if eye else rng.uniform_signed(0.8, (m, m))
    eps = [rng.uniform_signed(0.5, ()) * np.eye(m) if scalar
           else rng.uniform_signed(0.5, (m, m)) for _ in range(n_gen)]
    gens = [rng.uniform_signed(0.6, (d, d)) for _ in range(n_gen)]
    layer = LConvLayer(w0, eps, gens)
    shape = (draw(st.integers(1, 5)), d, m) if draw(st.booleans()) else (d, m)
    return layer, rng.uniform_signed(0.7, shape), rng.uniform_signed(0.7, shape)


class TestEachProductOnce:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(layer_cases())
    def test_stashed_lf_matches_recomputed(self, case):
        layer, f, up = case
        lf = []
        out = layer.forward(f, lf)
        assert len(lf) == layer.n_generators
        assert np.array_equal(out, layer.forward(f))
        stashed = grad_arrays(layer.backward(f, up, lf=lf))
        recomputed = grad_arrays(layer.backward(f, up))
        for a, b in zip(stashed, recomputed):
            assert np.array_equal(a, b)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(layer_cases(identity=True))
    def test_identity_w0_matches_explicit_products(self, case):
        layer, f, up = case
        assert np.array_equal(layer.forward(f), explicit_forward(layer, f))
        g = layer.backward(f, up)
        dw0, d_eps, d_gens, d_input = explicit_backward(layer, f, up)
        assert np.array_equal(g.dW0, dw0)
        for a, b in zip(g.d_eps + g.d_generators, d_eps + d_gens):
            assert np.array_equal(a, b)
        assert np.array_equal(g.d_input, d_input)

    @pytest.mark.parametrize("w0", [np.eye(3), np.array([[0.7, -0.2, 0.4], [0.1, 0.9, -0.5],
                                                         [-0.3, 0.2, 0.6]])],
                             ids=["W0=I", "W0"])
    def test_unit_scalar_eps_matches_explicit_products(self, w0):
        # the unit scalar coupling, eps^i = I, skips its products, with the
        # bits of the products it skips
        rng = SeededRng(46)
        layer = LConvLayer(w0, [np.eye(3), rng.uniform_signed(0.5, (3, 3))],
                           [rng.uniform_signed(0.6, (7, 7)) for _ in range(2)])
        f, up = (rng.uniform_signed(0.7, (4, 7, 3)) for _ in range(2))
        assert np.array_equal(layer.forward(f), explicit_forward(layer, f))
        g = layer.backward(f, up)
        dw0, d_eps, d_gens, d_input = explicit_backward(layer, f, up)
        for a, b in zip(grad_arrays(g), [dw0, *d_eps, *d_gens, d_input]):
            assert np.array_equal(a, b)

    def test_w0_mutation_and_replacement_take_effect(self):
        rng = SeededRng(41)
        layer = LConvLayer(np.eye(3), [rng.uniform(3, 3)], [rng.uniform(6, 6)])
        f, up = rng.uniform(12, 3).reshape(2, 6, 3), rng.uniform(12, 3).reshape(2, 6, 3)
        base, base_din = layer.forward(f), layer.backward(f, up).d_input
        for change in (lambda: layer.w0.__setitem__((0, 1), 0.5),   # in place
                       lambda: setattr(layer, "w0", 2.0 * np.eye(3))):
            change()
            out, din = layer.forward(f), layer.backward(f, up).d_input
            assert not np.array_equal(out, base)
            assert not np.array_equal(din, base_din)
            assert np.array_equal(out, explicit_forward(layer, f))
            assert np.array_equal(din, explicit_backward(layer, f, up)[3])
        layer.w0 = np.eye(3)
        assert np.array_equal(layer.forward(f), base)

    @pytest.mark.parametrize("scalar", [True, False], ids=["scalar-eps", "matrix-eps"])
    @np.errstate(invalid="ignore")
    def test_identity_w0_is_told_by_value(self, scalar):
        # I is told by its bytes: a W0 with -0.0 off the diagonal runs the
        # products with W0, np.eye skips them.  With an inf in f and in
        # upstream, a product with W0 puts NaN (inf * 0) beside each inf,
        # in the output and in upstream W0^T, which d_eps reads directly.
        # The scalar coupling is the unit one, I, as the fixed-angle model
        # freezes it
        rng = SeededRng(45)
        d, m = 5, 3
        eps = [np.eye(m) if scalar else rng.uniform(m, m)]
        gens = [rng.uniform(d, d)]
        f, up = rng.uniform(15, m).reshape(3, d, m), rng.uniform(15, m).reshape(3, d, m)
        f[1, 2, 0] = up[2, 4, 1] = np.inf
        signed = np.eye(m)
        signed[0, 1] = signed[2, 0] = -0.0
        for w0, runs in ((signed, True), (np.eye(m), False)):
            layer = LConvLayer(w0, eps, gens)
            assert np.array_equal(layer.forward(f), explicit_forward(layer, f),
                                  equal_nan=True) == runs
            assert np.array_equal(layer.backward(f, up).d_eps[0],
                                  explicit_backward(layer, f, up)[1][0],
                                  equal_nan=True) == runs
        # a NaN off the diagonal is no identity: the products run and carry it
        layer.w0[1, 2] = np.nan
        assert np.isnan(layer.forward(rng.uniform(15, m).reshape(3, d, m))).any()

    @np.errstate(invalid="ignore")
    def test_identity_eps_is_told_by_value(self):
        # as for W0: with W0 = I, an eps with -0.0 off the diagonal runs the
        # products with eps, (L f) eps^T and the gradient into L f that
        # d_generators reads, np.eye skips them; with an inf in f and in
        # upstream, the products put NaN (inf * 0) beside each inf
        rng = SeededRng(47)
        d, m = 5, 3
        gens = [rng.uniform(d, d)]
        f, up = rng.uniform(15, m).reshape(3, d, m), rng.uniform(15, m).reshape(3, d, m)
        f[1, 2, 0] = up[2, 4, 1] = np.inf
        signed = np.eye(m)
        signed[0, 1] = signed[2, 0] = -0.0
        for eps, runs in ((signed, True), (np.eye(m), False)):
            layer = LConvLayer(np.eye(m), [eps], gens)
            assert np.array_equal(layer.forward(f), explicit_forward(layer, f),
                                  equal_nan=True) == runs
            assert np.array_equal(layer.backward(f, up).d_generators[0],
                                  explicit_backward(layer, f, up)[2][0],
                                  equal_nan=True) == runs
        # a NaN off the diagonal is no identity: the products run and carry it
        layer.eps[0][1, 2] = np.nan
        f, up = rng.uniform(15, m).reshape(3, d, m), rng.uniform(15, m).reshape(3, d, m)
        assert np.isnan(layer.forward(f)).any()
        assert np.isnan(layer.backward(f, up).d_input).any()

    @pytest.mark.parametrize("trial", range(6))
    def test_identity_w0_gradients_match_finite_differences(self, trial):
        # W0 = I takes the skipped-product path and a lazily computed dW0;
        # the perturbed W0 of the difference quotients takes the other
        rng = SeededRng(1100 + trial)
        d, m = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        sizes = [(m, m), (m, m), (d, d)]
        p0 = np.concatenate([np.eye(m).ravel(), rng.uniform_signed(0.4, (m, m)).ravel(),
                             rng.uniform_signed(0.6, (d, d)).ravel()])
        f = rng.uniform_signed(0.7, (int(rng.integers(1, 4)), d, m))
        tgt = rng.uniform_signed(0.7, f.shape)

        def build(p):
            w0, eps, gen = np.split(p, np.cumsum([a * b for a, b in sizes])[:-1])
            return LConvLayer(w0.reshape(m, m), [eps.reshape(m, m)],
                              [gen.reshape(d, d)])

        def loss(p):
            return 0.5 * float(np.sum((build(p).forward(f) - tgt) ** 2))

        fd = finite_difference_gradient(loss, p0, 1e-6)
        layer = build(p0)
        g = layer.backward(f, layer.forward(f) - tgt)
        an = np.concatenate([g.dW0.ravel(), g.d_eps[0].ravel(),
                             g.d_generators[0].ravel()])
        rel = np.abs(an - fd) / np.maximum(1e-4 * np.abs(fd).max(), np.abs(fd))
        assert rel.max() < 1e-5

    @staticmethod
    def record_backward(monkeypatch):
        """The LayerGradients of every LConvLayer.backward call from now on."""
        calls, backward = [], LConvLayer.backward

        def recording(self, *args, **kwargs):
            calls.append(backward(self, *args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(LConvLayer, "backward", recording)
        return calls

    def test_fixed_angle_step_forms_generator_gradient_only(self, monkeypatch):
        calls = self.record_backward(monkeypatch)
        train_fixed_angle(FixedAngleTask(n_train=130, n_test=10, seed=4),
                          OptimizerConfig(batch_size=64, epochs=1))
        assert len(calls) == 3
        for g in calls:
            assert not {"d_eps", "d_input", "dW0"} & set(vars(g))

    def test_angle_step_forms_input_gradient_only_where_read(self, monkeypatch):
        calls = self.record_backward(monkeypatch)
        train_angle_regression(AngleRegressionTask(m_copies=2, recursions=3,
                                                   n_train=20, n_test=4, seed=4),
                               OptimizerConfig(batch_size=10, epochs=1))
        assert len(calls) == 2 * 3
        for k, g in enumerate(calls):
            # backward runs from the last recursion to the first, whose
            # input gradient no one reads
            assert "d_eps" in vars(g) and "dW0" not in vars(g)
            assert ("d_input" in vars(g)) == (k % 3 != 2)


class TestActivationLayout:
    # f is (*batch, d, m_in), computed on its grid-major array (d, *batch, m_in)
    def test_batched_forward_equals_unbatched_calls(self):
        rng = SeededRng(50)
        layer = random_layer(rng, 6, 3, 2, n_gen=2)
        f = rng.uniform_signed(0.7, (4, 6, 3))
        out = layer.forward(f)
        assert out.shape == (4, 6, 2)
        for b in range(4):
            np.testing.assert_allclose(out[b], layer.forward(f[b]),
                                       rtol=1e-14, atol=1e-15)

    def test_batched_gradients_match_finite_differences(self):
        rng = SeededRng(51)
        d, b, m_in, m_out = 5, 3, 2, 3
        sizes = [(m_in, m_out), (m_in, m_in), (d, d)]
        p0 = np.concatenate([rng.uniform_signed(0.6, s).ravel() for s in sizes])
        f = rng.uniform_signed(0.7, (b, d, m_in))
        tgt = rng.uniform_signed(0.7, (b, d, m_out))

        def build(p):
            w0, eps, gen = np.split(p, np.cumsum([x * y for x, y in sizes])[:-1])
            return LConvLayer(w0.reshape(sizes[0]), [eps.reshape(sizes[1])],
                              [gen.reshape(sizes[2])])

        def loss(p, x=f):
            return 0.5 * float(np.sum((build(p).forward(x) - tgt) ** 2))

        layer = build(p0)
        g = layer.backward(f, layer.forward(f) - tgt)
        an = np.concatenate([g.dW0.ravel(), g.d_eps[0].ravel(),
                             g.d_generators[0].ravel()])
        fd = finite_difference_gradient(loss, p0, 1e-6)
        rel = np.abs(an - fd) / np.maximum(1e-4 * np.abs(fd).max(), np.abs(fd))
        assert rel.max() < 1e-5
        fd_input = finite_difference_gradient(
            lambda x: loss(p0, x.reshape(f.shape)), f.ravel(), 1e-6)
        assert np.abs(g.d_input.ravel() - fd_input).max() < 1e-7

    def test_memory_order_keeps_bits_and_outputs_are_grid_major(self):
        rng = SeededRng(54)
        layer = random_layer(rng, 6, 3, 3, n_gen=2)
        f_gm, up_gm = (rng.uniform_signed(0.7, (6, 4, 3)) for _ in range(2))
        f, up = f_gm.swapaxes(0, 1), up_gm.swapaxes(0, 1)   # (B, d, m) views
        fc, upc = np.ascontiguousarray(f), np.ascontiguousarray(up)
        out = layer.forward(f)
        assert np.array_equal(out, layer.forward(fc))
        a, b = grad_arrays(layer.backward(f, up)), grad_arrays(layer.backward(fc, upc))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert out.swapaxes(0, 1).flags.c_contiguous
        assert layer.backward(fc, upc).d_input.swapaxes(0, 1).flags.c_contiguous

    def test_grid_axis_not_second_to_last_rejected(self):
        rng = SeededRng(53)
        layer = random_layer(rng, 6, 2, 2)
        f = rng.uniform_signed(0.7, (6, 4, 2))   # (d, B, m), B != d
        with pytest.raises(DimensionError, match="axis 1"):
            layer.forward(f)
        with pytest.raises(DimensionError, match="axis 1"):
            layer.backward(f, f)

    def test_upstream_of_another_shape_rejected(self):
        # same size as forward(f), but grid-major: rejected, not reshaped
        rng = SeededRng(55)
        layer = random_layer(rng, 6, 2, 2)
        f = rng.uniform_signed(0.7, (4, 6, 2))
        with pytest.raises(DimensionError, match="upstream"):
            layer.backward(f, np.ascontiguousarray(f.swapaxes(0, 1)))
