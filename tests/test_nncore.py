import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ganevade import nncore
from ganevade.nncore import (AdamState, DenseLayer, Mlp, NumericError,
                             ShapeMismatchError, Tensor, adam_step, add,
                             affine, build_mlp, concat, forward, grad, matmul,
                             maximum, mul, narrow, power, sigmoid, softmax,
                             sub, tlog, tmean, transpose, tsum)


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


class TestTensor:
    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            Tensor([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(NumericError):
            Tensor(np.inf)

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeMismatchError):
            Tensor([1.0, 2.0]).item()

    def test_detach_breaks_graph(self):
        a = Tensor([2.0])
        b = mul(a, a).detach()
        assert b.parents == ()
        assert grad(tsum(b), a).data == 0.0


class TestForwardValues:
    def test_dense_layer_by_hand(self):
        layer = DenseLayer(Tensor([[1.0, 2.0], [0.0, -1.0]]),
                           Tensor([0.5, 0.0]), "linear")
        out = layer(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[3 + 8 + 0.5, -4.0]])

    def test_relu_clamps(self):
        out = nncore.relu(Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_leaky_relu_slope(self):
        out = nncore.leaky_relu(Tensor([[-10.0, 5.0]]), slope=0.2)
        np.testing.assert_allclose(out.data, [[-2.0, 5.0]])

    def test_sigmoid_midpoint(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax(Tensor(rng.normal(size=(5, 7)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_uniform_on_equal_logits(self):
        out = softmax(Tensor([[3.0, 3.0, 3.0, 3.0]]))
        np.testing.assert_allclose(out.data, np.full((1, 4), 0.25))


class TestGrad:
    def test_requires_scalar_output(self):
        a = Tensor([1.0, 2.0])
        with pytest.raises(ShapeMismatchError):
            grad(a, a)

    def test_non_participating_gets_zeros(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([[3.0]])
        g = grad(tsum(mul(a, a)), b)
        np.testing.assert_array_equal(g.data, [[0.0]])

    def test_product_rule(self):
        a = Tensor([1.0, -2.0, 3.0])
        b = Tensor([4.0, 5.0, -6.0])
        ga, gb = grad(tsum(mul(a, b)), [a, b])
        np.testing.assert_allclose(ga.data, b.data)
        np.testing.assert_allclose(gb.data, a.data)

    def test_diamond_reuse_accumulates(self):
        # y = x*x + x*x must give dy/dx = 4x, not 2x
        x = Tensor([3.0])
        y = tsum(add(mul(x, x), mul(x, x)))
        np.testing.assert_allclose(grad(y, x).data, [12.0])

    def test_matmul_against_fd(self):
        rng = np.random.default_rng(1)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))
        a = Tensor(a0)
        loss = tsum(power(matmul(a, Tensor(b0)), 2.0))
        fd = finite_difference(lambda x: float(((x @ b0) ** 2).sum()), a0.copy())
        rel = np.abs(grad(loss, a).data - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel <= 1e-6

    def test_mlp_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        net = build_mlp([4, 6, 1], "leaky_relu", "linear", rng)
        x = rng.normal(size=(5, 4))

        def loss_of(w0):
            net.layers[0].weights.data = w0
            return tmean(forward(net, Tensor(x))).item()

        w0 = net.layers[0].weights.data.copy()
        fd = finite_difference(loss_of, w0.copy())
        net.layers[0].weights.data = w0
        g = grad(tmean(forward(net, Tensor(x))), net.layers[0].weights)
        rel = np.abs(g.data - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel <= 1e-6

    def test_softmax_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(2, 5))
        w = rng.normal(size=(5,))

        def f(x):
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            return float(((e / e.sum(axis=-1, keepdims=True)) @ w).sum())

        x = Tensor(x0)
        loss = tsum(matmul(softmax(x), Tensor(w[:, None])))
        fd = finite_difference(f, x0.copy())
        rel = np.abs(grad(loss, x).data - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel <= 1e-6

    def test_second_order_simple(self):
        # d/dx of (dy/dx) for y = x^3 is 6x
        x = Tensor([2.0])
        first = grad(tsum(power(x, 3.0)), x)
        second = grad(tsum(first), x)
        np.testing.assert_allclose(second.data, [12.0], rtol=1e-12)

    def test_nested_gradient_matches_fd(self):
        # gradient-penalty shape: differentiate a grad-norm through weights
        rng = np.random.default_rng(4)
        net = build_mlp([3, 5, 1], "leaky_relu", "linear", rng)
        x = rng.normal(size=(4, 3))

        def penalty_of(w0):
            net.layers[0].weights.data = w0
            xt = Tensor(x)
            gx = grad(tsum(forward(net, xt)), xt)
            norms = power(tsum(mul(gx, gx), axis=1), 0.5)
            return tmean(power(sub(norms, Tensor(1.0)), 2.0)).item()

        w0 = net.layers[0].weights.data.copy()
        fd = finite_difference(penalty_of, w0.copy())
        net.layers[0].weights.data = w0
        xt = Tensor(x)
        gx = grad(tsum(forward(net, xt)), xt)
        norms = power(tsum(mul(gx, gx), axis=1), 0.5)
        pen = tmean(power(sub(norms, Tensor(1.0)), 2.0))
        g = grad(pen, net.layers[0].weights)
        rel = np.abs(g.data - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel <= 1e-4

    def test_sigmoid_second_order(self):
        # d2/da2 of sum(sigmoid(a)) is s(1-s)(1-2s) element-wise
        a0 = np.array([0.3, -1.2])
        a = Tensor(a0)
        second = grad(tsum(grad(tsum(sigmoid(a)), a)), a)
        s = 1.0 / (1.0 + np.exp(-a0))
        np.testing.assert_allclose(second.data, s * (1 - s) * (1 - 2 * s),
                                   rtol=1e-12)
        np.testing.assert_allclose(second.data, [-0.036, 0.096], atol=5e-4)
        fd = finite_difference(
            lambda x: float((1 / (1 + np.exp(-x)) * (1 - 1 / (1 + np.exp(-x)))
                             ).sum()), a0.copy())
        np.testing.assert_allclose(second.data, fd, rtol=1e-6)

    def test_softmax_second_order_matches_fd(self):
        # differentiate <d/dx sum(softmax(x) @ w), v> once more
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(2, 5))
        w = rng.normal(size=(5, 1))
        v = rng.normal(size=(2, 5))

        def first_grad_dot_v(x):
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            y = e / e.sum(axis=-1, keepdims=True)
            g = y * (w[:, 0] - (y @ w))
            return float((g * v).sum())

        x = Tensor(x0)
        gx = grad(tsum(matmul(softmax(x), Tensor(w))), x)
        second = grad(tsum(mul(gx, Tensor(v))), x)
        fd = finite_difference(first_grad_dot_v, x0.copy())
        assert np.abs(fd).max() > 1e-3
        rel = np.abs(second.data - fd).max() / np.abs(fd).max()
        assert rel <= 1e-6

    def test_concat_narrow_roundtrip_grad(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0, 5.0]])
        joined = concat([a, b])
        back = narrow(joined, 1, 2, 3)
        g = grad(tsum(mul(back, back)), b)
        np.testing.assert_allclose(g.data, 2 * b.data)
        assert grad(tsum(back), a).data.sum() == 0.0

    def test_maximum_routes_gradient(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([3.0, 2.0])
        ga, gb = grad(tsum(maximum(a, b)), [a, b])
        np.testing.assert_array_equal(ga.data, [0.0, 1.0])
        np.testing.assert_array_equal(gb.data, [1.0, 0.0])


class TestAffine:
    """``affine`` is one node for ``add(matmul(x, transpose(w)), b)``."""

    @staticmethod
    def composed(x, w, b):
        return add(matmul(x, transpose(w)), b)

    @staticmethod
    def tensors(seed):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(3, 4))),
                Tensor(rng.normal(size=3)))

    def test_forward_bit_equal(self):
        x, w, b = self.tensors(0)
        np.testing.assert_array_equal(affine(x, w, b).data,
                                      self.composed(x, w, b).data)

    def test_first_order_bit_equal(self):
        x, w, b = self.tensors(1)
        c = Tensor(np.random.default_rng(2).normal(size=(6, 3)))
        new = grad(tsum(mul(affine(x, w, b), c)), [x, w, b])
        old = grad(tsum(mul(self.composed(x, w, b), c)), [x, w, b])
        for n, o in zip(new, old):
            np.testing.assert_array_equal(n.data, o.data)

    def test_second_order_bit_equal(self):
        # gradient-penalty shape: the grad-norm w.r.t. x, differentiated
        # through both layers' weights and biases
        x, w, b = self.tensors(3)
        w2 = Tensor(np.random.default_rng(4).normal(size=(1, 3)))
        b2 = Tensor(np.zeros(1))

        def penalty(layer):
            h = nncore.leaky_relu(layer(x, w, b))
            gx = grad(tsum(layer(h, w2, b2)), x)
            return tsum(power(tsum(mul(gx, gx), axis=1), 0.5))

        params = [w, b, w2, b2]
        new = grad(penalty(affine), params)
        old = grad(penalty(self.composed), params)
        for n, o in zip(new, old):
            np.testing.assert_array_equal(n.data, o.data)
        assert np.abs(new[0].data).max() > 0

    def test_shape_checked(self):
        x, w, b = self.tensors(5)
        with pytest.raises(ShapeMismatchError):
            affine(x, transpose(w), b)


class TestPrunedBackward:
    def test_branch_reaching_no_target_is_not_differentiated(self):
        def boom(g):
            raise AssertionError("VJP on a branch that reaches no target")

        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        sibling = Tensor(b.data * 2.0, [(b, boom)])
        out = tsum(add(mul(a, a), sibling))
        np.testing.assert_array_equal(grad(out, a).data, [2.0, 4.0])
        with pytest.raises(AssertionError):
            grad(out, b)

    def test_interior_target_skips_its_inputs(self):
        # as in the gradient penalty: the target is an interior node and
        # its inputs' VJPs must not run
        def boom(g):
            raise AssertionError("VJP into an input of the target")

        x = Tensor([1.0, -2.0])
        mixed = Tensor(x.data * 0.5, [(x, boom)])
        out = tsum(power(mixed, 3.0))
        np.testing.assert_allclose(grad(out, mixed).data, 3 * mixed.data ** 2)


class TestFiniteEdges:
    def test_forward_raises_on_overflow_inside_the_graph(self):
        net = build_mlp([3, 4, 1], "relu", "linear", np.random.default_rng(0))
        net.layers[0].weights.data[:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                forward(net, Tensor(np.full((2, 3), 1e10)))

    def test_grad_raises_on_log_of_zero(self):
        x = Tensor([0.0, 1.0])
        with np.errstate(divide="ignore"):
            out = tsum(tlog(x))
            with pytest.raises(NumericError):
                grad(out, x)

    def test_interior_nodes_are_not_checked(self):
        with np.errstate(divide="ignore"):
            y = tlog(Tensor([0.0]))
        assert np.isneginf(y.data).all()


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-5, 5)),
       arrays(np.float64, (3, 4), elements=st.floats(-5, 5)))
def test_mul_grad_property(a0, b0):
    a, b = Tensor(a0), Tensor(b0)
    ga = grad(tsum(mul(a, b)), a)
    np.testing.assert_allclose(ga.data, b0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (4,), elements=st.floats(-3, 3)))
def test_broadcast_add_grad_property(v):
    mat = Tensor(np.ones((5, 4)))
    bias = Tensor(v)
    g = grad(tsum(add(mat, bias)), bias)
    np.testing.assert_allclose(g.data, np.full(4, 5.0))


class TestNetworkConstruction:
    def test_build_mlp_glorot_bounds_and_zero_bias(self):
        rng = np.random.default_rng(5)
        net = build_mlp([10, 20, 3], "relu", "sigmoid", rng)
        for layer in net.layers:
            bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            assert np.abs(layer.weights.data).max() <= bound
            assert np.all(layer.biases.data == 0.0)
        assert net.layers[0].activation == "relu"
        assert net.layers[-1].activation == "sigmoid"

    def test_dims_must_chain(self):
        rng = np.random.default_rng(6)
        l1 = DenseLayer(Tensor(rng.normal(size=(3, 2))), Tensor(np.zeros(3)))
        l2 = DenseLayer(Tensor(rng.normal(size=(1, 4))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeMismatchError):
            Mlp([l1, l2])

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            DenseLayer(Tensor(np.zeros((1, 1))), Tensor(np.zeros(1)), "tanh")

    def test_dropout_rate_bounds(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            build_mlp([2, 2], "relu", "linear", rng, input_dropout=1.0)

    def test_forward_checks_input_dim(self):
        rng = np.random.default_rng(8)
        net = build_mlp([4, 2], "relu", "linear", rng)
        with pytest.raises(ShapeMismatchError):
            forward(net, Tensor(np.zeros((1, 3))))


class TestDropout:
    def test_masks_seed_reproducible(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        net = build_mlp([6, 8, 1], "relu", "linear", np.random.default_rng(0),
                        input_dropout=0.1, hidden_dropout=0.5)
        ma = net.sample_dropout_masks(rng_a, 4)
        mb = net.sample_dropout_masks(rng_b, 4)
        for a, b in zip(ma, mb):
            np.testing.assert_array_equal(a, b)

    def test_inverted_scaling(self):
        net = build_mlp([100, 1], "relu", "linear", np.random.default_rng(0),
                        input_dropout=0.5)
        masks = net.sample_dropout_masks(np.random.default_rng(1), 1)
        vals = np.unique(masks[0])
        assert set(vals.tolist()) <= {0.0, 2.0}

    def test_eval_mode_is_identity(self):
        net = build_mlp([3, 2], "relu", "linear", np.random.default_rng(0),
                        input_dropout=0.9)
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_array_equal(forward(net, x).data,
                                      forward(net, x, masks=None).data)


class TestAdam:
    def test_quadratic_convergence(self):
        target = np.array([1.5, -0.5, 3.0])
        x = Tensor(np.zeros(3))
        state = AdamState.for_params([x])
        for _ in range(400):
            loss = tsum(power(sub(x, Tensor(target)), 2.0))
            g = grad(loss, x)
            adam_step([x], [g], state, lr=0.05)
        assert float(((x.data - target) ** 2).sum()) <= 1e-3

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.zeros(3))
        state = AdamState.for_params([x])
        with pytest.raises(ShapeMismatchError):
            adam_step([x], [Tensor(np.zeros(4))], state)

    @pytest.mark.parametrize("beta1", [0.0, 0.9])
    def test_bit_equal_to_reference_formula(self, beta1):
        rng = np.random.default_rng(12)
        shapes = [(4, 3), (3,), ()]
        params = [Tensor(rng.normal(size=s)) for s in shapes]
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        state = AdamState.for_params(params)
        lr, beta2, eps = 1e-3, 0.9, 1e-8
        for t in range(1, 8):
            grads = [Tensor(rng.normal(size=s)) for s in shapes]
            adam_step(params, grads, state, lr=lr, beta1=beta1, beta2=beta2,
                      eps=eps)
            for i, g in enumerate(grads):
                gd = g.data
                ref_m[i] = beta1 * ref_m[i] + (1.0 - beta1) * gd
                ref_v[i] = beta2 * ref_v[i] + (1.0 - beta2) * gd * gd
                m_hat = ref_m[i] / (1.0 - beta1 ** t)
                v_hat = ref_v[i] / (1.0 - beta2 ** t)
                ref_p[i] = ref_p[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for i, p in enumerate(params):
                assert p.data.tobytes() == ref_p[i].tobytes()
            # the moments are laid out like the parameters, end to end
            flat = [np.concatenate([r.ravel() for r in ref]) for ref in (ref_m, ref_v)]
            assert state.m.tobytes() == flat[0].tobytes()
            assert state.v.tobytes() == flat[1].tobytes()

    def test_parameters_become_views_into_one_buffer(self):
        rng = np.random.default_rng(13)
        net = build_mlp([5, 4, 1], "leaky_relu", "linear", rng)
        before = [p.data.copy() for p in net.parameters()]
        state = AdamState.for_params(net.parameters())
        assert state.flat.size == sum(b.size for b in before)
        for p, b in zip(net.parameters(), before):
            assert p.data.base is state.flat
            assert p.data.tobytes() == b.tobytes()
        x = Tensor(rng.normal(size=(3, 5)))
        grads = grad(tsum(forward(net, x)), net.parameters())
        adam_step(net.parameters(), grads, state)
        # the step reached every parameter through its view
        for p, b in zip(net.parameters(), before):
            assert p.data.base is state.flat
            assert not np.array_equal(p.data, b)

    def test_parameter_rebound_outside_the_buffer_rejected(self):
        x, y = Tensor(np.zeros(3)), Tensor(np.zeros(2))
        state = AdamState.for_params([x, y])
        x.data = np.zeros(3)
        with pytest.raises(ValueError):
            adam_step([x, y], [np.ones(3), np.ones(2)], state)
        with pytest.raises(ValueError):
            adam_step([y], [np.ones(2), np.ones(3)], state)

    def test_bias_correction_first_step(self):
        # with beta1=0.9 the very first corrected step equals lr*sign(g)
        x = Tensor(np.array([0.0]))
        state = AdamState.for_params([x])
        adam_step([x], [Tensor(np.array([4.0]))], state, lr=0.1, beta1=0.9,
                  beta2=0.999)
        np.testing.assert_allclose(x.data, [-0.1], atol=1e-7)
