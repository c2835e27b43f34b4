"""``nncore``'s forward, backward and Adam, and the tape oracle
(``tests/tape.py``) that the backward is checked against."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tape
from ganevade import gan, nncore
from ganevade.nncore import (ADAM_BLOCK, AdamState, DenseLayer, Mlp,
                             NumericError, ShapeMismatchError, adam_step,
                             build_mlp)
from tape import (Tensor, add, affine, matmul, maximum, mul, power, softmax,
                  sub, tmean, transpose, tsum)


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


# --- the tape oracle ---------------------------------------------------------

class TestGrad:
    """The tape against hand derivatives and finite differences, first and
    second order."""

    def test_requires_scalar_output(self):
        a = Tensor([1.0, 2.0])
        with pytest.raises(ShapeMismatchError):
            tape.grad(a, a)

    def test_non_participating_gets_zeros(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([[3.0]])
        g = tape.grad(tsum(mul(a, a)), b)
        np.testing.assert_array_equal(g.data, [[0.0]])

    def test_product_rule(self):
        a = Tensor([1.0, -2.0, 3.0])
        b = Tensor([4.0, 5.0, -6.0])
        ga, gb = tape.grad(tsum(mul(a, b)), [a, b])
        np.testing.assert_allclose(ga.data, b.data)
        np.testing.assert_allclose(gb.data, a.data)

    def test_diamond_reuse_accumulates(self):
        # y = x*x + x*x must give dy/dx = 4x, not 2x
        x = Tensor([3.0])
        y = tsum(add(mul(x, x), mul(x, x)))
        np.testing.assert_allclose(tape.grad(y, x).data, [12.0])

    def test_matmul_against_fd(self):
        rng = np.random.default_rng(1)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))
        a = Tensor(a0)
        loss = tsum(power(matmul(a, Tensor(b0)), 2.0))
        fd = finite_difference(lambda x: float(((x @ b0) ** 2).sum()), a0.copy())
        rel = np.abs(tape.grad(loss, a).data - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel <= 1e-6

    def test_mlp_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        net = build_mlp([4, 6, 1], "leaky_relu", "linear", rng)
        x = rng.normal(size=(5, 4))

        def loss_of(w0):
            net.layers[0].weights = w0
            return float(tmean(tape.forward(net, Tensor(x))[0]).data)

        w0 = net.layers[0].weights.copy()
        fd = finite_difference(loss_of, w0.copy())
        net.layers[0].weights = w0
        out, params = tape.forward(net, Tensor(x))
        g = tape.grad(tmean(out), params[0])
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
        rel = np.abs(tape.grad(loss, x).data - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel <= 1e-6

    def test_second_order_simple(self):
        # d/dx of (dy/dx) for y = x^3 is 6x
        x = Tensor([2.0])
        first = tape.grad(tsum(power(x, 3.0)), x)
        second = tape.grad(tsum(first), x)
        np.testing.assert_allclose(second.data, [12.0], rtol=1e-12)

    def test_nested_gradient_matches_fd(self):
        # gradient-penalty shape: differentiate a grad-norm through weights
        rng = np.random.default_rng(4)
        net = build_mlp([3, 5, 1], "leaky_relu", "linear", rng)
        x = rng.normal(size=(4, 3))

        def penalty():
            xt = Tensor(x)
            out, params = tape.forward(net, xt)
            gx = tape.grad(tsum(out), xt)
            norms = power(tsum(mul(gx, gx), axis=1), 0.5)
            return tmean(power(sub(norms, Tensor(1.0)), 2.0)), params

        def penalty_of(w0):
            net.layers[0].weights = w0
            return float(penalty()[0].data)

        w0 = net.layers[0].weights.copy()
        fd = finite_difference(penalty_of, w0.copy())
        net.layers[0].weights = w0
        pen, params = penalty()
        g = tape.grad(pen, params[0])
        rel = np.abs(g.data - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel <= 1e-4

    def test_sigmoid_second_order(self):
        # d2/da2 of sum(sigmoid(a)) is s(1-s)(1-2s) element-wise
        a0 = np.array([0.3, -1.2])
        a = Tensor(a0)
        second = tape.grad(tsum(tape.grad(tsum(tape.sigmoid(a)), a)), a)
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
        gx = tape.grad(tsum(matmul(softmax(x), Tensor(w))), x)
        second = tape.grad(tsum(mul(gx, Tensor(v))), x)
        fd = finite_difference(first_grad_dot_v, x0.copy())
        assert np.abs(fd).max() > 1e-3
        rel = np.abs(second.data - fd).max() / np.abs(fd).max()
        assert rel <= 1e-6

    def test_maximum_routes_gradient(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([3.0, 2.0])
        ga, gb = tape.grad(tsum(maximum(a, b)), [a, b])
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
        new = tape.grad(tsum(mul(affine(x, w, b), c)), [x, w, b])
        old = tape.grad(tsum(mul(self.composed(x, w, b), c)), [x, w, b])
        for n, o in zip(new, old):
            np.testing.assert_array_equal(n.data, o.data)

    def test_second_order_bit_equal(self):
        # gradient-penalty shape: the grad-norm w.r.t. x, differentiated
        # through both layers' weights and biases
        x, w, b = self.tensors(3)
        w2 = Tensor(np.random.default_rng(4).normal(size=(1, 3)))
        b2 = Tensor(np.zeros(1))

        def penalty(layer):
            h = tape.leaky_relu(layer(x, w, b))
            gx = tape.grad(tsum(layer(h, w2, b2)), x)
            return tsum(power(tsum(mul(gx, gx), axis=1), 0.5))

        params = [w, b, w2, b2]
        new = tape.grad(penalty(affine), params)
        old = tape.grad(penalty(self.composed), params)
        for n, o in zip(new, old):
            np.testing.assert_array_equal(n.data, o.data)
        assert np.abs(new[0].data).max() > 0

    def test_shape_checked(self):
        x, w, b = self.tensors(5)
        with pytest.raises(ShapeMismatchError):
            affine(x, transpose(w), b)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-5, 5)),
       arrays(np.float64, (3, 4), elements=st.floats(-5, 5)))
def test_mul_grad_property(a0, b0):
    a, b = Tensor(a0), Tensor(b0)
    ga = tape.grad(tsum(mul(a, b)), a)
    np.testing.assert_allclose(ga.data, b0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (4,), elements=st.floats(-3, 3)))
def test_broadcast_add_grad_property(v):
    mat = Tensor(np.ones((5, 4)))
    bias = Tensor(v)
    g = tape.grad(tsum(add(mat, bias)), bias)
    np.testing.assert_allclose(g.data, np.full(4, 5.0))


# --- nncore --------------------------------------------------------------------

def one_layer(weights, biases, activation):
    return Mlp([DenseLayer(np.array(weights, dtype=np.float64),
                           np.array(biases, dtype=np.float64), activation)])


def identity(width, activation):
    return one_layer(np.eye(width), np.zeros(width), activation)


def buffers(net):
    """One fresh array per parameter, for ``nncore.grad`` to write into."""
    return [np.empty_like(p) for p in net.parameters()]


class TestForwardValues:
    def test_dense_layer_by_hand(self):
        net = one_layer([[1.0, 2.0], [0.0, -1.0]], [0.5, 0.0], "linear")
        out, _ = nncore.forward(net, [[3.0, 4.0]])
        np.testing.assert_allclose(out, [[3 + 8 + 0.5, -4.0]])

    def test_relu_clamps(self):
        out, _ = nncore.forward(identity(3, "relu"), [[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_leaky_relu_slope(self):
        out, _ = nncore.forward(identity(2, "leaky_relu"), [[-10.0, 5.0]])
        np.testing.assert_allclose(out, [[-2.0, 5.0]])

    def test_sigmoid_midpoint(self):
        assert nncore.forward(identity(1, "sigmoid"), [[0.0]])[0][0, 0] == 0.5

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out, _ = nncore.forward(identity(7, "softmax"),
                                rng.normal(size=(5, 7)) * 10)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_uniform_on_equal_logits(self):
        out, _ = nncore.forward(identity(4, "softmax"), [[3.0, 3.0, 3.0, 3.0]])
        np.testing.assert_allclose(out, np.full((1, 4), 0.25))


class TestBackward:
    """``nncore.grad`` mirrors the tape's operation order, so the two agree
    bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           widths=st.lists(st.integers(1, 10), min_size=2, max_size=4),
           out_dim=st.integers(1, 5),
           hidden=st.sampled_from(["relu", "leaky_relu"]),
           output=st.sampled_from(["linear", "sigmoid", "softmax"]),
           batch=st.integers(1, 8),
           with_masks=st.booleans())
    def test_matches_tape(self, seed, widths, out_dim, hidden, output, batch,
                          with_masks):
        # widths: input, then 1-3 hidden layers
        rng = np.random.default_rng(seed)
        net = build_mlp([*widths, out_dim], hidden, output, rng,
                        input_dropout=0.1, hidden_dropout=0.5)
        x = rng.normal(size=(batch, widths[0]))
        masks = net.sample_dropout_masks(rng, batch) if with_masks else None
        g_out = rng.normal(size=(batch, out_dim))
        out, cache = nncore.forward(net, x, masks)
        grads = buffers(net)
        g_x = nncore.grad(net, cache, g_out, out=grads, inputs=True)

        xt = Tensor(x)
        t_out, params = tape.forward(net, xt, masks)
        want = tape.grad(tsum(mul(t_out, Tensor(g_out))), [*params, xt])
        np.testing.assert_array_equal(out, t_out.data)
        assert len(grads) == len(params)
        for got, w in zip([*grads, g_x], want):
            np.testing.assert_array_equal(got, w.data)

    def test_computes_only_what_is_asked(self):
        rng = np.random.default_rng(14)
        net = build_mlp([3, 4, 2], "relu", "linear", rng)
        out, cache = nncore.forward(net, rng.normal(size=(5, 3)))
        g_out = rng.normal(size=out.shape)
        grads, only_params = buffers(net), buffers(net)
        g_x = nncore.grad(net, cache, g_out, out=grads, inputs=True)
        assert nncore.grad(net, cache, g_out, out=only_params) is None
        only_x = nncore.grad(net, cache, g_out, inputs=True)
        for a, b in zip(grads, only_params):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(g_x, only_x)

    def test_cache_of_another_network_rejected(self):
        rng = np.random.default_rng(15)
        net = build_mlp([3, 4, 2], "relu", "linear", rng)
        _, cache = nncore.forward(build_mlp([3, 2], "relu", "linear", rng),
                                  np.zeros((1, 3)))
        with pytest.raises(ShapeMismatchError):
            nncore.grad(net, cache, np.zeros((1, 2)))

    def test_bce_matches_tape(self):
        # the MLP detector's step: relu hidden layer, sigmoid output, BCE
        rng = np.random.default_rng(16)
        net = build_mlp([6, 8, 1], "relu", "sigmoid", rng)
        x = rng.normal(size=(10, 6))
        y = np.repeat([0.0, 1.0], 5)
        p, cache = nncore.forward(net, x)
        loss, g_p = nncore.bce(p, y)
        grads = buffers(net)
        nncore.grad(net, cache, g_p, out=grads)

        t_out, params = tape.forward(net, Tensor(x))
        t_loss = tape.bce(t_out, y)
        assert loss == float(t_loss.data)
        for got, want in zip(grads, tape.grad(t_loss, params)):
            np.testing.assert_array_equal(got, want.data)


class TestFiniteEdges:
    def test_forward_raises_on_overflow_inside_the_graph(self):
        net = build_mlp([3, 4, 1], "relu", "linear", np.random.default_rng(0))
        net.layers[0].weights[:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                nncore.forward(net, np.full((2, 3), 1e10))

    def test_grad_raises_on_non_finite_gradient(self):
        # a finite output whose gradient overflows on the way back: grad
        # refuses the input gradient it returns, and adam_step the
        # parameter gradients written into its buffer
        net = build_mlp([3, 4, 1], "leaky_relu", "linear",
                        np.random.default_rng(1))
        state = AdamState.for_net(net)
        net.layers[1].weights[:] = 10.0
        out, cache = nncore.forward(net, np.ones((2, 3)))
        g_out = np.full(out.shape, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                nncore.grad(net, cache, g_out, inputs=True)
            nncore.grad(net, cache, g_out, out=state.grads)
            with pytest.raises(NumericError):
                adam_step(net.parameters(), state)


class TestNetworkConstruction:
    def test_build_mlp_glorot_bounds_and_zero_bias(self):
        rng = np.random.default_rng(5)
        net = build_mlp([10, 20, 3], "relu", "sigmoid", rng)
        for layer in net.layers:
            bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            assert np.abs(layer.weights).max() <= bound
            assert np.all(layer.biases == 0.0)
        assert net.layers[0].activation == "relu"
        assert net.layers[-1].activation == "sigmoid"

    def test_dims_must_chain(self):
        rng = np.random.default_rng(6)
        l1 = DenseLayer(rng.normal(size=(3, 2)), np.zeros(3))
        l2 = DenseLayer(rng.normal(size=(1, 4)), np.zeros(1))
        with pytest.raises(ShapeMismatchError):
            Mlp([l1, l2])

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            DenseLayer(np.zeros((1, 1)), np.zeros(1), "tanh")

    def test_dropout_rate_bounds(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            build_mlp([2, 2], "relu", "linear", rng, input_dropout=1.0)

    def test_forward_checks_input_dim(self):
        rng = np.random.default_rng(8)
        net = build_mlp([4, 2], "relu", "linear", rng)
        with pytest.raises(ShapeMismatchError):
            nncore.forward(net, np.zeros((1, 3)))


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
        x = np.ones((2, 3))
        np.testing.assert_array_equal(nncore.forward(net, x)[0],
                                      nncore.forward(net, x, masks=None)[0])


def reference_adam(params, grads, m, v, t, lr, beta1, beta2, eps):
    """The Adam update, one parameter at a time, as the formula reads."""
    for i, gd in enumerate(grads):
        m[i] = beta1 * m[i] + (1.0 - beta1) * gd
        v[i] = beta2 * v[i] + (1.0 - beta2) * gd * gd
        m_hat = m[i] / (1.0 - beta1 ** t)
        v_hat = v[i] / (1.0 - beta2 ** t)
        params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)


def write_grads(state, grads):
    for view, gd in zip(state.grads, grads, strict=True):
        view[...] = gd


class TestAdam:
    def test_quadratic_convergence(self):
        # a 3-wide bias fitted to a target: the loss |b - target|^2 has
        # gradient 2 (b - target), and the weights get none
        target = np.array([1.5, -0.5, 3.0])
        net = one_layer(np.zeros((3, 1)), np.zeros(3), "linear")
        state = AdamState.for_net(net)
        for _ in range(400):
            b = net.layers[0].biases
            write_grads(state, [np.zeros((3, 1)), 2.0 * (b - target)])
            adam_step(net.parameters(), state, lr=0.05)
        assert float(((net.layers[0].biases - target) ** 2).sum()) <= 1e-3

    def test_shape_mismatch_rejected(self):
        # a gradient is refused where it is written: into a view of another
        # shape, or into a list that does not hold one view per parameter
        net = one_layer(np.zeros((3, 1)), np.zeros(3), "linear")
        state = AdamState.for_net(net)
        other = AdamState.for_net(one_layer(np.zeros((4, 1)), np.zeros(4),
                                            "linear"))
        _, cache = nncore.forward(net, np.ones((2, 1)))
        with pytest.raises(ShapeMismatchError):
            nncore.grad(net, cache, np.ones((2, 3)), out=other.grads)
        with pytest.raises(ShapeMismatchError):
            nncore.grad(net, cache, np.ones((2, 3)), out=state.grads[:1])

    @pytest.mark.parametrize("beta1", [0.0, 0.9])
    def test_bit_equal_to_reference_formula(self, beta1):
        # one output unit over count - 1 inputs: count parameters, so the
        # blocks end inside, at and just past the end of the buffer
        for count in (1, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1,
                      3 * ADAM_BLOCK + 7):
            self.check_against_reference(beta1, count)

    @staticmethod
    def check_against_reference(beta1, count):
        rng = np.random.default_rng(12)
        net = Mlp([DenseLayer(rng.normal(size=(1, count - 1)),
                              rng.normal(size=1))])
        shapes = [p.shape for p in net.parameters()]
        ref_p = [p.copy() for p in net.parameters()]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        state = AdamState.for_net(net)
        lr, beta2, eps = 1e-3, 0.9, 1e-8
        for t in range(1, 5):
            grads = [rng.normal(size=s) for s in shapes]
            write_grads(state, grads)
            adam_step(net.parameters(), state, lr=lr, beta1=beta1,
                      beta2=beta2, eps=eps)
            reference_adam(ref_p, grads, ref_m, ref_v, t, lr, beta1, beta2,
                           eps)
            for i, p in enumerate(net.parameters()):
                assert p.tobytes() == ref_p[i].tobytes()
            # the moments are laid out like the parameters, end to end
            flat = [np.concatenate([r.ravel() for r in ref]) for ref in (ref_m, ref_v)]
            assert state.v.tobytes() == flat[1].tobytes()
            if beta1 == 0.0:
                # the first moment would be the gradient: none is kept
                assert state.m is None
            else:
                assert state.m.tobytes() == flat[0].tobytes()
        assert state.t == 4

    @pytest.mark.parametrize("beta1", [0.0, 0.9])
    def test_non_finite_gradient_changes_nothing(self, beta1):
        rng = np.random.default_rng(17)
        net = build_mlp([5, 4, 1], "leaky_relu", "linear", rng)
        state = AdamState.for_net(net)
        write_grads(state, [rng.normal(size=p.shape) for p in net.parameters()])
        adam_step(net.parameters(), state, beta1=beta1)
        write_grads(state, [rng.normal(size=p.shape) for p in net.parameters()])
        state.grads[2][0, 1] = np.nan
        before = [None if a is None else a.copy()
                  for a in (state.flat, state.v, state.m)]
        with pytest.raises(NumericError):
            adam_step(net.parameters(), state, beta1=beta1)
        for a, b in zip((state.flat, state.v, state.m), before):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tobytes() == b.tobytes()
        assert state.t == 1

    def test_working_space_is_bounded_by_blocks(self):
        # one step on the byte generator's ~200k parameters allocates no
        # parameter-sized float buffer: under two blocks of scratch (the
        # finiteness mask is one byte per parameter) plus 64 KiB
        model = gan.build_gan(gan.PRESETS["byte_histogram"])
        state = AdamState.for_net(model.generator)
        assert state.flat.size > 3 * ADAM_BLOCK
        params = model.generator.parameters()
        state.grad[:] = np.random.default_rng(18).normal(size=state.grad.size)
        adam_step(params, state)
        state.grad[:] = 1e-3
        tracemalloc.start()
        try:
            adam_step(params, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * ADAM_BLOCK * 8 + 64 * 1024

    def test_parameters_become_views_into_one_buffer(self):
        rng = np.random.default_rng(13)
        net = build_mlp([5, 4, 1], "leaky_relu", "linear", rng)
        before = [p.copy() for p in net.parameters()]
        state = AdamState.for_net(net)
        assert state.flat.size == sum(b.size for b in before)
        for p, b, view in zip(net.parameters(), before, state.grads,
                              strict=True):
            assert p.base is state.flat
            assert p.tobytes() == b.tobytes()
            assert view.base is state.grad and view.shape == p.shape
        out, cache = nncore.forward(net, rng.normal(size=(3, 5)))
        nncore.grad(net, cache, np.ones(out.shape), out=state.grads)
        adam_step(net.parameters(), state)
        # the step reached every parameter through its view
        for p, b in zip(net.parameters(), before):
            assert p.base is state.flat
            assert not np.array_equal(p, b)

    def test_parameter_rebound_outside_the_buffer_rejected(self):
        net = one_layer(np.zeros((2, 1)), np.zeros(2), "linear")
        state = AdamState.for_net(net)
        write_grads(state, [np.ones((2, 1)), np.ones(2)])
        net.layers[0].weights = np.zeros((2, 1))
        with pytest.raises(ValueError):
            adam_step(net.parameters(), state)
        with pytest.raises(ValueError):
            adam_step(net.parameters()[1:], state)
        assert state.t == 0

    def test_bias_correction_first_step(self):
        # with beta1=0.9 the very first corrected step equals lr*sign(g)
        net = one_layer(np.zeros((1, 1)), np.zeros(1), "linear")
        state = AdamState.for_net(net)
        write_grads(state, [np.array([[4.0]]), np.array([4.0])])
        adam_step(net.parameters(), state, lr=0.1, beta1=0.9, beta2=0.999)
        np.testing.assert_allclose(net.layers[0].weights, [[-0.1]], atol=1e-7)
        np.testing.assert_allclose(net.layers[0].biases, [-0.1], atol=1e-7)
