"""The training loops against a reference copy of the loop they replaced.

The reference builds each step's parameter gradients as a list, copies
the list into one buffer laid out like the parameters, and applies the
14-operation Adam update with a first moment, at every ``beta1``. The loops
under test write their gradients straight into ``AdamState``'s buffer,
update it in blocks and keep no first moment at ``beta1 = 0``. Both must
end on the same bits. Widths of 150 and 300, which are not a multiple of
the BLAS kernel's tile, would show a weight gradient formed as ``g^T u``
instead of ``(u^T g)^T``. The critic's closed-form gradients are taken from
``gan.critic_loss`` itself, into a fresh list: their products are the same
calls in both loops, and ``tests/test_gan.py`` checks them against the tape
graph.

The inputs differ in layout too: ``gan.train`` draws each batch from one
matrix, in its stored dtype, through each class's row indices, while the
reference draws from float64 copies of each class; the logreg and mlp
detectors standardize their stacked rows in place, the references out of
place.
"""

import numpy as np
import pytest

from ganevade import baselines, checkpoint, detectors, gan, nncore
from ganevade.detectors import BENIGN, MALICIOUS
from ganevade.gan import GanPreset, TrainingConfig
from ganevade.nncore import bce, forward, sigmoid, sigmoid_backward


def reference_grad(net, cache, g_out, params=True, inputs=False):
    """``nncore.grad`` as it returned gradients: ``(param_grads, input_grad)``."""
    g = np.asarray(g_out, dtype=np.float64)
    param_grads = []
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        u, mask, record = cache[i]
        if layer.activation in ("relu", "leaky_relu"):
            g = g * record
        elif layer.activation == "sigmoid":
            g = sigmoid_backward(record, g)
        elif layer.activation == "softmax":
            gy = g * record
            g = gy - record * gy.sum(axis=-1, keepdims=True)
        if params:
            param_grads.append(g.sum(axis=0))
            param_grads.append((u.T @ g).T)
        if i == 0 and not inputs:
            break
        g = g @ layer.weights
        if mask is not None:
            g = g * mask
    return (param_grads[::-1] if params else None), (g if inputs else None)


class ReferenceAdam:
    """Adam with a first moment at every ``beta1``, fed gradient lists."""

    def __init__(self, net):
        self.params = net.parameters
        # lay the parameters out end to end, as the update expects
        self.flat = nncore.AdamState.for_net(net).flat
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.g = np.empty_like(self.flat)
        self.step_buf = np.empty_like(self.flat)
        self.t = 0

    def step(self, grads, lr, beta1, beta2, eps=1e-8):
        g, step = self.g, self.step_buf
        offset = 0
        for p, gd in zip(self.params(), grads, strict=True):
            assert gd.shape == p.shape and p.base is self.flat
            g[offset:offset + gd.size] = gd.ravel()
            offset += gd.size
        assert offset == g.size
        self.t += 1
        np.multiply(1.0 - beta2, g, out=step)
        step *= g
        self.v *= beta2
        self.v += step
        g *= 1.0 - beta1
        self.m *= beta1
        self.m += g
        np.divide(self.v, 1.0 - beta2 ** self.t, out=step)
        np.sqrt(step, out=step)
        step += eps
        np.divide(self.m, 1.0 - beta1 ** self.t, out=g)
        g *= lr
        g /= step
        self.flat -= g


def reference_gan_train(benign, malicious, preset, cfg, seed):
    """``gan.train``'s loop."""
    rng = np.random.default_rng(seed)
    model = gan.build_gan(preset, seed=seed)
    d_adam, g_adam = ReferenceAdam(model.critic), ReferenceAdam(model.generator)
    hp = dict(lr=gan.LEARNING_RATE, beta1=gan.BETA1, beta2=gan.BETA2)
    for step in range(1, cfg.max_steps + 1):
        real = benign[rng.integers(0, len(benign), size=gan.BATCH_SIZE)]
        m_batch = malicious[rng.integers(0, len(malicious), size=gan.BATCH_SIZE)]
        z = gan.sample_noise(preset.noise_dim, gan.BATCH_SIZE, rng)
        gen_masks = model.generator.sample_dropout_masks(rng, gan.BATCH_SIZE)
        critic_masks = model.critic.sample_dropout_masks(rng, gan.BATCH_SIZE)
        eps = rng.random((gan.BATCH_SIZE, 1))
        fake, (cache, route) = gan._generator_path(model, m_batch, z, gen_masks)
        d_grads = [np.empty_like(p) for p in model.critic.parameters()]
        gan.critic_loss(model.critic, real, fake, gan.LAMBDA_GP, eps,
                        critic_masks, out=d_grads)
        d_adam.step(d_grads, **hp)
        if step % gan.N_GENERATOR == 0:
            _, g_fake = gan.generator_loss(model.critic, fake, critic_masks)
            if route is not None:
                g_fake = g_fake * route
            g_adam.step(reference_grad(model.generator, cache, g_fake)[0], **hp)
    return model


def reference_logreg_detector(xb, xm, lr, l2, steps, seed):
    """``train_detector("logreg", ...)``'s network, standardizing the
    stacked class copies out of place."""
    xb = np.asarray(xb, dtype=np.float64)
    xm = np.asarray(xm, dtype=np.float64)
    x = np.vstack([xb, xm])
    y = np.concatenate([np.zeros(len(xb)), np.ones(len(xm))])
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    xs = (x - mu) / sd
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.01, size=x.shape[1])
    b = 0.0
    n = len(x)
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(xs @ w + b)))
        dw = xs.T @ (p - y) / n + l2 * w
        db = float(np.sum(p - y)) / n
        w -= lr * dw
        b -= lr * db
    layer = nncore.DenseLayer(w[None, :], [b], "sigmoid")
    layer.weights = layer.weights / sd
    layer.biases = layer.biases - layer.weights @ mu
    return nncore.Mlp([layer])


def reference_mlp_detector(xb, xm, hidden, steps, seed):
    """``train_detector("mlp", ...)``'s network."""
    x = np.vstack([xb, xm])
    y = np.concatenate([np.zeros(len(xb)), np.ones(len(xm))])
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    xs = (x - mu) / sd
    net = nncore.build_mlp([x.shape[1], hidden, 1], "relu", "sigmoid",
                           np.random.default_rng(seed))
    adam = ReferenceAdam(net)
    for _ in range(steps):
        p, cache = forward(net, xs)
        adam.step(reference_grad(net, cache, bce(p, y)[1])[0], lr=1e-3,
                  beta1=0.9, beta2=0.999)
    first = net.layers[0]
    first.weights = first.weights / sd
    first.biases = first.biases - first.weights @ mu
    return net


def reference_malgan(xm, xb, black_box, preset, max_queries, seed):
    """``baselines.train_malgan``'s loop."""
    rng = np.random.default_rng(seed)
    model = gan.build_gan(preset, seed)
    counter = baselines._QueryCounter(black_box)
    sub, gen = ReferenceAdam(model.critic), ReferenceAdam(model.generator)
    hp = dict(lr=baselines.LR, beta1=0.9, beta2=0.999)
    batch = baselines.BATCH_SIZE
    round_no = 0
    while counter.count < max_queries:
        round_no += 1
        m_batch = xm[rng.integers(0, len(xm), size=batch)]
        b_batch = xb[rng.integers(0, len(xb), size=batch)]
        z = gan.sample_noise(preset.noise_dim, batch, rng)
        x_train = np.vstack([gan.generate(model, m_batch, z), b_batch])
        y_train = counter(x_train)
        for _ in range(baselines.STEPS_PER_ROUND):
            score, cache = forward(model.critic, x_train)
            p = sigmoid(score)
            g_p = bce(p, y_train)[1]
            sub.step(reference_grad(model.critic, cache,
                                    sigmoid_backward(p, g_p))[0], **hp)
        for _ in range(baselines.STEPS_PER_ROUND):
            fake, (g_cache, route) = gan._generator_path(model, m_batch, z,
                                                         None)
            score, cache = forward(model.critic, fake)
            seed_g = np.full(score.shape, 1.0 / len(fake))
            _, g_fake = reference_grad(
                model.critic, cache, sigmoid_backward(sigmoid(score), seed_g),
                params=False, inputs=True)
            if route is not None:
                g_fake = g_fake * route
            gen.step(reference_grad(model.generator, g_cache, g_fake)[0], **hp)
        if round_no % baselines.PROBE_EVERY == 0:
            probe = gan.generate(
                model, xm[rng.integers(0, len(xm), size=baselines.PROBE_SIZE)],
                gan.sample_noise(preset.noise_dim, baselines.PROBE_SIZE, rng))
            if float(np.mean(counter(probe))) < baselines.TARGET_DETECTION:
                break
    return model


def assert_same_bits(got_nets, want_nets):
    for got, want in zip(got_nets, want_nets, strict=True):
        for a, b in zip(got.parameters(), want.parameters(), strict=True):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def byte_rows(rng, n, dim):
    return rng.dirichlet(np.ones(dim), size=n)


def binary_rows(rng, n, dim, density):
    return (rng.random((n, dim)) < density).astype(np.float64)


@pytest.mark.parametrize("preset,rows", [
    (gan.byte_preset(), lambda rng, n: byte_rows(rng, n, 256)),
    (GanPreset("api", 12, 4, (16, 16), (8, 8), "sigmoid"),
     lambda rng, n: binary_rows(rng, n, 12, 0.3)),
    # the pipeline's api preset at the default k_api of 150
    (GanPreset("api", 150, 128, (150, 150), (75, 37), "sigmoid"),
     lambda rng, n: binary_rows(rng, n, 150, 0.2)),
])
def test_gan_train_matches_reference(preset, rows):
    rng = np.random.default_rng(21)
    benign, malicious = rows(rng, 80), rows(rng, 80)
    # the pipeline's layout: one matrix, in its narrowest exact dtype, the
    # classes interleaved and read through their row indices; the
    # reference trains on float64 copies of each class
    x = np.empty((160, preset.input_dim))
    x[0::2], x[1::2] = benign, malicious
    x = checkpoint.narrowest(x)
    assert x.dtype == (np.uint8 if preset.is_binary else np.float64)
    # two generator steps at gan.N_GENERATOR = 5, batch gan.BATCH_SIZE
    cfg = TrainingConfig(max_steps=11)
    model = gan.train(x, np.arange(0, 160, 2), np.arange(1, 160, 2), preset,
                      cfg, seed=4)
    want = reference_gan_train(benign, malicious, preset, cfg, seed=4)
    init = gan.build_gan(preset, seed=4)
    assert any(not np.array_equal(a, b) for a, b in
               zip(want.generator.parameters(), init.generator.parameters()))
    assert_same_bits([model.generator, model.critic],
                     [want.generator, want.critic])


@pytest.mark.parametrize("dtype", ["f8", "u1"])
def test_logreg_detector_matches_reference(dtype):
    rng = np.random.default_rng(24)
    if dtype == "f8":
        # byte-width histogram rows
        xb, xm = byte_rows(rng, 40, 256), byte_rows(rng, 35, 256)
    else:
        # Top-K indicator rows as extract holds them, a constant column
        # among them
        xb = binary_rows(rng, 40, 150, 0.2).astype(np.uint8)
        xm = binary_rows(rng, 35, 150, 0.3).astype(np.uint8)
        xb[:, 7] = xm[:, 7] = 1
    model = detectors.train_detector("logreg", xb, xm, {"steps": 60}, seed=9)
    want = reference_logreg_detector(xb, xm, detectors.LOGREG_LR,
                                     detectors.LOGREG_L2, 60, seed=9)
    assert_same_bits([model.net], [want])


@pytest.mark.parametrize("dim,hidden", [(256, 64), (20, 16), (300, 100)])
def test_mlp_detector_matches_reference(dim, hidden):
    rng = np.random.default_rng(22)
    xb, xm = byte_rows(rng, 30, dim), byte_rows(rng, 25, dim)
    model = detectors.train_detector("mlp", xb, xm,
                                     {"hidden": hidden, "steps": 25}, seed=5)
    assert_same_bits([model.net],
                     [reference_mlp_detector(xb, xm, hidden, 25, seed=5)])


def test_malgan_matches_reference():
    preset = GanPreset("byte_histogram", 10, 4, (16, 16), (8,), "softmax")
    rng = np.random.default_rng(23)
    xm, xb = byte_rows(rng, 20, 10), byte_rows(rng, 20, 10)

    def black_box(x):
        return np.where(np.atleast_2d(x)[:, 0] < 0.1, MALICIOUS, BENIGN)

    model = baselines.train_malgan(xm, xb, black_box, preset,
                                   max_queries=400, seed=6)
    want = reference_malgan(xm, xb, black_box, preset, 400, seed=6)
    assert model.training_meta["rounds"] > 1
    assert_same_bits([model.generator, model.critic],
                     [want.generator, want.critic])
