"""Conditional Wasserstein GAN with gradient penalty, per feature family.

The generator is conditioned on a malicious feature vector plus uniform
noise and emits a benign-looking vector: a softmax distribution for byte
histograms, or sigmoid activations that are thresholded and OR-ed onto the
original indicator vector for the binary families (features are only ever
added, never removed). ``PRESETS`` holds each feature kind's canonical
preset; one with a sigmoid output is binary.

Both steps are closed-form numpy. The generator step is one ``nncore``
forward and first-order backward, through the critic and the generator.

The critic step is written out here. The critic is dense layers 1..k,
``f(x) = z_k``, ``z_i = (h_{i-1} * m_i) W_i^T + b_i``, ``h_i = z_i * s_i``
with ``h_0 = x``, dropout masks ``m_i`` and leaky-ReLU slopes ``s_i`` (1
where ``z_i > 0``, else the layer's slope). Backprop gives
``grad_x f = c_1 * m_1`` through the chain ``a_k = 1``, ``c_i = a_i W_i``,
``a_{i-1} = c_i * m_i * s_{i-1}``.
The slopes are piecewise constant (leaky ReLU's second derivative is 0
almost everywhere), so ``grad_x f`` is linear in each ``W_i`` and the
penalty's weight gradient is one more backward pass along the same chain
(double backpropagation, Drucker & LeCun 1992): with ``c_bar_1 =
dP/d(grad_x f) * m_1``, ``W_i += a_i^T c_bar_i`` and ``c_bar_{i+1} =
(c_bar_i W_i^T) * s_i * m_{i+1}``. Biases get no penalty term.
``critic_loss`` runs the forward once over the stacked rows
``[real; fake; x_hat]`` and the ``a`` chain in the same stacked backward as
the Wasserstein part's.

Both steps write their parameter gradients straight into the views of the
network's ``AdamState`` buffer. ``critic_loss`` raises ``NumericError`` when
the critic's output is not finite, ``adam_step`` when a gradient is not;
``train`` turns either into ``TrainingDivergedError``.
"""

from __future__ import annotations

import time
import typing
from dataclasses import asdict, dataclass, field
from numbers import Integral

import numpy as np

from . import checkpoint as ckpt
from . import nncore
from .nncore import (AdamState, Mlp, NumericError, adam_step, build_mlp,
                     forward, grad)


class TrainingDivergedError(RuntimeError):
    def __init__(self, step, l_d, l_g):
        super().__init__(f"non-finite loss at step {step} (L_D={l_d}, L_G={l_g})")
        self.step = step


@dataclass(frozen=True)
class GanPreset:
    feature_kind: str           # byte_histogram | api | strings
    input_dim: int
    noise_dim: int
    generator_hidden: tuple
    critic_hidden: tuple
    output_activation: str      # softmax | sigmoid

    @property
    def is_binary(self) -> bool:
        return self.output_activation == "sigmoid"


# feature kind -> its canonical preset
PRESETS = {preset.feature_kind: preset for preset in (
    GanPreset("byte_histogram", 256, 8, (256, 256), (128, 64), "softmax"),
    GanPreset("api", 2000, 128, (2000, 2000), (500, 300, 100), "sigmoid"),
    GanPreset("strings", 2000, 128, (512, 512), (500, 300, 100), "sigmoid"))}


# the WGAN-GP recipe of Gulrajani et al. (2017), which the paper trains with
BATCH_SIZE = 64
LAMBDA_GP = 10.0                        # gradient penalty weight
N_GENERATOR = 5                         # critic steps per generator step
LEARNING_RATE = 1e-4                    # Adam, both networks
BETA1, BETA2 = 0.0, 0.9                 # Adam moment decays
INPUT_DROPOUT, HIDDEN_DROPOUT = 0.1, 0.5    # both networks, training only


@dataclass
class TrainingConfig:
    """The GAN setting of one feature kind that a run sets: its step cap,
    the config's ``gans`` entry. The rest of the recipe is the constants
    above."""
    max_steps: int

    def __post_init__(self):
        if not (isinstance(self.max_steps, Integral)
                and not isinstance(self.max_steps, bool)):
            raise TypeError("max_steps must be an integer")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class GanModel:
    generator: Mlp
    critic: Mlp
    preset: GanPreset
    training_meta: dict = field(default_factory=dict)


def build_gan(preset: GanPreset, seed: int = 0) -> GanModel:
    rng = np.random.default_rng(seed)
    gen = build_mlp(
        [preset.input_dim + preset.noise_dim, *preset.generator_hidden,
         preset.input_dim],
        "relu", preset.output_activation, rng,
        input_dropout=INPUT_DROPOUT, hidden_dropout=HIDDEN_DROPOUT)
    critic = build_mlp(
        [preset.input_dim, *preset.critic_hidden, 1],
        "leaky_relu", "linear", rng,
        input_dropout=INPUT_DROPOUT, hidden_dropout=HIDDEN_DROPOUT)
    return GanModel(generator=gen, critic=critic, preset=preset,
                    training_meta={"steps": 0, "seed": seed})


def sample_noise(noise_dim: int, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    if noise_dim <= 0:
        raise ValueError("noise dimension must be positive")
    return rng.random((count, noise_dim))


def smooth_union(m: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Element-wise max(m, o): the differentiable stand-in for binarize+OR."""
    if np.shape(m)[-1] != np.shape(o)[-1]:
        raise nncore.ShapeMismatchError("feature dims differ in smooth_union")
    return np.maximum(m, o)


def generate(model: GanModel, m: np.ndarray, z) -> np.ndarray:
    """Adversarial vector for one sample or a batch; eval-mode dropout."""
    preset = model.preset
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    z2 = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if m.shape[1] != preset.input_dim or z2.shape[-1] != preset.noise_dim:
        raise nncore.ShapeMismatchError(
            f"expected dims ({preset.input_dim}, {preset.noise_dim}), "
            f"got ({m.shape[1]}, {z2.shape[-1]})")
    out, _ = forward(model.generator, np.concatenate([m, z2], axis=1))
    if not preset.is_binary:
        result = out
    else:
        result = np.logical_or(m > 0.5, out > 0.5).astype(np.float64)
    return result[0] if result.shape[0] == 1 and np.ndim(z) == 1 else result


def critic_loss(critic: Mlp, real: np.ndarray, fake: np.ndarray,
                lambda_gp: float, eps, masks=None, *, out):
    """WGAN-GP critic loss and its parameter gradients, in closed form.

    The loss is ``mean f(fake) - mean f(real) + lambda_gp * penalty`` with
    ``penalty = mean (|grad_x f(x_hat)| - 1)^2`` at the per-row straight-line
    mix ``x_hat = eps*real + (1-eps)*fake``. ``masks`` are the critic's
    dropout masks (``None``: eval mode), shared by the real, fake and mixed
    rows. Writes the loss's parameter gradients into ``out``, one array per
    parameter in ``critic.parameters()`` order (an ``AdamState``'s
    ``grads``), and returns ``(loss, wdist, penalty)``. Raises
    ``NumericError`` on a non-finite critic output.
    """
    layers = critic.layers
    if layers[-1].activation != "linear" or \
            any(l.activation != "leaky_relu" for l in layers[:-1]):
        raise ValueError("the critic must have leaky_relu hidden layers and "
                         "a linear output")
    real = np.asarray(real, dtype=np.float64)
    fake = np.asarray(fake, dtype=np.float64)
    if real.shape != fake.shape:
        raise nncore.ShapeMismatchError("real/fake batch shapes differ")
    if real.ndim != 2 or real.shape[1] != critic.in_dim:
        raise nncore.ShapeMismatchError(
            f"batch shape {real.shape} does not fit critic in-dim {critic.in_dim}")
    n = real.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if len(out) != 2 * len(layers):
        raise nncore.ShapeMismatchError(
            f"{len(out)} gradient arrays for {2 * len(layers)} parameters")
    eps = np.asarray(eps, dtype=np.float64).reshape(n, 1)
    masks = [None] * len(layers) if masks is None else masks
    weights = [layer.weights for layer in layers]

    # forward over the blocks [real; fake; x_hat], each array (3, n, width);
    # u[i] is layer i's masked input and s[i] hidden layer i's slopes (the
    # module docstring's u_{i+1} and s_{i+1}: code indices start at 0)
    h = np.empty((3, *real.shape))
    h[0], h[1] = real, fake
    np.multiply(eps, real, out=h[2])
    h[2] += (1.0 - eps) * fake
    u, s = [], []
    for layer, w, mask in zip(layers, weights, masks):
        if mask is not None:
            h *= mask
        u.append(h)
        h = (h.reshape(3 * n, -1) @ w.T).reshape(3, n, -1)
        h += layer.biases
        if layer.activation == "leaky_relu":
            s.append(np.array([layer.slope, 1.0]).take(h > 0))
            h *= s[-1]
    f = h[..., 0]
    if not np.isfinite(f).all():
        raise NumericError("non-finite critic output")
    wdist = f[1].sum() * (1.0 / n) - f[0].sum() * (1.0 / n)

    # one backward over the same blocks. Seeded with d wdist/d f (-1/n on
    # the real rows, +1/n on the fake ones) and with a = 1 on the x_hat
    # rows, g[i] holds d wdist/d z_i on the first two blocks and the chain's
    # a_i on the third: both follow g[i-1] = (g[i] W_i) * m_i * s_{i-1}
    g = [np.empty((3, n, 1))]
    g[0][0], g[0][1], g[0][2] = -1.0 / n, 1.0 / n, 1.0
    for i in range(len(layers) - 1, 0, -1):
        back = (g[0].reshape(3 * n, -1) @ weights[i]).reshape(3, n, -1)
        if masks[i] is not None:
            back *= masks[i]
        back *= s[i - 1]
        g.insert(0, back)
    gx = g[0][2] @ weights[0]
    if masks[0] is not None:
        gx *= masks[0]
    norms = np.sqrt(np.einsum("ij,ij->i", gx, gx))
    penalty = ((norms - 1.0) ** 2).sum() * (1.0 / n)

    # the penalty's chain walked back, W_i += a_i^T c_bar_i: c_bar_i takes
    # the place of the x_hat block of u[i], which nothing reads any more,
    # so each weight gradient is one product over the three blocks. At
    # |gx| = 0 the penalty contributes no gradient
    coef = np.divide(2.0 * lambda_gp / n * (norms - 1.0), norms,
                     out=np.zeros_like(norms), where=norms > 0)
    np.multiply(gx, coef[:, None], out=u[0][2])
    if masks[0] is not None:
        u[0][2] *= masks[0]
    for i, w in enumerate(weights):
        np.matmul(g[i].reshape(3 * n, -1).T, u[i].reshape(3 * n, -1),
                  out=out[2 * i])
        np.sum(g[i][:2].reshape(2 * n, -1), axis=0, out=out[2 * i + 1])
        if i + 1 < len(layers):
            c_bar = np.matmul(u[i][2], w.T, out=u[i + 1][2])
            c_bar *= s[i][2]
            if masks[i + 1] is not None:
                c_bar *= masks[i + 1]
    loss = wdist + lambda_gp * penalty
    return float(loss), float(wdist), float(penalty)


def generator_loss(critic: Mlp, fake: np.ndarray, masks=None):
    """Mean critic score on fakes, and the gradient w.r.t. ``fake`` of its
    negative: the generator descends that gradient to raise the score."""
    n = len(fake)
    if n == 0:
        raise ValueError("empty batch")
    score, cache = forward(critic, fake, masks)
    seed = np.broadcast_to(-1.0 * (1.0 / n), score.shape)
    g_fake = grad(critic, cache, seed, inputs=True)
    return float(score.sum() * (1.0 / n)), g_fake


def _generator_path(model: GanModel, m_batch: np.ndarray, z: np.ndarray,
                    masks):
    """The fakes the generator makes from ``[m_batch, z]``, through
    ``smooth_union`` on binary presets, and what ``_generator_grads`` reads."""
    out, cache = forward(model.generator, np.concatenate([m_batch, z], axis=1),
                         masks)
    if not model.preset.is_binary:
        return out, (cache, None)
    # smooth_union hands the gradient to o where o > m
    return smooth_union(m_batch, out), (cache, 1.0 - (m_batch >= out))


def _generator_grads(model: GanModel, path, g_fake: np.ndarray, out) -> None:
    """Gradients of the generator's parameters from those of its fakes,
    written into ``out`` (the generator's ``AdamState.grads``)."""
    cache, route = path
    if route is not None:
        g_fake = g_fake * route
    grad(model.generator, cache, g_fake, out=out)


def train(x: np.ndarray, benign_rows, malicious_rows, preset: GanPreset,
          cfg: TrainingConfig, seed: int = 0, metrics_sink=None) -> GanModel:
    """Alternating critic/generator training loop over the rows of ``x``.

    ``benign_rows`` and ``malicious_rows`` index each class's rows of ``x``;
    the seed draws positions in them, so their order matters. Each step
    gathers its two batches straight from ``x`` and converts only them to
    float64, so training holds no per-class copy of the rows, whatever
    ``x``'s dtype: its working set is the two networks, their Adam buffers
    and one step's batches and activations.

    Every step updates the critic; every ``N_GENERATOR``-th step the
    generator. Runs ``cfg.max_steps`` steps unless a non-finite loss or
    gradient raises ``TrainingDivergedError``. ``metrics_sink``, if given, is
    called after every step with ``(step, L_D, L_G, penalty, step_ms)``,
    where ``step_ms`` is the step's wall time. The loop never touches any
    detector.
    """
    x = np.asarray(x)
    benign_rows = np.asarray(benign_rows, dtype=np.intp)
    malicious_rows = np.asarray(malicious_rows, dtype=np.intp)
    if x.ndim != 2 or not all(
            rows.ndim == 1 and len(rows)
            and 0 <= rows.min() <= rows.max() < len(x)
            for rows in (benign_rows, malicious_rows)):
        raise ValueError("need a 2-D matrix and nonempty 1-D benign and "
                         "malicious indices of its rows")
    if x.shape[1] != preset.input_dim:
        raise nncore.ShapeMismatchError("corpus dim does not match preset")

    rng = np.random.default_rng(seed)
    model = build_gan(preset, seed=seed)
    d_state = AdamState.for_net(model.critic)
    g_state = AdamState.for_net(model.generator)

    last_lg = float("nan")

    for step in range(1, cfg.max_steps + 1):
        started = time.perf_counter()
        b_idx = rng.integers(0, len(benign_rows), size=BATCH_SIZE)
        m_idx = rng.integers(0, len(malicious_rows), size=BATCH_SIZE)
        real = x[benign_rows[b_idx]].astype(np.float64, copy=False)
        m_batch = x[malicious_rows[m_idx]].astype(np.float64, copy=False)
        z = sample_noise(preset.noise_dim, BATCH_SIZE, rng)
        gen_masks = model.generator.sample_dropout_masks(rng, BATCH_SIZE)
        critic_masks = model.critic.sample_dropout_masks(rng, BATCH_SIZE)
        eps = rng.random((BATCH_SIZE, 1))

        try:
            # one generator forward per step: the critic trains on its
            # values, and a generator step below backpropagates through
            # the same forward, valid because only the critic is updated
            # in between
            fake, path = _generator_path(model, m_batch, z, gen_masks)
            ld_val, _, gp = critic_loss(model.critic, real, fake,
                                        LAMBDA_GP, eps, critic_masks,
                                        out=d_state.grads)
            adam_step(model.critic.parameters(), d_state,
                      lr=LEARNING_RATE, beta1=BETA1, beta2=BETA2)

            if step % N_GENERATOR == 0:
                # ascend the mean critic score so fakes drift toward "real"
                last_lg, g_fake = generator_loss(model.critic, fake,
                                                 critic_masks)
                _generator_grads(model, path, g_fake, g_state.grads)
                adam_step(model.generator.parameters(), g_state,
                          lr=LEARNING_RATE, beta1=BETA1, beta2=BETA2)
        except NumericError:
            raise TrainingDivergedError(step, None, last_lg) from None

        if not np.isfinite(ld_val):
            raise TrainingDivergedError(step, ld_val, last_lg)
        if metrics_sink is not None:
            metrics_sink(step, ld_val, last_lg, gp,
                         (time.perf_counter() - started) * 1e3)

    model.training_meta = {"steps": cfg.max_steps, "seed": seed}
    return model


# --- persistence -----------------------------------------------------------

def save_gan(path, model: GanModel, key: str = "") -> None:
    meta = {
        "kind": "gan",
        "key": key,
        "preset": asdict(model.preset),
        "training_meta": model.training_meta,
        "generator": ckpt.mlp_meta(model.generator),
        "critic": ckpt.mlp_meta(model.critic),
    }
    arrays = {}
    arrays.update(ckpt.mlp_arrays(model.generator, "gen"))
    arrays.update(ckpt.mlp_arrays(model.critic, "critic"))
    ckpt.save_container(path, meta, arrays)


def load_gan(path, key: str | None = None) -> GanModel:
    meta, arrays = ckpt.load_container(path, key)
    if meta.get("kind") != "gan":
        raise ckpt.CheckpointError("not a GAN checkpoint")
    p = ckpt.field(meta, "preset", dict)
    # each field with its declared type; a tuple is stored as a list of ints
    preset = GanPreset(**{
        name: tuple(ckpt.field(p, name, list, int)) if kind is tuple
        else ckpt.field(p, name, kind)
        for name, kind in typing.get_type_hints(GanPreset).items()})
    return GanModel(ckpt.mlp_from(meta.get("generator"), arrays, "gen"),
                    ckpt.mlp_from(meta.get("critic"), arrays, "critic"),
                    preset, training_meta=meta.get("training_meta", {}))
