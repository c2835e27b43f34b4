"""Comparison attacks: benign code injection and a substitute-detector GAN.

The substitute-detector attack (after MalGAN) queries the target detector
for labels and trains a local stand-in; every label request is counted so
reports can contrast it with the query-free attack, whose count is always
zero. Its model is a ``gan.GanModel``: the generator is the GAN's, and the
critic, read through a sigmoid, is the substitute detector.
"""

from __future__ import annotations

import numpy as np

from . import gan, nncore, petk
from .detectors import MALICIOUS
from .gan import GanModel, GanPreset, TrainingDivergedError, generate, sample_noise
from .nncore import (AdamState, adam_step, bce, forward, grad, sigmoid,
                     sigmoid_backward)


def benign_injection(pe: petk.PeImage, benign_pool: list[bytes],
                     rng: np.random.Generator) -> petk.PeImage:
    """Append one uniformly chosen benign file's bytes to the overlay."""
    if not benign_pool:
        raise ValueError("empty benign pool")
    chosen = benign_pool[int(rng.integers(0, len(benign_pool)))]
    return petk.parse(pe.data + bytes(chosen), strict=True)


# a round labels BATCH_SIZE fakes and BATCH_SIZE benign rows, then takes
# STEPS_PER_ROUND Adam steps at LR on the substitute and on the generator;
# every PROBE_EVERY rounds, PROBE_SIZE fakes are labelled, and training stops
# once fewer than TARGET_DETECTION of them are malicious
BATCH_SIZE = 32
LR = 1e-3
STEPS_PER_ROUND = 4
TARGET_DETECTION = 0.05
PROBE_SIZE = 32
PROBE_EVERY = 5


class _QueryCounter:
    def __init__(self, label_fn):
        self.label_fn = label_fn
        self.count = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        self.count += len(x)
        labels = self.label_fn(x)
        return (np.asarray(labels) == MALICIOUS).astype(np.float64)


def _substitute_grads(critic: nncore.Mlp, x: np.ndarray, y: np.ndarray,
                      out) -> None:
    """Gradients of the substitute's BCE against the black-box labels ``y``,
    written into ``out``; the substitute is the critic read through a
    sigmoid."""
    score, cache = forward(critic, x)
    p = sigmoid(score)
    _, g_p = bce(p, y)
    grad(critic, cache, sigmoid_backward(p, g_p), out=out)


def _malgan_generator_grads(model: GanModel, m_batch: np.ndarray,
                            z: np.ndarray, out) -> None:
    """Gradients of the generator's loss, written into ``out``: the
    substitute's mean malicious probability on its fakes."""
    fake, path = gan._generator_path(model, m_batch, z, None)
    score, cache = forward(model.critic, fake)
    seed = np.full(score.shape, 1.0 / len(fake))
    g_fake = grad(model.critic, cache, sigmoid_backward(sigmoid(score), seed),
                  inputs=True)
    gan._generator_grads(model, path, g_fake, out)


def train_malgan(malicious_features: np.ndarray, benign_features: np.ndarray,
                 black_box, preset: GanPreset, max_queries: int,
                 seed: int) -> GanModel:
    """Alternate substitute fitting (against black-box labels) with
    generator updates that lower the substitute's malicious probability.

    ``black_box`` must be a label-only callable; scores are never used.
    ``training_meta["queries"]`` counts the labels it was asked for; the
    round that passes ``max_queries`` is the last.
    """
    xm = np.atleast_2d(np.asarray(malicious_features, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(benign_features, dtype=np.float64))
    rng = np.random.default_rng(seed)
    model = gan.build_gan(preset, seed)
    counter = _QueryCounter(black_box)
    sub_state = AdamState.for_net(model.critic)
    gen_state = AdamState.for_net(model.generator)

    round_no = 0
    while counter.count < max_queries:
        round_no += 1
        m_batch = xm[rng.integers(0, len(xm), size=BATCH_SIZE)]
        b_batch = xb[rng.integers(0, len(xb), size=BATCH_SIZE)]
        z = sample_noise(preset.noise_dim, BATCH_SIZE, rng)
        fakes = generate(model, m_batch, z)

        x_train = np.vstack([fakes, b_batch])
        y_train = counter(x_train)

        try:
            for _ in range(STEPS_PER_ROUND):
                _substitute_grads(model.critic, x_train, y_train,
                                  sub_state.grads)
                adam_step(model.critic.parameters(), sub_state, lr=LR,
                          beta1=0.9, beta2=0.999)
            for _ in range(STEPS_PER_ROUND):
                _malgan_generator_grads(model, m_batch, z, gen_state.grads)
                adam_step(model.generator.parameters(), gen_state, lr=LR,
                          beta1=0.9, beta2=0.999)
        except nncore.NumericError:
            raise TrainingDivergedError(round_no, None, None) from None

        if round_no % PROBE_EVERY == 0:
            probe = generate(model, xm[rng.integers(0, len(xm), size=PROBE_SIZE)],
                             sample_noise(preset.noise_dim, PROBE_SIZE, rng))
            if float(np.mean(counter(probe))) < TARGET_DETECTION:
                break

    model.training_meta = {"rounds": round_no, "seed": seed,
                           "queries": counter.count}
    return model
