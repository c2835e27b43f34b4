"""Conditional Wasserstein GAN with gradient penalty, per feature family.

The generator is conditioned on a malicious feature vector plus uniform
noise and emits a benign-looking vector: a softmax distribution for byte
histograms, or sigmoid activations that are thresholded and OR-ed onto the
original indicator vector for the binary families (features are only ever
added, never removed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt
from . import nncore
from .nncore import (AdamState, Mlp, NumericError, Tensor, adam_step,
                     build_mlp, concat, forward, grad, maximum, mul, power,
                     sub, tmean, tsum)

BINARY_KINDS = ("api", "strings")


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
        return self.feature_kind in BINARY_KINDS


def byte_preset() -> GanPreset:
    return GanPreset("byte_histogram", 256, 8, (256, 256), (128, 64), "softmax")


def api_preset() -> GanPreset:
    return GanPreset("api", 2000, 128, (2000, 2000), (500, 300, 100), "sigmoid")


def strings_preset() -> GanPreset:
    return GanPreset("strings", 2000, 128, (512, 512), (500, 300, 100), "sigmoid")


def preset_for(kind: str) -> GanPreset:
    try:
        return {"byte_histogram": byte_preset, "api": api_preset,
                "strings": strings_preset}[kind]()
    except KeyError:
        raise ValueError(f"unknown feature kind {kind!r}") from None


@dataclass
class TrainingConfig:
    lambda_gp: float = 10.0
    n_generator: int = 5
    batch_size: int = 64
    num_epochs: int = 10
    learning_rate: float = 1e-4
    beta1: float = 0.0
    beta2: float = 0.9
    seed: int = 0
    max_steps: int | None = None    # overrides the epoch-derived cap
    early_stop_window: int = 100
    early_stop_tol: float = 1e-4
    early_stop_patience: int = 10

    def __post_init__(self):
        if self.lambda_gp <= 0:
            raise ValueError("lambda_gp must be positive")
        if self.n_generator < 1:
            raise ValueError("n_generator must be >= 1")


@dataclass
class GanModel:
    generator: Mlp
    critic: Mlp
    preset: GanPreset
    training_meta: dict = field(default_factory=dict)


def build_gan(preset: GanPreset, seed: int = 0,
              input_dropout: float = 0.1, hidden_dropout: float = 0.5) -> GanModel:
    rng = np.random.default_rng(seed)
    gen = build_mlp(
        [preset.input_dim + preset.noise_dim, *preset.generator_hidden,
         preset.input_dim],
        "relu", preset.output_activation, rng,
        input_dropout=input_dropout, hidden_dropout=hidden_dropout)
    critic = build_mlp(
        [preset.input_dim, *preset.critic_hidden, 1],
        "leaky_relu", "linear", rng,
        input_dropout=input_dropout, hidden_dropout=hidden_dropout)
    return GanModel(generator=gen, critic=critic, preset=preset,
                    training_meta={"steps": 0, "seed": seed})


def sample_noise(noise_dim: int, count: int, rng: np.random.Generator) -> Tensor:
    if noise_dim <= 0:
        raise ValueError("noise dimension must be positive")
    return Tensor(rng.random((count, noise_dim)))


def smooth_union(m, o: Tensor) -> Tensor:
    """Element-wise max(m, o): the differentiable stand-in for binarize+OR."""
    m_t = m if isinstance(m, Tensor) else Tensor(m)
    if m_t.data.shape[-1] != o.data.shape[-1]:
        raise nncore.ShapeMismatchError("feature dims differ in smooth_union")
    return maximum(m_t, o)


def generate(model: GanModel, m: np.ndarray, z) -> np.ndarray:
    """Adversarial vector for one sample or a batch; eval-mode dropout."""
    preset = model.preset
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    z_t = z if isinstance(z, Tensor) else Tensor(np.atleast_2d(z))
    if m.shape[1] != preset.input_dim or z_t.data.shape[-1] != preset.noise_dim:
        raise nncore.ShapeMismatchError(
            f"expected dims ({preset.input_dim}, {preset.noise_dim}), "
            f"got ({m.shape[1]}, {z_t.data.shape[-1]})")
    out = forward(model.generator, concat([Tensor(m), z_t])).data
    if not preset.is_binary:
        result = out
    else:
        result = np.logical_or(m > 0.5, out > 0.5).astype(np.float64)
    return result[0] if result.shape[0] == 1 and np.asarray(z).ndim == 1 else result


def critic_loss(critic: Mlp, real: Tensor, fake: Tensor, lambda_gp: float,
                rng: np.random.Generator | None = None, eps=None, masks=None,
                return_parts: bool = False):
    """Wasserstein critic loss with the straight-line gradient penalty."""
    if real.data.shape[0] == 0 or fake.data.shape[0] == 0:
        raise ValueError("empty batch")
    if real.data.shape != fake.data.shape:
        raise nncore.ShapeMismatchError("real/fake batch shapes differ")
    n = real.data.shape[0]
    if eps is None:
        eps = rng.random((n, 1))
    eps_t = Tensor(np.asarray(eps, dtype=np.float64).reshape(n, 1))
    x_hat = straight_line_mix(real, fake, eps_t)

    f_real = forward(critic, real, masks)
    f_fake = forward(critic, fake, masks)
    f_hat = forward(critic, x_hat, masks)
    grads = grad(tsum(f_hat), x_hat)
    norms = power(tsum(mul(grads, grads), axis=1), 0.5)
    penalty = tmean(power(sub(norms, Tensor(1.0)), 2.0))
    wdist = sub(tmean(f_fake), tmean(f_real))
    loss = wdist + mul(Tensor(lambda_gp), penalty)
    if return_parts:
        return loss, wdist, penalty
    return loss


def straight_line_mix(real: Tensor, fake: Tensor, eps: Tensor) -> Tensor:
    """Per-sample interpolation eps*real + (1-eps)*fake along a straight line."""
    return mul(eps, real) + mul(sub(Tensor(1.0), eps), fake)


def generator_loss(critic: Mlp, fake: Tensor, masks=None) -> Tensor:
    """Mean critic score on fakes; the generator is updated to raise it."""
    if fake.data.shape[0] == 0:
        raise ValueError("empty batch")
    return tmean(forward(critic, fake, masks))


def _generator_path(model: GanModel, m_batch: np.ndarray, z: Tensor,
                    masks) -> Tensor:
    c = concat([Tensor(m_batch), z])
    o = forward(model.generator, c, masks)
    if model.preset.is_binary:
        return smooth_union(m_batch, o)
    return o


def train(benign: np.ndarray, malicious: np.ndarray, preset: GanPreset,
          cfg: TrainingConfig, metrics_sink=None) -> GanModel:
    """Alternating critic/generator training loop.

    Every step updates the critic; every ``n_generator``-th step the
    generator. Stops at the step cap or when the windowed moving average
    of |L_D| stops moving. The loop never touches any detector.
    """
    benign = np.asarray(benign, dtype=np.float64)
    malicious = np.asarray(malicious, dtype=np.float64)
    if benign.ndim != 2 or malicious.ndim != 2 or not len(benign) or not len(malicious):
        raise ValueError("benign and malicious sets must be nonempty 2-D arrays")
    if benign.shape[1] != preset.input_dim or malicious.shape[1] != preset.input_dim:
        raise nncore.ShapeMismatchError("corpus dim does not match preset")

    rng = np.random.default_rng(cfg.seed)
    model = build_gan(preset, seed=cfg.seed)
    d_state = AdamState.for_params(model.critic.parameters())
    g_state = AdamState.for_params(model.generator.parameters())

    max_steps = cfg.max_steps
    if max_steps is None:
        max_steps = max(1, (len(benign) * cfg.num_epochs) // cfg.batch_size)

    window: list[float] = []
    prev_window_mean = None
    stable_windows = 0
    last_lg = float("nan")
    steps_run = 0

    for step in range(1, max_steps + 1):
        b_idx = rng.integers(0, len(benign), size=cfg.batch_size)
        m_idx = rng.integers(0, len(malicious), size=cfg.batch_size)
        real = Tensor(benign[b_idx])
        m_batch = malicious[m_idx]
        z = sample_noise(preset.noise_dim, cfg.batch_size, rng)
        gen_masks = model.generator.sample_dropout_masks(rng, cfg.batch_size)
        critic_masks = model.critic.sample_dropout_masks(rng, cfg.batch_size)
        eps = rng.random((cfg.batch_size, 1))

        try:
            # one generator forward per step: the critic trains on it
            # detached, and a generator step below differentiates the same
            # graph, valid because only the critic is updated in between
            fake_g = _generator_path(model, m_batch, z, gen_masks)
            fake = fake_g.detach()
            loss_d, _, gp = critic_loss(model.critic, real, fake, cfg.lambda_gp,
                                        eps=eps, masks=critic_masks,
                                        return_parts=True)
            d_grads = grad(loss_d, model.critic.parameters())
            adam_step(model.critic.parameters(), d_grads, d_state,
                      lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2)

            if step % cfg.n_generator == 0:
                loss_g = generator_loss(model.critic, fake_g, critic_masks)
                # ascend the mean critic score so fakes drift toward "real"
                g_grads = grad(mul(Tensor(-1.0), loss_g),
                               model.generator.parameters())
                adam_step(model.generator.parameters(), g_grads, g_state,
                          lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2)
                last_lg = loss_g.item()
        except NumericError:
            raise TrainingDivergedError(step, None, last_lg) from None

        ld_val = loss_d.item()
        if not np.isfinite(ld_val):
            raise TrainingDivergedError(step, ld_val, last_lg)
        if metrics_sink is not None:
            metrics_sink(step, ld_val, last_lg, gp.item())
        steps_run = step

        window.append(abs(ld_val))
        if len(window) == cfg.early_stop_window:
            mean = float(np.mean(window))
            window.clear()
            if prev_window_mean is not None:
                if abs(mean - prev_window_mean) < cfg.early_stop_tol:
                    stable_windows += 1
                else:
                    stable_windows = 0
            prev_window_mean = mean
            if stable_windows >= cfg.early_stop_patience:
                break

    model.training_meta = {"steps": steps_run, "seed": cfg.seed}
    return model


# --- persistence -----------------------------------------------------------

def save_gan(path, model: GanModel, key: str = "") -> None:
    meta = {
        "kind": "gan",
        "key": key,
        "preset": {
            "feature_kind": model.preset.feature_kind,
            "input_dim": model.preset.input_dim,
            "noise_dim": model.preset.noise_dim,
            "generator_hidden": list(model.preset.generator_hidden),
            "critic_hidden": list(model.preset.critic_hidden),
            "output_activation": model.preset.output_activation,
        },
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
    p = meta["preset"]
    preset = GanPreset(p["feature_kind"], p["input_dim"], p["noise_dim"],
                       tuple(p["generator_hidden"]), tuple(p["critic_hidden"]),
                       p["output_activation"])
    return GanModel(generator=ckpt.mlp_from(meta["generator"], arrays, "gen"),
                    critic=ckpt.mlp_from(meta["critic"], arrays, "critic"),
                    preset=preset, training_meta=meta.get("training_meta", {}))
