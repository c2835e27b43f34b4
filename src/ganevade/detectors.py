"""Trainable surrogate detectors and the detection-rate metric.

Detectors expose a score and a hard label; attack code is only ever handed
the label callable, never the model, keeping the black-box boundary honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt
from . import nncore
from .nncore import AdamState, adam_step, bce, build_mlp, forward, grad

BENIGN = "benign"
MALICIOUS = "malicious"
KINDS = ("logreg", "mlp")
# lr, l2: logreg gradient descent; hidden: the mlp's width; steps: both
DEFAULT_HYPERPARAMS = {"lr": 0.5, "steps": 400, "hidden": 64, "l2": 1e-4}


@dataclass(frozen=True)
class FeatureSpec:
    """Which feature families (in concatenation order) a detector consumes."""
    families: tuple             # e.g. ("byte",), ("api_topk",), ("byte", "api_hashed")

    def __str__(self):
        return "+".join(self.families)


@dataclass
class DetectorModel:
    kind: str                   # "logreg" | "mlp"
    feature_spec: FeatureSpec
    weights: np.ndarray | None = None       # logreg
    bias: float = 0.0                       # logreg
    net: "nncore.Mlp | None" = None         # mlp
    threshold: float = 0.5
    training_meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        if self.kind == "logreg":
            return len(self.weights)
        return self.net.in_dim

    def score(self, x: np.ndarray) -> np.ndarray:
        """Malicious probability; accepts one vector or a matrix."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.dim:
            raise nncore.ShapeMismatchError(
                f"feature dim {x.shape[1]} != detector dim {self.dim}")
        if self.kind == "logreg":
            z = x @ self.weights + self.bias
            return 1.0 / (1.0 + np.exp(-z))
        return forward(self.net, x)[0][:, 0]

    def predict_label(self, x: np.ndarray):
        scores = self.score(x)
        labels = np.where(scores >= self.threshold, MALICIOUS, BENIGN)
        return labels[0] if np.asarray(x).ndim == 1 else labels

    def label_fn(self):
        """Black-box view: the only surface attack code may depend on."""
        return self.predict_label


def train_detector(kind: str, feature_spec: FeatureSpec,
                   x_benign: np.ndarray, x_malicious: np.ndarray,
                   hyperparams: dict | None = None, seed: int = 0) -> DetectorModel:
    """Fit a surrogate; logreg via plain gradient descent, mlp via the
    network substrate. Deterministic under the seed."""
    hp = {**DEFAULT_HYPERPARAMS, **(hyperparams or {})}
    xb = np.atleast_2d(np.asarray(x_benign, dtype=np.float64))
    xm = np.atleast_2d(np.asarray(x_malicious, dtype=np.float64))
    if len(xb) == 0 or len(xm) == 0:
        raise ValueError("both classes must be nonempty")
    if xb.shape[1] != xm.shape[1]:
        raise nncore.ShapeMismatchError("class feature dims differ")
    x = np.vstack([xb, xm])
    y = np.concatenate([np.zeros(len(xb)), np.ones(len(xm))])
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0

    if kind == "logreg":
        rng = np.random.default_rng(seed)
        xs = (x - mu) / sd
        w = rng.normal(scale=0.01, size=x.shape[1])
        b = 0.0
        n = len(x)
        for _ in range(int(hp["steps"])):
            p = 1.0 / (1.0 + np.exp(-(xs @ w + b)))
            dw = xs.T @ (p - y) / n + hp["l2"] * w
            db = float(np.sum(p - y)) / n
            w -= hp["lr"] * dw
            b -= hp["lr"] * db
        # fold the standardization back into the raw-feature weights
        w_raw = w / sd
        b_raw = b - float(w_raw @ mu)
        return DetectorModel(kind="logreg", feature_spec=feature_spec,
                             weights=w_raw, bias=b_raw,
                             training_meta={"seed": seed, "steps": hp["steps"]})

    if kind == "mlp":
        rng = np.random.default_rng(seed)
        net = build_mlp([x.shape[1], int(hp["hidden"]), 1], "relu", "sigmoid", rng)
        state = AdamState.for_net(net)
        xs = (x - mu) / sd
        for _ in range(int(hp["steps"])):
            p, cache = forward(net, xs)
            grads, _ = grad(net, cache, bce(p, y)[1])
            adam_step(net.parameters(), grads, state, lr=1e-3, beta1=0.9,
                      beta2=0.999)
        # absorb the standardization into the first layer
        first = net.layers[0]
        first.weights = first.weights / sd
        first.biases = first.biases - first.weights @ mu
        return DetectorModel(kind="mlp", feature_spec=feature_spec, net=net,
                             training_meta={"seed": seed, "steps": hp["steps"]})

    raise ValueError(f"unknown detector kind {kind!r}")


def detection_rate(model: DetectorModel, malicious_set: np.ndarray) -> float:
    malicious_set = np.atleast_2d(np.asarray(malicious_set, dtype=np.float64))
    if len(malicious_set) == 0:
        raise ValueError("empty malicious set")
    return float(np.mean(model.predict_label(malicious_set) == MALICIOUS))


def false_positive_rate(model: DetectorModel, benign_set: np.ndarray) -> float:
    benign_set = np.atleast_2d(np.asarray(benign_set, dtype=np.float64))
    if len(benign_set) == 0:
        raise ValueError("empty benign set")
    return float(np.mean(model.predict_label(benign_set) == MALICIOUS))


# --- persistence -----------------------------------------------------------

def save_detector(path, model: DetectorModel, key: str = "") -> None:
    meta = {"kind": "detector", "detector_kind": model.kind,
            "families": list(model.feature_spec.families),
            "threshold": model.threshold,
            "training_meta": model.training_meta, "key": key}
    if model.kind == "logreg":
        arrays = {"w": model.weights, "b": np.array([model.bias])}
    else:
        meta["net"] = ckpt.mlp_meta(model.net)
        arrays = ckpt.mlp_arrays(model.net, "net")
    ckpt.save_container(path, meta, arrays)


def load_detector(path, key: str | None = None) -> DetectorModel:
    meta, arrays = ckpt.load_container(path, key)
    if meta.get("kind") != "detector":
        raise ckpt.CheckpointError("not a detector checkpoint")
    spec = FeatureSpec(tuple(meta["families"]))
    if meta["detector_kind"] == "logreg":
        return DetectorModel(kind="logreg", feature_spec=spec,
                             weights=arrays["w"], bias=float(arrays["b"][0]),
                             threshold=meta["threshold"],
                             training_meta=meta.get("training_meta", {}))
    return DetectorModel(kind="mlp", feature_spec=spec,
                         net=ckpt.mlp_from(meta["net"], arrays, "net"),
                         threshold=meta["threshold"],
                         training_meta=meta.get("training_meta", {}))
