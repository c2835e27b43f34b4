"""Surrogate detectors and the detection-rate metric.

Every detector is one ``nncore`` network with one sigmoid output, scored by
``forward``: a logreg is one sigmoid layer, an mlp a relu layer under it. It
reads raw rows, its first layer holding the standardization. Attack code is
only handed the label callable, never the model (the black-box boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt
from .nncore import (AdamState, DenseLayer, Mlp, ShapeMismatchError, adam_step,
                     bce, build_mlp, forward, grad)

BENIGN = "benign"
MALICIOUS = "malicious"
THRESHOLD = 0.5             # a score at or above it is labelled malicious
KINDS = ("logreg", "mlp")
# the settings a config's detector may set: steps, of both kinds' training,
# and hidden, the mlp's width
DEFAULT_HYPERPARAMS = {"steps": 400, "hidden": 64}
LOGREG_LR, LOGREG_L2 = 0.5, 1e-4    # logreg gradient descent step, L2 weight


@dataclass
class DetectorModel:
    net: Mlp
    training_meta: dict = field(default_factory=dict)   # kind, seed, steps

    def score(self, x: np.ndarray) -> np.ndarray:
        """Malicious probability; accepts one vector or a matrix."""
        return forward(self.net, np.atleast_2d(x))[0][:, 0]

    def predict_label(self, x: np.ndarray):
        labels = np.where(self.score(x) >= THRESHOLD, MALICIOUS, BENIGN)
        return labels[0] if np.asarray(x).ndim == 1 else labels

    def label_fn(self):
        """Black-box view: the only surface attack code may depend on."""
        return self.predict_label


def train_detector(kind: str, x_benign: np.ndarray, x_malicious: np.ndarray,
                   hyperparams: dict | None = None, seed: int = 0) -> DetectorModel:
    """Fit a surrogate; logreg via plain gradient descent, mlp via Adam.
    Deterministic under the seed."""
    hp = {**DEFAULT_HYPERPARAMS, **(hyperparams or {})}
    xb, xm = np.atleast_2d(x_benign), np.atleast_2d(x_malicious)
    if len(xb) == 0 or len(xm) == 0:
        raise ValueError("both classes must be nonempty")
    if xb.shape[1] != xm.shape[1]:
        raise ShapeMismatchError("class feature dims differ")
    # one float64 copy of the rows, not one per class and then a stacked one
    x = np.concatenate([xb, xm], dtype=np.float64)
    y = np.concatenate([np.zeros(len(xb)), np.ones(len(xm))])
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    # standardized in place: the bits of (x - mu) / sd without a second
    # matrix of the stacked rows
    x -= mu
    x /= sd
    rng = np.random.default_rng(seed)

    if kind == "logreg":
        w = rng.normal(scale=0.01, size=x.shape[1])
        b = 0.0
        n = len(x)
        for _ in range(int(hp["steps"])):
            p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
            dw = x.T @ (p - y) / n + LOGREG_L2 * w
            db = float(np.sum(p - y)) / n
            w -= LOGREG_LR * dw
            b -= LOGREG_LR * db
        net = Mlp([DenseLayer(w[None, :], [b], "sigmoid")])
    elif kind == "mlp":
        net = build_mlp([x.shape[1], int(hp["hidden"]), 1], "relu", "sigmoid", rng)
        state = AdamState.for_net(net)
        for _ in range(int(hp["steps"])):
            p, cache = forward(net, x)
            grad(net, cache, bce(p, y)[1], out=state.grads)
            adam_step(net.parameters(), state, lr=1e-3, beta1=0.9, beta2=0.999)
    else:
        raise ValueError(f"unknown detector kind {kind!r}")

    # absorb the standardization into the first layer
    first = net.layers[0]
    first.weights = first.weights / sd
    first.biases = first.biases - first.weights @ mu
    return DetectorModel(net, {"kind": kind, "seed": seed, "steps": hp["steps"]})


def detection_rate(model: DetectorModel, rows: np.ndarray) -> float:
    """Share of ``rows`` labelled malicious: the detection rate on malicious
    files, the false-positive rate on benign ones."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if len(rows) == 0:
        raise ValueError("empty set of rows")
    return float(np.mean(model.predict_label(rows) == MALICIOUS))


# --- persistence -----------------------------------------------------------

def save_detector(path, model: DetectorModel, key: str = "") -> None:
    meta = {"kind": "detector", "net": ckpt.mlp_meta(model.net),
            "training_meta": model.training_meta, "key": key}
    ckpt.save_container(path, meta, ckpt.mlp_arrays(model.net, "net"))


def load_detector(path, key: str | None = None) -> DetectorModel:
    meta, arrays = ckpt.load_container(path, key)
    if meta.get("kind") != "detector" or "net" not in meta:
        raise ckpt.CheckpointError("not a detector checkpoint")
    return DetectorModel(ckpt.mlp_from(meta["net"], arrays, "net"),
                         meta.get("training_meta", {}))
