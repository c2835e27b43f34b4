"""Dense networks in float64: forward, one first-order backward, and Adam.

A network is a chain of dense layers ``z_i = u_i W_i^T + b_i`` with
``u_i = h_{i-1} * m_i``, ``h_i = act_i(z_i)`` and ``h_0 = x``, where
``m_i`` is the layer's inverted-dropout mask (none in eval mode).
``forward`` keeps each layer's ``u_i`` and what its activation's backward
reads; ``grad`` walks the chain back once from ``g = dL/d(output)``:

    relu, leaky_relu   g <- g * s_i            s_i: each unit's slope
    sigmoid            g <- g * (y * (1 - y))
    softmax            g <- gy - y * sum(gy)   gy = g * y, summed per row
    dense              dW_i = (u_i^T g)^T, db_i = sum over rows of g,
                       g <- (g W_i) * m_i

It computes the weight gradients and the input gradient only when the
caller asks for them, and writes the weight gradients into the arrays it
is handed: the views of an ``AdamState``'s gradient buffer, so a training
step makes no gradient list. The backward is first
order; the critic's gradient penalty, the one place that differentiates an
input gradient again, is closed form in ``gan.critic_loss``.

Finiteness is checked at the edges: the output of ``forward`` and the
input gradient ``grad`` returns raise ``NumericError`` on NaN or Inf, and
``adam_step`` checks the whole gradient buffer once, before it changes
anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "leaky_relu", "sigmoid", "softmax", "linear")


class ShapeMismatchError(ValueError):
    pass


class NumericError(ArithmeticError):
    """A ``forward`` output or a gradient holds NaN or Inf."""


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {what}")
    return arr


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def sigmoid_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dL/dz from ``g = dL/dy`` at ``y = sigmoid(z)``."""
    return g * (y * (1.0 - y))


# --- layers and networks ---------------------------------------------------

@dataclass
class DenseLayer:
    weights: np.ndarray         # (out, in)
    biases: np.ndarray          # (out,)
    activation: str = "linear"
    slope: float = 0.2          # leaky_relu only

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ShapeMismatchError("dense layer expects 2-D weights, 1-D biases")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ShapeMismatchError("weight/bias out-dims differ")
        if self.activation == "leaky_relu" and not 0.0 < self.slope < 1.0:
            raise ValueError("leaky_relu slope must be in (0,1)")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class Mlp:
    layers: list[DenseLayer]
    input_dropout_rate: float = 0.0
    hidden_dropout_rate: float = 0.0

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeMismatchError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")
        for r in (self.input_dropout_rate, self.hidden_dropout_rate):
            if not 0.0 <= r < 1.0:
                raise ValueError("dropout rate must be in [0,1)")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out

    def sample_dropout_masks(self, rng: np.random.Generator, batch: int):
        """One inverted-dropout mask per dense layer, applied to its input.

        Masks are sampled once per training step and reused across every
        forward in that step, so the penalty term differentiates the same
        stochastic function.
        """
        masks = []
        for i, layer in enumerate(self.layers):
            rate = self.input_dropout_rate if i == 0 else self.hidden_dropout_rate
            if rate <= 0.0:
                masks.append(None)
            else:
                keep = (rng.random((batch, layer.in_dim)) >= rate)
                masks.append(keep.astype(np.float64) / (1.0 - rate))
        return masks


def forward(net: Mlp, x, masks=None):
    """Run the network on the rows of ``x``; ``masks=None`` is eval mode
    (dropout is the identity). Returns the output and the cache ``grad``
    reads: per layer, its masked input, mask and activation record."""
    h = np.asarray(x, dtype=np.float64)
    if h.shape[-1] != net.in_dim:
        raise ShapeMismatchError(
            f"input dim {h.shape[-1]} != network in-dim {net.in_dim}")
    cache = []
    for i, layer in enumerate(net.layers):
        mask = None if masks is None else masks[i]
        u = h if mask is None else h * mask
        z = u @ layer.weights.T + layer.biases
        act = layer.activation
        if act == "relu":
            record = (z > 0).astype(np.float64)
            h = z * record
        elif act == "leaky_relu":
            record = np.where(z > 0, 1.0, layer.slope)
            h = z * record
        elif act == "sigmoid":
            h = record = sigmoid(z)
        elif act == "softmax":
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            h = record = e / e.sum(axis=-1, keepdims=True)
        else:
            h, record = z, None
        cache.append((u, mask, record))
    return _finite(h, "network output"), cache


def grad(net: Mlp, cache, g_out, out=None, inputs: bool = False):
    """Backward pass of ``forward`` from ``g_out = dL/d(output)``.

    Writes dL/d``net.parameters()`` into ``out``, one array per parameter
    in that order (an ``AdamState``'s ``grads``), when it is given, and
    returns dL/dx when ``inputs``, else ``None``; what is not asked for is
    not computed. An ``out`` array of the wrong shape is refused where it
    is written. Raises ``NumericError`` if the input gradient holds NaN or
    Inf; ``adam_step`` checks the parameter gradients.
    """
    if len(cache) != len(net.layers):
        raise ShapeMismatchError("cache is not from a forward of this network")
    if out is not None and len(out) != 2 * len(net.layers):
        raise ShapeMismatchError(
            f"{len(out)} gradient arrays for {2 * len(net.layers)} parameters")
    g = np.asarray(g_out, dtype=np.float64)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        u, mask, record = cache[i]
        act = layer.activation
        if act in ("relu", "leaky_relu"):
            g = g * record
        elif act == "sigmoid":
            g = sigmoid_backward(record, g)
        elif act == "softmax":
            gy = g * record
            g = gy - record * gy.sum(axis=-1, keepdims=True)
        if out is not None:
            # formed as u^T g and written transposed: at widths that are not
            # a multiple of the BLAS kernel's tile, g^T u rounds differently
            dw = (u.T @ g).T
            if dw.shape != out[2 * i].shape:
                raise ShapeMismatchError(
                    f"gradient shape {dw.shape} != {out[2 * i].shape}")
            out[2 * i][...] = dw
            np.sum(g, axis=0, out=out[2 * i + 1])
        if i == 0 and not inputs:
            break
        g = g @ layer.weights
        if mask is not None:
            g = g * mask
    return _finite(g, "gradient") if inputs else None


def bce(p: np.ndarray, y):
    """Mean binary cross-entropy of probabilities ``p`` (n, 1) against 0/1
    labels ``y``, with ``p`` clamped away from {0, 1}. Returns the loss and
    dL/dp."""
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    n = p.shape[0]
    p_safe = p * (1.0 - 1e-7) + 5e-8
    q = 1.0 - p_safe
    loss = -1.0 * ((y * np.log(p_safe) + (1.0 - y) * np.log(q)).sum() * (1.0 / n))
    seed = np.broadcast_to(np.float64(-1.0 * (1.0 / n)), p.shape)
    g = (seed * y) * p_safe ** -1.0 + ((seed * (1.0 - y)) * q ** -1.0) * -1.0
    return float(loss), g * (1.0 - 1e-7)


def build_mlp(dims, hidden_activation: str, output_activation: str,
              rng: np.random.Generator, input_dropout: float = 0.0,
              hidden_dropout: float = 0.0, slope: float = 0.2) -> Mlp:
    """Glorot-uniform weights, zero biases; ``dims = [in, h1, ..., out]``."""
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        bound = np.sqrt(6.0 / (d_in + d_out))
        w = rng.uniform(-bound, bound, size=(d_out, d_in))
        layers.append(DenseLayer(w, np.zeros(d_out),
                                 output_activation if last else hidden_activation,
                                 slope=slope))
    return Mlp(layers, input_dropout_rate=input_dropout,
               hidden_dropout_rate=hidden_dropout)


# --- optimizer -------------------------------------------------------------

# adam_step updates the flat arrays this many elements at a time (128 KiB
# of float64 per array), so its working space is one block, not a network
ADAM_BLOCK = 16384


@dataclass
class AdamState:
    """Adam moments of one network, and the buffer its gradients go into.

    ``for_net`` moves the network's parameters into ``flat``, one array
    end to end, and rebinds each layer's weights and biases to views into
    it, so a step updates the whole network with a few whole-block ufuncs.
    ``grad`` is laid out like ``flat``; ``grads`` holds one view into it
    per parameter, in ``parameters()`` order, for the gradient producers
    to write into. ``v`` is laid out like ``flat``, and so is ``m``, which
    the first step with ``beta1 != 0`` makes: at ``beta1 = 0`` the first
    moment is the gradient itself, and a state is stepped at one ``beta1``.
    ``scratch`` is one block of working space.
    """
    flat: np.ndarray
    grad: np.ndarray
    grads: list
    v: np.ndarray
    scratch: np.ndarray
    m: np.ndarray | None = None
    t: int = 0

    @classmethod
    def for_net(cls, net: Mlp) -> "AdamState":
        flat = np.concatenate([p.ravel() for p in net.parameters()])
        grad = np.zeros_like(flat)
        grads = []
        offset = 0
        for layer in net.layers:
            for attr in ("weights", "biases"):
                p = getattr(layer, attr)
                setattr(layer, attr,
                        flat[offset:offset + p.size].reshape(p.shape))
                grads.append(grad[offset:offset + p.size].reshape(p.shape))
                offset += p.size
        return cls(flat, grad, grads, np.zeros_like(flat),
                   np.empty(min(flat.size, ADAM_BLOCK)))


def adam_step(params, state: AdamState, lr: float = 1e-4,
              beta1: float = 0.0, beta2: float = 0.9, eps: float = 1e-8):
    """Standard Adam with bias correction, from the gradients written into
    ``state.grads``; updates ``params`` and the moments in place.

    ``params`` must be the parameters of the network ``state`` was made
    for. Raises ``NumericError``, before anything changes, if a gradient
    holds NaN or Inf. The arithmetic is, operation for operation,
    ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g`` and
    ``p -= lr*m_hat / (sqrt(v_hat) + eps)``; at ``beta1 = 0`` the ``m``
    passes are exact identities and are skipped. It is element-wise, so
    the bits depend neither on the parameters sharing one buffer nor on
    the blocks. The step overwrites ``state.grad``.
    """
    if len(params) != len(state.grads) or \
            any(p.base is not state.flat for p in params):
        raise ValueError("parameters are not laid out in this AdamState")
    if not np.isfinite(state.grad).all():
        raise NumericError("non-finite values in gradient")
    if beta1 != 0.0 and state.m is None:
        state.m = np.zeros_like(state.flat)
    state.t += 1
    v_scale = 1.0 - beta2 ** state.t
    m_scale = 1.0 - beta1 ** state.t
    for lo in range(0, state.flat.size, ADAM_BLOCK):
        g = state.grad[lo:lo + ADAM_BLOCK]
        v = state.v[lo:lo + ADAM_BLOCK]
        s = state.scratch[:g.size]
        np.multiply(1.0 - beta2, g, out=s)
        s *= g
        v *= beta2
        v += s
        if state.m is not None:
            m = state.m[lo:lo + ADAM_BLOCK]
            g *= 1.0 - beta1
            m *= beta1
            m += g
            np.divide(m, m_scale, out=g)
        np.divide(v, v_scale, out=s)
        np.sqrt(s, out=s)
        s += eps
        g *= lr
        g /= s
        state.flat[lo:lo + ADAM_BLOCK] -= g
