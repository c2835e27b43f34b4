"""Dense-network substrate with reverse-mode differentiation.

Everything is float64. Gradients are built out of the same primitive
operations they differentiate, so grad-of-grad (needed for the critic's
gradient penalty) is just another backward pass over the new graph.

Finiteness is checked at the graph's edges, not at every node: a tensor
built with ``Tensor(...)``, the output of ``forward`` and every gradient
``grad`` returns raise ``NumericError`` on NaN or Inf. Operation results
inside the graph are built unchecked by ``Tensor._op``; a non-finite value
made there surfaces at the next edge it reaches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "leaky_relu", "sigmoid", "softmax", "linear")


class ShapeMismatchError(ValueError):
    pass


class NumericError(ArithmeticError):
    """A user-built tensor, a ``forward`` output or a gradient holds NaN or
    Inf."""


class Tensor:
    """Node in the computation graph.

    ``parents`` holds ``(parent, vjp)`` pairs where ``vjp(upstream)`` returns
    the gradient contribution to that parent as a new Tensor, so replaying
    gradients records a differentiable graph of its own.
    """

    __slots__ = ("data", "parents")

    def __init__(self, data, parents=()):
        self.data = _finite(np.asarray(data, dtype=np.float64))
        self.parents = tuple(parents)

    @classmethod
    def _op(cls, data, parents=()) -> "Tensor":
        """Operation result: built without the finiteness check."""
        t = object.__new__(cls)
        t.data = np.asarray(data, dtype=np.float64)
        t.parents = parents
        return t

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() on shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError("non-finite values in tensor")
    return arr


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: Tensor, shape: tuple) -> Tensor:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.data.shape == shape:
        return g
    while g.data.ndim > len(shape):
        g = tsum(g, axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.data.shape[i] != 1:
            g = tsum(g, axis=i, keepdims=True)
    return g


# --- primitives ------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return Tensor._op(a.data + b.data, (
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Tensor._op(a.data - b.data, (
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(mul(g, Tensor._op(-1.0)), b.data.shape)),
    ))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor._op(a.data * b.data, (
        (a, lambda g: _unbroadcast(mul(g, b), a.data.shape)),
        (b, lambda g: _unbroadcast(mul(g, a), b.data.shape)),
    ))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul {a.data.shape} @ {b.data.shape}")
    return Tensor._op(a.data @ b.data, (
        (a, lambda g: matmul(g, transpose(b))),
        (b, lambda g: matmul(transpose(a), g)),
    ))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b`` as one node: the dense layer's pre-activation."""
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeMismatchError(f"affine {x.data.shape} @ {w.data.shape}.T")
    return Tensor._op(x.data @ w.data.T + b.data, (
        (x, lambda g: matmul(g, w)),
        (w, lambda g: transpose(matmul(transpose(x), g))),
        (b, lambda g: tsum(g, axis=0)),
    ))


def transpose(a: Tensor) -> Tensor:
    return Tensor._op(a.data.T, ((a, transpose),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return Tensor._op(a.data.reshape(shape), ((a, lambda g: reshape(g, old)),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    return Tensor._op(np.broadcast_to(a.data, shape),
                      ((a, lambda g: _unbroadcast(g, a.data.shape)),))


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    shape = a.data.shape

    def vjp(g: Tensor) -> Tensor:
        if axis is not None and not keepdims:
            kept = list(g.data.shape)
            kept.insert(axis % len(shape), 1)
            g = reshape(g, kept)
        elif axis is None:
            g = reshape(g, (1,) * len(shape))
        return broadcast_to(g, shape)

    return Tensor._op(a.data.sum(axis=axis, keepdims=keepdims), ((a, vjp),))


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor._op(1.0 / n))


def power(a: Tensor, p: float) -> Tensor:
    return Tensor._op(a.data ** p, (
        (a, lambda g: mul(g, mul(Tensor._op(p), power(a, p - 1.0)))),))


def tlog(a: Tensor) -> Tensor:
    return Tensor._op(np.log(a.data), ((a, lambda g: mul(g, power(a, -1.0))),))


def relu(a: Tensor) -> Tensor:
    mask = Tensor._op((a.data > 0).astype(np.float64))
    return Tensor._op(a.data * mask.data, ((a, lambda g: mul(g, mask)),))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    scale = Tensor._op(np.where(a.data > 0, 1.0, slope))
    return Tensor._op(a.data * scale.data, ((a, lambda g: mul(g, scale)),))


def sigmoid(a: Tensor) -> Tensor:
    return _sigmoid_node(a, 1.0 / (1.0 + np.exp(-a.data)))


def _sigmoid_node(a: Tensor, ydata: np.ndarray) -> Tensor:
    # the VJP rebuilds y as a node of ``a`` (not a leaf) so that a second
    # backward pass differentiates through it; it reuses the forward values
    def vjp(g: Tensor) -> Tensor:
        y = _sigmoid_node(a, ydata)
        return mul(g, mul(y, sub(Tensor._op(1.0), y)))

    return Tensor._op(ydata, ((a, vjp),))


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return _softmax_node(a, e / e.sum(axis=-1, keepdims=True))


def _softmax_node(a: Tensor, ydata: np.ndarray) -> Tensor:
    # y is rebuilt as a node of ``a`` for grad-of-grad, as in _sigmoid_node
    def vjp(g: Tensor) -> Tensor:
        y = _softmax_node(a, ydata)
        gy = mul(g, y)
        return sub(gy, mul(y, tsum(gy, axis=-1, keepdims=True)))

    return Tensor._op(ydata, ((a, vjp),))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    take_a = Tensor._op((a.data >= b.data).astype(np.float64))
    take_b = Tensor._op(1.0 - take_a.data)
    return Tensor._op(np.maximum(a.data, b.data), (
        (a, lambda g: _unbroadcast(mul(g, take_a), a.data.shape)),
        (b, lambda g: _unbroadcast(mul(g, take_b), b.data.shape)),
    ))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    ax = axis % tensors[0].data.ndim
    widths = [t.data.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def make_vjp(i):
        def vjp(g: Tensor) -> Tensor:
            return narrow(g, ax, int(offsets[i]), widths[i])
        return vjp

    return Tensor._op(np.concatenate([t.data for t in tensors], axis=ax),
                      tuple((t, make_vjp(i)) for i, t in enumerate(tensors)))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    shape = a.data.shape

    def vjp(g: Tensor) -> Tensor:
        before = list(shape)
        before[axis] = start
        after = list(shape)
        after[axis] = shape[axis] - start - length
        parts = []
        if before[axis]:
            parts.append(Tensor._op(np.zeros(before)))
        parts.append(g)
        if after[axis]:
            parts.append(Tensor._op(np.zeros(after)))
        return concat(parts, axis=axis) if len(parts) > 1 else parts[0]

    return Tensor._op(a.data[tuple(idx)], ((a, vjp),))


# --- losses ----------------------------------------------------------------

def bce(p: Tensor, y) -> Tensor:
    """Mean binary cross-entropy of probabilities ``p`` (n, 1) against 0/1
    labels ``y``, with ``p`` clamped away from {0, 1}."""
    y_col = Tensor(np.asarray(y, dtype=np.float64).reshape(-1, 1))
    p_safe = add(mul(p, Tensor._op(1.0 - 1e-7)), Tensor._op(5e-8))
    pos = mul(y_col, tlog(p_safe))
    neg = mul(sub(Tensor._op(1.0), y_col), tlog(sub(Tensor._op(1.0), p_safe)))
    return mul(Tensor._op(-1.0), tmean(add(pos, neg)))


# --- backward pass ---------------------------------------------------------

def grad(output: Tensor, wrt):
    """Gradient of a scalar ``output`` w.r.t. one tensor or a list of them.

    The result is itself graph-recorded, so it can be differentiated again.
    Tensors that do not participate in ``output`` get a zero gradient. Only
    the VJPs of edges into nodes from which a target is reachable are
    called; every other branch contributes nothing to the result.
    Raises ``NumericError`` if a gradient holds NaN or Inf.
    """
    if output.data.size != 1:
        raise ShapeMismatchError("grad requires a scalar output")
    single = isinstance(wrt, Tensor)
    targets = [wrt] if single else list(wrt)

    # post-order: every node comes after all of its parents, so whether a
    # target is reachable from a node is known when the node is appended
    order = []
    leads = {id(t) for t in targets}
    seen = set()
    stack = [(output, False)]
    while stack:
        node, done = stack.pop()
        if done:
            if id(node) in leads or any(id(p) in leads for p, _ in node.parents):
                leads.add(id(node))
                order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, Tensor] = {
        id(output): Tensor._op(np.ones(output.data.shape))}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            if id(parent) not in leads:
                continue
            contrib = vjp(g)
            prev = grads.get(id(parent))
            grads[id(parent)] = contrib if prev is None else add(prev, contrib)

    results = [grads.get(id(t), Tensor(np.zeros(t.data.shape))) for t in targets]
    for r in results:
        _finite(r.data)
    return results[0] if single else results


# --- layers and networks ---------------------------------------------------

@dataclass
class DenseLayer:
    weights: Tensor            # (out, in)
    biases: Tensor             # (out,)
    activation: str = "linear"
    slope: float = 0.2         # leaky_relu only

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.data.ndim != 2 or self.biases.data.ndim != 1:
            raise ShapeMismatchError("dense layer expects 2-D weights, 1-D biases")
        if self.weights.data.shape[0] != self.biases.data.shape[0]:
            raise ShapeMismatchError("weight/bias out-dims differ")
        if self.activation == "leaky_relu" and not 0.0 < self.slope < 1.0:
            raise ValueError("leaky_relu slope must be in (0,1)")

    @property
    def in_dim(self) -> int:
        return self.weights.data.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.data.shape[0]

    def __call__(self, x: Tensor) -> Tensor:
        z = affine(x, self.weights, self.biases)
        if self.activation == "relu":
            return relu(z)
        if self.activation == "leaky_relu":
            return leaky_relu(z, self.slope)
        if self.activation == "sigmoid":
            return sigmoid(z)
        if self.activation == "softmax":
            return softmax(z)
        return z


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

    def parameters(self) -> list[Tensor]:
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


def forward(net: Mlp, x: Tensor, masks=None) -> Tensor:
    """Run the network; ``masks=None`` means eval mode (dropout identity)."""
    x = _as_tensor(x)
    if x.data.shape[-1] != net.in_dim:
        raise ShapeMismatchError(
            f"input dim {x.data.shape[-1]} != network in-dim {net.in_dim}")
    h = x
    for i, layer in enumerate(net.layers):
        if masks is not None and masks[i] is not None:
            h = mul(h, Tensor(masks[i]))
        h = layer(h)
    _finite(h.data)
    return h


def build_mlp(dims, hidden_activation: str, output_activation: str,
              rng: np.random.Generator, input_dropout: float = 0.0,
              hidden_dropout: float = 0.0, slope: float = 0.2) -> Mlp:
    """Glorot-uniform weights, zero biases; ``dims = [in, h1, ..., out]``."""
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        bound = np.sqrt(6.0 / (d_in + d_out))
        w = Tensor(rng.uniform(-bound, bound, size=(d_out, d_in)))
        b = Tensor(np.zeros(d_out))
        layers.append(DenseLayer(w, b,
                                 output_activation if last else hidden_activation,
                                 slope=slope))
    return Mlp(layers, input_dropout_rate=input_dropout,
               hidden_dropout_rate=hidden_dropout)


# --- optimizer -------------------------------------------------------------

@dataclass
class AdamState:
    """Adam moments of one network.

    ``for_params`` moves the parameters into ``flat``, one array end to
    end, and leaves each ``Tensor.data`` a view into it, so a step updates
    the whole network with a few whole-array ufuncs. ``m`` and ``v`` are
    laid out like ``flat``; ``grad`` and ``step`` are scratch buffers.
    """
    flat: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    step: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        flat = np.concatenate([p.data.ravel() for p in params])
        offset = 0
        for p in params:
            p.data = flat[offset:offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        return cls(flat, np.zeros_like(flat), np.zeros_like(flat),
                   np.empty_like(flat), np.empty_like(flat))


def adam_step(params, grads, state: AdamState, lr: float = 1e-4,
              beta1: float = 0.0, beta2: float = 0.9, eps: float = 1e-8):
    """Standard Adam with bias correction; updates ``params`` and the
    moments in ``state`` in place.

    ``params`` must be the ones ``state`` was made for, in the same order.
    The arithmetic is, operation for operation,
    ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g`` and
    ``p -= lr*m_hat / (sqrt(v_hat) + eps)``; it is element-wise, so the
    bits do not depend on the parameters sharing one buffer.
    """
    g, step = state.grad, state.step
    offset = 0
    for p, gr in zip(params, grads, strict=True):
        gd = gr.data if isinstance(gr, Tensor) else np.asarray(gr)
        if gd.shape != p.data.shape:
            raise ShapeMismatchError(f"grad shape {gd.shape} != param {p.data.shape}")
        if p.data.base is not state.flat:
            raise ValueError("parameter is not laid out in this AdamState")
        g[offset:offset + gd.size] = gd.ravel()
        offset += gd.size
    if offset != g.size:
        raise ShapeMismatchError(f"{offset} gradient values for {g.size} parameters")
    state.t += 1
    np.multiply(1.0 - beta2, g, out=step)
    step *= g
    state.v *= beta2
    state.v += step
    g *= 1.0 - beta1
    state.m *= beta1
    state.m += g
    np.divide(state.v, 1.0 - beta2 ** state.t, out=step)
    np.sqrt(step, out=step)
    step += eps
    np.divide(state.m, 1.0 - beta1 ** state.t, out=g)
    g *= lr
    g /= step
    state.flat -= g
