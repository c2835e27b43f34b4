"""Reverse-mode tape over float64 arrays: the test oracle of the closed-form
backprops in ``nncore.grad`` and ``gan.critic_loss``.

Gradients are built out of the same primitives they differentiate, so
grad-of-grad (the critic's gradient penalty) is just another backward pass
over the new graph. Values are not checked for NaN or Inf, and nothing is
pruned: every VJP on the way back from the output runs.
"""

from __future__ import annotations

import numpy as np

from ganevade.nncore import ShapeMismatchError


class Tensor:
    """Node in the computation graph.

    ``parents`` holds ``(parent, vjp)`` pairs where ``vjp(upstream)`` returns
    the gradient contribution to that parent as a new Tensor, so replaying
    gradients records a differentiable graph of its own.
    """

    __slots__ = ("data", "parents")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents)


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
    return Tensor(a.data + b.data, (
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.data - b.data, (
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(mul(g, Tensor(-1.0)), b.data.shape)),
    ))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.data * b.data, (
        (a, lambda g: _unbroadcast(mul(g, b), a.data.shape)),
        (b, lambda g: _unbroadcast(mul(g, a), b.data.shape)),
    ))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.data @ b.data, (
        (a, lambda g: matmul(g, transpose(b))),
        (b, lambda g: matmul(transpose(a), g)),
    ))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b`` as one node: the dense layer's pre-activation."""
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeMismatchError(f"affine {x.data.shape} @ {w.data.shape}.T")
    return Tensor(x.data @ w.data.T + b.data, (
        (x, lambda g: matmul(g, w)),
        (w, lambda g: transpose(matmul(transpose(x), g))),
        (b, lambda g: tsum(g, axis=0)),
    ))


def transpose(a: Tensor) -> Tensor:
    return Tensor(a.data.T, ((a, transpose),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return Tensor(a.data.reshape(shape), ((a, lambda g: reshape(g, old)),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    return Tensor(np.broadcast_to(a.data, shape),
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

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), ((a, vjp),))


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def power(a: Tensor, p: float) -> Tensor:
    return Tensor(a.data ** p, (
        (a, lambda g: mul(g, mul(Tensor(p), power(a, p - 1.0)))),))


def tlog(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), ((a, lambda g: mul(g, power(a, -1.0))),))


def relu(a: Tensor) -> Tensor:
    mask = Tensor((a.data > 0).astype(np.float64))
    return Tensor(a.data * mask.data, ((a, lambda g: mul(g, mask)),))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    scale = Tensor(np.where(a.data > 0, 1.0, slope))
    return Tensor(a.data * scale.data, ((a, lambda g: mul(g, scale)),))


def sigmoid(a: Tensor) -> Tensor:
    return _sigmoid_node(a, 1.0 / (1.0 + np.exp(-a.data)))


def _sigmoid_node(a: Tensor, ydata: np.ndarray) -> Tensor:
    # the VJP rebuilds y as a node of ``a`` (not a leaf) so that a second
    # backward pass differentiates through it; it reuses the forward values
    def vjp(g: Tensor) -> Tensor:
        y = _sigmoid_node(a, ydata)
        return mul(g, mul(y, sub(Tensor(1.0), y)))

    return Tensor(ydata, ((a, vjp),))


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

    return Tensor(ydata, ((a, vjp),))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    take_a = Tensor((a.data >= b.data).astype(np.float64))
    take_b = Tensor(1.0 - take_a.data)
    return Tensor(np.maximum(a.data, b.data), (
        (a, lambda g: _unbroadcast(mul(g, take_a), a.data.shape)),
        (b, lambda g: _unbroadcast(mul(g, take_b), b.data.shape)),
    ))


def bce(p: Tensor, y) -> Tensor:
    """Mean binary cross-entropy of probabilities ``p`` (n, 1) against 0/1
    labels ``y``, with ``p`` clamped away from {0, 1}."""
    y_col = Tensor(np.asarray(y, dtype=np.float64).reshape(-1, 1))
    p_safe = add(mul(p, Tensor(1.0 - 1e-7)), Tensor(5e-8))
    pos = mul(y_col, tlog(p_safe))
    neg = mul(sub(Tensor(1.0), y_col), tlog(sub(Tensor(1.0), p_safe)))
    return mul(Tensor(-1.0), tmean(add(pos, neg)))


# --- backward pass ---------------------------------------------------------

def grad(output: Tensor, wrt):
    """Gradient of a scalar ``output`` w.r.t. one tensor or a list of them.

    The result is itself graph-recorded, so it can be differentiated again.
    Tensors that do not participate in ``output`` get a zero gradient.
    """
    if output.data.size != 1:
        raise ShapeMismatchError("grad requires a scalar output")
    single = isinstance(wrt, Tensor)
    targets = [wrt] if single else list(wrt)

    # post-order: every node comes after all of its parents
    order = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, Tensor] = {id(output): Tensor(np.ones(output.data.shape))}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            contrib = vjp(g)
            prev = grads.get(id(parent))
            grads[id(parent)] = contrib if prev is None else add(prev, contrib)

    results = [grads.get(id(t), Tensor(np.zeros(t.data.shape))) for t in targets]
    return results[0] if single else results


# --- networks ----------------------------------------------------------------

ACTIVATION = {"relu": relu, "leaky_relu": leaky_relu, "sigmoid": sigmoid,
              "softmax": softmax, "linear": lambda z: z}


def forward(net, x: Tensor, masks=None, params=None):
    """An ``nncore.Mlp`` on ``x`` as a graph whose parameters are ``params``
    or, by default, fresh leaves; returns the output and the parameters in
    ``parameters()`` order."""
    if params is None:
        params = [Tensor(p) for p in net.parameters()]
    h = x
    for i, layer in enumerate(net.layers):
        if masks is not None and masks[i] is not None:
            h = mul(h, Tensor(masks[i]))
        z = affine(h, params[2 * i], params[2 * i + 1])
        if layer.activation == "leaky_relu":
            h = leaky_relu(z, layer.slope)
        else:
            h = ACTIVATION[layer.activation](z)
    return h, params
