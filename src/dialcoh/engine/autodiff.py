"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers exactly the operations the biGRU scorer and its loss run: embedding
lookup, concatenation, length-masked mean pooling, the head's linear maps,
bias additions and ReLU, gather, reshape, and the hinge's subtraction,
constant-minus and scalar mean. Tensors wrap a numpy array; operations on
tensors that require gradients record their parents, and backward() on a
scalar accumulates gradients into every reachable leaf. A GRU layer is one
such node with a hand-written backward pass (`engine/rnn.py`).

Works at any float precision: training runs in float32, gradient checking in
float64. Biases broadcast and their gradients are summed back to shape.
"""
from __future__ import annotations

import numpy as np

from ..errors import NumericError

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph recording (evaluation mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise NumericError("backward() requires a scalar output")
        topo = self.graph()
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)

    def graph(self) -> list["Tensor"]:
        """Every node backward() visits, in topological order (parents first)."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        return topo

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def recording(parents) -> bool:
    """Whether an op over these parents joins the graph (so must keep what
    its backward pass needs)."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: tuple, bwd) -> Tensor:
    if recording(parents):
        out = Tensor(data, requires_grad=True)
        out._parents = parents
        out._bwd = bwd
        return out
    return Tensor(data)


# -- elementwise --------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), bwd)


def rsub_const(a: Tensor, c) -> Tensor:
    return _node(c - a.data, (a,), lambda g: _accumulate(a, -g))


def logistic(d: np.ndarray) -> np.ndarray:
    """Overflow-free 1 / (1 + exp(-d)); the one sigmoid formula of the engine.

    Branch-free: with e = exp(-|d|) it is 1 / (1 + e) for d >= 0 and
    e / (1 + e) below, the same float ops per element as splitting the array
    by sign. min(d, -d) is -|d| that keeps a NaN's sign bit."""
    e = np.exp(np.minimum(d, -d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        _accumulate(x, g * (x.data > 0))

    return _node(out_data, (x,), bwd)


# -- linear algebra ------------------------------------------------------------


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ w.T for weight matrices stored (out_dim, in_dim); x is (B, in_dim).

    A one-row w is a row-wise multiply-sum: BLAS's matrix-vector product
    gives a row different bits depending on how many rows share the call,
    and a score must not depend on its batch."""
    if w.data.shape[0] == 1:
        out_data = (x.data * w.data).sum(axis=1, keepdims=True)
    else:
        out_data = x.data @ w.data.T

    def bwd(g):
        _accumulate(x, g @ w.data)
        _accumulate(w, g.T @ x.data)

    return _node(out_data, (x, w), bwd)


# -- structure -----------------------------------------------------------------


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        g = np.moveaxis(g, axis, 0)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accumulate(t, np.moveaxis(g[lo:hi], 0, axis))

    return _node(out_data, tensors, bwd)


def mean(x: Tensor, lengths: np.ndarray) -> Tensor:
    """Mean pooling of (batch, time, dim) states over time: the sum over time
    divided by each row's length, so states past a row's length must be zero
    (as `run_gru` leaves them)."""
    k = lengths.astype(x.data.dtype)[:, None]
    out_data = x.data.sum(axis=1)
    out_data /= k

    def bwd(g):
        _accumulate(x, (g / k)[:, None])

    return _node(out_data, (x,), bwd)


def reduce_mean(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.mean())

    def bwd(g):
        _accumulate(x, np.full_like(x.data, g / x.data.size))

    return _node(out_data, (x,), bwd)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: rows of a (vocab, dim) table; gradients scatter-add."""
    ids = np.asarray(ids)
    out_data = table.data[ids]

    def bwd(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return _node(out_data, (table,), bwd)


def gather(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick elements of a 1-d tensor; used to route pooled scores into pairs."""
    idx = np.asarray(idx)
    out_data = x.data[idx]

    def bwd(g):
        if not x.requires_grad:
            return
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, idx, g)

    return _node(out_data, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)

    def bwd(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(out_data, (x,), bwd)
