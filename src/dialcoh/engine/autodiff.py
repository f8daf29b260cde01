"""The engine's sigmoid, and the scores of a forward pass with its backward.

The biGRU scorer's forward and backward passes are written out by hand over
plain numpy arrays (`models/neural.py`, `engine/rnn.py`); nothing here
records a graph. `Tensor` is what `forward_scores` returns: the scores, and,
when the pass recorded, its `tape`, the callable that backpropagates a
gradient of the scores and hands each parameter's gradient on as soon as it
is final. A training step joins its passes' tapes into one Tensor, so that
one backward runs them together and Adam updates each parameter inside it.
It stays a class of its own under this name because
`benchmarks/bench_trace.py` times the training backward pass by wrapping
`Tensor.backward` and counts rows from the result's `shape`.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


class Tensor:
    """Scores of forward passes, (batch,) in `data`, and when they recorded,
    `tape`: tape(grad, apply) does what `backward` says."""

    __slots__ = ("data", "tape")

    def __init__(self, data: np.ndarray, tape: Callable | None = None):
        self.data = data
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self, grad: np.ndarray,
                 apply: Callable[[str, np.ndarray], object]) -> None:
        """Given grad = d loss / d data, call apply(name, d loss / d
        parameter) once for every parameter the scorer reads, as soon as
        that gradient is final; the parameter may be updated at once, since
        nothing later in the pass reads it."""
        if self.tape is None:
            raise ValueError("backward() of a forward pass that did not record")
        self.tape(grad, apply)


def logistic(d: np.ndarray) -> np.ndarray:
    """Overflow-free 1 / (1 + exp(-d)); the one sigmoid formula of the engine.

    Branch-free: with e = exp(-|d|) it is 1 / (1 + e) for d >= 0 and
    e / (1 + e) below, the same float ops per element as splitting the array
    by sign. min(d, -d) is -|d| that keeps a NaN's sign bit, and since
    0 <= e <= 1 (or NaN), max(e, d >= 0) picks the numerator without the
    per-element branch of np.where."""
    e = np.exp(np.minimum(d, -d))
    return np.maximum(e, d >= 0) / (1.0 + e)
