"""Numeric substrate of the biGRU scorer: the GRU layer with its
hand-written backward pass, the forward pass's score object, and Adam."""

from .autodiff import Tensor
from .optim import AdamState, adam_step
from .rnn import run_gru

__all__ = [
    "AdamState",
    "Tensor",
    "adam_step",
    "run_gru",
]
