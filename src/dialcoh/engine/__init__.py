"""Differentiable-computation substrate: tape autodiff, the fused GRU layer,
the ranking loss, Adam, and finite-difference gradient verification."""

from .autodiff import Tensor, no_grad
from .gradcheck import grad_check
from .losses import pairwise_hinge
from .optim import AdamState, adam_step
from .rnn import GruCellParams, run_gru

__all__ = [
    "AdamState",
    "GruCellParams",
    "Tensor",
    "adam_step",
    "grad_check",
    "no_grad",
    "pairwise_hinge",
    "run_gru",
]
