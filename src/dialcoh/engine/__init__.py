"""Differentiable-computation substrate: tape autodiff, GRU cell, ranking
losses, Adam, and finite-difference gradient verification."""

from .autodiff import Tensor, no_grad
from .gradcheck import GradCheckReport, grad_check
from .losses import pairwise_hinge
from .optim import AdamState, adam_step
from .rnn import GruCellParams, gru_cell_step, run_gru

__all__ = [
    "AdamState",
    "GradCheckReport",
    "GruCellParams",
    "Tensor",
    "adam_step",
    "grad_check",
    "gru_cell_step",
    "no_grad",
    "pairwise_hinge",
    "run_gru",
]
