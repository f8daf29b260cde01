"""Ranking losses."""
from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor


def pairwise_hinge(s_pos: Tensor, s_neg: Tensor, margin: float = 0.5) -> Tensor:
    """Mean margin-ranking loss (y=+1) over aligned score vectors, as a graph
    node for backpropagation."""
    return ad.reduce_mean(ad.relu(ad.rsub_const(ad.sub(s_pos, s_neg), margin)))
