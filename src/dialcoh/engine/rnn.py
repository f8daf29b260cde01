"""Gated recurrent unit layer as one autodiff graph node.

Standard reset-before-candidate formulation:

    r = sigmoid(W_r x + U_r h + b_r)
    z = sigmoid(W_z x + U_z h + b_z)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * c

Weight matrices are stored (hidden, input) and (hidden, hidden), one tensor
per gate.

`run_gru` runs a whole layer in one direction as ONE graph node, after
Appleyard, Kocisky & Blunsom 2016 (arXiv:1604.01946): x is (batch, time,
input) and the result (batch, time, hidden). The input projection of every
timestep is one product against the three W stacked at call time; each step
then does one h @ [U_r; U_z]^T and one (r * h) @ U_h^T. The backward pass is
hand-written BPTT: a reverse walk over time fills the (batch, time, 3 hidden)
pre-activation gradients, from which dx, dW, dU and db are a few products
over the flattened (batch * time) rows. The tests check the forward pass
against a step-by-step float64 scan of the formulas above and the backward
pass against finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

GATES = ("r", "z", "h")


@dataclass
class GruCellParams:
    """Input weights w_*, recurrent weights u_*, biases b_* for the three gates."""

    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    @property
    def hidden_size(self) -> int:
        return self.w_r.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_r.shape[1]

    @classmethod
    def from_named(cls, prefix: str, tensors: dict[str, Tensor]) -> "GruCellParams":
        return cls(
            **{
                name: tensors[f"{prefix}.{name}"]
                for gate in GATES
                for name in (f"w_{gate}", f"u_{gate}", f"b_{gate}")
            }
        )


def run_gru(x: Tensor, p: GruCellParams, reverse: bool = False) -> Tensor:
    """Run the cell over every position of a (batch, time, input) tensor from
    a zero initial state; returns the (batch, time, hidden) states aligned
    with input positions. reverse=True scans right to left (the backward
    direction of a biGRU)."""
    if x.data.ndim != 3 or x.shape[2] != p.input_size:
        raise ValueError(f"input shape {x.shape} is not (batch, time, {p.input_size})")
    batch, steps, _ = x.shape
    hid = p.hidden_size
    parents = (x, *vars(p).values())
    keep = ad.recording(parents)
    xw = x.data.reshape(batch * steps, -1) @ _stacked(p, "w", GATES).T
    xw = xw.reshape(batch, steps, 3 * hid)
    u_rz = _stacked(p, "u", GATES[:2])
    out = np.empty((batch, steps, hid), dtype=x.data.dtype)
    if keep:
        r_all, z_all, c_all, h_prev_all = (np.empty_like(out) for _ in range(4))
    h = np.zeros((batch, hid), dtype=x.data.dtype)
    for t in _order(steps, reverse):
        hu = h @ u_rz.T
        r = ad.logistic(xw[:, t, :hid] + hu[:, :hid] + p.b_r.data)
        z = ad.logistic(xw[:, t, hid : 2 * hid] + hu[:, hid:] + p.b_z.data)
        c = np.tanh(xw[:, t, 2 * hid :] + (r * h) @ p.u_h.data.T + p.b_h.data)
        if keep:
            r_all[:, t], z_all[:, t], c_all[:, t], h_prev_all[:, t] = r, z, c, h
        h = (1.0 - z) * h + z * c
        out[:, t] = h
    if not keep:
        return Tensor(out)

    def bwd(g):
        # Stacked here, not captured: the copies live only during backward.
        w = _stacked(p, "w", GATES)
        u_rz = _stacked(p, "u", GATES[:2])
        da = np.empty((batch, steps, 3 * hid), dtype=g.dtype)
        dh = np.zeros((batch, hid), dtype=g.dtype)
        for t in _order(steps, not reverse):
            r, z, c, h_prev = r_all[:, t], z_all[:, t], c_all[:, t], h_prev_all[:, t]
            dh = dh + g[:, t]
            da_c = dh * z * (1.0 - c * c)
            d_rh = da_c @ p.u_h.data
            da[:, t, :hid] = d_rh * h_prev * r * (1.0 - r)
            da[:, t, hid : 2 * hid] = dh * (c - h_prev) * z * (1.0 - z)
            da[:, t, 2 * hid :] = da_c
            dh = dh * (1.0 - z) + d_rh * r + da[:, t, : 2 * hid] @ u_rz
        rows = da.reshape(batch * steps, 3 * hid)
        if x.requires_grad:
            ad._accumulate(x, (rows @ w).reshape(x.shape))
        dw = rows.T @ x.data.reshape(batch * steps, -1)
        du_rz = rows[:, : 2 * hid].T @ h_prev_all.reshape(batch * steps, hid)
        du_h = rows[:, 2 * hid :].T @ (r_all * h_prev_all).reshape(batch * steps, hid)
        db = rows.sum(axis=0)
        split = {"w": np.split(dw, 3), "u": [*np.split(du_rz, 2), du_h], "b": np.split(db, 3)}
        for i, gate in enumerate(GATES):
            for kind in "wub":
                ad._accumulate(getattr(p, f"{kind}_{gate}"), split[kind][i])

    return ad._node(out, parents, bwd)


def _stacked(p: GruCellParams, kind: str, gates: tuple[str, ...]) -> np.ndarray:
    """The matrices of one kind ("w" or "u") of the given gates, stacked by row."""
    return np.concatenate([getattr(p, f"{kind}_{gate}").data for gate in gates])


def _order(steps: int, reverse: bool) -> range:
    return range(steps - 1, -1, -1) if reverse else range(steps)
