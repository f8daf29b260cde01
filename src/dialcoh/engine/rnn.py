"""Gated recurrent unit layer with a hand-written backward pass.

Standard reset-before-candidate formulation (Cho et al. 2014):

    r = sigmoid(W_r x + U_r h + b_r)
    z = sigmoid(W_z x + U_z h + b_z)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * c

Layout: each layer and direction stores its gates stacked by row, in gate
order h, r, z: one W (3 hidden, input), one U (3 hidden, hidden) and one b
(3 hidden,). That is the order in which a checkpoint's sorted names list
them (b_h, b_r, b_z, u_h, ...), so a loaded checkpoint's stacked arrays are
single views of its payload, the per-gate arrays a checkpoint names are
row views of the stacked ones, and U[H:] is the contiguous [U_r; U_z].

`run_gru` runs a whole layer in one direction over plain arrays, after
Appleyard, Kocisky & Blunsom 2016 (arXiv:1604.01946): x is (batch, time,
input) and the result (batch, time, hidden). The input projection of every
timestep is one product against W; each step then does one recurrent
product for r and z together and one for the candidate. Both are
weight-major, (U @ h^T)^T rather than h @ U^T: a step has few rows, and for
a thin h^T OpenBLAS runs the weight-major form 1.5-2.2x faster at paper size
(4 to 32 rows) with the same bits (tests/test_models.py checks the bits).

With `record` set, the scan keeps its gates and previous states and also
returns its backpropagation through time (Werbos 1990) as a function of the
output gradient: a reverse walk over time fills the (batch, time, 3 hidden)
pre-activation gradients, from which dx, dW, dU and db are a few products
over the flattened (batch * time) rows; those products gain nothing from the
weight-major form and keep the row-major one. The tests check the forward
pass against the scan as it ran before its rows shrank (bit for bit in
float32, tests/conftest.py) and the backward pass against finite
differences.

Rows of different lengths share one scan through per-row `lengths`, the
scheme of PyTorch's `pack_padded_sequence`: rows come longest first, so the
rows still live at step t are the first k_t. The step computes only the
first max(k_t, MIN_ROWS) rows (all of them when there are fewer) and writes
only the live ones: a finished row's state stays as it was and its outputs
past its length are zero, and a backward-direction row that has not started
keeps h = 0. The scan sorts nothing; rows out of that order are an error.
Such ragged batches are for scoring only. Recording one is an error too:
the backward pass has no masking, and training keeps exact-length groups,
because a padded pass would change the float32 summation order of the
weight gradients and so the trained weights.
"""
from __future__ import annotations

import numpy as np

from .autodiff import logistic

GATES = ("h", "r", "z")

# Every float32 product the scan and the scorer make gives a row the same
# bits for any row count from 4 up, while 1 to 3 rows take other BLAS code
# paths; so a step computes at least this many rows, and scoring pads its
# buckets to it. tests/test_models.py checks the property on the BLAS numpy
# is linked against.
MIN_ROWS = 4


def run_gru(
    x: np.ndarray,
    w: np.ndarray,
    u: np.ndarray,
    b: np.ndarray,
    reverse: bool = False,
    lengths: np.ndarray | None = None,
    record: bool = False,
):
    """Run one layer and direction, stacked weights w (3H, input), u (3H, H)
    and b (3H,), over every position of a (batch, time, input) array from a
    zero initial state; returns the (batch, time, hidden) states aligned with
    input positions. reverse=True scans right to left (the backward
    direction of a biGRU). `lengths` (one per row, non-increasing, default
    the full time axis) masks the scan: each row runs over its own first
    `lengths[i]` positions, in either direction, and its outputs past them
    are zero. With `record`, returns (states, bptt) instead, where
    bptt(d states) gives (dx, dw, du, db)."""
    hid = u.shape[1]
    if x.ndim != 3 or x.shape[2] != w.shape[1]:
        raise ValueError(f"input shape {x.shape} is not (batch, time, {w.shape[1]})")
    batch, steps, _ = x.shape
    if lengths is None:
        lengths = np.full(batch, steps)
    if (np.diff(lengths) > 0).any():
        raise ValueError("run_gru needs rows in non-increasing length order")
    if record and (lengths != steps).any():
        raise ValueError(
            "run_gru cannot record rows of different lengths for backpropagation; "
            "train on rows of one length"
        )
    u_h, u_rz, b_h, b_rz = u[:hid], u[hid:], b[:hid], b[hid:]
    x_rows = x.reshape(batch * steps, -1)
    xw = (x_rows @ w.T).reshape(batch, steps, 3 * hid)
    live = (lengths > np.arange(steps)[:, None]).sum(axis=1)
    out = np.zeros((batch, steps, hid), dtype=x.dtype)
    if record:
        rz_all = np.empty((batch, steps, 2 * hid), dtype=x.dtype)
        c_all, h_prev_all = np.empty_like(out), np.empty_like(out)
    h = np.zeros((batch, hid), dtype=x.dtype)
    for t in _order(steps, reverse):
        k = live[t]
        m = min(batch, max(k, MIN_ROWS))
        h_m = h[:m]
        a = xw[:m, t, hid:] + (u_rz @ h_m.T).T
        a += b_rz
        rz = logistic(a)
        r, z = rz[:, :hid], rz[:, hid:]
        c = np.tanh(xw[:m, t, :hid] + (u_h @ (r * h_m).T).T + b_h)
        if record:
            rz_all[:, t], c_all[:, t], h_prev_all[:, t] = rz, c, h_m
        h_next = (1.0 - z) * h_m + z * c
        h[:k] = h_next[:k]
        out[:k, t] = h_next[:k]
    if not record:
        return out

    def bptt(g: np.ndarray):
        da = np.empty((batch, steps, 3 * hid), dtype=g.dtype)
        dh = np.zeros((batch, hid), dtype=g.dtype)
        for t in _order(steps, not reverse):
            r, z = rz_all[:, t, :hid], rz_all[:, t, hid:]
            c, h_prev = c_all[:, t], h_prev_all[:, t]
            dh = dh + g[:, t]
            da_c = dh * z * (1.0 - c * c)
            d_rh = da_c @ u_h
            da[:, t, :hid] = da_c
            da[:, t, hid : 2 * hid] = d_rh * h_prev * r * (1.0 - r)
            da[:, t, 2 * hid :] = dh * (c - h_prev) * z * (1.0 - z)
            dh = dh * (1.0 - z) + d_rh * r + da[:, t, hid:] @ u_rz
        rows = da.reshape(batch * steps, 3 * hid)
        # dx sums over the gates in r, z, h order. The trained weights' bits
        # depend on that order, and the benchmark references were trained
        # with it, so it stays until they are re-recorded.
        rzh = np.concatenate((rows[:, hid:], rows[:, :hid]), axis=1)
        w_rzh = np.concatenate((w[hid:], w[:hid]))
        dx = (rzh @ w_rzh).reshape(x.shape)
        # dW has W's shape: it takes the reordered copy's buffer, and du is
        # written in place, so a call allocates no other weight-sized array.
        dw = np.matmul(rows.T, x_rows, out=w_rzh)
        du = np.empty_like(u)
        rh = (rz_all[..., :hid] * h_prev_all).reshape(batch * steps, hid)
        np.matmul(rows[:, :hid].T, rh, out=du[:hid])
        np.matmul(rows[:, hid:].T, h_prev_all.reshape(batch * steps, hid), out=du[hid:])
        return dx, dw, du, rows.sum(axis=0)

    return out, bptt


def _order(steps: int, reverse: bool) -> range:
    return range(steps - 1, -1, -1) if reverse else range(steps)
