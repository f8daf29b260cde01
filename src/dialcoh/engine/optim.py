"""Adam (Kingma & Ba, ICLR 2015), one parameter array at a time.

Adam is elementwise, so an array can be updated as soon as its own
gradient is final: the training step hands each parameter's gradient to
`adam_step` as its backward pass finishes it (`models/neural.py`), and the
whole gradient never exists at once. The update of an array is bit for bit
its part of an update of any buffer that holds it."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Elements updated per block. Adam is elementwise, so blocking changes no
# bits; it keeps each temporary small and in cache. At paper size (8.39 M
# float32 parameters, a 2-core Xeon with AVX-512, numpy 2.4) an update of the
# whole model took about 43 ms in blocks of 65,536 against about 116 ms as
# one whole-buffer expression, whose temporaries are 34 MB each.
BLOCK = 65_536


@dataclass
class AdamState:
    """First and second moments, shaped like the parameter buffer, and the
    number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(
    params: np.ndarray, grads: np.ndarray, m: np.ndarray, v: np.ndarray,
    step: int, lr: float,
) -> None:
    """Bias-corrected Adam update of `params` from `grads` at step count
    `step` (1 for the first), with its moments `m` and `v`: four contiguous
    arrays of one size, of which params, m and v are updated in place, block
    by block. A non-contiguous array is refused (a flat copy of it would
    take the update in its place)."""
    params, grads, m, v = (a.reshape(-1, copy=False) for a in (params, grads, m, v))
    c1 = 1.0 - BETA1**step
    c2 = 1.0 - BETA2**step
    for lo in range(0, params.size, BLOCK):
        block = slice(lo, lo + BLOCK)
        p, g, mb, vb = params[block], grads[block], m[block], v[block]
        mb *= BETA1
        mb += (1.0 - BETA1) * g
        vb *= BETA2
        vb += (1.0 - BETA2) * (g * g)
        p -= lr * (mb / c1) / (np.sqrt(vb / c2) + EPS)
