"""RMSprop with a per-parameter squared-gradient accumulator.

s <- rho * s + (1 - rho) * g^2
theta <- theta - lr * g / (sqrt(s) + eps)

The update runs over a flat parameter vector and its twin gradient
vector, in blocks small enough that the operands of every step stay in
cache. It computes in the vectors' dtype: float32 for a model. Each
entry's update depends on that entry alone, so stepping a model span by
span (training steps one layer at a time, inside the backward pass)
gives the same bytes as one call over the whole vector.
"""

from dataclasses import dataclass

import numpy as np

BLOCK = 1 << 15  # entries per block: 128 KiB of float32 per operand


@dataclass
class RmspropState:
    accumulator: np.ndarray  # one running mean of g^2 per entry of theta
    scratch: tuple  # two work buffers of min(BLOCK, theta.size) entries


def init_rmsprop(theta):
    n = min(BLOCK, theta.size)
    return RmspropState(
        np.zeros_like(theta), (np.empty(n, theta.dtype), np.empty(n, theta.dtype))
    )


def rmsprop_update(theta, grad, state, lr=1e-3, rho=0.9, eps=1e-8):
    """Apply one update to theta and the accumulator in place.

    Every entry sees the same operations, in the same order and with the
    same rounding, as the whole-array expressions in the module docstring.
    """
    if not theta.shape == grad.shape == state.accumulator.shape:
        raise ValueError(
            f"shape mismatch: theta {theta.shape}, grad {grad.shape}, "
            f"accumulator {state.accumulator.shape}"
        )
    sq_buf, step_buf = state.scratch
    for start in range(0, theta.size, BLOCK):
        stop = min(start + BLOCK, theta.size)
        g = grad[start:stop]
        acc = state.accumulator[start:stop]
        sq = sq_buf[: stop - start]
        step = step_buf[: stop - start]
        acc *= rho
        np.square(g, out=sq)
        sq *= 1.0 - rho
        acc += sq
        np.multiply(g, lr, out=step)
        np.sqrt(acc, out=sq)
        sq += eps
        step /= sq
        theta[start:stop] -= step
