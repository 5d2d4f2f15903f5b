"""RMSprop with a per-parameter squared-gradient accumulator.

s <- rho * s + (1 - rho) * g^2
theta <- theta - lr * g / (sqrt(s) + eps)

The update runs over a parameter array and its gradient, one span of a
model at a time (training steps each gradient span inside the backward
pass: a bias, a row block of weights, a batch-norm tensor), in blocks
small enough that the operands of every step stay in cache. The caller
holds the accumulator, an array shaped as theta and zero before the first
step; the two block-sized work buffers are allocated per call. It computes
in the arrays' dtype: float32 for a model. Each entry's update depends
on that entry alone, so stepping a model span by span gives the same
bytes as one call over the whole vector.

An entry whose gradient is zero only decays its accumulator: g^2 is +0,
so s becomes rho * s, and theta - (+-0) is theta for any theta but -0.0,
which no weight ever holds (the Glorot draw does not round to it, and
x - y is +0 when x == y). The rows form of the update (live=) uses that
to touch only the rows of a span whose gradient is not known to be zero.
"""

import numpy as np

BLOCK = 1 << 15  # entries per block: 128 KiB of float32 per operand


def rmsprop_update(theta, grad, acc, lr=1e-3, rho=0.9, eps=1e-8, live=None):
    """Apply one update to theta and acc, its accumulator (one running
    mean of g^2 per entry, zeros before the first step), in place.

    Every entry sees the same operations, in the same order and with the
    same rounding, as the whole-array expressions in the module docstring.

    With live, a boolean mask over the rows of theta (its first axis),
    grad holds the gradients of the live rows only, in order, and every
    other row's gradient is zero: the live rows are gathered and updated,
    and the whole span's accumulator is decayed, which gives the bytes of
    the whole update with a zero gradient in the other rows.
    """
    want = theta.shape if live is None else (np.count_nonzero(live),) + theta.shape[1:]
    if acc.shape != theta.shape or grad.shape != want or \
            (live is not None and live.shape != theta.shape[:1]):
        rows = "" if live is None else f", {live.size} rows"
        raise ValueError(f"shape mismatch: theta {theta.shape}, grad {grad.shape}, "
                         f"accumulator {acc.shape}{rows}")
    if live is None:
        _update(theta, grad, acc, lr, rho, eps)
        return
    index = np.flatnonzero(live)
    theta_live, acc_live = theta[index], acc[index]
    acc *= rho  # all that a zero gradient does
    _update(theta_live, grad, acc_live, lr, rho, eps)
    theta[index] = theta_live
    acc[index] = acc_live


def _update(theta, grad, accumulator, lr, rho, eps):
    # the update of flat views of the arrays, BLOCK entries at a time; a
    # flat copy of theta or the accumulator would not take the update
    theta, accumulator = (a.reshape(-1, copy=False) for a in (theta, accumulator))
    grad = grad.reshape(-1)
    sq_buf, step_buf = (np.empty(min(BLOCK, theta.size), theta.dtype) for _ in range(2))
    for start in range(0, theta.size, BLOCK):
        stop = min(start + BLOCK, theta.size)
        g = grad[start:stop]
        acc = accumulator[start:stop]
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
