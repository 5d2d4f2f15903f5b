"""Finite-difference check of one layer stack, and the backward pass that
collects a stack's gradients, for the layer tests.

The objective is sum(stack output * weights) plus the stack's L1 penalty,
which is what stack_backward differentiates when fed weights as the
upstream gradient. A plain sum is blind to directions batch norm
cancels; fixed random weights exercise every output coordinate
independently.
"""

import numpy as np

from somatic_vae.gradcheck import FD_DTYPE, compare_grads, finite_difference_grads
from somatic_vae.layers import (
    TRAIN,
    collect_grads,
    grad_buffer,
    stack_backward,
    stack_forward,
    stack_l1_penalty,
    stack_size,
    stack_views,
)


def collected_backward(specs, params, tape, dout, grads, input_grad=True, spy=None):
    """stack_backward with every gradient span written into grads
    (stack_views' dicts of a flat vector) by collect_grads, through a
    buffer of dout's dtype; spy(i, key, rows, grad, live), when given,
    sees each span first. Returns the input gradient."""
    collect = collect_grads(grads)

    def step(i, key, rows, grad, live=None):
        if spy is not None:
            spy(i, key, rows, grad, live)
        collect(i, key, rows, grad, live)

    buf = grad_buffer(specs, np.asarray(dout).dtype)
    return stack_backward(specs, params, tape, dout, step, buf, input_grad)


def grad_check(specs, params, x, weights, tolerance=1e-5, fd_step=1e-5, rng=None):
    """Compare stack_backward against central finite differences.

    The trainable tensors are copied into one flat vector, which the
    finite differences perturb and every evaluation replays at FD_DTYPE;
    params itself is not touched. Dropout masks are drawn once and frozen
    for every finite-difference evaluation.
    """
    weights = np.asarray(weights, dtype=np.float64)
    theta = np.empty(stack_size(specs))
    views = stack_views(specs, theta)
    for view, p in zip(views, params):
        for key in view:
            view[key][...] = p[key]
    params = [{**p, **view} for p, view in zip(params, views)]
    grad = np.zeros_like(theta)
    # batch-norm buffers are updated in place, and they are the caller's
    out, tape = stack_forward(specs, params, x, TRAIN, rng=rng, update_running=False)
    if out.shape != weights.shape:
        raise ValueError(f"weights have shape {weights.shape}, the stack output {out.shape}")
    collected_backward(specs, params, tape, weights, stack_views(specs, grad))
    x_fd = np.asarray(x).astype(FD_DTYPE)

    def objective():
        wide = stack_views(specs, theta.astype(FD_DTYPE))
        o, _ = stack_forward(specs, wide, x_fd, TRAIN, masks=tape.masks, update_running=False)
        return (o * weights).sum() + stack_l1_penalty(specs, wide)

    # sanity: the frozen replay must reproduce the recorded pass
    replay = objective() - stack_l1_penalty(specs, params)
    if not np.isclose(replay, (out * weights).sum(), rtol=1e-12, atol=1e-12):
        raise RuntimeError("frozen replay diverged from the recorded forward pass")

    numeric = finite_difference_grads(objective, theta, fd_step)
    return compare_grads(specs, grad, numeric, tolerance)
