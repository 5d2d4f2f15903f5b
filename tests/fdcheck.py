"""Freshly initialised layer stacks, a finite-difference check of one
stack, and the backward pass that collects a stack's gradients, for the
layer tests.

The objective is sum(stack output * weights) plus the stack's L1 penalty,
which is what stack_backward differentiates when fed weights as the
upstream gradient. A plain sum is blind to directions batch norm
cancels; fixed random weights exercise every output coordinate
independently.
"""

import numpy as np

from somatic_vae.gradcheck import FD_DTYPE, compare_grads, finite_difference_grads
from somatic_vae.layers import (
    BUFFER_KEYS,
    TRAIN,
    collect_grads,
    init_layer_params,
    stack_backward,
    stack_forward,
    stack_l1_penalty,
    stack_size,
    stack_views,
)


def fresh_stack(specs, rng, dtype=np.float64):
    """(params, theta): each layer's initialised tensors, laid out as
    build_vae lays a model's, as views of one flat vector theta of dtype
    and running statistics as views of a second one."""
    theta = np.empty(stack_size(specs), dtype)
    stats = np.empty(stack_size(specs, buffers=True), dtype)
    views = zip(stack_views(specs, theta), stack_views(specs, stats, buffers=True))
    return [init_layer_params(spec, rng, {**t, **b}) for spec, (t, b) in zip(specs, views)], theta


def collected_backward(specs, params, tape, dout, grads, input_grad=True, spy=None):
    """stack_backward with every gradient span written into grads
    (stack_views' dicts of a flat vector) by collect_grads;
    spy(i, key, rows, grad, live), when given, sees each span first.
    Returns the input gradient."""
    collect = collect_grads(grads)

    def step(i, key, rows, grad, live=None):
        if spy is not None:
            spy(i, key, rows, grad, live)
        collect(i, key, rows, grad, live)

    return stack_backward(specs, params, tape, dout, step, input_grad)


def grad_check(specs, params, x, weights, tolerance=1e-5, fd_step=1e-5, rng=None):
    """Compare stack_backward against central finite differences.

    The trainable tensors are copied into one flat vector, which the
    finite differences perturb and every evaluation replays at FD_DTYPE;
    the batch-norm buffers, which every pass updates, are copied too, so
    params itself is not touched. Every evaluation rewinds rng to its
    state at this call, so it draws the recorded pass's dropout masks.
    """
    rng = np.random.default_rng(0) if rng is None else rng  # draws only for dropout
    start = rng.bit_generator.state
    weights = np.asarray(weights, dtype=np.float64)
    theta = np.empty(stack_size(specs))
    views = stack_views(specs, theta)
    for view, p in zip(views, params):
        for key in view:
            view[key][...] = p[key]
    buffers = [{key: np.array(p[key]) for key in BUFFER_KEYS if key in p} for p in params]
    params = [{**b, **view} for b, view in zip(buffers, views)]
    grad = np.zeros_like(theta)
    out, tape = stack_forward(specs, params, x, TRAIN, rng=rng)
    if out.shape != weights.shape:
        raise ValueError(f"weights have shape {weights.shape}, the stack output {out.shape}")
    collected_backward(specs, params, tape, weights, stack_views(specs, grad))
    x_fd = np.asarray(x).astype(FD_DTYPE)
    buffers_fd = [{key: b.astype(FD_DTYPE) for key, b in p.items()} for p in buffers]

    def objective():
        rng.bit_generator.state = start
        wide = [{**b, **view} for b, view in
                zip(buffers_fd, stack_views(specs, theta.astype(FD_DTYPE)))]
        o, _ = stack_forward(specs, wide, x_fd, TRAIN, rng=rng)
        return (o * weights).sum() + stack_l1_penalty(specs, wide)

    # sanity: the replay must reproduce the recorded pass
    replayed = objective() - stack_l1_penalty(specs, params)
    if not np.isclose(replayed, (out * weights).sum(), rtol=1e-12, atol=1e-12):
        raise RuntimeError("replay diverged from the recorded forward pass")

    numeric = finite_difference_grads(objective, theta, fd_step)
    return compare_grads(specs, grad, numeric, tolerance)
