"""Finite-difference checks of the hand-written gradients: of one layer
stack (grad_check) and of the whole VAE (vae_grads), both through one
replay (replayed_grads), and the helpers the layer tests share.

Each entry of a flat float64 copy theta of the trainable scalars is
checked against central differences (f(t+h) - f(t-h)) / 2h, by relative
error |a - f| / max(|a|, |f|, 1e-8), and named layer{i}.{key}[j];
batch-norm running statistics are never differentiated. The stack
objective is sum(stack output * weights) plus the stack's L1 penalty,
what stack_backward differentiates when fed weights as the upstream
gradient. A plain sum is blind to directions batch norm cancels; fixed
random weights exercise every output coordinate independently.
"""

from dataclasses import dataclass

import numpy as np

from somatic_vae.layers import (
    BUFFER_KEYS,
    TRAIN,
    init_layer_params,
    stack_backward,
    stack_forward,
    stack_l1_penalty,
    stack_size,
    stack_views,
)
from somatic_vae.seeding import sub_rng
from somatic_vae.vae import _backward_train, _bind, _forward_train, build_vae

# Finite differences of a structurally zero gradient (e.g. a bias feeding
# batch norm, which cancels any constant shift) bottom out at one f64 ulp
# of the loss over 2h, which the 1e-8 comparison floor cannot absorb.
# Replaying the objective in x86 extended precision pushes that noise
# below the floor; platforms without real long double fall back to f64.
FD_DTYPE = np.longdouble if np.finfo(np.longdouble).eps < 1e-18 else np.float64


@dataclass
class GradReport:
    tolerance: float
    max_rel_error: float
    worst_param: str
    per_param: dict

    @property
    def passed(self):
        return self.max_rel_error <= self.tolerance

    def __str__(self):
        return (f"grad check {'pass' if self.passed else 'FAIL'}: max rel error "
                f"{self.max_rel_error:.3e} at {self.worst_param} (tolerance {self.tolerance:.1e})")


def finite_difference_grads(objective, theta, fd_step=1e-5):
    """Numeric gradient of objective() with respect to every entry of the
    flat vector theta, which is perturbed in place and restored. Returns
    a float64 vector."""
    numeric = np.empty(theta.size)
    for idx in range(theta.size):
        orig = theta[idx]
        theta[idx] = orig + fd_step
        hi = objective()
        theta[idx] = orig - fd_step
        lo = objective()
        theta[idx] = orig
        numeric[idx] = (hi - lo) / (2.0 * fd_step)
    return numeric


def compare_grads(specs, analytic, numeric, tolerance):
    """Elementwise relative comparison of two flat gradient vectors laid
    out by specs (stack_views order); entries are named layer{i}.{key}."""
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    if not a.size == f.size == stack_size(specs):
        raise ValueError(f"gradient vectors of {a.size} and {f.size} entries, "
                         f"the specs have {stack_size(specs)} parameters")
    rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
    per_param = {}
    worst_name, worst = "(none)", 0.0
    for i, view in enumerate(stack_views(specs, rel)):
        for key, r in view.items():
            name = f"layer{i}.{key}"
            per_param[name] = float(r.max()) if r.size else 0.0
            if per_param[name] > worst:
                worst = per_param[name]
                worst_name = f"{name}[{int(r.argmax())}]"
    return GradReport(tolerance, worst, worst_name, per_param)


def fresh_stack(specs, rng, dtype=np.float64):
    """(params, theta): each layer's initialised tensors, laid out as
    build_vae lays a model's, as views of one flat vector theta of dtype
    and running statistics as views of a second one."""
    theta = np.empty(stack_size(specs), dtype)
    stats = np.empty(stack_size(specs, buffers=True), dtype)
    views = zip(stack_views(specs, theta), stack_views(specs, stats, buffers=True))
    return [init_layer_params(spec, rng, {**t, **b}) for spec, (t, b) in zip(specs, views)], theta


def collect_grads(views, spy=None):
    """A step hook for stack_backward that writes each span into views
    (stack_views' dicts of a flat vector), zeros in the rows a block
    leaves out; spy(i, key, rows, grad, live), when given, sees each
    span first."""

    def step(i, key, rows, grad, live=None):
        if spy is not None:
            spy(i, key, rows, grad, live)
        target = views[i][key][rows]
        if live is None:
            target[...] = grad
        else:
            target[...] = 0.0
            target[live] = grad

    return step


def replayed_grads(specs, theta, rng, recorded, replay, fd_step=1e-5):
    """(analytic, numeric): the gradient of one train-mode pass over the
    trainable scalars theta (float64, laid out by specs), and the central
    differences of its loss.

    recorded(step) runs the pass from rng's state at this call, hands
    each gradient span to step, and returns the loss. replay(wide)
    returns the loss of the pass run again on wide, an FD_DTYPE copy of
    theta taken at each call (so it sees every perturbation), with rng
    rewound to that state, so it draws the pass's dropout masks and noise
    again. The first replay must reproduce the recorded loss.
    """
    start = rng.bit_generator.state
    analytic = np.zeros_like(theta)
    loss = recorded(collect_grads(stack_views(specs, analytic)))

    def objective():
        rng.bit_generator.state = start
        return replay(theta.astype(FD_DTYPE))

    if not np.isclose(objective(), loss, rtol=1e-12, atol=1e-12):
        raise RuntimeError("replay diverged from the recorded forward pass")
    return analytic, finite_difference_grads(objective, theta, fd_step)


def grad_check(specs, params, x, weights, tolerance=1e-5, fd_step=1e-5, rng=None):
    """Compare stack_backward against central differences (replayed_grads).

    The trainable tensors and the batch-norm buffers, which every pass
    updates, are copied, so params itself is not touched.
    """
    rng = np.random.default_rng(0) if rng is None else rng  # draws only for dropout
    weights = np.asarray(weights, dtype=np.float64)
    theta = np.empty(stack_size(specs))
    views = stack_views(specs, theta)
    for view, p in zip(views, params):
        for key in view:
            view[key][...] = p[key]
    buffers = [{key: np.array(p[key]) for key in BUFFER_KEYS if key in p} for p in params]
    x_fd = np.asarray(x).astype(FD_DTYPE)

    def loss(vec, xs, step=None):
        at = [{**b, **view} for b, view in zip(buffers, stack_views(specs, vec))]
        out, tape = stack_forward(specs, at, xs, TRAIN, rng=rng)
        if out.shape != weights.shape:
            raise ValueError(f"weights have shape {weights.shape}, the stack output {out.shape}")
        if step is not None:
            stack_backward(specs, at, tape, weights, step)
        return (out * weights).sum() + stack_l1_penalty(specs, at)

    grads = replayed_grads(specs, theta, rng, lambda step: loss(theta, x, step),
                           lambda wide: loss(wide, x_fd), fd_step)
    return compare_grads(specs, *grads, tolerance)


def vae_grads(config, beta):
    """(specs, analytic, numeric), compare_grads' arguments but the
    tolerance, for the total loss recon + beta * KL + L1 of one training
    pass (replayed_grads, step 1e-5) of a model built from config,
    re-bound onto float64 copies of its vectors, on a drawn binary batch
    of four rows; rng "gradcheck" is both of the pass's streams."""
    rng = sub_rng(config.seed, "gradcheck")
    built = build_vae(config, rng)
    # the check is of the derivative, not of float32 rounding
    model = _bind(config, built.theta.astype(np.float64))
    wide = _bind(config, np.empty(model.theta.size, FD_DTYPE))
    # replays update these; a train-mode loss never reads them
    model.stats[...] = wide.stats[...] = built.stats
    x = (rng.random((4, config.input_dim)) < 0.3).astype(np.float64)
    x_fd = x.astype(FD_DTYPE)

    def loss(m, xs, step=None):
        fwd = _forward_train(m, xs, beta, {"dropout": rng, "reparam": rng})
        if step is not None:
            _backward_train(m, xs, beta, fwd, step)
        return fwd["breakdown"].total

    def replay(theta):
        wide.theta[...] = theta
        return loss(wide, x_fd)

    return model.specs, *replayed_grads(model.specs, model.theta, rng,
                                        lambda step: loss(model, x, step), replay)
