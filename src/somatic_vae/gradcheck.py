"""Finite-difference verification of analytic gradients.

Central differences (f(t+h) - f(t-h)) / 2h per scalar parameter, with
relative error |a - f| / max(|a|, |f|, 1e-8). Batch-norm running
statistics are buffers, not parameters, and are never differentiated.
"""

from dataclasses import dataclass

import numpy as np

from .layers import (
    BUFFER_KEYS,
    TRAIN,
    stack_backward,
    stack_forward,
    stack_l1_penalty,
    stack_size,
    stack_views,
)

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
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"grad check {verdict}: max rel error {self.max_rel_error:.3e} "
            f"at {self.worst_param} (tolerance {self.tolerance:.1e})"
        )


def finite_difference_grads(loss_fn, params, fd_step=1e-5):
    """Numeric gradients of loss_fn with respect to every parameter entry.

    params is a list of dicts of arrays; entries are perturbed in place
    and restored. Returns gradients in the same structure.
    """
    numeric = []
    for p in params:
        g = {}
        for key, arr in p.items():
            if key in BUFFER_KEYS:
                continue
            out = np.zeros_like(arr)
            flat = arr.ravel()
            gflat = out.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + fd_step
                hi = loss_fn(params)
                flat[idx] = orig - fd_step
                lo = loss_fn(params)
                flat[idx] = orig
                gflat[idx] = (hi - lo) / (2.0 * fd_step)
            g[key] = out
        numeric.append(g)
    return numeric


def compare_grads(analytic, numeric, tolerance):
    """Elementwise relative comparison of two gradient structures."""
    per_param = {}
    worst_name, worst = "(none)", 0.0
    for i, (ag, ng) in enumerate(zip(analytic, numeric)):
        for key in ng:
            a = np.asarray(ag[key], dtype=np.float64)
            f = np.asarray(ng[key], dtype=np.float64)
            if a.shape != f.shape:
                raise ValueError(f"gradient shape mismatch at layer{i}.{key}")
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
            rel = np.abs(a - f) / denom
            name = f"layer{i}.{key}"
            per_param[name] = float(rel.max()) if rel.size else 0.0
            if per_param[name] > worst:
                worst = per_param[name]
                worst_name = f"{name}[{int(rel.argmax())}]"
    return GradReport(tolerance, worst, worst_name, per_param)


def make_weighted_sum(weights):
    """Reduction out -> (sum(out * weights), weights).

    A plain sum is blind to directions batch norm cancels; fixed random
    weights exercise every output coordinate independently.
    """
    weights = np.asarray(weights, dtype=np.float64)

    def reduction(out):
        if out.shape != weights.shape:
            raise ValueError("reduction weight shape mismatch")
        return (out * weights).sum(), weights

    return reduction


def grad_check(specs, params, x, reduction, tolerance=1e-5, fd_step=1e-5, rng=None):
    """Compare stack_backward against central finite differences.

    The objective is reduction(stack output) plus the stack's L1 penalty,
    matching what the backward pass differentiates. The trainable tensors
    are copied into one flat vector, which the finite differences perturb
    and every evaluation replays at FD_DTYPE; params itself is not
    touched. Dropout masks are drawn once and frozen for every
    finite-difference evaluation.
    """
    theta = np.empty(stack_size(specs))
    views, _ = stack_views(specs, theta)
    for view, p in zip(views, params):
        for key in view:
            view[key][...] = p[key]
    params = [{**p, **view} for p, view in zip(params, views)]
    analytic, _ = stack_views(specs, np.zeros_like(theta))
    # batch-norm buffers are updated in place, and they are the caller's
    out, tape = stack_forward(specs, params, x, TRAIN, rng=rng, update_running=False)
    loss_value, dout = reduction(out)
    stack_backward(specs, params, tape, dout, analytic)
    x_fd = np.asarray(x).astype(FD_DTYPE)

    def objective(_params):
        wide, _ = stack_views(specs, theta.astype(FD_DTYPE))
        o, _ = stack_forward(specs, wide, x_fd, TRAIN, masks=tape.masks, update_running=False)
        return reduction(o)[0] + stack_l1_penalty(specs, wide)

    # sanity: the frozen replay must reproduce the recorded pass
    replay = objective(params) - stack_l1_penalty(specs, params)
    if not np.isclose(replay, loss_value, rtol=1e-12, atol=1e-12):
        raise RuntimeError("frozen replay diverged from the recorded forward pass")

    numeric = finite_difference_grads(objective, params, fd_step)
    return compare_grads(analytic, numeric, tolerance)
