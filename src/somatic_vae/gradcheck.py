"""Finite-difference verification of analytic gradients.

Central differences (f(t+h) - f(t-h)) / 2h per entry of a flat parameter
vector, with relative error |a - f| / max(|a|, |f|, 1e-8). Only
trainable scalars live in that vector; batch-norm running statistics
are never differentiated.
"""

from dataclasses import dataclass

import numpy as np

from .layers import stack_size, stack_views

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
