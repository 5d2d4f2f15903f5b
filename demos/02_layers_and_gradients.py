"""Build a layer stack by hand and run its backward pass.

Shows the dense / batch-norm / activation / dropout building blocks, the
difference between train and inference modes, and how the backward pass
hands each parameter gradient, span by span, to a step hook. The
finite-difference check that guards every analytic gradient lives in the
test suite: pytest tests/test_acceptance.py -k criterion_01.
"""

import numpy as np

import somatic_vae as sv
from somatic_vae.layers import (
    INFERENCE,
    TRAIN,
    Activation,
    BatchNorm,
    Dense,
    Dropout,
    init_layer_params,
    stack_backward,
    stack_forward,
    stack_size,
    stack_views,
)


def banner(title):
    print(f"\n=== {title} ===")


def new_stack(specs, rng):
    """Fresh layer tensors as views into one flat vector theta (running
    statistics into a second), the way build_vae lays out a model."""
    theta = np.empty(stack_size(specs))
    stats = np.empty(stack_size(specs, buffers=True))
    views = zip(stack_views(specs, theta), stack_views(specs, stats, buffers=True))
    return [init_layer_params(spec, rng, {**t, **b}) for spec, (t, b) in zip(specs, views)]


specs = [
    Dense(10, 16),
    BatchNorm(16),
    Activation("leaky_relu", slope=0.3),
    Dropout(0.25),
    Dense(16, 4),
    Activation("sigmoid"),
]
rng = sv.sub_rng(0, "demo-stack")
params = new_stack(specs, rng)
x = (rng.random((8, 10)) < 0.3).astype(np.float64)

banner("train vs inference mode")
out_train, tape = stack_forward(specs, params, x, TRAIN, rng=rng)
out_infer, _ = stack_forward(specs, params, x, INFERENCE)
print(f"train output mean  {out_train.mean():.4f} (dropout active, batch stats)")
print(f"infer output mean  {out_infer.mean():.4f} (deterministic, running stats)")
again, _ = stack_forward(specs, params, x, INFERENCE)
print(f"inference is bit-reproducible: {np.array_equal(out_infer, again)}")
# a dropout layer's cache is its bool keep mask
kept = tape[3].mean()
print(f"dropout kept {kept:.2%} of units (rate 0.25 -> expect ~75%)")

banner("analytic backward pass")
upstream = np.ones_like(out_train) / out_train.size


def show_span(i, key, rows, grad, live=None):
    # each gradient span leaves the pass through a step hook as soon as its
    # kernel computes it; training's hook steps RMSprop on those rows
    start, stop, _ = rows.indices(len(params[i][key]))
    print(f"layer {i} ({type(specs[i]).__name__}) {key} rows {start}:{stop}: "
          f"gradient {grad.shape}, norm {np.linalg.norm(grad):.3e}")


dx = stack_backward(specs, params, tape, upstream, show_span)
print(f"d(input) shape {dx.shape}; {stack_size(specs)} parameters in one flat vector")
print("finite-difference check of these gradients: "
      "pytest tests/test_acceptance.py -k criterion_01")
