"""Build a layer stack by hand and verify its gradients numerically.

Shows the dense / batch-norm / activation / dropout building blocks, the
difference between train and inference modes, and the finite-difference
harness that guards every analytic gradient in the package: the
full-model check over the flat parameter vector, and how a deliberately
corrupted gradient is flagged.
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
    collect_grads,
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
    statistics into a second), the way build_vae lays out a model; and
    zeroed gradient arrays that are views into a flat vector grad, which
    collect_grads fills from stack_backward. Returns (params, theta,
    grads, grad)."""
    theta, grad = np.empty(stack_size(specs)), np.zeros(stack_size(specs))
    stats = np.empty(stack_size(specs, buffers=True))
    views = zip(stack_views(specs, theta), stack_views(specs, stats, buffers=True))
    params = [init_layer_params(spec, rng, {**t, **b}) for spec, (t, b) in zip(specs, views)]
    return params, theta, stack_views(specs, grad), grad


specs = [
    Dense(10, 16),
    BatchNorm(16),
    Activation("leaky_relu", slope=0.3),
    Dropout(0.25),
    Dense(16, 4),
    Activation("sigmoid"),
]
rng = sv.sub_rng(0, "demo-stack")
params, _, grads, grad = new_stack(specs, rng)
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
# each gradient span leaves the pass through a step hook; this one copies
# it into the flat vector (training's hook steps RMSprop instead)
dx = stack_backward(specs, params, tape, upstream, collect_grads(grads))
print(f"d(input) shape {dx.shape}; {grad.size} parameter gradients in one flat vector")
for i, g in enumerate(grads):
    keys = {k: tuple(v.shape) for k, v in g.items()}
    print(f"layer {i} ({type(specs[i]).__name__}): "
          f"{keys if keys else 'no trainable parameters'}")

banner("finite-difference verification of the full model")
# every trainable scalar of the VAE is perturbed in model.theta, and the
# loss is replayed with the check's random stream rewound each time, so each
# replay draws the same dropout masks and reparameterization noise
tiny = sv.VaeConfig(
    input_dim=12, hidden_dims=(8, 6), latent_dim=3,
    dropout_rate=0.25, l1_coefficient=1e-4, loss_kind="bce",
    beta_schedule=sv.BetaSchedule("linear_warmup", 1e-4, 25),
    learning_rate=1e-3, batch_size=4, epochs=1, seed=0,
)
report = sv.vae_grad_check(tiny, beta=1.0, tolerance=1e-5)
print(report)
print(f"{len(report.per_param)} tensors checked, e.g. layer1.gamma max rel error "
      f"{report.per_param['layer1.gamma']:.1e} (running statistics are not parameters)")

banner("a corrupted gradient is flagged")
# batch-norm-free stack, so plain f64 central differences are clean here
small = [Dense(6, 5), Activation("sigmoid"), Dense(5, 3)]
small_params, theta, _, _ = new_stack(small, sv.sub_rng(3, "demo-small"))
xs = sv.sub_rng(4, "demo-small-x").standard_normal((5, 6))
w2 = sv.sub_rng(5, "demo-small-w").standard_normal((5, 3))
out_small, tape_small = stack_forward(small, small_params, xs, TRAIN)
honest = np.zeros_like(theta)
stack_backward(small, small_params, tape_small, w2, collect_grads(stack_views(small, honest)))


def objective():
    o, _ = stack_forward(small, small_params, xs, TRAIN)
    return (o * w2).sum()


numeric = sv.finite_difference_grads(objective, theta)
print("honest  :", sv.compare_grads(small, honest, numeric, tolerance=1e-5))
faulted = honest.copy()
stack_views(small, faulted)[0]["w"][...] *= 1.01
print("1% fault:", sv.compare_grads(small, faulted, numeric, tolerance=1e-5))
