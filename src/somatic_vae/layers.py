"""Dense layer stacks with hand-written forward/backward passes.

Tensors are 2-D float64 C-order numpy arrays (rows = batch). Matrix
products delegate to numpy's BLAS matmul, whose reduction over the inner
dimension is a fixed tree for a given build, so repeated calls are
bit-deterministic. Each layer follows the (out, cache) convention and
the stack records caches on a Tape for the backward pass.

A stack's trainable tensors are views into consecutive slices of one flat
vector (stack_views), and the backward pass writes every parameter
gradient into the same views of a twin vector, so an optimizer can step
the whole model as one array. Batch-norm running statistics are buffers,
viewed the same way from a second vector (buffers=True).
"""

import math
from dataclasses import dataclass

import numpy as np

TRAIN = "train"
INFERENCE = "inference"
BUFFER_KEYS = ("run_mean", "run_var")


def _as_real(t):
    # promote ints/float32 to float64; leave extended precision alone so
    # finite-difference replays can run the same code at higher precision
    return np.asarray(t, dtype=np.result_type(t, np.float64))


def sigmoid(x):
    # split by sign so exp never overflows
    x = _as_real(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class Dense:
    in_dim: int
    out_dim: int
    l1_coefficient: float = 0.0


@dataclass
class BatchNorm:
    dim: int
    epsilon: float = 1e-5
    momentum: float = 0.9


@dataclass
class Activation:
    kind: str  # relu | leaky_relu | sigmoid | identity
    slope: float = 0.3  # leaky_relu only


@dataclass
class Dropout:
    rate: float


@dataclass
class Tape:
    """Per-layer caches from one stack_forward call (train mode keeps
    dropout masks so the pass can be replayed exactly)."""

    mode: str
    caches: list
    masks: list


def layer_shapes(spec):
    """Shape of each tensor a layer owns, trainable ones first in draw
    order; the BUFFER_KEYS entries are batch-norm running statistics."""
    if isinstance(spec, Dense):
        return {"w": (spec.in_dim, spec.out_dim), "b": (spec.out_dim,)}
    if isinstance(spec, BatchNorm):
        return dict.fromkeys(("gamma", "delta") + BUFFER_KEYS, (spec.dim,))
    return {}


def stack_views(specs, vec, offset=0, buffers=False):
    """One dict per layer of views into consecutive slices of vec, from
    offset on, one view per trainable tensor (per running statistic with
    buffers=True); returns (dicts, end offset)."""
    views = []
    for spec in specs:
        p = {}
        for key, shape in layer_shapes(spec).items():
            if (key in BUFFER_KEYS) == buffers:
                size = math.prod(shape)
                p[key] = vec[offset : offset + size].reshape(shape)
                offset += size
        views.append(p)
    return views, offset


def stack_size(specs, buffers=False):
    """Trainable scalars in a stack (running statistics with buffers=True)."""
    return sum(
        math.prod(shape) for spec in specs
        for key, shape in layer_shapes(spec).items() if (key in BUFFER_KEYS) == buffers
    )


def init_layer_params(spec, rng):
    """Fresh tensors for one layer: Glorot-uniform weights, zero biases,
    unit batch-norm scale, zero shift, and the running-statistic buffers."""
    if isinstance(spec, Dense):
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        return {
            "w": rng.uniform(-limit, limit, size=(spec.in_dim, spec.out_dim)),
            "b": np.zeros(spec.out_dim),
        }
    if isinstance(spec, BatchNorm):
        return {
            "gamma": np.ones(spec.dim),
            "delta": np.zeros(spec.dim),
            "run_mean": np.zeros(spec.dim),
            "run_var": np.ones(spec.dim),
        }
    return {}


def _dense_forward(x, p):
    return x @ p["w"] + p["b"], x


def _dense_backward(dout, cache, p, g, l1_coefficient, input_grad):
    x = cache
    np.matmul(x.T, dout, out=g["w"])
    if l1_coefficient > 0.0:
        g["w"] += l1_coefficient * np.sign(p["w"])
    dout.sum(axis=0, out=g["b"])
    return dout @ p["w"].T if input_grad else None


def _batchnorm_forward(x, p, spec, mode, update_running):
    if mode == INFERENCE:
        inv = 1.0 / np.sqrt(p["run_var"] + spec.epsilon)
        xhat = (x - p["run_mean"]) * inv
        return p["gamma"] * xhat + p["delta"], None
    mean = x.mean(axis=0)
    xmu = x - mean
    var = (xmu * xmu).mean(axis=0)  # biased, ddof=0
    inv = 1.0 / np.sqrt(var + spec.epsilon)
    xhat = xmu * inv
    if update_running:
        m = spec.momentum
        # in place: the buffers may be views of a model's stats vector
        p["run_mean"][...] = m * p["run_mean"] + (1.0 - m) * mean
        p["run_var"][...] = m * p["run_var"] + (1.0 - m) * var
    return p["gamma"] * xhat + p["delta"], (xmu, inv, xhat)


def _batchnorm_backward(dout, cache, p, g):
    # full backprop through the batch statistics
    xmu, inv, xhat = cache
    n = dout.shape[0]
    (dout * xhat).sum(axis=0, out=g["gamma"])
    dout.sum(axis=0, out=g["delta"])
    dxhat = dout * p["gamma"]
    dvar = (dxhat * xmu).sum(axis=0) * (-0.5) * inv**3
    dmean = -(dxhat.sum(axis=0)) * inv + dvar * (-2.0) * xmu.mean(axis=0)
    return dxhat * inv + dvar * 2.0 * xmu / n + dmean / n


def _activation_forward(x, spec):
    if spec.kind == "relu":
        return np.maximum(x, 0.0), x
    if spec.kind == "leaky_relu":
        return np.where(x > 0.0, x, spec.slope * x), x
    if spec.kind == "sigmoid":
        out = sigmoid(x)
        return out, out
    if spec.kind == "identity":
        return x, None
    raise ValueError(f"unknown activation kind {spec.kind!r}")


def _activation_backward(dout, cache, spec):
    if spec.kind == "relu":
        return dout * (cache > 0.0)
    if spec.kind == "leaky_relu":
        return dout * np.where(cache > 0.0, 1.0, spec.slope)
    if spec.kind == "sigmoid":
        return dout * cache * (1.0 - cache)
    return dout


def stack_forward(specs, params, x, mode, rng=None, masks=None, update_running=True):
    """Run the layer stack; returns (output, Tape).

    mode is "train" or "inference". In train mode an rng is required when
    the stack contains Dropout (unless pre-drawn masks are supplied, which
    is how finite-difference replays freeze the stochastic path).
    """
    if mode not in (TRAIN, INFERENCE):
        raise ValueError(f"unknown mode {mode!r}")
    x = _as_real(x)
    caches = []
    used_masks = []
    out = x
    for i, (spec, p) in enumerate(zip(specs, params)):
        mask = None
        if isinstance(spec, Dense):
            if out.shape[1] != spec.in_dim:
                raise ValueError(f"layer {i} (Dense) expects {spec.in_dim} columns, got {out.shape[1]}")
            out, cache = _dense_forward(out, p)
        elif isinstance(spec, BatchNorm):
            out, cache = _batchnorm_forward(out, p, spec, mode, update_running)
        elif isinstance(spec, Activation):
            out, cache = _activation_forward(out, spec)
        elif isinstance(spec, Dropout):
            cache = None
            if mode == TRAIN and spec.rate > 0.0:
                if masks is not None:
                    mask = masks[i]
                elif rng is not None:
                    # inverted dropout: survivors pre-scaled, inference is identity
                    mask = (rng.random(out.shape) >= spec.rate) / (1.0 - spec.rate)
                else:
                    raise ValueError(f"layer {i} (Dropout) needs an rng in train mode")
                out = out * mask
        else:
            raise ValueError(f"unknown layer spec {spec!r}")
        if not np.isfinite(out).all():
            raise FloatingPointError(f"non-finite output at layer {i} ({type(spec).__name__})")
        caches.append(cache)
        used_masks.append(mask)
    return out, Tape(mode, caches, used_masks)


def stack_backward(specs, params, tape, dout, grads, input_grad=True):
    """Reverse-mode gradients through a recorded train-mode pass.

    Writes each layer's parameter gradients into the matching arrays of
    grads (one dict per layer, shaped like stack_views' dicts) and returns
    the input gradient. Dense weight gradients include the L1 subgradient
    term. With input_grad=False the input gradient is not wanted: a Dense
    layer 0 skips its dout @ W.T, and None is returned.
    """
    if tape.mode != TRAIN:
        raise ValueError("stack_backward requires a train-mode tape")
    if len(tape.caches) != len(specs):
        raise ValueError("tape does not match the layer stack")
    dx = _as_real(dout)
    for i in range(len(specs) - 1, -1, -1):
        spec, p, cache = specs[i], params[i], tape.caches[i]
        if isinstance(spec, Dense):
            want_dx = i > 0 or input_grad
            dx = _dense_backward(dx, cache, p, grads[i], spec.l1_coefficient, want_dx)
        elif isinstance(spec, BatchNorm):
            dx = _batchnorm_backward(dx, cache, p, grads[i])
        elif isinstance(spec, Activation):
            dx = _activation_backward(dx, cache, spec)
        elif tape.masks[i] is not None:  # Dropout
            dx = dx * tape.masks[i]
    return dx if input_grad else None


def stack_l1_penalty(specs, params):
    """Sum of l1_coefficient * |w| over Dense layers (unscaled)."""
    total = 0.0
    for spec, p in zip(specs, params):
        if isinstance(spec, Dense) and spec.l1_coefficient > 0.0:
            total += spec.l1_coefficient * np.abs(p["w"]).sum()
    return total
