"""Dense layer stacks with hand-written forward/backward passes.

Tensors are 2-D floating C-order numpy arrays (rows = batch): float32
for training and inference, float64 or extended precision for gradient
checks, and every kernel keeps its input's dtype. Matrix
products delegate to numpy's BLAS matmul, whose reduction over the inner
dimension is a fixed tree for a given build, so repeated calls are
bit-deterministic. Each layer follows the (out, cache) convention and
a train-mode stack records the caches on a Tape for the backward pass.
The elementwise kernels update in place only arrays they allocated in
the same call, in their input's dtype, never an input or a cache.

A stack's trainable tensors are views into consecutive slices of one flat
vector (stack_views). The backward pass writes each layer's parameter
gradients into the views it is given: the same views of a twin vector,
so that an optimizer can step the whole model as one array, or one
buffer reused by every layer, which a per-layer step hook consumes
before the next layer overwrites it. Batch-norm running statistics are
buffers, viewed the same way from a second vector (buffers=True).
"""

import math
from dataclasses import dataclass

import numpy as np

TRAIN = "train"
INFERENCE = "inference"
BUFFER_KEYS = ("run_mean", "run_var")
L1_BLOCK = 1 << 15  # weights per block of the L1 gradient term: 128 KiB of float32
INIT_BLOCK = 1 << 15  # weights per block of the initial draw: 256 KiB of float64


def _as_real(t):
    # keep any floating dtype, so float32 training, float64 checks and
    # extended-precision replays run the same code; promote ints to float64
    t = np.asarray(t)
    return t if t.dtype.kind == "f" else t.astype(np.float64)


def sigmoid(x):
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
    x = _as_real(x)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
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
    kind: str  # relu | leaky_relu | sigmoid
    slope: float = 0.3  # leaky_relu only

    def __post_init__(self):
        # the forward pass max(x, slope * x) is leaky ReLU only for these
        if self.kind == "leaky_relu" and not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"leaky_relu slope must be in [0, 1], got {self.slope!r}")


@dataclass
class Dropout:
    rate: float


@dataclass
class Tape:
    """Per-layer caches from one train-mode stack_forward call (None for
    each layer in inference mode), and the dropout masks, so the pass can
    be replayed exactly."""

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


def init_layer_params(spec, rng, p=None):
    """One layer's tensors: Glorot-uniform weights, zero biases, unit
    batch-norm scale, zero shift, and the running-statistic buffers.
    Written into p (views shaped as layer_shapes) when given, else into
    fresh float64 arrays; returns them. The weights are drawn in row
    blocks of about INIT_BLOCK, the same float64 stream as one draw, so
    no layer-sized float64 draw is allocated."""
    if p is None:
        p = {key: np.empty(shape) for key, shape in layer_shapes(spec).items()}
    if isinstance(spec, Dense):
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        w = p["w"]
        rows = max(1, INIT_BLOCK // spec.out_dim)
        for start in range(0, spec.in_dim, rows):
            block = w[start : start + rows]
            block[...] = rng.uniform(-limit, limit, size=block.shape)
        p["b"][...] = 0.0
    elif isinstance(spec, BatchNorm):
        for key, value in (("gamma", 1.0), ("delta", 0.0), ("run_mean", 0.0), ("run_var", 1.0)):
            p[key][...] = value
    return p


def _dense_forward(x, p):
    out = x @ p["w"]
    out += p["b"]
    return out, x


def _dense_backward(dout, cache, p, g, l1_coefficient, input_grad):
    x = cache
    np.matmul(x.T, dout, out=g["w"])
    if l1_coefficient > 0.0:
        # g += l1 * sign(w), in row blocks that stay in cache
        w, gw = p["w"], g["w"]
        rows = max(1, L1_BLOCK // w.shape[1])
        for start in range(0, w.shape[0], rows):
            term = np.sign(w[start : start + rows])
            term *= l1_coefficient
            gw[start : start + rows] += term
    dout.sum(axis=0, out=g["b"])
    return dout @ p["w"].T if input_grad else None


def _batchnorm_forward(x, p, spec, mode, update_running):
    if mode == INFERENCE:
        inv = 1.0 / np.sqrt(p["run_var"] + spec.epsilon)
        out = x - p["run_mean"]
        out *= inv  # xhat
        out *= p["gamma"]
        out += p["delta"]
        return out, None
    mean = x.mean(axis=0)
    xmu = x - mean
    out = xmu * xmu
    var = out.mean(axis=0)  # biased, ddof=0
    inv = 1.0 / np.sqrt(var + spec.epsilon)
    xhat = xmu * inv
    if update_running:
        m = spec.momentum
        # in place: the buffers may be views of a model's stats vector
        p["run_mean"][...] = m * p["run_mean"] + (1.0 - m) * mean
        p["run_var"][...] = m * p["run_var"] + (1.0 - m) * var
    np.multiply(p["gamma"], xhat, out=out)
    out += p["delta"]
    return out, (xmu, inv, xhat)


def _batchnorm_backward(dout, cache, p, g):
    # full backprop through the batch statistics
    # dx = dxhat * inv + dvar * 2 * xmu / n + dmean / n, built in dxhat
    xmu, inv, xhat = cache
    n = dout.shape[0]
    tmp = dout * xhat
    tmp.sum(axis=0, out=g["gamma"])
    dout.sum(axis=0, out=g["delta"])
    dxhat = dout * p["gamma"]
    np.multiply(dxhat, xmu, out=tmp)
    dvar = tmp.sum(axis=0) * (-0.5) * inv**3
    dmean = -(dxhat.sum(axis=0)) * inv + dvar * (-2.0) * xmu.mean(axis=0)
    np.multiply(dvar * 2.0, xmu, out=tmp)
    tmp /= n
    dxhat *= inv
    dxhat += tmp
    dxhat += dmean / n
    return dxhat


def _activation_forward(x, spec):
    if spec.kind == "relu":
        return np.maximum(x, 0.0), x
    if spec.kind == "leaky_relu":
        # where(x > 0, x, slope * x) for 0 <= slope <= 1
        out = x * spec.slope
        return np.maximum(x, out, out=out), x
    if spec.kind == "sigmoid":
        out = sigmoid(x)
        return out, out
    raise ValueError(f"unknown activation kind {spec.kind!r}")


def _activation_backward(dout, cache, spec):
    if spec.kind == "relu":
        return dout * (cache > 0.0)
    if spec.kind == "leaky_relu":
        # the factor where(cache > 0, 1, slope), looked up by the mask
        factors = np.array([spec.slope, 1.0], dout.dtype)
        return dout * factors[(cache > 0.0).view(np.int8)]
    # sigmoid: dout * cache * (1 - cache)
    dx = dout * cache
    dx *= 1.0 - cache
    return dx


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
        # release the previous layer's cache: in inference mode nothing keeps it
        mask = cache = None
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
                    # inverted dropout: survivors pre-scaled, inference is identity.
                    # The uniforms are float64 whatever the activation's dtype,
                    # so the stream does not depend on it; the mask takes that dtype
                    mask = rng.random(out.shape)
                    np.divide(mask >= spec.rate, 1.0 - spec.rate, out=mask)
                    mask = mask.astype(out.dtype, copy=False)
                else:
                    raise ValueError(f"layer {i} (Dropout) needs an rng in train mode")
                out = out * mask
        else:
            raise ValueError(f"unknown layer spec {spec!r}")
        if not np.isfinite(out).all():
            raise FloatingPointError(f"non-finite output at layer {i} ({type(spec).__name__})")
        caches.append(cache if mode == TRAIN else None)
        used_masks.append(mask)
    return out, Tape(mode, caches, used_masks)


def stack_backward(specs, params, tape, dout, grads, input_grad=True, step=None):
    """Reverse-mode gradients through a recorded train-mode pass.

    Writes each layer's parameter gradients into the matching arrays of
    grads (one dict per layer, shaped like stack_views' dicts) and returns
    the input gradient. Dense weight gradients include the L1 subgradient
    term. With input_grad=False the input gradient is not wanted: a Dense
    layer 0 skips its dout @ W.T, and None is returned.

    step, when given, is called with the index of each layer that has
    parameters as soon as its gradients and its input gradient are
    written. Those are the last reads of that layer's parameters in the
    pass, so step may update them, and the gradient arrays of different
    layers may share memory.
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
        if step is not None and isinstance(spec, (Dense, BatchNorm)):
            step(i)
    return dx if input_grad else None


def stack_l1_penalty(specs, params):
    """Sum of l1_coefficient * |w| over Dense layers (unscaled)."""
    total = 0.0
    for spec, p in zip(specs, params):
        if isinstance(spec, Dense) and spec.l1_coefficient > 0.0:
            total += spec.l1_coefficient * np.abs(p["w"]).sum()
    return total
