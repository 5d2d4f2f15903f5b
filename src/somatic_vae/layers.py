"""Dense layer stacks with hand-written forward/backward passes.

Tensors are 2-D floating C-order numpy arrays (rows = batch): float32
for training and inference, float64 or extended precision for gradient
checks, and every kernel keeps its input's dtype. Matrix products
delegate to numpy's BLAS matmul, whose reduction over the inner dimension
is a fixed tree for a given build, so repeated calls are bit-deterministic.
Each layer follows the (out, cache) convention and a train-mode stack
records on its tape, a list of per-layer caches, only what the backward
pass reads (see stack_forward).
The elementwise kernels update in place only arrays they allocated in
the same call, in their input's dtype, never an input or a cache.

A stack's trainable tensors are views into consecutive slices of one flat
vector, one dict of views per layer (stack_views). The backward pass
hands each parameter gradient, span by span, to a step hook
(stack_backward), each span the array its kernel computed, at most one
row block long: training's hook steps the optimizer.
Batch-norm running statistics are buffers, viewed the same way from a
second vector (buffers=True).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

TRAIN = "train"
INFERENCE = "inference"
BUFFER_KEYS = ("run_mean", "run_var")
GRAD_BLOCK = 1 << 18  # weights per row block of a Dense layer: 1 MiB of float32, 2 of float64
ELEMENT_BLOCK = 1 << 16  # entries per block of an elementwise temporary
BN_EPSILON = 1e-5  # added to the batch variance under the square root
BN_MOMENTUM = 0.9  # weight of the old running statistic in each update


def _as_real(t):
    # keep any floating dtype, so float32 training, float64 checks and
    # extended-precision replays run the same code; promote ints to float64
    t = np.asarray(t)
    return t if t.dtype.kind == "f" else t.astype(np.float64)


def sigmoid(x):
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e)
    # below. out holds e, then the result; 1 + e and the mask are taken
    # ELEMENT_BLOCK entries at a time. Since e <= 1, the numerator
    # where(x >= 0, 1, e) is max(e, x >= 0), without where's branches
    x = _as_real(x)
    out = np.abs(x, order="C")
    np.negative(out, out=out)
    np.exp(out, out=out)
    flat, signs = out.reshape(-1), x.reshape(-1)
    for start in range(0, flat.size, ELEMENT_BLOCK):
        e = flat[start:start + ELEMENT_BLOCK]
        den = e + 1.0
        np.maximum(e, signs[start:start + ELEMENT_BLOCK] >= 0, out=e)
        e /= den
    return out


@dataclass
class Dense:
    in_dim: int
    out_dim: int
    l1_coefficient: float = 0.0


@dataclass
class BatchNorm:
    dim: int


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

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate!r}")


def layer_shapes(spec):
    """Shape of each tensor a layer owns, trainable ones first in draw
    order; the BUFFER_KEYS entries are batch-norm running statistics."""
    if isinstance(spec, Dense):
        return {"w": (spec.in_dim, spec.out_dim), "b": (spec.out_dim,)}
    if isinstance(spec, BatchNorm):
        return dict.fromkeys(("gamma", "delta") + BUFFER_KEYS, (spec.dim,))
    return {}


def stack_views(specs, vec, buffers=False):
    """One dict per layer of views into consecutive slices of vec, one
    view per trainable tensor (per running statistic with buffers=True)."""
    views, offset = [], 0
    for spec in specs:
        p = {}
        for key, shape in layer_shapes(spec).items():
            if (key in BUFFER_KEYS) == buffers:
                size = math.prod(shape)
                p[key] = vec[offset : offset + size].reshape(shape)
                offset += size
        views.append(p)
    return views


def block_rows(spec):
    """Rows of a Dense layer's weights drawn, or of its weight gradient
    computed, at once: as many as fit in GRAD_BLOCK entries, at least one,
    at most all."""
    return min(spec.in_dim, max(1, GRAD_BLOCK // spec.out_dim))


def stack_size(specs, buffers=False):
    """Trainable scalars in a stack (running statistics with buffers=True)."""
    return sum(
        math.prod(shape) for spec in specs
        for key, shape in layer_shapes(spec).items() if (key in BUFFER_KEYS) == buffers
    )


def init_layer_params(spec, rng, p):
    """One layer's tensors: Glorot-uniform weights, zero biases, unit
    batch-norm scale, zero shift, and the running-statistic buffers,
    written into p (views shaped as layer_shapes); returns p. The weights
    are drawn in blocks of block_rows rows, the same float64 stream as one
    draw, so no layer-sized float64 draw is allocated."""
    if isinstance(spec, Dense):
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        w = p["w"]
        rows = block_rows(spec)
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


def _dense_backward(dout, cache, p, spec, input_grad, step):
    # the input gradient first: step may update the weights it reads
    x, w = cache, p["w"]
    dx = dout @ w.T if input_grad else None
    step("b", slice(None), dout.sum(axis=0))
    rows = block_rows(spec)
    # on the data layer without an L1 term, a row whose input column is
    # zero over the batch has a zero gradient: a block with at most half
    # its rows live computes only those, and the step is told which they are
    live = x.any(axis=0) if spec.l1_coefficient == 0.0 and not input_grad else None
    for start in range(0, spec.in_dim, rows):
        span = slice(start, min(start + rows, spec.in_dim))
        xs, mask = x[:, span], None
        if live is not None and 2 * np.count_nonzero(live[span]) <= xs.shape[1]:
            mask = live[span]
            xs = xs[:, mask]
        block = xs.T @ dout
        _add_l1_term(block, w[span], spec.l1_coefficient)
        step("w", span, block, mask)
    return dx


def _add_l1_term(gw, w, l1_coefficient):
    # gw += l1 * sign(w)
    if l1_coefficient > 0.0:
        term = np.sign(w)
        term *= l1_coefficient
        gw += term


def _batchnorm_forward(x, p, mode):
    if mode == INFERENCE:
        inv = 1.0 / np.sqrt(p["run_var"] + BN_EPSILON)
        out = x - p["run_mean"]
        out *= inv  # xhat
        out *= p["gamma"]
        out += p["delta"]
        return out, None
    mean = x.mean(axis=0)
    xmu = x - mean
    out = xmu * xmu
    var = out.mean(axis=0)  # biased, ddof=0
    inv = 1.0 / np.sqrt(var + BN_EPSILON)
    m = BN_MOMENTUM
    # in place: the buffers may be views of a model's stats vector
    p["run_mean"][...] = m * p["run_mean"] + (1.0 - m) * mean
    p["run_var"][...] = m * p["run_var"] + (1.0 - m) * var
    np.multiply(xmu, inv, out=out)  # xhat, recomputed by the backward pass
    out *= p["gamma"]
    out += p["delta"]
    return out, (xmu, inv)


def _batchnorm_backward(dout, cache, p, step):
    # full backprop through the batch statistics
    # dx = dxhat * inv + dvar * 2 * xmu / n + dmean / n, built in dxhat
    xmu, inv = cache
    n = dout.shape[0]
    dxhat = dout * p["gamma"]
    tmp = dxhat * xmu
    dvar = tmp.sum(axis=0) * (-0.5) * inv**3
    dmean = -(dxhat.sum(axis=0)) * inv + dvar * (-2.0) * xmu.mean(axis=0)
    np.multiply(dvar * 2.0, xmu, out=tmp)
    tmp /= n
    dxhat *= inv
    dxhat += tmp
    dxhat += dmean / n
    # the parameter gradients, after the last read of gamma
    np.multiply(xmu, inv, out=tmp)  # xhat
    tmp *= dout
    step("gamma", slice(None), tmp.sum(axis=0))
    step("delta", slice(None), dout.sum(axis=0))
    return dxhat


def _activation_forward(x, spec):
    if spec.kind == "relu":
        return np.maximum(x, 0.0), x > 0.0
    if spec.kind == "leaky_relu":
        # where(x > 0, x, slope * x) for 0 <= slope <= 1
        out = x * spec.slope
        return np.maximum(x, out, out=out), x > 0.0
    if spec.kind == "sigmoid":
        out = sigmoid(x)
        return out, out
    raise ValueError(f"unknown activation kind {spec.kind!r}")


def _activation_backward(dout, cache, spec):
    if spec.kind == "relu":
        return dout * cache  # the mask x > 0
    if spec.kind == "leaky_relu":
        # the factor where(x > 0, 1, slope), looked up by the mask
        factors = np.array([spec.slope, 1.0], dout.dtype)
        return dout * factors[cache.view(np.int8)]
    # sigmoid: dout * cache * (1 - cache)
    dx = dout * cache
    dx *= 1.0 - cache
    return dx


def stack_forward(specs, params, x, mode, rng=None):
    """Run the layer stack; returns (output, tape).

    mode is "train" or "inference". In train mode batch norm updates its
    running statistics and Dropout draws its mask from the required rng,
    so rewinding rng replays the pass. The tape is None in inference mode;
    in train mode it is the list of per-layer caches: Dense x; batch norm
    (x - mean, 1 / sqrt(var + eps)); ReLU and leaky ReLU the bool mask
    x > 0; sigmoid its output; Dropout its bool keep mask, None at rate 0.
    """
    if mode not in (TRAIN, INFERENCE):
        raise ValueError(f"unknown mode {mode!r}")
    x = _as_real(x)
    caches = [] if mode == TRAIN else None
    out = x
    for i, (spec, p) in enumerate(zip(specs, params)):
        # release the previous layer's cache: in inference mode nothing keeps it
        cache = None
        if isinstance(spec, Dense):
            if out.shape[1] != spec.in_dim:
                raise ValueError(f"layer {i} (Dense) expects {spec.in_dim} columns, got {out.shape[1]}")
            out, cache = _dense_forward(out, p)
        elif isinstance(spec, BatchNorm):
            out, cache = _batchnorm_forward(out, p, mode)
        elif isinstance(spec, Activation):
            out, cache = _activation_forward(out, spec)
        elif isinstance(spec, Dropout):
            if mode == TRAIN and spec.rate > 0.0:
                if rng is None:
                    raise ValueError(f"layer {i} (Dropout) needs an rng in train mode")
                # inverted dropout, identity in inference. The uniforms are float64
                # whatever the activation's dtype, so the stream does not depend on it
                cache = rng.random(out.shape) >= spec.rate
                out = out * cache
                out *= out.dtype.type(1.0 / (1.0 - spec.rate))
        else:
            raise ValueError(f"unknown layer spec {spec!r}")
        if not np.isfinite(out).all():
            raise FloatingPointError(f"non-finite output at layer {i} ({type(spec).__name__})")
        if caches is not None:
            caches.append(cache)
    return out, caches


def stack_backward(specs, params, tape, dout, step, input_grad=True):
    """Reverse-mode gradients through a recorded train-mode pass; returns
    the input gradient. With input_grad=False it is not wanted: a Dense
    layer 0 skips its dout @ W.T, and None is returned. Batch norm recomputes
    xhat from its cache; Dropout multiplies by its mask, then by 1 / (1 - rate).

    Each parameter gradient leaves the pass through step, called as
    step(i, key, rows, grad, live=None) for each span of layer i's
    tensor key, as soon as its kernel has computed grad, a fresh array of
    at most one row block: rows slices the tensor's first axis,
    slice(None) for a whole tensor. The spans come in this order: a Dense
    layer's bias, then each row block of its weights, after the layer's
    input gradient; a batch-norm layer's gamma, then delta, after its
    input gradient. No later read in the pass touches those parameters or
    that gradient, so step may update or overwrite both. Dense weight
    gradients include the L1 subgradient term. On a data layer (a Dense
    layer 0 with input_grad=False) with no L1 term, a weight block whose
    input columns are zero over the batch for at least half its rows
    comes with live, a boolean mask over the block's rows: grad then holds
    the live rows' gradients only, and every other row's gradient is zero.
    """
    if tape is None:
        raise ValueError("stack_backward requires a train-mode tape")
    if len(tape) != len(specs):
        raise ValueError("tape does not match the layer stack")
    dx = _as_real(dout)
    for i in range(len(specs) - 1, -1, -1):
        spec, p, cache = specs[i], params[i], tape[i]
        if isinstance(spec, Dense):
            dx = _dense_backward(dx, cache, p, spec, i > 0 or input_grad,
                                 functools.partial(step, i))
        elif isinstance(spec, BatchNorm):
            dx = _batchnorm_backward(dx, cache, p, functools.partial(step, i))
        elif isinstance(spec, Activation):
            dx = _activation_backward(dx, cache, spec)
        elif cache is not None:  # Dropout: its keep mask
            dx = dx * cache
            dx *= dx.dtype.type(1.0 / (1.0 - spec.rate))
    return dx if input_grad else None


def stack_l1_penalty(specs, params):
    """Sum of l1_coefficient * |w| over Dense layers (unscaled)."""
    total = 0.0
    for spec, p in zip(specs, params):
        if isinstance(spec, Dense) and spec.l1_coefficient > 0.0:
            total += spec.l1_coefficient * np.abs(p["w"]).sum()
    return total
