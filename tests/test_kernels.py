"""The layer kernels against reference copies of their plain whole-array
expressions, compared as bytes (array_equal would let -0.0 pass for 0.0).

The library builds each result with fewer passes and temporaries, but
every value must keep the operations, and their order, of the
expressions below, so every output of the pipeline stays byte-identical.

The backward pass hands a Dense weight gradient to its step hook in row
blocks (block_rows), one product each, and on the data layer with no L1
term a block with at most half its rows live as the product over those
rows alone. check_stack raises GRAD_BLOCK past every layer and wants
the input gradient, so each weight gradient is one product, as below;
test_blocked_weight_gradient_matches_one_gemm and
test_live_rows_of_a_block_match_the_whole_product check in float32, the
dtype of training, at each workload's shapes, that the blocks give the
bytes of one product (in float64 a row block of the 1024 x 1470 product
rounds differently).
"""

import copy

import numpy as np
import pytest
from fdcheck import FD_DTYPE, collect_grads, fresh_stack

import somatic_vae.layers as layers_module
from somatic_vae.layers import (
    BN_EPSILON,
    BN_MOMENTUM,
    INFERENCE,
    TRAIN,
    Activation,
    BatchNorm,
    Dense,
    Dropout,
    block_rows,
    sigmoid,
    stack_backward,
    stack_forward,
    stack_size,
    stack_views,
)
from somatic_vae.vae import VaeConfig, _architecture, build_vae, decode_batch

# ---------------------------------------------------------------- references


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_forward(spec, p, x, mode, mask):
    """(out, cache) of one layer, a Dropout layer's cache its mask;
    updates batch-norm running statistics."""
    if isinstance(spec, Dense):
        return x @ p["w"] + p["b"], x
    if isinstance(spec, BatchNorm):
        if mode == INFERENCE:
            inv = 1.0 / np.sqrt(p["run_var"] + BN_EPSILON)
            xhat = (x - p["run_mean"]) * inv
            return p["gamma"] * xhat + p["delta"], None
        mean = x.mean(axis=0)
        xmu = x - mean
        var = (xmu * xmu).mean(axis=0)
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = xmu * inv
        m = BN_MOMENTUM
        p["run_mean"][...] = m * p["run_mean"] + (1.0 - m) * mean
        p["run_var"][...] = m * p["run_var"] + (1.0 - m) * var
        return p["gamma"] * xhat + p["delta"], (xmu, inv, xhat)
    if isinstance(spec, Activation):
        if spec.kind == "relu":
            return np.maximum(x, 0.0), x
        if spec.kind == "leaky_relu":
            return np.where(x > 0.0, x, spec.slope * x), x
        out = ref_sigmoid(x)
        return out, out
    return (x if mask is None else x * mask), mask


def ref_backward(spec, p, cache, dout):
    """(dx, parameter gradients) of one layer."""
    if isinstance(spec, Dense):
        gw = cache.T @ dout
        if spec.l1_coefficient > 0.0:
            gw += spec.l1_coefficient * np.sign(p["w"])
        return dout @ p["w"].T, {"w": gw, "b": dout.sum(axis=0)}
    if isinstance(spec, BatchNorm):
        xmu, inv, xhat = cache
        n = dout.shape[0]
        g = {"gamma": (dout * xhat).sum(axis=0), "delta": dout.sum(axis=0)}
        dxhat = dout * p["gamma"]
        dvar = (dxhat * xmu).sum(axis=0) * (-0.5) * inv**3
        dmean = -(dxhat.sum(axis=0)) * inv + dvar * (-2.0) * xmu.mean(axis=0)
        return dxhat * inv + dvar * 2.0 * xmu / n + dmean / n, g
    if isinstance(spec, Activation):
        if spec.kind == "relu":
            return dout * (cache > 0.0), {}
        if spec.kind == "leaky_relu":
            return dout * np.where(cache > 0.0, 1.0, spec.slope), {}
        return dout * cache * (1.0 - cache), {}
    return (dout if cache is None else dout * cache), {}  # Dropout: cache is the mask


def ref_stack(specs, params, x, mode, rng=None, masks=None):
    """(out, caches) with dropout masks drawn as the library draws them,
    or taken from masks, a list indexed by layer."""
    caches = []
    for i, (spec, p) in enumerate(zip(specs, params)):
        mask = None
        if isinstance(spec, Dropout) and mode == TRAIN and spec.rate > 0.0:
            if masks is not None:
                mask = masks[i]
            else:
                mask = (rng.random(x.shape) >= spec.rate) / (1.0 - spec.rate)
        x, cache = ref_forward(spec, p, x, mode, mask)
        caches.append(cache)
    return x, caches


def tape_form(specs, caches):
    """The reference caches in the form a train-mode tape keeps them: a ReLU, leaky
    ReLU or Dropout layer's as the bool mask cache > 0, batch norm's
    without xhat."""
    def form(spec, cache):
        if cache is None or isinstance(spec, Dense):
            return cache
        if isinstance(spec, BatchNorm):
            return cache[:2]
        if isinstance(spec, Dropout) or spec.kind != "sigmoid":
            return cache > 0
        return cache

    return [form(spec, cache) for spec, cache in zip(specs, caches)]


def ref_stack_backward(specs, params, caches, dout):
    grads = [None] * len(specs)
    for i in range(len(specs) - 1, -1, -1):
        dout, grads[i] = ref_backward(specs[i], params[i], caches[i], dout)
    return dout, grads


# ---------------------------------------------------------------- helpers

EDGES = (800.0, -800.0, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300)


def edge_batch(rng, n, d, dtype=np.float64):
    """Logits of standard deviation 8 with every EDGES value scattered over
    columns 2 on; column 0 is all negative, column 1 all positive."""
    x = rng.standard_normal((n, d)) * 8.0
    x[:, 0] = -np.abs(x[:, 0]) - 1.0
    x[:, 1] = np.abs(x[:, 1]) + 1.0
    body = x[:, 2:].reshape(-1)
    where = rng.choice(body.size, size=max(len(EDGES), body.size // 20), replace=False)
    body[where] = np.resize(EDGES, where.size)
    x[:, 2:] = body.reshape(n, d - 2)
    return x.astype(dtype)


def value_bytes(a):
    """The bytes that hold a's values: x87 extended precision pads each
    10-byte value with bytes of undefined content."""
    if a.dtype == np.longdouble and np.finfo(np.longdouble).nmant == 63:
        return np.ascontiguousarray(a).view(np.uint8).reshape(-1, a.itemsize)[:, :10].tobytes()
    return a.tobytes()


def assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert value_bytes(got) == value_bytes(want), f"{what}: bytes differ"


def assert_trees_same_bytes(got, want, what):
    if isinstance(want, np.ndarray):
        assert_same_bytes(np.asarray(got), want, what)
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), what
        for i, (a, b) in enumerate(zip(got, want)):
            assert_trees_same_bytes(a, b, f"{what}[{i}]")
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), what
        for key in want:
            assert_trees_same_bytes(got[key], want[key], f"{what}.{key}")
    else:
        assert got is None and want is None, what


def fresh_params(specs, rng, dtype=np.float64):
    """Initialised tensors, with batch-norm scale, shift and statistics
    moved off their trivial starting values."""
    params, _ = fresh_stack(specs, rng, dtype)
    for spec, p in zip(specs, params):
        if isinstance(spec, BatchNorm):
            p["gamma"] += rng.standard_normal(spec.dim) * 0.3
            p["delta"] += rng.standard_normal(spec.dim) * 0.3
            p["run_mean"] += rng.standard_normal(spec.dim)
            p["run_var"] += rng.random(spec.dim)
    return params


@pytest.fixture
def one_block(monkeypatch):
    """Every Dense weight gradient of check_stack's shapes in one block."""
    monkeypatch.setattr(layers_module, "GRAD_BLOCK", 1 << 30)


def check_stack(specs, params, x, dout, seed, dtype=np.float64):
    """The library's stack against the references: train forward, caches
    with the dropout masks, running statistics, backward, then inference
    forward."""
    ref_params = copy.deepcopy(params)
    out, tape = stack_forward(specs, params, x, TRAIN, rng=np.random.default_rng(seed))
    want, caches = ref_stack(specs, ref_params, x, TRAIN, rng=np.random.default_rng(seed))
    assert_same_bytes(out, want, "train output")
    assert_trees_same_bytes(tape, tape_form(specs, caches), "caches")
    assert_trees_same_bytes(params, ref_params, "running statistics")

    grad = np.zeros(stack_size(specs), dtype)
    grads = stack_views(specs, grad)
    dx = stack_backward(specs, params, tape, dout, collect_grads(grads))
    want_dx, want_grads = ref_stack_backward(specs, ref_params, caches, dout)
    assert_same_bytes(dx, want_dx, "input gradient")
    assert_trees_same_bytes(grads, want_grads, "parameter gradients")

    out, _ = stack_forward(specs, params, x, INFERENCE)
    want, _ = ref_stack(specs, ref_params, x, INFERENCE)
    assert_same_bytes(out, want, "inference output")


# (batch, loci, hidden, latent) of the benchmark's three workloads
SHAPES = {
    "canonical": (32, 1470, (1024, 256), 16),
    "wide": (32, 3890, (1024, 256), 16),
    "tall": (256, 797, (1024, 256), 64),
}

# ---------------------------------------------------------------- kernels


def single_layer(name, d, h):
    """A one-layer stack; a Dense layer maps d columns to h."""
    return {
        "dense": [Dense(d, h)],
        "dense-l1": [Dense(d, h, l1_coefficient=1e-5)],
        "batchnorm": [BatchNorm(d)],
        "relu": [Activation("relu")],
        "leaky": [Activation("leaky_relu", slope=0.3)],
        "sigmoid": [Activation("sigmoid")],
        "dropout": [Dropout(0.2)],
    }[name]


@pytest.mark.parametrize("workload", sorted(SHAPES))
@pytest.mark.parametrize("layer", ["batchnorm", "dense", "dense-l1", "dropout", "leaky",
                                   "relu", "sigmoid"])
def test_each_kernel_matches_its_reference_on_edge_inputs(one_block, workload, layer):
    n, d, (h, _), _ = SHAPES[workload]
    rng = np.random.default_rng(sorted(SHAPES).index(workload))
    specs = single_layer(layer, d, h)
    params = fresh_params(specs, rng)
    x = edge_batch(rng, n, d)
    dout = edge_batch(rng, n, h if layer.startswith("dense") else d) * 1e-3
    check_stack(specs, params, x, dout, seed=5)


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_vae_stacks_match_their_references(one_block, workload):
    n, d, hidden, latent = SHAPES[workload]
    config = VaeConfig(input_dim=d, hidden_dims=hidden, latent_dim=latent,
                       dropout_rate=0.2, l1_coefficient=1e-5)
    stacks = _architecture(config)
    enc, dec = stacks["enc"], stacks["dec"]
    rng = np.random.default_rng(17)
    x = (rng.random((n, d)) < 0.02).astype(np.float64)
    check_stack(enc, fresh_params(enc, rng), x, rng.standard_normal((n, hidden[1])), seed=1)
    z = rng.standard_normal((n, latent))
    check_stack(dec, fresh_params(dec, rng), z, rng.standard_normal((n, d)) * 1e-3, seed=2)


@pytest.mark.parametrize("batch", [32, 256])
@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_blocked_weight_gradient_matches_one_gemm(workload, batch):
    # the split weight gradients of training, in float32: the encoder's
    # first layer (d x 1024, from the 0/1 batch) and the decoder's last
    # (1024 x d, from ReLU outputs), block by block through a step hook;
    # a BLAS build that rounds a row block differently from the whole
    # product fails here, the shape named
    _, d, (h, _), _ = SHAPES[workload]
    rng = np.random.default_rng(batch)
    inputs = {d: (rng.random((batch, d)) < 0.02).astype(np.float32),
              h: np.maximum(rng.standard_normal((batch, h)), 0.0).astype(np.float32)}
    for spec in (Dense(d, h), Dense(h, d)):
        assert block_rows(spec) < spec.in_dim
        x = inputs[spec.in_dim]
        dout = (rng.standard_normal((batch, spec.out_dim)) * 1e-3).astype(np.float32)
        params, _ = fresh_stack([spec], rng, np.float32)
        blocked = np.full((spec.in_dim, spec.out_dim), np.nan, np.float32)
        _, tape = stack_forward([spec], params, x, TRAIN)
        for rows, grad, live in hooked_weight_blocks(spec, params, tape, dout):
            blocked[rows][... if live is None else live] = grad
        # a row left out of a compact block is a zero row of the product
        want = x.T @ dout
        dead = np.isnan(blocked).all(axis=1)
        assert not want[dead].any()
        blocked[dead] = want[dead]
        shape = f"{spec.in_dim} x {spec.out_dim} weights at batch {batch}"
        assert_same_bytes(blocked, want, f"blocked weight gradient of {shape}")


def hooked_weight_blocks(spec, params, tape, dout):
    """(rows, gradient, live mask or None) of each weight block that a
    one-Dense-layer backward pass with no input gradient hands its hook."""
    blocks = []

    def spy(i, key, rows, grad, live):
        if key == "w":
            blocks.append((rows, grad.copy(), None if live is None else live.copy()))

    grads = stack_views([spec], np.zeros(stack_size([spec]), np.float32))
    stack_backward([spec], params, tape, dout, collect_grads(grads, spy), input_grad=False)
    return blocks


# the share of first-layer rows live in a minibatch of the bench cohorts
LIVE_FRACTION = {"canonical": 0.41, "wide": 0.32}


@pytest.mark.parametrize("workload", sorted(LIVE_FRACTION))
def test_live_rows_of_a_block_match_the_whole_product(workload):
    # the first layer's weight gradient at the workload's float32 shape,
    # each row block with a chosen number of live input columns: 1 to 32
    # and the bench cohort's live fraction of a block. A block with at
    # most half its rows live is handed to the hook as the product over
    # those rows alone, which must hold the bytes of those rows of the
    # whole product; a BLAS build that rounds it differently fails here
    batch, d, (h, _), _ = SHAPES[workload]
    spec = Dense(d, h)
    rows = block_rows(spec)
    full = [start for start in range(0, d, rows) if start + rows <= d]
    counts = list(range(1, 33)) + [round(LIVE_FRACTION[workload] * rows)]
    rng = np.random.default_rng(d)
    params, _ = fresh_stack([spec], rng, np.float32)
    for first in range(0, len(counts), len(full)):
        # first row of each block -> its live rows: the counts in full blocks, 0 elsewhere
        chosen = dict.fromkeys(range(0, d, rows), 0)
        x = np.zeros((batch, d), np.float32)
        for start, count in zip(full, counts[first:]):
            cols = start + rng.choice(rows, size=count, replace=False)
            x[:, cols] = rng.random((batch, count)) < 0.1
            x[rng.integers(batch, size=count), cols] = 1.0  # each chosen column live
            chosen[start] = count
        dout = (rng.standard_normal((batch, h)) * 1e-3).astype(np.float32)
        _, tape = stack_forward([spec], params, x, TRAIN)
        want = x.T @ dout
        blocks = hooked_weight_blocks(spec, params, tape, dout)
        assert [span.start for span, _, _ in blocks] == list(chosen)
        for span, grad, live in blocks:
            assert live is not None and np.count_nonzero(live) == chosen[span.start]
            shape = (f"{workload}: {d} x {h} weights at batch {batch}, "
                     f"{chosen[span.start]} live rows of the block at row {span.start}")
            assert_same_bytes(grad, want[span][live], shape)


@pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 15, 16, 17, 31, 64, 67, 797])
def test_sigmoid_matches_its_reference_at_every_vector_length(length):
    # short and odd lengths run the vector loops' scalar tails
    rng = np.random.default_rng(length)
    edges = rng.permutation(np.resize(np.array(EDGES), length))
    for x in (edges, rng.standard_normal(length) * 8.0, np.full(length, -0.0),
              np.full(length, 800.0), np.full(length, -800.0)):
        assert_same_bytes(sigmoid(x), ref_sigmoid(x), f"sigmoid of {x[:4]}")
        assert_same_bytes(sigmoid(x[None, :]), ref_sigmoid(x[None, :]), "sigmoid of one row")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_over_several_blocks_matches_its_reference(dtype):
    # three full ELEMENT_BLOCKs and a ragged one, infinities and NaN
    # included, in C and Fortran order
    rng = np.random.default_rng(5)
    x = (rng.standard_normal((97, 2027)) * 8).astype(dtype)
    assert 3 * layers_module.ELEMENT_BLOCK < x.size < 4 * layers_module.ELEMENT_BLOCK
    x.reshape(-1)[rng.choice(x.size, 60, replace=False)] = np.resize(EDGES + (np.inf, -np.inf), 60)
    x[5, 7] = np.nan
    want = ref_sigmoid(x)
    for order in (x, np.asfortranarray(x)):
        got = sigmoid(order)
        assert np.isnan(got[5, 7])
        got[5, 7] = want[5, 7] = 0.0
        assert_same_bytes(got, want, f"{dtype.__name__} sigmoid over blocks")


@pytest.mark.parametrize("slope", [0.0, -0.0, 1e-300, 0.3, 1.0 - 2**-53, 1.0])
@pytest.mark.parametrize("length", [1, 3, 8, 17, 67, 1024])
def test_leaky_relu_matches_its_reference_at_every_accepted_slope(slope, length):
    rng = np.random.default_rng(length)
    spec = Activation("leaky_relu", slope=slope)
    x = np.concatenate([rng.permutation(np.resize(np.array(EDGES), length)),
                        rng.standard_normal(length)]).reshape(2, length)
    dout = np.concatenate([rng.standard_normal(length), np.resize([0.0, -0.0], length)])
    out, tape = stack_forward([spec], [{}], x, TRAIN)
    want, cache = ref_forward(spec, {}, x, TRAIN, None)
    assert_same_bytes(out, want, "leaky forward")
    dx = stack_backward([spec], [{}], tape, dout.reshape(2, length), None)
    assert_same_bytes(dx, ref_backward(spec, {}, cache, dout.reshape(2, length))[0],
                      "leaky backward")


def test_extended_precision_replay_matches_its_reference():
    # a float64 temporary anywhere on this path would round the result;
    # the replay draws the recorded pass's dropout mask from a rewound rng
    n, d, h = 6, 12, 8
    specs = [Dense(d, h, 1e-4), BatchNorm(h), Activation("leaky_relu", slope=0.3),
             Dropout(0.25), Dense(h, d, 1e-4), BatchNorm(d), Activation("relu"),
             Dense(d, d), Activation("sigmoid")]
    rng = np.random.default_rng(3)
    params = fresh_params(specs, rng, FD_DTYPE)
    x = edge_batch(rng, n, d, FD_DTYPE) * 1e-2
    start = rng.bit_generator.state
    _, tape = stack_forward(specs, copy.deepcopy(params), x.astype(np.float64), TRAIN, rng=rng)
    rng.bit_generator.state = start
    out, _ = stack_forward(specs, copy.deepcopy(params), x, TRAIN, rng=rng)
    # the float64 mask of the recorded pass, from its bool keep mask
    masks = [c / (1.0 - s.rate) if isinstance(s, Dropout) else c for s, c in zip(specs, tape)]
    want, _ = ref_stack(specs, copy.deepcopy(params), x, TRAIN, masks=masks)
    assert out.dtype == FD_DTYPE
    assert_same_bytes(out, want, "extended-precision output")
    assert_same_bytes(sigmoid(x), ref_sigmoid(x), "extended-precision sigmoid")


# ---------------------------------------------------------------- aliasing


def vae_like_stack(rng):
    config = VaeConfig(input_dim=40, hidden_dims=(24, 12), latent_dim=4,
                       dropout_rate=0.3, l1_coefficient=1e-3)
    stacks = _architecture(config)
    enc, dec = stacks["enc"], stacks["dec"]
    specs = enc + [Dense(12, 4)] + dec
    return specs, fresh_params(specs, rng)


@pytest.mark.parametrize("mode", [TRAIN, INFERENCE])
def test_stack_forward_leaves_its_input_unchanged(mode):
    rng = np.random.default_rng(4)
    specs, params = vae_like_stack(rng)
    x = edge_batch(rng, 16, 40) * 1e-2
    before = x.tobytes()
    stack_forward(specs, params, x, mode, rng=rng)
    assert x.tobytes() == before


@pytest.mark.parametrize("mode", [TRAIN, INFERENCE])
def test_a_second_forward_call_leaves_the_first_calls_results_unchanged(mode):
    rng = np.random.default_rng(6)
    specs, params = vae_like_stack(rng)
    for stack in (specs, specs[:8]):  # the whole stack; the encoder and its mu head
        out, tape = stack_forward(stack, params, edge_batch(rng, 16, 40) * 1e-2, mode, rng=rng)
        snapshot = copy.deepcopy((out, tape))
        stack_forward(stack, params, edge_batch(rng, 16, 40) * 1e-2, mode, rng=rng)
        assert_trees_same_bytes((out, tape), snapshot, "first call's results")


def test_stack_backward_twice_on_one_tape_writes_the_same_bytes():
    rng = np.random.default_rng(5)
    specs, params = vae_like_stack(rng)
    x = edge_batch(rng, 16, 40) * 1e-2
    _, tape = stack_forward(specs, params, x, TRAIN, rng=rng)
    dout = rng.standard_normal((16, 40))
    snapshot = copy.deepcopy((tape, dout))
    results = []
    for _ in range(2):
        grad = np.zeros(stack_size(specs))
        dx = stack_backward(specs, params, tape, dout, collect_grads(stack_views(specs, grad)))
        results.append((grad.tobytes(), dx.tobytes()))
    assert results[0] == results[1]
    assert_trees_same_bytes((tape, dout), snapshot, "tape and upstream gradient")


def test_decode_batch_clips_like_its_reference():
    config = VaeConfig(input_dim=30, hidden_dims=(16, 8), latent_dim=3)
    model = build_vae(config, np.random.default_rng(6))
    z = np.random.default_rng(7).standard_normal((50, 3)) * 40.0  # saturates the sigmoid
    real = model.theta.dtype.type
    assert real is np.float32
    dec = model.stacks["dec"]
    probs, _ = stack_forward(model.specs[dec], model.params[dec], z.astype(real), INFERENCE)
    want = np.clip(probs, np.nextafter(real(0), real(1)), np.nextafter(real(1), real(0)))
    assert_same_bytes(decode_batch(model, z), want, "clipped probabilities")
