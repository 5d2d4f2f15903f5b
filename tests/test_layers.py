"""Dense/batch-norm/activation/dropout forward and backward passes."""

import numpy as np
import pytest
from fdcheck import collect_grads, fresh_stack, grad_check

import somatic_vae.layers as layers_module
from somatic_vae.layers import (
    BN_EPSILON,
    INFERENCE,
    TRAIN,
    Activation,
    BatchNorm,
    Dense,
    Dropout,
    block_rows,
    layer_shapes,
    sigmoid,
    stack_backward,
    stack_forward,
    stack_l1_penalty,
    stack_size,
    stack_views,
)


def new_stack(specs, rng):
    """Freshly initialised layer tensors, and zeroed gradient views of one
    flat vector for collect_grads."""
    grads = stack_views(specs, np.zeros(stack_size(specs)))
    return fresh_stack(specs, rng)[0], grads


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def dense_product(a, b):
    """a @ b through a bias-free Dense layer, the library's matrix product."""
    params = [{"w": b, "b": np.zeros(b.shape[1])}]
    out, _ = stack_forward([Dense(*b.shape)], params, a, INFERENCE)
    return out


# ---------------------------------------------------------------- dense product


def test_matmul_small_example():
    # oracle: naive triple loop
    out = dense_product(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
    assert out.tolist() == [[17.0], [39.0]]


def test_matmul_identity_and_annihilator():
    a = np.random.default_rng(0).random((2, 2))
    assert np.array_equal(dense_product(np.eye(2), a), a)
    assert np.array_equal(dense_product(a, np.zeros((2, 3))), np.zeros((2, 3)))


def test_matmul_matches_triple_loop_on_random_inputs():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3))
        assert np.allclose(dense_product(a, b), triple_loop_matmul(a, b), rtol=1e-12)


def test_matmul_associative_on_well_conditioned_triples():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.uniform(-1, 1, (32, 16))
        b = rng.uniform(-1, 1, (16, 24))
        c = rng.uniform(-1, 1, (24, 8))
        left = dense_product(dense_product(a, b), c)
        right = dense_product(a, dense_product(b, c))
        rel = np.abs(left - right) / np.maximum(np.abs(left), 1e-12)
        assert rel.max() < 1e-10


def test_matmul_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="expects 3 columns, got 2"):
        dense_product(np.ones((2, 2)), np.ones((3, 2)))


# ---------------------------------------------------------------- sigmoid


def test_sigmoid_is_stable_at_extreme_inputs():
    out = sigmoid(np.array([[-1000.0, 1000.0]]))
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0
    assert np.isfinite(out).all()


# ---------------------------------------------------------------- init


def test_dense_init_glorot_bounds_and_zero_bias():
    spec = Dense(40, 30)
    (p,), _ = fresh_stack([spec], np.random.default_rng(0))
    limit = np.sqrt(6.0 / (40 + 30))
    assert p["w"].shape == (40, 30)
    assert np.abs(p["w"]).max() <= limit
    # draws should actually spread over the interval
    assert np.abs(p["w"]).max() > 0.5 * limit
    assert np.array_equal(p["b"], np.zeros(30))


def test_batchnorm_init_unit_scale_zero_shift():
    (p,), _ = fresh_stack([BatchNorm(5)], np.random.default_rng(0))
    assert np.array_equal(p["gamma"], np.ones(5))
    assert np.array_equal(p["delta"], np.zeros(5))
    assert np.array_equal(p["run_mean"], np.zeros(5))
    assert np.array_equal(p["run_var"], np.ones(5))


def test_check_stack_dims_flags_incompatible_layers():
    specs = [Dense(4, 8), Dense(7, 2)]
    params, _ = new_stack(specs, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"layer 1 \(Dense\) expects 7 columns, got 8"):
        stack_forward(specs, params, np.ones((2, 4)), INFERENCE)


def test_layer_shapes_match_init_and_views_tile_the_vector():
    rng = np.random.default_rng(0)
    specs = [Dense(4, 3), BatchNorm(3), Activation("relu"), Dropout(0.5), Dense(3, 2)]
    for spec, fresh in zip(specs, fresh_stack(specs, rng)[0]):
        assert {k: v.shape for k, v in fresh.items()} == layer_shapes(spec)
    vec = np.arange(float(stack_size(specs)))
    views = stack_views(specs, vec)
    assert vec.size == 4 * 3 + 3 + 2 * 3 + 3 * 2 + 2
    assert [list(v) for v in views] == [["w", "b"], ["gamma", "delta"], [], [], ["w", "b"]]
    # consecutive, in layer and draw order, and sharing memory with vec
    flat = np.concatenate([a.ravel() for v in views for a in v.values()])
    assert np.array_equal(flat, vec)
    assert all(np.shares_memory(a, vec) for v in views for a in v.values())
    # the running statistics tile a second vector the same way
    stats = np.arange(float(stack_size(specs, buffers=True)))
    buffers = stack_views(specs, stats, buffers=True)
    assert stats.size == 2 * 3
    assert [list(v) for v in buffers] == [[], ["run_mean", "run_var"], [], [], []]
    assert np.array_equal(np.concatenate([a for v in buffers for a in v.values()]), stats)
    assert all(np.shares_memory(a, stats) for v in buffers for a in v.values())


# ---------------------------------------------------------------- forward


def test_leaky_relu_applies_slope_on_negatives():
    specs = [Activation("leaky_relu", slope=0.3)]
    out, _ = stack_forward(specs, [{}], np.array([[-2.0, 3.0]]), INFERENCE)
    assert np.allclose(out, [[-0.6, 3.0]])


def test_relu_activation_forward_and_backward():
    out, _ = stack_forward([Activation("relu")], [{}], np.array([[-1.0, 2.0]]), INFERENCE)
    assert out.tolist() == [[0.0, 2.0]]
    # the gradient is zero at the kink
    out, tape = stack_forward([Activation("relu")], [{}], np.array([[-1.0, 0.0, 2.0]]), TRAIN)
    assert out.tolist() == [[0.0, 0.0, 2.0]]
    dx = stack_backward([Activation("relu")], [{}], tape, np.full((1, 3), 3.0), None)
    assert dx.tolist() == [[0.0, 0.0, 3.0]]


@pytest.mark.parametrize("slope", [float("nan"), -0.1, 1.5, 2])
def test_leaky_relu_slope_outside_zero_one_rejected(slope):
    with pytest.raises(ValueError, match=r"^leaky_relu slope must be in \[0, 1\]"):
        Activation("leaky_relu", slope=slope)


def test_identity_activation_is_gone():
    with pytest.raises(ValueError, match="unknown activation kind 'identity'"):
        stack_forward([Activation("identity")], [{}], np.ones((1, 2)), INFERENCE)


def test_dropout_rate_zero_is_identity_in_train_mode():
    x = np.random.default_rng(3).random((4, 5))
    out, tape = stack_forward([Dropout(0.0)], [{}], x, TRAIN)
    assert np.array_equal(out, x)
    assert tape == [None]


def test_dropout_inference_is_identity_at_any_rate():
    x = np.random.default_rng(4).random((4, 5))
    out, _ = stack_forward([Dropout(0.7)], [{}], x, INFERENCE)
    assert np.array_equal(out, x)


def test_dropout_train_mode_scales_survivors():
    x = np.ones((200, 50))
    rng = np.random.default_rng(5)
    out, tape = stack_forward([Dropout(0.4)], [{}], x, TRAIN, rng=rng)
    values = np.unique(out)
    assert set(values.tolist()) <= {0.0, 1.0 / 0.6}
    # survivor fraction concentrates near 1 - rate
    assert abs((out > 0).mean() - 0.6) < 0.05
    # x is ones: the bool keep mask, scaled, is the output
    assert tape[0].dtype == np.bool_
    assert (tape[0] / 0.6).tobytes() == out.tobytes()


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan")])
def test_dropout_rate_outside_zero_to_one_is_refused(rate):
    with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
        Dropout(rate)


def test_dropout_train_mode_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        stack_forward([Dropout(0.5)], [{}], np.ones((2, 2)), TRAIN)


def test_batchnorm_train_moments_match_gamma_delta():
    # output mean = delta, output variance = gamma^2 * v/(v+eps)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((64, 3)) * np.array([1.0, 2.0, 0.5]) + 1.0
    spec = BatchNorm(3)
    (p,), _ = fresh_stack([spec], rng)
    p["gamma"] = np.array([1.0, 2.0, 3.0])
    p["delta"] = np.array([0.0, -1.0, 0.5])
    out, _ = stack_forward([spec], [p], x, TRAIN)
    v = x.var(axis=0)
    assert np.allclose(out.mean(axis=0), p["delta"], atol=1e-12)
    assert np.allclose(out.var(axis=0), p["gamma"] ** 2 * v / (v + BN_EPSILON), rtol=1e-10)


def test_batchnorm_updates_running_stats_with_momentum():
    x = np.array([[0.0], [2.0]])
    spec = BatchNorm(1)
    (p,), _ = fresh_stack([spec], np.random.default_rng(0))
    stack_forward([spec], [p], x, TRAIN)
    # batch mean 1, biased batch variance 1
    assert np.allclose(p["run_mean"], [0.9 * 0.0 + 0.1 * 1.0])
    assert np.allclose(p["run_var"], [0.9 * 1.0 + 0.1 * 1.0])


def test_batchnorm_inference_is_affine_in_running_stats():
    spec = BatchNorm(2)
    (p,), _ = fresh_stack([spec], np.random.default_rng(0))
    p["run_mean"] = np.array([1.0, -1.0])
    p["run_var"] = np.array([4.0, 0.25])
    p["gamma"] = np.array([2.0, 1.0])
    p["delta"] = np.array([0.5, 0.0])
    x = np.array([[3.0, 0.0], [1.0, -1.0]])
    out, _ = stack_forward([spec], [p], x, INFERENCE)
    expected = p["gamma"] * (x - p["run_mean"]) / np.sqrt(p["run_var"] + BN_EPSILON) + p["delta"]
    assert np.allclose(out, expected, rtol=1e-14)


def test_non_finite_intermediate_names_the_layer():
    specs = [Dense(2, 2), Activation("relu")]
    params, _ = new_stack(specs, np.random.default_rng(0))
    params[0]["w"][0, 0] = np.inf
    with pytest.raises(FloatingPointError, match=r"layer 0 \(Dense\)"):
        stack_forward(specs, params, np.ones((3, 2)), INFERENCE)


def test_stack_forward_rejects_unknown_mode_and_bad_width():
    specs = [Dense(3, 2)]
    params, _ = new_stack(specs, np.random.default_rng(0))
    with pytest.raises(ValueError, match="mode"):
        stack_forward(specs, params, np.ones((2, 3)), "test")
    with pytest.raises(ValueError, match="expects 3"):
        stack_forward(specs, params, np.ones((2, 4)), INFERENCE)


def test_inference_forward_is_bit_deterministic():
    rng = np.random.default_rng(7)
    specs = [Dense(6, 5), BatchNorm(5), Activation("leaky_relu", slope=0.3), Dense(5, 4)]
    params, _ = new_stack(specs, rng)
    x = rng.random((8, 6))
    a, _ = stack_forward(specs, params, x, INFERENCE)
    b, _ = stack_forward(specs, params, x, INFERENCE)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- backward


def test_backward_zero_upstream_gives_zero_grads():
    # the first Dense layer has no L1 term and three dead input columns of
    # four, so without an input gradient its weights come as one live row
    rng = np.random.default_rng(8)
    specs = [Dense(4, 3), BatchNorm(3), Activation("relu")]
    params, grads = new_stack(specs, rng)
    x = rng.random((5, 4))
    x[:, 1:] = 0.0
    _, tape = stack_forward(specs, params, x, TRAIN)
    lives = []
    for input_grad in (True, False):
        for g in grads:
            for arr in g.values():
                arr[...] = 7.0  # stale values must be overwritten, not added to
        hook = collect_grads(grads, lambda i, key, rows, grad, live: lives.append(live))
        dx = stack_backward(specs, params, tape, np.zeros((5, 3)), hook, input_grad)
        if input_grad:
            assert np.array_equal(dx, np.zeros((5, 4)))
        assert np.array_equal(grads[0]["w"], np.zeros((4, 3)))
        assert np.array_equal(grads[0]["b"], np.zeros(3))
        assert np.array_equal(grads[1]["gamma"], np.zeros(3))
        assert np.array_equal(grads[1]["delta"], np.zeros(3))
    assert [live.tolist() for live in lives if live is not None] == [[True, False, False, False]]


def test_backward_single_dense_matches_hand_formulas():
    # d/dW (dout . (XW + b)) = X^T dout, d/db = column sums, dx = dout W^T
    rng = np.random.default_rng(9)
    specs = [Dense(4, 3, l1_coefficient=0.0)]
    params, grads = new_stack(specs, rng)
    x = rng.standard_normal((6, 4))
    dout = rng.standard_normal((6, 3))
    _, tape = stack_forward(specs, params, x, TRAIN)
    dx = stack_backward(specs, params, tape, dout, collect_grads(grads))
    assert np.allclose(grads[0]["w"], x.T @ dout, rtol=1e-14)
    assert np.allclose(grads[0]["b"], dout.sum(axis=0), rtol=1e-14)
    assert np.allclose(dx, dout @ params[0]["w"].T, rtol=1e-14)


def test_backward_includes_l1_subgradient_with_sign_zero_zero():
    specs = [Dense(2, 2, l1_coefficient=0.1)]
    params = [{"w": np.array([[1.0, -2.0], [0.0, 3.0]]), "b": np.zeros(2)}]
    x = np.zeros((1, 2))
    _, grads = new_stack(specs, np.random.default_rng(0))
    _, tape = stack_forward(specs, params, x, TRAIN)
    stack_backward(specs, params, tape, np.zeros((1, 2)), collect_grads(grads))
    # data gradient is zero, so only the subgradient remains; sign(0) = 0
    assert np.allclose(grads[0]["w"], 0.1 * np.array([[1.0, -1.0], [0.0, 1.0]]))


def test_backward_without_input_grad_leaves_every_parameter_gradient_bit_identical():
    rng = np.random.default_rng(10)
    specs = [Dense(6, 5, l1_coefficient=1e-3), BatchNorm(5), Activation("relu"), Dense(5, 3)]
    params, grads = new_stack(specs, rng)
    _, skipped = new_stack(specs, rng)
    x = rng.standard_normal((7, 6))
    dout = rng.standard_normal((7, 3))
    _, tape = stack_forward(specs, params, x, TRAIN)
    assert stack_backward(specs, params, tape, dout, collect_grads(grads)).shape == (7, 6)
    skip = collect_grads(skipped)
    assert stack_backward(specs, params, tape, dout, skip, input_grad=False) is None
    for g, s in zip(grads, skipped):
        assert g.keys() == s.keys()
        assert all(np.array_equal(g[key], s[key]) for key in g)


def steps_of_one_backward_pass(monkeypatch, grad_block, input_grad):
    """(layer, key, rows, live) of each span of one backward pass at
    GRAD_BLOCK = grad_block, after checking each span's gradient and the
    input gradient against a pass at the default GRAD_BLOCK, where each
    weight gradient is one product, that every span holds at most one row
    block of one tensor and shares no memory with the stack's vector, and
    that no stepped parameter is read again. In float32, the dtype of
    training, where a row block of this build's BLAS product gives the
    bytes of the whole product (test_kernels checks that at the
    workloads' shapes). The first Dense layer has no L1 term
    and its input two zero columns, so without an input gradient a block
    with at most half its rows live is handed over compact."""
    rng = np.random.default_rng(12)
    specs = [Dense(6, 5), BatchNorm(5), Activation("relu"), Dense(5, 3, l1_coefficient=1e-3)]
    params, theta = fresh_stack(specs, rng, np.float32)
    x = rng.standard_normal((7, 6)).astype(np.float32)
    x[:, 3:5] = 0.0
    dout = rng.standard_normal((7, 3)).astype(np.float32)
    _, tape = stack_forward(specs, params, x, TRAIN)
    want = stack_views(specs, np.zeros(stack_size(specs), np.float32))
    want_dx = stack_backward(specs, params, tape, dout, collect_grads(want), input_grad)
    monkeypatch.setattr(layers_module, "GRAD_BLOCK", grad_block)
    got = stack_views(specs, np.zeros(stack_size(specs), np.float32))
    stepped = []

    def spy(i, key, rows, grad, live):
        stepped.append((i, key, rows, None if live is None else live.tolist()))
        spec, covered = specs[i], params[i][key][rows]
        most = block_rows(spec) * spec.out_dim if key == "w" else covered.size
        assert grad.size == (covered if live is None else covered[live]).size <= most
        assert not np.shares_memory(grad, theta)
        params[i][key][rows] = np.nan  # no later read may see the stepped tensors

    dx = stack_backward(specs, params, tape, dout, collect_grads(got, spy), input_grad)
    # each span once, layer by layer from the last: a Dense bias, then its
    # weights block by block; batch-norm gamma, then delta
    spans = []
    for i in (3, 1, 0):
        spec = specs[i]
        if isinstance(spec, Dense):
            rows = block_rows(spec)
            spans += [(i, "b", slice(None))] + [(i, "w", slice(lo, min(lo + rows, spec.in_dim)))
                                                for lo in range(0, spec.in_dim, rows)]
        else:
            spans += [(i, "gamma", slice(None)), (i, "delta", slice(None))]
    assert [s[:3] for s in stepped] == spans
    assert np.isnan(theta).all()
    for g, w in zip(got, want):
        assert all(g[key].tobytes() == w[key].tobytes() for key in w)
    assert (dx is None and want_dx is None) or np.array_equal(dx, want_dx)
    return stepped


def test_backward_steps_each_layer_with_parameters_once_its_gradients_are_final(monkeypatch):
    # at 10 entries the first Dense layer's 6 rows take three blocks of 2
    # and the last layer's 5 rows a block of 3 and a short one of 2; at 4
    # each Dense layer is wider than a block, so one row per block. Rows 3
    # and 4 of the first layer are dead: at 10 entries the blocks of rows
    # 2-3 and 4-5 are half live, at 4 the blocks of rows 3 and 4 have no
    # live row, and the one block of all six rows is dense. Only without
    # an input gradient is the first layer handed live rows
    default = layers_module.GRAD_BLOCK
    for grad_block, spans, masks in ((default, 6, []),
                                     (10, 9, [[True, False], [False, True]]),
                                     (4, 15, [[False], [False]])):
        for input_grad in (True, False):
            monkeypatch.setattr(layers_module, "GRAD_BLOCK", default)
            stepped = steps_of_one_backward_pass(monkeypatch, grad_block, input_grad)
            assert len(stepped) == spans
            assert [live for *_, live in stepped if live is not None] == \
                ([] if input_grad else masks)


def test_only_the_data_layer_hands_live_rows_to_the_hook(monkeypatch):
    # a product over a few rows can round differently from those rows of
    # the whole product at a later layer's shapes, so a layer whose input
    # gradient is wanted never takes the live-row path: here the second
    # Dense layer, with no L1 term and three of its four inputs dead
    monkeypatch.setattr(layers_module, "GRAD_BLOCK", 12)
    rng = np.random.default_rng(13)
    specs = [Dense(6, 4), Activation("relu"), Dense(4, 6)]
    params, grads = new_stack(specs, rng)
    params[0]["b"][1:] = -100.0
    x = rng.random((5, 6))
    x[:, 1:] = 0.0
    out, tape = stack_forward(specs, params, x, TRAIN)
    assert not tape[2][:, 1:].any()
    for input_grad, want in ((True, []), (False, [0, 0])):
        lives = []
        hook = collect_grads(grads, lambda i, key, rows, grad, live: lives.append((i, live)))
        stack_backward(specs, params, tape, rng.standard_normal(out.shape), hook, input_grad)
        assert [i for i, live in lives if live is not None] == want


def test_backward_requires_train_tape():
    specs = [Dense(2, 2)]
    params, grads = new_stack(specs, np.random.default_rng(0))
    _, tape = stack_forward(specs, params, np.ones((2, 2)), INFERENCE)
    with pytest.raises(ValueError, match="train"):
        stack_backward(specs, params, tape, np.ones((2, 2)), collect_grads(grads))


def test_stack_l1_penalty_sums_dense_weights():
    specs = [Dense(2, 2, l1_coefficient=0.5), BatchNorm(2), Dense(2, 1, l1_coefficient=0.0)]
    params, _ = new_stack(specs, np.random.default_rng(0))
    params[0]["w"] = np.array([[1.0, -2.0], [3.0, -4.0]])
    expected = 0.5 * 10.0
    assert np.isclose(stack_l1_penalty(specs, params), expected)


def test_two_layer_stack_passes_grad_check():
    rng = np.random.default_rng(10)
    specs = [
        Dense(5, 4, l1_coefficient=1e-3),
        BatchNorm(4),
        Activation("leaky_relu", slope=0.3),
        Dense(4, 3),
        Activation("sigmoid"),
    ]
    params, _ = new_stack(specs, rng)
    x = rng.random((6, 5))
    report = grad_check(specs, params, x, rng.standard_normal((6, 3)), tolerance=1e-5)
    assert report.passed, str(report)


def test_dropout_stack_passes_grad_check_with_frozen_masks():
    rng = np.random.default_rng(11)
    specs = [Dense(5, 6), Activation("relu"), Dropout(0.25), Dense(6, 2)]
    params, _ = new_stack(specs, rng)
    x = rng.random((4, 5))
    report = grad_check(specs, params, x, rng.standard_normal((4, 2)), tolerance=1e-5, rng=rng)
    assert report.passed, str(report)
