"""Dense/batch-norm/activation/dropout forward and backward passes."""

import numpy as np
import pytest

from somatic_vae.layers import (
    INFERENCE,
    TRAIN,
    Activation,
    BatchNorm,
    Dense,
    Dropout,
    init_layer_params,
    layer_shapes,
    sigmoid,
    stack_backward,
    stack_forward,
    stack_l1_penalty,
    stack_size,
    stack_views,
)
from somatic_vae.gradcheck import grad_check, make_weighted_sum


def new_stack(specs, rng):
    """Freshly initialised layer tensors and zeroed gradient buffers."""
    grads, _ = stack_views(specs, np.zeros(stack_size(specs)))
    return [init_layer_params(spec, rng) for spec in specs], grads


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
    p = init_layer_params(spec, np.random.default_rng(0))
    limit = np.sqrt(6.0 / (40 + 30))
    assert p["w"].shape == (40, 30)
    assert np.abs(p["w"]).max() <= limit
    # draws should actually spread over the interval
    assert np.abs(p["w"]).max() > 0.5 * limit
    assert np.array_equal(p["b"], np.zeros(30))


def test_batchnorm_init_unit_scale_zero_shift():
    p = init_layer_params(BatchNorm(5), np.random.default_rng(0))
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
    for spec in specs:
        fresh = init_layer_params(spec, rng)
        assert {k: v.shape for k, v in fresh.items()} == layer_shapes(spec)
    vec = np.arange(float(stack_size(specs)))
    views, end = stack_views(specs, vec, 0)
    assert end == vec.size == 4 * 3 + 3 + 2 * 3 + 3 * 2 + 2
    assert [list(v) for v in views] == [["w", "b"], ["gamma", "delta"], [], [], ["w", "b"]]
    # consecutive, in layer and draw order, and sharing memory with vec
    flat = np.concatenate([a.ravel() for v in views for a in v.values()])
    assert np.array_equal(flat, vec)
    assert all(np.shares_memory(a, vec) for v in views for a in v.values())
    _, offset_end = stack_views(specs, np.zeros(end + 5), 5)
    assert offset_end == end + 5
    # the running statistics tile a second vector the same way
    stats = np.arange(float(stack_size(specs, buffers=True)))
    buffers, end = stack_views(specs, stats, 0, buffers=True)
    assert end == stats.size == 2 * 3
    assert [list(v) for v in buffers] == [[], ["run_mean", "run_var"], [], [], []]
    assert np.array_equal(np.concatenate([a for v in buffers for a in v.values()]), stats)
    assert all(np.shares_memory(a, stats) for v in buffers for a in v.values())


# ---------------------------------------------------------------- forward


def test_leaky_relu_applies_slope_on_negatives():
    specs = [Activation("leaky_relu", slope=0.3)]
    out, _ = stack_forward(specs, [{}], np.array([[-2.0, 3.0]]), INFERENCE)
    assert np.allclose(out, [[-0.6, 3.0]])


def test_relu_and_identity_activations():
    out, _ = stack_forward([Activation("relu")], [{}], np.array([[-1.0, 2.0]]), INFERENCE)
    assert out.tolist() == [[0.0, 2.0]]
    out, _ = stack_forward([Activation("identity")], [{}], np.array([[-1.0, 2.0]]), INFERENCE)
    assert out.tolist() == [[-1.0, 2.0]]


def test_dropout_rate_zero_is_identity_in_train_mode():
    x = np.random.default_rng(3).random((4, 5))
    out, tape = stack_forward([Dropout(0.0)], [{}], x, TRAIN)
    assert np.array_equal(out, x)
    assert tape.masks == [None]


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
    assert tape.masks[0] is not None


def test_dropout_train_mode_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        stack_forward([Dropout(0.5)], [{}], np.ones((2, 2)), TRAIN)


def test_batchnorm_train_moments_match_gamma_delta():
    # output mean = delta, output variance = gamma^2 * v/(v+eps)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((64, 3)) * np.array([1.0, 2.0, 0.5]) + 1.0
    spec = BatchNorm(3, epsilon=1e-5)
    p = init_layer_params(spec, rng)
    p["gamma"] = np.array([1.0, 2.0, 3.0])
    p["delta"] = np.array([0.0, -1.0, 0.5])
    out, _ = stack_forward([spec], [p], x, TRAIN)
    v = x.var(axis=0)
    assert np.allclose(out.mean(axis=0), p["delta"], atol=1e-12)
    assert np.allclose(out.var(axis=0), p["gamma"] ** 2 * v / (v + spec.epsilon), rtol=1e-10)


def test_batchnorm_updates_running_stats_with_momentum():
    x = np.array([[0.0], [2.0]])
    spec = BatchNorm(1, momentum=0.9)
    p = init_layer_params(spec, np.random.default_rng(0))
    stack_forward([spec], [p], x, TRAIN)
    # batch mean 1, biased batch variance 1
    assert np.allclose(p["run_mean"], [0.9 * 0.0 + 0.1 * 1.0])
    assert np.allclose(p["run_var"], [0.9 * 1.0 + 0.1 * 1.0])


def test_batchnorm_update_running_flag_freezes_buffers():
    x = np.array([[0.0], [2.0]])
    spec = BatchNorm(1)
    p = init_layer_params(spec, np.random.default_rng(0))
    stack_forward([spec], [p], x, TRAIN, update_running=False)
    assert np.array_equal(p["run_mean"], [0.0])
    assert np.array_equal(p["run_var"], [1.0])


def test_batchnorm_inference_is_affine_in_running_stats():
    spec = BatchNorm(2, epsilon=1e-5)
    p = init_layer_params(spec, np.random.default_rng(0))
    p["run_mean"] = np.array([1.0, -1.0])
    p["run_var"] = np.array([4.0, 0.25])
    p["gamma"] = np.array([2.0, 1.0])
    p["delta"] = np.array([0.5, 0.0])
    x = np.array([[3.0, 0.0], [1.0, -1.0]])
    out, _ = stack_forward([spec], [p], x, INFERENCE)
    expected = p["gamma"] * (x - p["run_mean"]) / np.sqrt(p["run_var"] + spec.epsilon) + p["delta"]
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
    rng = np.random.default_rng(8)
    specs = [Dense(4, 3), BatchNorm(3), Activation("relu")]
    params, grads = new_stack(specs, rng)
    for g in grads:
        for arr in g.values():
            arr[...] = 7.0  # stale values must be overwritten, not added to
    x = rng.random((5, 4))
    _, tape = stack_forward(specs, params, x, TRAIN)
    dx = stack_backward(specs, params, tape, np.zeros((5, 3)), grads)
    assert np.array_equal(dx, np.zeros((5, 4)))
    assert np.array_equal(grads[0]["w"], np.zeros((4, 3)))
    assert np.array_equal(grads[0]["b"], np.zeros(3))
    assert np.array_equal(grads[1]["gamma"], np.zeros(3))
    assert np.array_equal(grads[1]["delta"], np.zeros(3))


def test_backward_single_dense_matches_hand_formulas():
    # d/dW (dout . (XW + b)) = X^T dout, d/db = column sums, dx = dout W^T
    rng = np.random.default_rng(9)
    specs = [Dense(4, 3, l1_coefficient=0.0)]
    params, grads = new_stack(specs, rng)
    x = rng.standard_normal((6, 4))
    dout = rng.standard_normal((6, 3))
    _, tape = stack_forward(specs, params, x, TRAIN)
    dx = stack_backward(specs, params, tape, dout, grads)
    assert np.allclose(grads[0]["w"], x.T @ dout, rtol=1e-14)
    assert np.allclose(grads[0]["b"], dout.sum(axis=0), rtol=1e-14)
    assert np.allclose(dx, dout @ params[0]["w"].T, rtol=1e-14)


def test_backward_includes_l1_subgradient_with_sign_zero_zero():
    specs = [Dense(2, 2, l1_coefficient=0.1)]
    params = [{"w": np.array([[1.0, -2.0], [0.0, 3.0]]), "b": np.zeros(2)}]
    x = np.zeros((1, 2))
    _, grads = new_stack(specs, np.random.default_rng(0))
    _, tape = stack_forward(specs, params, x, TRAIN)
    stack_backward(specs, params, tape, np.zeros((1, 2)), grads)
    # data gradient is zero, so only the subgradient remains; sign(0) = 0
    assert np.allclose(grads[0]["w"], 0.1 * np.array([[1.0, -1.0], [0.0, 1.0]]))


def test_backward_requires_train_tape():
    specs = [Dense(2, 2)]
    params, grads = new_stack(specs, np.random.default_rng(0))
    _, tape = stack_forward(specs, params, np.ones((2, 2)), INFERENCE)
    with pytest.raises(ValueError, match="train"):
        stack_backward(specs, params, tape, np.ones((2, 2)), grads)


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
    reduction = make_weighted_sum(rng.standard_normal((6, 3)))
    report = grad_check(specs, params, x, reduction, tolerance=1e-5)
    assert report.passed, str(report)


def test_dropout_stack_passes_grad_check_with_frozen_masks():
    rng = np.random.default_rng(11)
    specs = [Dense(5, 6), Activation("relu"), Dropout(0.25), Dense(6, 2)]
    params, _ = new_stack(specs, rng)
    x = rng.random((4, 5))
    reduction = make_weighted_sum(rng.standard_normal((4, 2)))
    report = grad_check(specs, params, x, reduction, tolerance=1e-5, rng=rng)
    assert report.passed, str(report)
