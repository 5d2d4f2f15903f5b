"""RMSprop accumulator and the blocked in-place update of a flat vector."""

import math

import numpy as np
import pytest

from somatic_vae.layers import BUFFER_KEYS
from somatic_vae.optim import BLOCK, init_rmsprop, rmsprop_update
from somatic_vae.seeding import sub_rng
from somatic_vae.vae import VaeConfig, build_vae


def test_zero_gradient_leaves_params_and_decays_accumulator():
    theta = np.array([1.0, 2.0])
    state = init_rmsprop(theta)
    state.accumulator[:] = 0.5
    rmsprop_update(theta, np.zeros(2), state, lr=0.1, rho=0.9, eps=1e-8)
    assert np.array_equal(theta, [1.0, 2.0])
    assert np.allclose(state.accumulator, [0.45, 0.45])


def test_first_step_from_fresh_state_matches_closed_form():
    # s = 0.1 * 1^2 = 0.1, step = 0.1 * 1 / sqrt(0.1) = sqrt(0.1)
    theta = np.array([0.0])
    state = init_rmsprop(theta)
    rmsprop_update(theta, np.array([1.0]), state, lr=0.1, rho=0.9, eps=0.0)
    assert np.allclose(state.accumulator, [0.1])
    assert np.allclose(theta, [-np.sqrt(0.1)], rtol=1e-14)


def test_two_steps_match_hand_unrolled_recurrence():
    lr, rho, eps = 0.05, 0.9, 1e-8
    g = np.array([2.0, -1.0])
    theta = np.array([1.0, 1.0])
    state = init_rmsprop(theta)
    rmsprop_update(theta, g.copy(), state, lr=lr, rho=rho, eps=eps)
    rmsprop_update(theta, g.copy(), state, lr=lr, rho=rho, eps=eps)

    s1 = (1 - rho) * g**2
    w1 = np.array([1.0, 1.0]) - lr * g / (np.sqrt(s1) + eps)
    s2 = rho * s1 + (1 - rho) * g**2
    w2 = w1 - lr * g / (np.sqrt(s2) + eps)
    assert np.allclose(state.accumulator, s2, rtol=1e-14)
    assert np.allclose(theta, w2, rtol=1e-14)
    assert state.step == 2


def test_update_is_in_place_on_the_given_arrays():
    theta = np.array([1.0, 1.0])
    view = theta[:1]
    state = init_rmsprop(theta)
    rmsprop_update(theta, np.array([1.0, 1.0]), state, lr=0.1)
    assert view[0] != 1.0  # the original array moved


def test_buffer_entries_without_grads_stay_untouched():
    config = VaeConfig(input_dim=9, hidden_dims=(6, 4), latent_dim=2, epochs=1)
    model = build_vae(config, sub_rng(0, "init"))
    stats_before = model.stats.copy()
    assert stats_before.size and not np.shares_memory(model.stats, model.theta)
    theta_before = model.theta.copy()
    state = init_rmsprop(model.theta)
    grad = np.random.default_rng(0).standard_normal(model.theta.size)
    rmsprop_update(model.theta, grad, state, lr=0.1)
    assert (model.theta != theta_before).all()
    assert np.array_equal(model.stats, stats_before)
    buffers = [p[key] for p in model.flat_params() for key in BUFFER_KEYS if key in p]
    assert np.array_equal(np.concatenate([b.ravel() for b in buffers]), stats_before)


def test_shape_mismatch_rejected():
    theta = np.zeros(2)
    state = init_rmsprop(theta)
    with pytest.raises(ValueError, match="shape"):
        rmsprop_update(theta, np.zeros(3), state)
    with pytest.raises(ValueError, match="shape"):
        rmsprop_update(np.zeros(3), np.zeros(3), state)


def test_accumulators_stay_nonnegative():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(8)
    state = init_rmsprop(theta)
    for _ in range(20):
        rmsprop_update(theta, rng.standard_normal(8), state, lr=1e-3)
        assert (state.accumulator >= 0.0).all()


def test_blocked_update_equals_the_per_element_formula():
    # three full blocks and a ragged tail; two steps so the accumulator
    # enters the second one nonzero
    n = 3 * BLOCK + 123
    lr, rho, eps = 1e-3, 0.9, 1e-8
    rng = np.random.default_rng(5)
    theta = rng.standard_normal(n)
    grads = [rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, n) for _ in range(2)]
    expected_theta = theta.tolist()
    expected_acc = [0.0] * n
    state = init_rmsprop(theta)
    for g in grads:
        rmsprop_update(theta, g, state, lr=lr, rho=rho, eps=eps)
        for i, gi in enumerate(g.tolist()):
            acc = expected_acc[i] * rho + (1.0 - rho) * (gi * gi)
            expected_acc[i] = acc
            expected_theta[i] = expected_theta[i] - (lr * gi) / (math.sqrt(acc) + eps)
    assert np.array_equal(state.accumulator, expected_acc)
    assert np.array_equal(theta, expected_theta)
