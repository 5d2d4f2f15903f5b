"""Finite-difference machinery: numeric grads, comparison, fault detection."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from fdcheck import (
    GradReport,
    collect_grads,
    compare_grads,
    finite_difference_grads,
    fresh_stack,
    grad_check,
)

from somatic_vae.layers import (
    Activation,
    BatchNorm,
    Dense,
    Dropout,
    stack_backward,
    stack_forward,
    stack_size,
    stack_views,
)


def test_finite_difference_on_quadratic_matches_closed_form():
    # f(t) = sum(t[:4]^2) + 3 t[4] -> df/dt = (2t[:4], 3)
    theta = np.array([1.0, -2.0, 0.5, 4.0, 7.0])

    def objective():
        return (theta[:4] ** 2).sum() + 3.0 * theta[4]

    numeric = finite_difference_grads(objective, theta, fd_step=1e-5)
    assert numeric.dtype == np.float64
    assert np.allclose(numeric[:4], 2.0 * theta[:4], atol=1e-9)
    assert np.isclose(numeric[4], 3.0, atol=1e-9)
    # perturbations must be restored
    assert np.array_equal(theta, [1.0, -2.0, 0.5, 4.0, 7.0])


def test_compare_grads_names_batchnorm_scale_and_shift_only():
    specs = [Dense(1, 2), BatchNorm(2), Activation("relu")]
    grad = np.arange(stack_size(specs), dtype=np.float64)
    report = compare_grads(specs, grad, grad, 1e-5)
    assert list(report.per_param) == ["layer0.w", "layer0.b", "layer1.gamma", "layer1.delta"]


def test_compare_grads_pass_iff_within_tolerance():
    specs = [Dense(1, 2)]  # w (1, 2) then b (2,)
    a = np.array([1.0, 2.0, 0.0, 0.0])
    good = np.array([1.0 + 5e-6, 2.0, 0.0, 0.0])
    bad = np.array([1.01, 2.0, 0.0, 0.0])
    assert compare_grads(specs, a, good, 1e-5).passed
    report = compare_grads(specs, a, bad, 1e-5)
    assert not report.passed
    assert report.worst_param == "layer0.w[0]"
    assert np.isclose(report.max_rel_error, 0.01 / 1.01, rtol=1e-6)


def test_compare_grads_uses_comparison_floor_for_tiny_values():
    # both sides far below the 1e-8 floor -> relative error measured
    # against the floor, not against the tiny magnitudes
    specs = [Dense(1, 1)]
    report = compare_grads(specs, np.array([1e-12, 0.0]), np.array([3e-12, 0.0]), 1e-3)
    assert report.max_rel_error == pytest.approx(2e-12 / 1e-8)
    assert report.passed


def test_compare_grads_rejects_shape_mismatch():
    specs = [Dense(1, 1)]
    with pytest.raises(ValueError, match="of 2 and 3 entries, the specs have 2 parameters"):
        compare_grads(specs, np.ones(2), np.ones(3), 1e-5)
    with pytest.raises(ValueError, match="of 3 and 3 entries, the specs have 2 parameters"):
        compare_grads(specs, np.ones(3), np.ones(3), 1e-5)


def test_grad_report_verdict_and_str():
    report = GradReport(1e-5, 2e-6, "layer0.w[3]", {"layer0.w": 2e-6})
    assert report.passed
    assert "pass" in str(report)
    report = GradReport(1e-5, 2e-4, "layer0.w[3]", {"layer0.w": 2e-4})
    assert not report.passed
    assert "FAIL" in str(report)


def test_grad_check_leaves_the_callers_params_untouched():
    rng = np.random.default_rng(1)
    specs = [Dense(3, 2), BatchNorm(2), Activation("leaky_relu", slope=0.3)]
    params, _ = fresh_stack(specs, rng)
    before = [{k: v.copy() for k, v in p.items()} for p in params]
    report = grad_check(specs, params, rng.random((4, 3)), rng.random((4, 2)))
    assert report.passed, str(report)
    for p, b in zip(params, before):
        assert p.keys() == b.keys()
        assert all(np.array_equal(p[k], b[k]) for k in p)  # running statistics too


def test_grad_check_all_zero_case():
    # relu before the layer: after it, zero pre-activations would sit on its kink
    specs = [Activation("relu"), Dense(3, 2)]
    params = [{}, {"w": np.zeros((3, 2)), "b": np.zeros(2)}]
    report = grad_check(specs, params, np.zeros((2, 3)), np.ones((2, 2)))
    assert report.passed
    assert report.max_rel_error == 0.0
    with pytest.raises(ValueError, match="weights have shape"):
        grad_check(specs, params, np.zeros((2, 3)), np.ones((3, 2)))


def test_grad_check_refuses_a_replay_that_diverges():
    # the dropout mask comes from a fresh generator at each pass, which
    # rewinding cannot reach: the replay draws another mask
    rng = np.random.default_rng(12)
    specs = [Dense(4, 6), Dropout(0.5), Dense(6, 2)]
    params, _ = fresh_stack(specs, rng)
    seeds = itertools.count()
    fresh = SimpleNamespace(bit_generator=SimpleNamespace(state=None),
                            random=lambda shape: np.random.default_rng(next(seeds)).random(shape))
    with pytest.raises(RuntimeError, match="replay diverged"):
        grad_check(specs, params, rng.random((5, 4)), rng.standard_normal((5, 2)), rng=fresh)


def test_grad_check_detects_injected_fault():
    # scale one analytic gradient by 1.01 and require the check to name it;
    # each evaluation rewinds the rng to replay the recorded dropout mask
    rng = np.random.default_rng(0)
    specs = [Dense(4, 3), Activation("leaky_relu", slope=0.3), Dropout(0.25), Dense(3, 2)]
    params, theta = fresh_stack(specs, rng)
    x = rng.random((5, 4))
    weights = rng.standard_normal((5, 2))

    start = rng.bit_generator.state
    _, tape = stack_forward(specs, params, x, "train", rng=rng)
    assert not tape[2].all()  # the mask drops some units
    grad = np.zeros_like(theta)
    grads = stack_views(specs, grad)
    stack_backward(specs, params, tape, weights, collect_grads(grads))
    grads[0]["w"] *= 1.01

    def objective():
        rng.bit_generator.state = start
        out, _ = stack_forward(specs, params, x, "train", rng=rng)
        return (out * weights).sum()

    report = compare_grads(specs, grad, finite_difference_grads(objective, theta), 1e-5)
    assert not report.passed
    assert report.worst_param.startswith("layer0.w")
    assert report.max_rel_error > 5e-3
