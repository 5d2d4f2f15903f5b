"""Finite-difference machinery: numeric grads, comparison, fault detection."""

import numpy as np
import pytest

from somatic_vae.gradcheck import (
    GradReport,
    compare_grads,
    finite_difference_grads,
    grad_check,
    make_weighted_sum,
)
from somatic_vae.layers import (
    Activation,
    Dense,
    init_layer_params,
    stack_backward,
    stack_forward,
    stack_size,
    stack_views,
)


def test_finite_difference_on_quadratic_matches_closed_form():
    # f(w) = sum(w^2) + 3 b -> df/dw = 2w, df/db = 3
    params = [{"w": np.array([[1.0, -2.0], [0.5, 4.0]]), "b": np.array([7.0])}]

    def loss(ps):
        return (ps[0]["w"] ** 2).sum() + 3.0 * ps[0]["b"].sum()

    numeric = finite_difference_grads(loss, params, fd_step=1e-5)
    assert np.allclose(numeric[0]["w"], 2.0 * params[0]["w"], atol=1e-9)
    assert np.allclose(numeric[0]["b"], [3.0], atol=1e-9)
    # perturbations must be restored
    assert params[0]["w"][0, 0] == 1.0


def test_finite_difference_skips_buffer_keys():
    params = [{"w": np.ones((1, 1)), "run_mean": np.zeros(1), "run_var": np.ones(1)}]
    numeric = finite_difference_grads(lambda ps: ps[0]["w"].sum(), params)
    assert set(numeric[0]) == {"w"}


def test_compare_grads_pass_iff_within_tolerance():
    a = [{"w": np.array([1.0, 2.0])}]
    good = [{"w": np.array([1.0 + 5e-6, 2.0])}]
    bad = [{"w": np.array([1.01, 2.0])}]
    assert compare_grads(a, good, 1e-5).passed
    report = compare_grads(a, bad, 1e-5)
    assert not report.passed
    assert report.worst_param.startswith("layer0.w")
    assert np.isclose(report.max_rel_error, 0.01 / 1.01, rtol=1e-6)


def test_compare_grads_uses_comparison_floor_for_tiny_values():
    # both sides far below the 1e-8 floor -> relative error measured
    # against the floor, not against the tiny magnitudes
    a = [{"w": np.array([1e-12])}]
    f = [{"w": np.array([3e-12])}]
    report = compare_grads(a, f, 1e-3)
    assert report.max_rel_error == pytest.approx(2e-12 / 1e-8)
    assert report.passed


def test_compare_grads_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        compare_grads([{"w": np.ones(2)}], [{"w": np.ones(3)}], 1e-5)


def test_grad_report_verdict_and_str():
    report = GradReport(1e-5, 2e-6, "layer0.w[3]", {"layer0.w": 2e-6})
    assert report.passed
    assert "pass" in str(report)
    report = GradReport(1e-5, 2e-4, "layer0.w[3]", {"layer0.w": 2e-4})
    assert not report.passed
    assert "FAIL" in str(report)


def test_grad_check_leaves_the_callers_params_untouched():
    rng = np.random.default_rng(1)
    specs = [Dense(3, 2), Activation("leaky_relu", slope=0.3)]
    params = [init_layer_params(spec, rng) for spec in specs]
    before = params[0]["w"].copy()
    report = grad_check(specs, params, rng.random((4, 3)), make_weighted_sum(rng.random((4, 2))))
    assert report.passed, str(report)
    assert np.array_equal(params[0]["w"], before)


def test_grad_check_all_zero_case():
    specs = [Dense(3, 2), Activation("identity")]
    params = [{"w": np.zeros((3, 2)), "b": np.zeros(2)}, {}]
    report = grad_check(specs, params, np.zeros((2, 3)), make_weighted_sum(np.ones((2, 2))))
    assert report.passed
    assert report.max_rel_error == 0.0


def test_grad_check_detects_injected_fault():
    # scale one analytic gradient by 1.01 and require the check to name it
    rng = np.random.default_rng(0)
    specs = [Dense(4, 3), Activation("leaky_relu", slope=0.3), Dense(3, 2)]
    params = [init_layer_params(spec, rng) for spec in specs]
    x = rng.random((5, 4))
    reduction = make_weighted_sum(rng.standard_normal((5, 2)))

    out, tape = stack_forward(specs, params, x, "train")
    _, dout = reduction(out)
    analytic, _ = stack_views(specs, np.zeros(stack_size(specs)))
    stack_backward(specs, params, tape, dout, analytic)
    analytic[0]["w"] = analytic[0]["w"] * 1.01

    numeric = finite_difference_grads(
        lambda ps: reduction(stack_forward(specs, ps, x, "train", masks=tape.masks,
                                           update_running=False)[0])[0],
        params,
    )
    report = compare_grads(analytic, numeric, 1e-5)
    assert not report.passed
    assert report.worst_param.startswith("layer0.w")
    assert report.max_rel_error > 5e-3


def test_make_weighted_sum_checks_shape():
    reduction = make_weighted_sum(np.ones((2, 2)))
    with pytest.raises(ValueError):
        reduction(np.ones((3, 2)))
    value, dout = reduction(np.full((2, 2), 2.0))
    assert value == 8.0
    assert np.array_equal(dout, np.ones((2, 2)))
