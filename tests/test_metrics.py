"""Micro-F1, cosine similarity, NMI, classification report, probe."""

import numpy as np
import pytest

from somatic_vae.cohort import (
    SyntheticSpec,
    align_labels,
    filter_low_frequency,
    generate_synthetic_cohort,
    holdout_split,
)
from somatic_vae.metrics import (
    COSINE_ROWS,
    classification_report,
    eval_probe,
    fit_probe,
    mean_cosine_similarity,
    micro_f1,
    nmi,
)


# ---------------------------------------------------------------- micro-F1


def test_micro_f1_perfect_and_total_miss():
    y = np.array([[1, 0], [0, 1]])
    assert micro_f1(y, y) == 1.0
    assert micro_f1(1 - y, y) == 0.0


def test_micro_f1_pooled_counts_example():
    # TP=1, FP=1, FN=1 -> 2*1 / (2*1 + 1 + 1) = 0.5
    pred = np.array([[1, 1, 0, 0]])
    target = np.array([[1, 0, 1, 0]])
    assert micro_f1(pred, target) == 0.5


def test_micro_f1_no_positives_anywhere_is_one():
    zeros = np.zeros((3, 4), dtype=int)
    assert micro_f1(zeros, zeros) == 1.0


def test_micro_f1_pools_over_all_cells_not_rows():
    pred = np.array([[1, 0], [0, 0]])
    target = np.array([[1, 0], [0, 1]])
    # TP=1, FP=0, FN=1 pooled over the whole matrix
    assert micro_f1(pred, target) == pytest.approx(2 / 3)


def test_micro_f1_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        micro_f1(np.ones((2, 2)), np.ones((2, 3)))


@pytest.mark.parametrize("pred, target, name", [
    ([[0.5, 1.0]], [[1, 0]], "pred"),
    ([[1, 0]], [[2, 0]], "target"),
    ([[1, 0]], [[np.nan, 1.0]], "target"),
])
def test_micro_f1_rejects_non_binary_entries(pred, target, name):
    with pytest.raises(ValueError, match=f"{name} entries must be 0 or 1"):
        micro_f1(np.array(pred), np.array(target))


def test_micro_f1_counts_bool_uint8_and_float_inputs_alike():
    rng = np.random.default_rng(8)
    pred, target = rng.random((2, 30, 40)) < 0.3
    # TP, FP and FN counted by hand
    tp = int((pred & target).sum())
    want = 2 * tp / (2 * tp + int((pred & ~target).sum()) + int((~pred & target).sum()))
    for dtype in (bool, np.uint8, np.float32, np.float64):
        assert micro_f1(pred.astype(dtype), target.astype(dtype)) == want


def test_micro_f1_streamed_over_row_chunks_equals_one_pass():
    rng = np.random.default_rng(9)
    pred, target = rng.random((2, 50, 7)) < 0.3
    totals = np.zeros(3, np.int64)
    for rows in (slice(0, 17), slice(17, 18), slice(18, 50)):
        f1 = micro_f1(pred[rows], target[rows], totals)
    assert f1 == micro_f1(pred, target)
    assert totals.tolist() == [(pred & target).sum(), pred.sum(), target.sum()]


# ---------------------------------------------------------------- cosine


def test_cosine_identical_rows_give_one():
    y = np.array([[1.0, 1.0, 0.0], [0.5, 0.25, 0.0]])
    assert mean_cosine_similarity(y, y) == pytest.approx(1.0)


def test_cosine_orthogonal_supports_give_zero():
    p = np.array([[1.0, 0.0]])
    y = np.array([[0.0, 1.0]])
    assert mean_cosine_similarity(p, y) == 0.0


def test_cosine_worked_example():
    p = np.array([[1.0, 1.0]])
    y = np.array([[1.0, 0.0]])
    assert mean_cosine_similarity(p, y) == pytest.approx(1 / np.sqrt(2))


def test_cosine_zero_row_contributes_zero():
    p = np.array([[1.0, 1.0], [0.0, 0.0]])
    y = np.array([[1.0, 0.0], [1.0, 1.0]])
    expected = (1 / np.sqrt(2) + 0.0) / 2
    assert mean_cosine_similarity(p, y) == pytest.approx(expected)


def test_cosine_bounded_for_nonnegative_inputs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.random((4, 6))
        y = (rng.random((4, 6)) < 0.4).astype(float)
        value = mean_cosine_similarity(p, y)
        assert 0.0 <= value <= 1.0


def test_cosine_streamed_over_row_chunks_equals_one_pass():
    rng = np.random.default_rng(10)
    p = rng.random((50, 7)).astype(np.float32)
    y = (rng.random((50, 7)) < 0.3).astype(np.uint8)
    y[3] = 0
    cosines = np.full(50, np.nan)  # every entry must be written
    for rows in (slice(0, 17), slice(17, 18), slice(18, 50)):
        value = mean_cosine_similarity(p[rows], y[rows], cosines[:rows.stop])
    assert value == mean_cosine_similarity(p, y)
    assert cosines[3] == 0.0


def test_cosine_in_row_blocks_equals_the_whole_chunk_expression():
    # the expression before rows were converted COSINE_ROWS at a time
    rng = np.random.default_rng(11)
    n = 2 * COSINE_ROWS + 5  # a short last block
    p = rng.random((n, 300)).astype(np.float32)
    y = (rng.random((n, 300)) < 0.05).astype(np.uint8)
    y[[0, COSINE_ROWS, n - 1]] = 0
    p64, y64 = p.astype(np.float64), y.astype(np.float64)
    dots = (p64 * y64).sum(axis=1)
    norms = np.linalg.norm(p64, axis=1) * np.linalg.norm(y64, axis=1)
    want = np.zeros(n)
    np.divide(dots, norms, out=want, where=norms > 0.0)
    got = np.full(n, np.nan)
    value = mean_cosine_similarity(p, y, got)
    assert got.tobytes() == want.tobytes()
    assert value == float(want.mean())


# ---------------------------------------------------------------- NMI


def contingency_nmi(a, b):
    """From-first-principles oracle: joint counts, natural-log entropies,
    arithmetic-mean normalization."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    values_a, values_b = np.unique(a), np.unique(b)
    joint = np.zeros((len(values_a), len(values_b)))
    for i, va in enumerate(values_a):
        for j, vb in enumerate(values_b):
            joint[i, j] = np.sum((a == va) & (b == vb))
    pa = joint.sum(axis=1) / n
    pb = joint.sum(axis=0) / n
    ha = -sum(p * np.log(p) for p in pa if p > 0)
    hb = -sum(p * np.log(p) for p in pb if p > 0)
    if ha == 0 and hb == 0:
        return 1.0
    if ha == 0 or hb == 0:
        return 0.0
    mi = 0.0
    for i in range(len(values_a)):
        for j in range(len(values_b)):
            pij = joint[i, j] / n
            if pij > 0:
                mi += pij * np.log(pij / (pa[i] * pb[j]))
    return mi / (0.5 * (ha + hb))


def test_nmi_identical_partitions():
    labels = np.array([0, 0, 1, 1, 2])
    assert nmi(labels, labels) == pytest.approx(1.0)


def test_nmi_independent_partitions():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_degenerate_entropy_conventions():
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0  # both entropies zero
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0  # exactly one zero


def test_nmi_invariant_to_relabeling():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4, 60)
    b = rng.integers(0, 3, 60)
    remap = {0: 7, 1: 2, 2: 9}
    b_renamed = np.array([remap[v] for v in b])
    assert nmi(a, b) == pytest.approx(nmi(a, b_renamed), abs=1e-15)


def test_nmi_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.integers(0, 5, 40)
        b = rng.integers(0, 3, 40)
        ab, ba = nmi(a, b), nmi(b, a)
        assert abs(ab - ba) < 1e-12
        assert 0.0 <= ab <= 1.0


def test_nmi_matches_contingency_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.integers(0, 4, 50)
        b = rng.integers(0, 4, 50)
        assert nmi(a, b) == pytest.approx(contingency_nmi(a, b), abs=1e-12)


def test_nmi_matches_sklearn_arithmetic_mean():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.integers(0, 6, 80)
        b = rng.integers(0, 4, 80)
        ours = nmi(a, b)
        theirs = sklearn_metrics.normalized_mutual_info_score(
            a, b, average_method="arithmetic"
        )
        assert abs(ours - theirs) < 1e-10


def test_nmi_accepts_string_labels():
    assert nmi(["a", "a", "b", "b"], ["x", "x", "y", "y"]) == pytest.approx(1.0)


def test_nmi_rejects_length_mismatch_and_empty():
    with pytest.raises(ValueError):
        nmi([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        nmi([], [])


# ---------------------------------------------------------------- report


def test_report_perfect_prediction():
    y = np.array([1, 0, 1, 0])
    report = classification_report(y, y)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
    assert report.support == {0: 2, 1: 2}


def test_report_all_zero_predictions_convention():
    report = classification_report(np.zeros(4, dtype=int), np.array([1, 0, 1, 1]))
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_report_no_positive_targets_convention():
    report = classification_report(np.array([1, 0]), np.zeros(2, dtype=int))
    assert report.recall == 0.0
    assert report.f1 == 0.0


def test_report_confusion_matrix_example():
    # TP=2, FP=1, FN=1 -> P = R = F1 = 2/3
    report = classification_report(np.array([1, 1, 1, 0]), np.array([1, 0, 1, 1]))
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)


def test_report_f1_equals_micro_f1_on_row_matrices():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pred = rng.integers(0, 2, 12)
        target = rng.integers(0, 2, 12)
        report = classification_report(pred, target)
        assert report.f1 == pytest.approx(
            micro_f1(pred.reshape(1, -1), target.reshape(1, -1)), abs=1e-15
        )


def test_report_rejects_length_mismatch():
    with pytest.raises(ValueError):
        classification_report(np.ones(3, dtype=int), np.ones(4, dtype=int))


# ---------------------------------------------------------------- probe


def separable_data():
    rng = np.random.default_rng(6)
    pos = rng.normal((2.0, 2.0), 0.3, (20, 2))
    neg = rng.normal((-2.0, -2.0), 0.3, (20, 2))
    x = np.vstack([pos, neg])
    y = np.array([1] * 20 + [0] * 20)
    return x, y


def test_probe_perfect_on_linearly_separable_data():
    x, y = separable_data()
    model = fit_probe(x, y)
    report = eval_probe(model, x, y)
    assert report.f1 == 1.0
    assert np.isfinite(model.weights).all() and np.isfinite(model.bias)


def test_probe_rejects_degenerate_labels():
    x = np.random.default_rng(7).random((6, 3))
    with pytest.raises(ValueError, match="degenerate labels"):
        fit_probe(x, np.ones(6))
    with pytest.raises(ValueError, match="binary"):
        fit_probe(x, np.array([0, 1, 2, 0, 1, 2]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_probe_rejects_non_finite_features_naming_the_row(value):
    # a NaN feature used to give NaN weights, and then all-0 predictions
    x, y = separable_data()
    model = fit_probe(x, y)
    x[23, 1] = value
    for call in (lambda: fit_probe(x, y), lambda: eval_probe(model, x, y)):
        with pytest.raises(ValueError, match="^probe feature row 23 holds a non-finite value$"):
            call()


@pytest.mark.parametrize("setting, message", [
    ({"iters": 0}, "probe iters must be at least 1, got 0"),
    ({"lr": 0.0}, "probe lr must be positive, got 0.0"),
    ({"l2": -1e-3}, "probe l2 must be non-negative, got -0.001"),
    ({"lr": np.inf}, "probe lr must be finite, got inf"),
    ({"l2": np.inf}, "probe l2 must be finite, got inf"),
], ids=["iters", "lr", "l2", "lr-inf", "l2-inf"])
def test_probe_rejects_degenerate_settings(setting, message):
    # iters=0 used to return the zero model, which predicts every sample
    # positive
    x, y = separable_data()
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_probe(x, y, **setting)


def test_probe_refuses_a_fit_that_diverges():
    # a finite lr too large for the step used to give NaN weights, and then
    # all-0 predictions
    x, y = separable_data()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match=r"^probe fit diverged to non-finite weights at lr 1e\+308, l2 0.001$"):
        fit_probe(x, y, lr=1e308)


def test_probe_l2_regularization_path_shrinks_weights():
    # fixed-step descent at lr=0.1 is stable only for l2 < 2/lr, so the
    # path is checked across the stable range
    x, y = separable_data()
    norms = [
        np.linalg.norm(fit_probe(x, y, l2=l2).weights)
        for l2 in (1e-3, 0.1, 1.0, 10.0)
    ]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.1 * norms[0]
    # heavily regularized scores hug the 0.5 decision boundary
    heavy = fit_probe(x, y, l2=10.0)
    scores = 1.0 / (1.0 + np.exp(-(x @ heavy.weights + heavy.bias)))
    assert np.abs(scores - 0.5).max() < 0.2


def probe_objective(weights, bias, x, y, l2):
    """Mean logistic loss plus (l2/2) * ||w||^2 (bias unregularized): the
    objective fit_probe descends."""
    scores = x @ weights + bias
    # log(1 + exp(-m)) written stably for both signs of the margin
    margins = np.where(y == 1, scores, -scores)
    loss = np.logaddexp(0.0, -margins).mean()
    return float(loss + 0.5 * l2 * (weights @ weights))


def test_probe_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3))
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    w = rng.standard_normal(3) * 0.5
    b = 0.2
    l2 = 1e-2

    # analytic gradient of the fitting objective
    p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
    gw = x.T @ (p - y) / len(y) + l2 * w
    gb = float((p - y).mean())

    h = 1e-6
    for j in range(3):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        fd = (probe_objective(wp, b, x, y, l2) - probe_objective(wm, b, x, y, l2)) / (2 * h)
        assert abs(fd - gw[j]) < 1e-6
    fd_b = (probe_objective(w, b + h, x, y, l2) - probe_objective(w, b - h, x, y, l2)) / (2 * h)
    assert abs(fd_b - gb) < 1e-6


def test_probe_fitting_decreases_objective():
    x, y = separable_data()
    model = fit_probe(x, y, iters=200)
    start = probe_objective(np.zeros(2), 0.0, x, y, model.l2_coefficient)
    end = probe_objective(model.weights, model.bias, x, y, model.l2_coefficient)
    assert end < start


def test_eval_probe_thresholds_at_half():
    from somatic_vae.metrics import ProbeModel

    # scores: sigmoid(x) >= 0.5 iff x >= 0
    model = ProbeModel(np.array([1.0]), 0.0, 0.0)
    x = np.array([[-1.0], [0.0], [2.0]])
    report = eval_probe(model, x, np.array([0, 1, 1]))
    assert report.recall == 1.0
    assert report.precision == 1.0


# ---------------------------------------------------------------- binary probe


@pytest.mark.parametrize("dtype", [np.uint8, np.bool_])
def test_binary_probe_matches_the_float64_probe(dtype):
    rng = np.random.default_rng(11)
    x = (rng.random((60, 25)) < 0.2).astype(dtype)
    y = (x[:, :5].sum(axis=1) > 0).astype(np.int64)
    dense = fit_probe(x.astype(np.float64), y)
    binary = fit_probe(x, y)
    assert np.abs(binary.weights - dense.weights).max() <= 1e-15
    assert abs(binary.bias - dense.bias) <= 1e-15
    assert eval_probe(binary, x, y) == eval_probe(dense, x.astype(np.float64), y)


def test_binary_probe_rejects_entries_other_than_zero_and_one():
    x = np.zeros((4, 3), np.uint8)
    x[0, 0], x[1, 1] = 1, 2
    y = np.array([1, 0, 1, 0])
    with pytest.raises(ValueError, match="feature entries must be 0 or 1"):
        fit_probe(x, y)
    model = fit_probe(x.astype(np.float64), y)
    with pytest.raises(ValueError, match="feature entries must be 0 or 1"):
        eval_probe(model, x, y)


def test_binary_probe_gives_exact_zeros_for_empty_rows_and_columns():
    x = np.zeros((6, 5), np.uint8)
    x[0, 1] = x[2, 1] = x[2, 3] = x[4, 3] = 1  # rows 1, 3, 5 and columns 0, 2, 4 empty
    y = np.array([1, 0, 1, 0, 0, 1])
    model = fit_probe(x, y)
    assert model.weights[[0, 2, 4]].tolist() == [0.0, 0.0, 0.0]
    assert np.all(model.weights[[1, 3]] != 0.0)
    # an all-zero matrix has no nonzero to sum over: every weight stays 0
    blank = fit_probe(np.zeros((6, 5), np.uint8), y)
    assert blank.weights.tolist() == [0.0] * 5
    assert blank.bias == fit_probe(np.zeros((6, 5)), y).bias
    # an empty row scores sigmoid(bias) exactly, as in the float64 probe
    report = eval_probe(blank, np.zeros((3, 5), np.uint8), np.array([1, 0, 1]))
    assert report == eval_probe(blank, np.zeros((3, 5)), np.array([1, 0, 1]))


# the benchmark workloads' cohort shapes (samples, loci) with their
# default and held-out seeds
WORKLOAD_COHORTS = [
    (600, 2000, 7), (600, 2000, 1007),
    (1000, 4000, 11), (1000, 4000, 1011),
    (4000, 800, 13), (4000, 800, 1013),
]


@pytest.mark.parametrize("n, d, seed", WORKLOAD_COHORTS)
def test_binary_probe_parity_on_workload_shaped_cohorts(n, d, seed):
    spec = SyntheticSpec(n, d, 6, 0.01, 0.35, 40, seed)
    cohort, _ = filter_low_frequency(generate_synthetic_cohort(spec), 5)
    x = cohort.matrix
    labels = align_labels(cohort.labels, cohort.sample_ids).astype(np.int64)
    y = (labels < 3).astype(np.int64)
    split = holdout_split(n, 0.8, seed)
    tr, va = split.train_indices, split.val_indices
    dense = fit_probe(x[tr].astype(np.float64), y[tr])
    binary = fit_probe(x[tr], y[tr])
    assert np.abs(binary.weights - dense.weights).max() <= 1e-15
    assert abs(binary.bias - dense.bias) <= 1e-15
    assert eval_probe(binary, x[va], y[va]) == eval_probe(dense, x[va].astype(np.float64), y[va])
