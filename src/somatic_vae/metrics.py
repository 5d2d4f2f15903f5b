"""Evaluation battery: micro-F1, cosine similarity, NMI, binary
classification report, and a fixed logistic-regression probe."""

from dataclasses import dataclass

import numpy as np

from .layers import sigmoid


def _check_same_shape(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def _as_bool(a, name):
    """A 0/1 array as booleans; any other entry is an error."""
    if a.dtype != bool:
        mask = a != 0
        if not (mask == a).all():
            raise ValueError(f"{name} entries must be 0 or 1")
        a = mask
    return a


def micro_f1(pred, target):
    """F1 from TP/FP/FN pooled over every cell of two 0/1 arrays, counted
    as integers; 0/0 (no positives on either side) is defined as 1."""
    pred, target = _check_same_shape(pred, target)
    p, y = _as_bool(pred, "pred"), _as_bool(target, "target")
    tp, predicted, actual = (int(np.count_nonzero(a)) for a in (p & y, p, y))
    denom = predicted + actual  # 2 TP + FP + FN
    if denom == 0:
        return 1.0
    return 2.0 * tp / denom


def mean_cosine_similarity(probs, target):
    """Row-wise cosine similarity averaged over samples; a row in which
    either vector is all-zero contributes 0."""
    probs, target = _check_same_shape(probs, target)
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    dots = (p * y).sum(axis=1)
    norms = np.linalg.norm(p, axis=1) * np.linalg.norm(y, axis=1)
    out = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)
    return float(out.mean())


def _entropy(counts, n):
    probs = counts / n
    nz = probs[probs > 0.0]
    return float(-(nz * np.log(nz)).sum())


def nmi(labels_a, labels_b):
    """Mutual information normalized by the arithmetic mean of the two
    entropies (natural log). Conventions: both entropies zero -> 1,
    exactly one zero -> 0. Clipped into [0, 1]."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ValueError("label vectors differ in length")
    if a.size == 0:
        raise ValueError("empty label vectors")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    joint = np.zeros((ka, kb))
    np.add.at(joint, (ai, bi), 1.0)
    ca = joint.sum(axis=1)
    cb = joint.sum(axis=0)
    ha = _entropy(ca, n)
    hb = _entropy(cb, n)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mi = 0.0
    for i in range(ka):
        for j in range(kb):
            nij = joint[i, j]
            if nij > 0.0:
                mi += (nij / n) * np.log(n * nij / (ca[i] * cb[j]))
    return float(np.clip(mi / (0.5 * (ha + hb)), 0.0, 1.0))


@dataclass
class ClassificationReport:
    precision: float
    recall: float
    f1: float
    support: dict  # class -> count in target


def classification_report(pred, target):
    """Binary precision/recall/F1 with the 0-denominator conventions
    precision = 0 when nothing is predicted positive and recall = 0 when
    no positives exist."""
    pred, target = _check_same_shape(pred, target)
    p = np.asarray(pred, dtype=np.int64).ravel()
    y = np.asarray(target, dtype=np.int64).ravel()
    tp = int(((p == 1) & (y == 1)).sum())
    fp = int(((p == 1) & (y == 0)).sum())
    fn = int(((p == 0) & (y == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    support = {0: int((y == 0).sum()), 1: int((y == 1).sum())}
    return ClassificationReport(precision, recall, f1, support)


@dataclass
class ProbeModel:
    weights: np.ndarray
    bias: float
    l2_coefficient: float


def fit_probe(x, y, l2=1e-3, lr=0.1, iters=500):
    """Full-batch gradient descent from zero initialization."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != y.size:
        raise ValueError("feature rows and label count differ")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("degenerate labels: probe needs both classes present")
    if not np.isin(classes, (0.0, 1.0)).all():
        raise ValueError("probe labels must be binary 0/1")
    n = y.size
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(int(iters)):
        p = sigmoid(x @ w + b)
        err = p - y
        gw = x.T @ err / n + l2 * w
        gb = float(err.mean())
        w -= lr * gw
        b -= lr * gb
    return ProbeModel(w, b, float(l2))


def eval_probe(model, x, y):
    """Threshold sigmoid scores at 0.5 and report precision/recall/F1."""
    x = np.asarray(x, dtype=np.float64)
    scores = sigmoid(x @ model.weights + model.bias)
    pred = (scores >= 0.5).astype(np.int64)
    return classification_report(pred, np.asarray(y, dtype=np.int64))
