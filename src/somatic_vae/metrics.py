"""Evaluation battery: micro-F1, cosine similarity, NMI, binary
classification report, and a fixed logistic-regression probe."""

from dataclasses import dataclass

import numpy as np

from .layers import sigmoid

COSINE_ROWS = 64  # most rows mean_cosine_similarity converts to float64 at once


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


def first_non_finite_row(x):
    """Index of the first row of a 2-D array that holds a NaN or an
    infinity, or None when every entry is finite."""
    if np.isfinite(x).all():
        return None
    return int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])


def micro_f1(pred, target, totals=None):
    """F1 from TP/FP/FN pooled over every cell of two 0/1 arrays, counted
    as integers; 0/0 (no positives on either side) is defined as 1.

    Streamed over row chunks: pass the same int64 array of running
    (TP, predicted, actual) counts, zeros at first, with every chunk; the
    counts are added to it, and each call returns the F1 of every row
    passed so far."""
    pred, target = _check_same_shape(pred, target)
    p, y = _as_bool(pred, "pred"), _as_bool(target, "target")
    counts = np.array([np.count_nonzero(a) for a in (p & y, p, y)], dtype=np.int64)
    if totals is not None:
        totals += counts
        counts = totals
    tp, predicted, actual = (int(c) for c in counts)
    denom = predicted + actual  # 2 TP + FP + FN
    if denom == 0:
        return 1.0
    return 2.0 * tp / denom


def mean_cosine_similarity(probs, target, out=None):
    """Row-wise cosine similarity averaged over samples; a row in which
    either vector is all-zero contributes 0.

    Streamed over row chunks: pass out, the float64 vector of the row
    cosines of every row up to and including this chunk's, whose last
    rows this call fills; it returns the mean of out. Rows are converted
    to float64 COSINE_ROWS at a time; a row's cosine does not depend on
    the rows converted with it."""
    probs, target = _check_same_shape(probs, target)
    n = probs.shape[0]
    if out is None:
        out = np.zeros(n)
    cosines = out[out.size - n:]
    for start in range(0, n, COSINE_ROWS):
        rows = slice(start, start + COSINE_ROWS)
        p = np.asarray(probs[rows], dtype=np.float64)
        y = np.asarray(target[rows], dtype=np.float64)
        dots = (p * y).sum(axis=1)
        norms = np.linalg.norm(p, axis=1) * np.linalg.norm(y, axis=1)
        cosines[rows] = 0.0
        np.divide(dots, norms, out=cosines[rows], where=norms > 0.0)
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


def _products(x):
    """x's shape and the maps v -> x @ v and u -> x.T @ u.

    A uint8 or bool x must be 0/1 and is used through its nonzeros: the
    flat indices of x list them row by row, those of x.T column by column,
    and np.add.reduceat sums each non-empty row's (column's) run; empty
    rows (columns) stay exactly 0. Any other x is converted to float64,
    must be finite, and is multiplied densely."""
    x = np.asarray(x)
    if x.dtype not in (np.uint8, np.bool_):
        x = np.asarray(x, dtype=np.float64)
        row = first_non_finite_row(x)
        if row is not None:
            raise ValueError(f"probe feature row {row} holds a non-finite value")
        return x.shape, (lambda v: x @ v), (lambda u: x.T @ u)
    nonzero = _as_bool(x, "feature")
    n, d = x.shape
    rows, cols = np.divmod(np.flatnonzero(nonzero), d)
    cols_t, rows_t = np.divmod(np.flatnonzero(nonzero.T), n)
    row_runs, col_runs = _runs(rows), _runs(cols_t)
    return (
        x.shape,
        lambda v: _segment_sums(v[cols], row_runs, n),
        lambda u: _segment_sums(u[rows_t], col_runs, d),
    )


def _runs(keys):
    """(key, start) of each run of equal entries in a sorted index vector."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], starts


def _segment_sums(values, runs, size):
    keys, starts = runs
    out = np.zeros(size)
    if starts.size:  # reduceat needs at least one segment
        out[keys] = np.add.reduceat(values, starts)
    return out


def fit_probe(x, y, l2=1e-3, lr=0.1, iters=500):
    """Full-batch gradient descent from zero initialization; a uint8 or
    bool x must be 0/1 (see _products)."""
    if int(iters) < 1:
        raise ValueError(f"probe iters must be at least 1, got {iters}")
    if not lr > 0:
        raise ValueError(f"probe lr must be positive, got {lr}")
    if not l2 >= 0:
        raise ValueError(f"probe l2 must be non-negative, got {l2}")
    for name, value in (("lr", lr), ("l2", l2)):
        if value == np.inf:  # the checks above refuse nan and -inf
            raise ValueError(f"probe {name} must be finite, got {value}")
    shape, times, times_t = _products(x)
    y = np.asarray(y, dtype=np.float64).ravel()
    if shape[0] != y.size:
        raise ValueError("feature rows and label count differ")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("degenerate labels: probe needs both classes present")
    if not np.isin(classes, (0.0, 1.0)).all():
        raise ValueError("probe labels must be binary 0/1")
    n = y.size
    w = np.zeros(shape[1])
    b = 0.0
    for _ in range(int(iters)):
        p = sigmoid(times(w) + b)
        err = p - y
        gw = times_t(err) / n + l2 * w
        gb = float(err.mean())
        w -= lr * gw
        b -= lr * gb
    if not (np.isfinite(w).all() and np.isfinite(b)):
        raise FloatingPointError(f"probe fit diverged to non-finite weights at lr {lr}, l2 {l2}")
    return ProbeModel(w, b, float(l2))


def eval_probe(model, x, y):
    """Threshold sigmoid scores at 0.5 and report precision/recall/F1."""
    _, times, _ = _products(x)
    scores = sigmoid(times(model.weights) + model.bias)
    pred = (scores >= 0.5).astype(np.int64)
    return classification_report(pred, np.asarray(y, dtype=np.int64))
