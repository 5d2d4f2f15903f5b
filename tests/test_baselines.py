"""PCA baseline and k-means clustering."""

import itertools
import tracemalloc

import numpy as np
import pytest

import somatic_vae.baselines as baselines_module
import somatic_vae.vae as vae_module
from somatic_vae.baselines import kmeans_cluster, pca_fit, pca_project


def eig_oracle(x, q):
    """Dense covariance eigendecomposition, components sorted by variance."""
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (x.shape[0] - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    return vals[order][:q], vecs[:, order][:, :q].T


def best_bipartition(points):
    """Exhaustive optimum over all 2-partitions (k=2 oracle)."""
    n = len(points)
    best = np.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        inertia = 0.0
        for side in (mask, ~mask):
            group = points[side]
            inertia += ((group - group.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


# ---------------------------------------------------------------- PCA


def test_pca_line_y_equals_x():
    t = np.array([-2.0, -1.0, 0.0, 1.5, 3.0])
    x = np.stack([t, t], axis=1)
    model = pca_fit(x, 2)
    assert np.allclose(model.components[0], [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)
    assert model.explained_variance[0] == pytest.approx(2 * t.var(ddof=1))


def test_pca_rows_are_orthonormal():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 6))
    model = pca_fit(x, 4)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(4), atol=1e-8)
    assert np.all(np.diff(model.explained_variance) <= 1e-12)


def test_pca_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((15, 5))
    model = pca_fit(x, 3)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_matches_dense_eigendecomposition_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal((5, 3))
        model = pca_fit(x, 2)
        vals, vecs = eig_oracle(x, 2)
        assert np.allclose(model.explained_variance, vals, atol=1e-8)
        for got, want in zip(model.components, vecs):
            sign = np.sign(got @ want) or 1.0
            assert np.allclose(got, sign * want, atol=1e-8)


def test_pca_rejects_q_out_of_range():
    x = np.random.default_rng(3).standard_normal((4, 6))
    with pytest.raises(ValueError, match="out of range"):
        pca_fit(x, 0)
    with pytest.raises(ValueError, match="out of range"):
        pca_fit(x, 4)  # q must be <= n - 1 = 3
    with pytest.raises(ValueError):
        pca_fit(x[:1], 1)  # n >= 2 required


def test_pca_rejects_zero_variance_data():
    x = np.full((6, 4), 2.5)
    with pytest.raises(ValueError, match="rank deficient below q"):
        pca_fit(x, 1)
    with pytest.raises(ValueError, match="rank deficient below q"):
        pca_fit(np.full((4, 9), 1.0), 2)  # n < d


def eigh_sizes(monkeypatch):
    """Record the order of every matrix that np.linalg.eigh decomposes."""
    sizes = []
    real = np.linalg.eigh

    def spy(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n, d", [(10, 4), (4, 10)])  # covariance path, Gram path
def test_pca_rejects_non_finite_input_naming_the_first_row(monkeypatch, value, n, d):
    sizes = eigh_sizes(monkeypatch)
    x = np.random.default_rng(3).standard_normal((n, d))
    x[2, 1] = x[3, 0] = value
    with pytest.raises(ValueError, match="^pca_fit: row 2 holds a non-finite value$"):
        pca_fit(x, 2)
    assert sizes == []  # refused before any decomposition


def test_pca_does_not_scan_integer_input_for_non_finite_values(monkeypatch):
    def scan(x):
        raise AssertionError("integer input scanned")

    monkeypatch.setattr(baselines_module, "first_non_finite_row", scan)
    x = (np.random.default_rng(4).random((12, 6)) < 0.4).astype(np.uint8)
    assert pca_fit(x, 2).components.shape == (2, 6)


@pytest.mark.parametrize("n, d, q, binary", [
    (12, 40, 5, False), (30, 200, 10, False), (30, 200, 10, True),
])
def test_pca_gram_path_matches_covariance_oracle_when_n_below_d(monkeypatch, n, d, q, binary):
    rng = np.random.default_rng(n + d)
    x = (rng.random((n, d)) < 0.1).astype(np.float64) if binary else rng.standard_normal((n, d))
    sizes = eigh_sizes(monkeypatch)
    model = pca_fit(x, q)
    assert sizes == [n]  # only the n x n Gram matrix was decomposed
    vals, vecs = eig_oracle(x, q)
    assert np.abs(model.explained_variance - vals).max() <= 1e-8
    for got, want in zip(model.components, vecs):
        sign = np.sign(got @ want)
        assert np.abs(got - sign * want).max() <= 1e-8
        assert got[np.argmax(np.abs(got))] > 0
    assert np.allclose(model.components @ model.components.T, np.eye(q), atol=1e-8)


def test_pca_rank_below_q_stays_on_the_gram_path(monkeypatch):
    # 3 distinct rows: the centered data has rank 2 < q; QR of xc^T u
    # still gives 10 orthonormal components, 3..10 with zero variance
    x = np.random.default_rng(9).standard_normal((3, 30))[np.arange(20) % 3]
    sizes = eigh_sizes(monkeypatch)
    model = pca_fit(x, 10)
    assert sizes == [20]
    assert np.allclose(model.components @ model.components.T, np.eye(10), atol=1e-8)
    vals, vecs = eig_oracle(x, 10)
    assert np.abs(model.explained_variance - vals).max() <= 1e-8
    assert np.all(model.explained_variance[2:] <= 1e-12)
    for got, want in zip(model.components[:2], vecs[:2]):
        assert np.abs(got - np.sign(got @ want) * want).max() <= 1e-8


def test_pca_of_a_rank_deficient_wide_cohort_builds_no_d_by_d_matrix(monkeypatch):
    # six all-zero rows leave the centered data rank 14 < q = 16; the
    # d x d covariance this once fell back to took 92 MiB at d = 2000
    x = (np.random.default_rng(10).random((20, 2000)) < 0.05).astype(np.uint8)
    x[::3][:6] = 0
    sizes = eigh_sizes(monkeypatch)
    tracemalloc.start()
    try:
        model = pca_fit(x, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == [20]
    assert peak < 16 * 2**20
    assert np.abs(model.components @ model.components.T - np.eye(16)).max() <= 1e-8
    assert np.all(model.explained_variance[14:] <= 1e-12)
    assert model.explained_variance[13] > 1e-3
    assert np.abs(pca_project(model, x)[:, 14:]).max() <= 1e-10


def streamed_pca(x, q, chunk_rows, monkeypatch):
    monkeypatch.setattr(vae_module, "CHUNK_ROWS", chunk_rows)
    model = pca_fit(x, q)
    return model, pca_project(model, x)


@pytest.mark.parametrize("n, d, q", [(120, 30, 6), (30, 120, 6)], ids=["covariance", "gram"])
def test_pca_streamed_over_many_chunks_matches_one_pass(monkeypatch, n, d, q):
    rng = np.random.default_rng(n * d)
    binary = (rng.random((n, d)) < 0.2).astype(np.uint8)
    for x in (binary, rng.standard_normal((n, d))):
        one, z_one = streamed_pca(x, q, 10**9, monkeypatch)  # one chunk
        many, z_many = streamed_pca(x, q, 8, monkeypatch)  # chunks of 4 to 8
        assert np.abs(many.mean - one.mean).max() <= 1e-10
        assert np.abs(many.explained_variance - one.explained_variance).max() <= 1e-10
        signs = np.sign((many.components * one.components).sum(axis=1))
        assert np.abs(many.components - signs[:, None] * one.components).max() <= 1e-10
        assert np.abs(z_many - z_one * signs).max() <= 1e-10


@pytest.mark.parametrize("n, d", [(120, 30), (30, 120)], ids=["covariance", "gram"])
def test_pca_of_uint8_matches_its_float64_copy(monkeypatch, n, d):
    x = (np.random.default_rng(n + d).random((n, d)) < 0.2).astype(np.uint8)
    as_uint8, z_uint8 = streamed_pca(x, 6, 8, monkeypatch)
    as_float, z_float = streamed_pca(x.astype(np.float64), 6, 8, monkeypatch)
    assert np.array_equal(as_uint8.mean, as_float.mean)  # integer sums are exact
    assert np.abs(as_uint8.explained_variance - as_float.explained_variance).max() <= 1e-10
    assert np.abs(as_uint8.components - as_float.components).max() <= 1e-10
    assert np.abs(z_uint8 - z_float).max() <= 1e-10


def test_pca_project_holds_one_float_chunk_at_a_time(monkeypatch):
    # the next chunk was converted while the loop still held the last one
    monkeypatch.setattr(vae_module, "CHUNK_ROWS", 100)
    x = (np.random.default_rng(3).random((400, 2000)) < 0.1).astype(np.uint8)
    model = pca_fit(x, 4)
    tracemalloc.start()
    try:
        pca_project(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (100 * 2000 * 8)  # bytes of one float64 chunk


def test_pca_project_mean_row_maps_to_origin():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((12, 5))
    model = pca_fit(x, 3)
    z = pca_project(model, x.mean(axis=0, keepdims=True))
    assert np.allclose(z, 0.0, atol=1e-12)


def test_pca_full_q_preserves_pairwise_distances():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, 4))
    model = pca_fit(x, 4)
    z = pca_project(model, x)
    for i in range(10):
        for j in range(i + 1, 10):
            dx = ((x[i] - x[j]) ** 2).sum()
            dz = ((z[i] - z[j]) ** 2).sum()
            assert abs(dx - dz) < 1e-8 * max(dx, 1.0)


def test_pca_reconstruction_error_non_increasing_in_q():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((10, 5))
    errors = []
    for q in (1, 2, 3):
        model = pca_fit(x, q)
        recon = pca_project(model, x) @ model.components + model.mean
        errors.append(((x - recon) ** 2).sum())
    assert errors[0] >= errors[1] >= errors[2]


def test_pca_explained_variance_bounded_by_total():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 4))
    total = x.var(axis=0, ddof=1).sum()
    partial = pca_fit(x, 2).explained_variance.sum()
    assert partial <= total + 1e-10
    full = pca_fit(x, 4).explained_variance.sum()
    assert full == pytest.approx(total)


def test_pca_project_rejects_dimension_mismatch():
    x = np.random.default_rng(8).standard_normal((6, 3))
    model = pca_fit(x, 2)
    with pytest.raises(ValueError):
        pca_project(model, np.zeros((2, 4)))


# ---------------------------------------------------------------- k-means


def test_kmeans_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((6, 2))
    result = kmeans_cluster(points, 6, seed=0)
    assert result.inertia == pytest.approx(0.0, abs=1e-12)
    assert len(set(result.labels.tolist())) == 6


def test_kmeans_k_one_gives_mean_and_total_scatter():
    rng = np.random.default_rng(10)
    points = rng.standard_normal((8, 3))
    result = kmeans_cluster(points, 1, seed=0)
    assert np.allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)
    tss = ((points - points.mean(axis=0)) ** 2).sum()
    assert result.inertia == pytest.approx(tss)
    assert set(result.labels.tolist()) == {0}


def test_kmeans_two_tight_triads_match_exhaustive_optimum():
    rng = np.random.default_rng(11)
    a = rng.normal(0.0, 0.05, (3, 2))
    b = rng.normal(5.0, 0.05, (3, 2))
    points = np.vstack([a, b])
    result = kmeans_cluster(points, 2, seed=0)
    assert abs(result.inertia - best_bipartition(points)) < 1e-10
    # the partition itself separates the triads
    labels = result.labels
    assert len(set(labels[:3].tolist())) == 1
    assert len(set(labels[3:].tolist())) == 1
    assert labels[0] != labels[3]


def test_kmeans_matches_exhaustive_bipartitions_on_small_random_sets():
    rng = np.random.default_rng(12)
    for trial in range(5):
        n = int(rng.integers(4, 9))
        points = rng.standard_normal((n, 2))
        result = kmeans_cluster(points, 2, seed=trial)
        assert result.inertia <= best_bipartition(points) + 1e-10


def test_kmeans_inertia_trace_non_increasing(monkeypatch):
    # the inertia after 0, 1, ..., 8 Lloyd iterations of the same restart
    rng = np.random.default_rng(13)
    points = rng.standard_normal((40, 3))
    trace = []
    for iters in range(9):
        monkeypatch.setattr(baselines_module, "MAX_ITERS", iters)
        trace.append(kmeans_cluster(points, 4, seed=1, restarts=1).inertia)
    assert trace[-1] < trace[0]
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_squared_norms_once_per_call_is_bit_identical(monkeypatch):
    # the row norms were recomputed on every assignment; hoisting them out
    # of the Lloyd loop must not move a single bit
    rng = np.random.default_rng(16)
    points = np.vstack([rng.normal(c, 0.7, (30, 5)) for c in range(4)])
    hoisted = kmeans_cluster(points, 4, seed=2)
    real = baselines_module._assign

    def recomputed(points, sq_norms, centroids):
        return real(points, (points * points).sum(axis=1), centroids)

    monkeypatch.setattr(baselines_module, "_assign", recomputed)
    every_call = kmeans_cluster(points, 4, seed=2)
    assert np.array_equal(hoisted.labels, every_call.labels)
    assert hoisted.inertia == every_call.inertia
    assert np.array_equal(hoisted.centroids, every_call.centroids)


def test_kmeans_assignment_scaling_the_product_is_bit_identical(monkeypatch):
    # _assign scaled the points by 2 before the product; scaling the n x k
    # product instead is exact, so no label, inertia or centroid bit may move
    def scaled_points(points, sq_norms, centroids):
        d2 = (sq_norms[:, None] - 2.0 * points @ centroids.T
              + (centroids * centroids).sum(axis=1)[None, :])
        labels = d2.argmin(axis=1)
        return labels, float(np.maximum(d2[np.arange(len(points)), labels], 0.0).sum())

    rng = np.random.default_rng(17)
    points = np.vstack([rng.normal(c, 0.9, (700, 64)) for c in range(6)])
    sq_norms = (points * points).sum(axis=1)
    for centroids in (points[rng.choice(len(points), 6, replace=False)],
                      rng.standard_normal((6, 64)) * 1e3):
        labels, inertia = baselines_module._assign(points, sq_norms, centroids)
        want_labels, want_inertia = scaled_points(points, sq_norms, centroids)
        assert labels.tobytes() == want_labels.tobytes()
        assert np.float64(inertia).tobytes() == np.float64(want_inertia).tobytes()
    product = kmeans_cluster(points, 6, seed=3)
    monkeypatch.setattr(baselines_module, "_assign", scaled_points)
    before = kmeans_cluster(points, 6, seed=3)
    assert np.array_equal(product.labels, before.labels)
    assert product.inertia == before.inertia
    assert np.array_equal(product.centroids, before.centroids)


def test_kmeans_permutation_invariant_at_inertia_level():
    # restart draws are index-valued, so invariance holds at the inertia
    # level: the best of 10 restarts lands on the same optimum for any
    # point order
    rng = np.random.default_rng(14)
    points = np.vstack([
        rng.normal(c, 0.2, (8, 2)) for c in ((0, 0), (5, 0), (0, 5))
    ])
    base = kmeans_cluster(points, 3, seed=7)
    for trial in range(3):
        perm = np.random.default_rng(trial).permutation(len(points))
        shuffled = kmeans_cluster(points[perm], 3, seed=7)
        assert abs(base.inertia - shuffled.inertia) < 1e-10


def test_kmeans_more_restarts_never_hurt():
    rng = np.random.default_rng(15)
    points = np.vstack([
        rng.normal(c, 0.3, (10, 2)) for c in ((0, 0), (4, 0), (0, 4), (4, 4))
    ])
    one = kmeans_cluster(points, 4, seed=3, restarts=1)
    ten = kmeans_cluster(points, 4, seed=3, restarts=10)
    assert ten.inertia <= one.inertia + 1e-12


def test_kmeans_deterministic_in_seed():
    rng = np.random.default_rng(16)
    points = rng.standard_normal((30, 2))
    a = kmeans_cluster(points, 3, seed=5)
    b = kmeans_cluster(points, 3, seed=5)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_kmeans_rejects_k_out_of_range():
    points = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans_cluster(points, 4, seed=0)
    with pytest.raises(ValueError):
        kmeans_cluster(points, 0, seed=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points_naming_the_first(value):
    points = np.random.default_rng(3).standard_normal((8, 2))
    points[5, 0] = points[6, 1] = value
    with pytest.raises(ValueError, match="^kmeans_cluster: point 5 holds a non-finite value$"):
        kmeans_cluster(points, 2, seed=0)


@pytest.mark.parametrize("restarts", [0, -1])
def test_kmeans_rejects_fewer_than_one_restart(restarts):
    with pytest.raises(ValueError, match=f"^restarts must be >= 1, got {restarts}$"):
        kmeans_cluster(np.zeros((3, 2)), 1, seed=0, restarts=restarts)


def test_kmeans_labels_within_range_and_duplicate_points_tolerated():
    points = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
    result = kmeans_cluster(points, 3, seed=0)
    assert set(result.labels.tolist()) <= {0, 1, 2}
    assert result.inertia == pytest.approx(0.0, abs=1e-12)
