"""PCA projection and k-means clustering baselines.

Binary rows are treated as plain real vectors. PCA makes one
eigendecomposition, of the smaller of the d x d covariance and the n x n
Gram matrix of the column-centered rows (Sirovich's method of snapshots
when n < d, its components orthonormalized by QR); k-means is Lloyd's
algorithm with k-means++ seeding and a fixed number of restarts.
"""

from dataclasses import dataclass

import numpy as np

from .metrics import first_non_finite_row
from .seeding import indexed_rng
from .vae import row_chunks

MAX_ITERS = 300  # most Lloyd iterations per restart
REL_TOL = 1e-4  # a restart stops once an iteration cuts inertia by less than this share


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (q, d), orthonormal rows
    explained_variance: np.ndarray  # (q,), non-increasing


@dataclass
class KmeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float


def _eigh_descending(a):
    eigvals, eigvecs = np.linalg.eigh(a)
    order = np.argsort(eigvals)[::-1]
    # eigh can return tiny negatives for rank-deficient matrices
    return np.maximum(eigvals[order], 0.0), eigvecs[:, order]


def pca_fit(x, q):
    """Top-q eigenvectors of the covariance (1/(n-1) normalization).

    When n < d the n x n Gram matrix xc xc^T / (n-1) is decomposed instead:
    it has the covariance's nonzero eigenvalues, and the components are
    the Q factor of xc^T u[:, :q], which stays orthonormal past the rank
    of xc, where the eigenvalues (the variances) are zero.

    x may be the uint8 0/1 cohort or any real matrix. The centered matrix
    xc is never built: both products are sums over chunks of x converted
    to float64 and centered one at a time, chunks of rows for the
    covariance and blocks of loci for the Gram path. Besides the chunks,
    no matrix larger than min(n, d)^2 or d x q is built.

    Sign convention: each component's largest-magnitude entry is made
    positive (first index wins ties).
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("pca_fit expects a 2-D matrix")
    n, d = x.shape
    if n < 2:
        raise ValueError("pca_fit needs at least 2 rows")
    row = first_non_finite_row(x) if x.dtype.kind == "f" else None  # ints are finite
    if row is not None:
        raise ValueError(f"pca_fit: row {row} holds a non-finite value")
    q = int(q)
    if not 1 <= q <= min(n - 1, d):
        raise ValueError(f"q={q} out of range [1, {min(n - 1, d)}]")
    mean = x.mean(axis=0, dtype=np.float64)  # exact sums on integer input
    gram = n < d
    eigvals, eigvecs = _eigh_descending(_scatter(_centered(x, mean, gram)) / (n - 1))
    if eigvals[0] <= 1e-12:
        raise ValueError("rank deficient below q: data has zero variance")
    if gram:
        basis = np.empty((d, q))
        for loci, c in _centered(x, mean, gram):
            basis[loci] = c @ eigvecs[:, :q]
            del c
        eigvecs = np.linalg.qr(basis)[0]
    components = eigvecs[:, :q].T
    for i in range(q):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    return PcaModel(mean, np.ascontiguousarray(components), eigvals[:q].copy())


# This generator and every loop over it keep row_chunks' del rule.
def _centered(x, mean, by_locus):
    """(index, centered float64 chunk) over chunks of the rows of x, or,
    by_locus, over blocks of loci as rows of xc.T."""
    for index, c in row_chunks(x.T if by_locus else x, np.float64):
        c -= mean[index, None] if by_locus else mean
        yield index, c
        del c


def _scatter(chunks):
    """Sum of c^T c over the chunks."""
    total = 0.0
    for _, c in chunks:
        total += c.T @ c  # a new array the first time, then in place
        del c
    return total


def pca_project(model, x):
    """(x - mean) @ components^T, written chunk by chunk into one n x q
    array; x may be uint8 or real, as in pca_fit."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != model.mean.size:
        raise ValueError(f"projection input must have {model.mean.size} columns")
    out = np.empty((x.shape[0], model.components.shape[0]))
    for rows, c in _centered(x, model.mean, False):
        out[rows] = c @ model.components.T
        del c
    return out


def _kmeans_pp_init(points, k, rng):
    """k-means++ seeding; draws are index-valued from the rng."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))  # all points coincide with a centroid
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[c] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _assign(points, sq_norms, centroids):
    # pairwise squared distances via the expansion trick; sq_norms is
    # (points * points).sum(axis=1), computed once per kmeans_cluster call.
    # Scaling the n x k product, not the points, skips an n x dim temporary
    d2 = (
        sq_norms[:, None]
        - (points @ centroids.T) * 2.0
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    labels = d2.argmin(axis=1)
    inertia = float(np.maximum(d2[np.arange(len(points)), labels], 0.0).sum())
    return labels, inertia


def _lloyd(points, sq_norms, k, rng):
    centroids = _kmeans_pp_init(points, k, rng)
    labels, inertia = _assign(points, sq_norms, centroids)
    for _ in range(MAX_ITERS):
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                # reseed an empty cluster to the point farthest from its
                # assigned centroid
                dist = ((points - centroids[labels]) ** 2).sum(axis=1)
                centroids[c] = points[int(dist.argmax())]
        last = inertia
        labels, inertia = _assign(points, sq_norms, centroids)
        if (last - inertia) / max(last, 1e-12) < REL_TOL:
            break
    return KmeansResult(centroids, labels, inertia)


def kmeans_cluster(points, k, seed, restarts=10):
    """Best of `restarts` seeded Lloyd runs (ties keep the lowest index)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("kmeans_cluster expects a 2-D matrix")
    row = first_non_finite_row(points)
    if row is not None:
        raise ValueError(f"kmeans_cluster: point {row} holds a non-finite value")
    k = int(k)
    if not 1 <= k <= points.shape[0]:
        raise ValueError(f"k={k} out of range [1, {points.shape[0]}]")
    if int(restarts) < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    sq_norms = (points * points).sum(axis=1)
    best = None
    for r in range(int(restarts)):
        rng = indexed_rng(seed, "kmeans", r)
        result = _lloyd(points, sq_norms, k, rng)
        if best is None or result.inertia < best.inertia:
            best = result
    return best
