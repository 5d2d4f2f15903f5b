"""Cohort ingestion, filtering, splitting, and synthetic generation.

A cohort is a dense binary sample x locus matrix plus identifiers and
optional categorical labels. Profiles arrive as sparse TSV pair lists
(`sample_id<TAB>locus_id`, one mutation per line) and are binarized:
duplicate pairs are idempotent. Loci are kept in lexicographic order so
matrices are comparable across runs.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .seeding import sub_rng

PROFILE_HEADER = "sample_id\tlocus_id"
LABEL_HEADER = "sample_id\tlabel"


@dataclass
class Cohort:
    sample_ids: list
    locus_ids: list
    matrix: np.ndarray  # uint8, shape (n_samples, n_loci), entries in {0,1}
    labels: dict | None = None

    @property
    def n_samples(self):
        return len(self.sample_ids)

    @property
    def n_loci(self):
        return len(self.locus_ids)

    def label_array(self):
        """Labels aligned with sample order. Raises if any sample is unlabeled."""
        if self.labels is None:
            raise ValueError("cohort has no labels")
        missing = [s for s in self.sample_ids if s not in self.labels]
        if missing:
            raise ValueError(f"{len(missing)} samples have no label (first: {missing[0]})")
        return np.array([self.labels[s] for s in self.sample_ids])

    def validate(self):
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ValueError("duplicate sample_ids")
        if len(set(self.locus_ids)) != len(self.locus_ids):
            raise ValueError("duplicate locus_ids")
        if list(self.locus_ids) != sorted(self.locus_ids):
            raise ValueError("locus_ids not in lexicographic order")
        if self.matrix.shape != (len(self.sample_ids), len(self.locus_ids)):
            raise ValueError("matrix shape does not match identifier counts")
        if self.matrix.size and not np.isin(self.matrix, (0, 1)).all():
            raise ValueError("matrix entries must be 0 or 1")
        if self.labels is not None:
            known = set(self.sample_ids)
            unknown = set(self.labels) - known
            if unknown:
                raise ValueError(f"labels for unknown samples: {sorted(unknown)[:3]}")


@dataclass
class SplitPlan:
    train_indices: np.ndarray
    val_indices: np.ndarray
    seed: int


@dataclass
class SyntheticSpec:
    n_samples: int
    n_loci: int
    n_clusters: int
    background_rate: float
    enriched_rate: float
    enriched_loci_per_cluster: int
    seed: int

    def validate(self):
        for name in ("n_samples", "n_loci", "n_clusters", "enriched_loci_per_cluster"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive integer")
        for name in ("background_rate", "enriched_rate"):
            rate = float(getattr(self, name))
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not self.enriched_rate > self.background_rate:
            raise ValueError("enriched_rate must exceed background_rate")
        if self.n_clusters > self.n_samples:
            raise ValueError("n_clusters must not exceed n_samples")
        if self.enriched_loci_per_cluster * self.n_clusters > self.n_loci:
            raise ValueError("enriched blocks do not fit into n_loci")


def _parse_two_columns(lines, expected_header, what):
    pairs = []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not header_seen:
            if line != expected_header:
                raise ValueError(
                    f"line {lineno}: expected header {expected_header!r}, got {line!r}"
                )
            header_seen = True
            continue
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"line {lineno}: malformed {what} row {line!r}")
        pairs.append((parts[0], parts[1]))
    if not header_seen:
        raise ValueError("no records")
    return pairs


def read_labels(stream):
    """Parse a label TSV stream into a sample_id -> label dict."""
    pairs = _parse_two_columns(stream, LABEL_HEADER, "label")
    labels = {}
    for sample, label in pairs:
        if sample in labels and labels[sample] != label:
            raise ValueError(f"conflicting labels for sample {sample!r}")
        labels[sample] = label
    return labels


def ingest_profiles(stream, labels_stream=None):
    """Build a Cohort from a profile TSV stream.

    Samples keep first-appearance order; loci are sorted lexicographically.
    matrix[i, j] = 1 iff the pair appeared at least once.
    """
    pairs = _parse_two_columns(stream, PROFILE_HEADER, "profile")
    if not pairs:
        raise ValueError("no records")
    sample_ids = []
    sample_pos = {}
    loci = set()
    for sample, locus in pairs:
        if sample not in sample_pos:
            sample_pos[sample] = len(sample_ids)
            sample_ids.append(sample)
        loci.add(locus)
    locus_ids = sorted(loci)
    locus_pos = {locus: j for j, locus in enumerate(locus_ids)}
    matrix = np.zeros((len(sample_ids), len(locus_ids)), dtype=np.uint8)
    for sample, locus in pairs:
        matrix[sample_pos[sample], locus_pos[locus]] = 1
    labels = None
    if labels_stream is not None:
        raw = read_labels(labels_stream)
        # keep only labels for samples actually present in the profiles
        labels = {s: raw[s] for s in sample_ids if s in raw}
    cohort = Cohort(sample_ids, locus_ids, matrix, labels)
    cohort.validate()
    return cohort


def filter_low_frequency(cohort, min_count=5):
    """Drop loci whose total 1-count is below min_count.

    Returns (filtered cohort, boolean retention mask over the input loci).
    Rows are never dropped, even if they become all-zero.
    """
    if int(min_count) < 1:
        raise ValueError("min_count must be >= 1")
    counts = cohort.matrix.sum(axis=0)
    mask = counts >= int(min_count)
    kept = [locus for locus, keep in zip(cohort.locus_ids, mask) if keep]
    out = Cohort(
        list(cohort.sample_ids),
        kept,
        np.ascontiguousarray(cohort.matrix[:, mask]),
        dict(cohort.labels) if cohort.labels is not None else None,
    )
    return out, mask


def holdout_split(n, train_fraction=0.8, seed=0):
    """Seeded train/validation split with |train| = round(train_fraction * n).

    The train size is clamped so both sides stay non-empty.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    f = float(train_fraction)
    if not 0.0 < f < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n_train = int(np.floor(f * n + 0.5))
    n_train = min(max(n_train, 1), n - 1)
    perm = sub_rng(seed, "split/holdout").permutation(n)
    return SplitPlan(np.sort(perm[:n_train]), np.sort(perm[n_train:]), int(seed))


def kfold_split(n, k=5, seed=0):
    """Seeded k-fold plans; validation folds partition the indices.

    Fold sizes differ by at most one (the first n mod k folds get the
    extra sample).
    """
    n, k = int(n), int(k)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError("k must not exceed the sample count")
    perm = sub_rng(seed, "split/kfold").permutation(n)
    base, extra = divmod(n, k)
    plans = []
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        val = perm[start : start + size]
        train = np.concatenate([perm[:start], perm[start + size :]])
        plans.append(SplitPlan(np.sort(train), np.sort(val), int(seed)))
        start += size
    return plans


def generate_synthetic_cohort(spec):
    """Planted-cluster binary cohort, fully determined by spec.seed.

    Each sample draws a cluster uniformly; entries are Bernoulli with
    enriched_rate inside the cluster's locus block and background_rate
    elsewhere. Labels are the planted cluster ids.
    """
    spec.validate()
    rng = np.random.default_rng(int(spec.seed))
    n, d, k = spec.n_samples, spec.n_loci, spec.n_clusters
    m = spec.enriched_loci_per_cluster
    clusters = rng.integers(0, k, size=n)
    rates = np.full((n, d), float(spec.background_rate))
    for c in range(k):
        rows = np.flatnonzero(clusters == c)
        rates[np.ix_(rows, np.arange(c * m, (c + 1) * m))] = float(spec.enriched_rate)
    matrix = (rng.random((n, d)) < rates).astype(np.uint8)
    sw = max(4, len(str(n - 1)))
    lw = max(4, len(str(d - 1)))
    sample_ids = [f"S{i:0{sw}d}" for i in range(n)]
    locus_ids = [f"L{j:0{lw}d}" for j in range(d)]
    labels = {sample_ids[i]: str(int(clusters[i])) for i in range(n)}
    cohort = Cohort(sample_ids, locus_ids, matrix, labels)
    cohort.validate()
    return cohort


def write_profile_tsv(cohort, path):
    """Emit the sparse pair representation (one line per 1-cell)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PROFILE_HEADER + "\n")
        for i, sample in enumerate(cohort.sample_ids):
            for j in np.flatnonzero(cohort.matrix[i]):
                fh.write(f"{sample}\t{cohort.locus_ids[j]}\n")


def write_label_tsv(labels, sample_order, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(LABEL_HEADER + "\n")
        for sample in sample_order:
            if sample in labels:
                fh.write(f"{sample}\t{labels[sample]}\n")


def save_cohort(cohort, cache_dir):
    """Write the cohort cache: loci.txt + matrix.tsv (+ labels.tsv)."""
    os.makedirs(cache_dir, exist_ok=True)
    with open(os.path.join(cache_dir, "loci.txt"), "w", encoding="utf-8", newline="\n") as fh:
        for locus in cohort.locus_ids:
            fh.write(locus + "\n")
    with open(os.path.join(cache_dir, "matrix.tsv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id" + "".join("\t" + l for l in cohort.locus_ids) + "\n")
        for i, sample in enumerate(cohort.sample_ids):
            row = cohort.matrix[i]
            fh.write(sample + "".join("\t" + str(int(v)) for v in row) + "\n")
    if cohort.labels is not None:
        write_label_tsv(cohort.labels, cohort.sample_ids, os.path.join(cache_dir, "labels.tsv"))


def load_cohort(cache_dir):
    loci_path = os.path.join(cache_dir, "loci.txt")
    matrix_path = os.path.join(cache_dir, "matrix.tsv")
    for p in (loci_path, matrix_path):
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing cohort cache file: {p}")
    with open(loci_path, encoding="utf-8") as fh:
        locus_ids = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    sample_ids, rows, linenos = [], [], []
    with open(matrix_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[0] != "sample_id" or header[1:] != locus_ids:
            raise ValueError("matrix.tsv header does not match loci.txt")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(locus_ids) + 1:
                raise ValueError(f"matrix.tsv line {lineno}: wrong column count")
            sample_ids.append(parts[0])
            linenos.append(lineno)
            try:
                rows.append([int(v) for v in parts[1:]])
            except ValueError:
                raise ValueError(f"matrix.tsv line {lineno}: non-integer cell") from None
    try:
        matrix = np.array(rows, dtype=np.uint8).reshape(len(rows), len(locus_ids))
    except OverflowError:  # a cell outside uint8
        matrix = None
    if matrix is None or (matrix.size and matrix.max() > 1):
        bad = next(i for i, row in enumerate(rows) if not 0 <= min(row) <= max(row) <= 1)
        raise ValueError(f"matrix.tsv line {linenos[bad]}: cell outside {{0, 1}}")
    labels = None
    labels_path = os.path.join(cache_dir, "labels.tsv")
    if os.path.exists(labels_path):
        with open(labels_path, encoding="utf-8") as fh:
            labels = read_labels(fh)
    cohort = Cohort(sample_ids, locus_ids, matrix, labels)
    cohort.validate()
    return cohort
