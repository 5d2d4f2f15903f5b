"""Cohort ingestion, filtering, splitting, and synthetic generation.

A cohort is a dense binary sample x locus matrix plus identifiers and
optional categorical labels. Profiles arrive as sparse TSV pair lists
(`sample_id<TAB>locus_id`, one mutation per line) and are binarized:
duplicate pairs are idempotent. Loci are kept in lexicographic order so
matrices are comparable across runs. read_tsv and write_tsv read and
write every TSV file of the package, cli.py's too.
"""

import os
from array import array
from collections import defaultdict
from itertools import count
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import framing
from .seeding import sub_rng
from .vae import _check_field_types

PROFILE_HEADER = "sample_id\tlocus_id"
LABEL_HEADER = "sample_id\tlabel"
ASSIGNMENT_HEADER = "sample_id\tcluster"
CACHE_FILE = "cohort.bin"
CACHE_MAGIC = b"FLATCOH\x00"
CACHE_VERSION = 1


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

    def validate(self):
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ValueError("duplicate sample_ids")
        if len(set(self.locus_ids)) != len(self.locus_ids):
            raise ValueError("duplicate locus_ids")
        if list(self.locus_ids) != sorted(self.locus_ids):
            raise ValueError("locus_ids not in lexicographic order")
        if self.matrix.shape != (len(self.sample_ids), len(self.locus_ids)):
            raise ValueError("matrix shape does not match identifier counts")
        if self.matrix.dtype != np.uint8:
            raise ValueError(f"matrix must be uint8, got {self.matrix.dtype}")
        if self.matrix.size and self.matrix.max() > 1:
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
        _check_field_types(self)
        for name in ("n_samples", "n_loci", "n_clusters", "enriched_loci_per_cluster"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.seed < 0:  # default_rng's own refusal does not name the option
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        for name in ("background_rate", "enriched_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not self.enriched_rate > self.background_rate:
            raise ValueError("enriched_rate must exceed background_rate")
        if self.n_clusters > self.n_samples:
            raise ValueError("n_clusters must not exceed n_samples")
        if self.enriched_loci_per_cluster * self.n_clusters > self.n_loci:
            raise ValueError("enriched blocks do not fit into n_loci")


def read_tsv(stream, header, what):
    """(line number, fields) of each row of a TSV stream after its header
    line, which must equal header (with None, (1, the header's fields) comes
    first, for the caller to check). Blank lines are skipped; a row with an
    empty field or another field count than the header's is refused. Each
    error names its line, and its file when the stream has a name."""
    at = f"{stream.name} line" if hasattr(stream, "name") else "line"
    lines = enumerate(stream, start=1)
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{at} 1: no records")
    line = first[1].rstrip("\r\n")
    names = line.split("\t")
    if header is None:
        yield 1, names
    elif line != header:
        raise ValueError(f"{at} 1: expected header {header!r}, got {line!r}")
    width = len(names)
    for lineno, raw in lines:
        fields = raw.rstrip("\r\n").split("\t")
        if len(fields) != width or "" in fields:  # one test on the common path
            if fields == [""]:
                continue  # a blank line
            line = "\t".join(fields)
            if len(fields) != width:
                raise ValueError(f"{at} {lineno}: malformed {what} row {line!r}")
            raise ValueError(f"{at} {lineno}: empty {names[fields.index('')]} in {what} row {line!r}")
        yield lineno, fields


def write_tsv(path, header, rows, template=None):
    """Write the header line, then each row (a tuple) by the %-template, "%s"
    per field by default, in UTF-8 with "\\n" line ends."""
    line = (template or "\t".join(["%s"] * (header.count("\t") + 1))) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(line % row)


def read_sample_map(stream, header, what):
    """Parse a two-column TSV stream into a sample_id -> value dict. A
    sample may repeat with the same value, not with another."""
    values = {}
    for _, (sample, value) in read_tsv(stream, header, what):
        if values.setdefault(sample, value) != value:
            raise ValueError(f"conflicting {what}s for sample {sample!r}")
    return values


def read_labels(stream):
    """Parse a label TSV stream into a sample_id -> label dict."""
    return read_sample_map(stream, LABEL_HEADER, "label")


def align_labels(labels, sample_ids):
    """labels[s] for each of sample_ids, in order; raises if any has none."""
    missing = [s for s in sample_ids if s not in labels]
    if missing:
        raise ValueError(f"{len(missing)} samples have no label (first: {missing[0]})")
    return np.array([labels[s] for s in sample_ids])


def ingest_profiles(stream, labels_stream=None):
    """Build a Cohort from a profile TSV stream.

    Samples keep first-appearance order; loci are sorted lexicographically.
    matrix[i, j] = 1 iff the pair appeared at least once.
    """
    # each id once, as a key coding its order of appearance; each row as two int codes
    sample_pos, locus_pos = defaultdict(count().__next__), defaultdict(count().__next__)
    rows, cols = array("i"), array("i")
    for _, (sample, locus) in read_tsv(stream, PROFILE_HEADER, "profile"):
        rows.append(sample_pos[sample])
        cols.append(locus_pos[locus])
    if not rows:  # a header and then no rows, or only blank lines
        raise ValueError(f"{getattr(stream, 'name', 'profile stream')}: no records")
    sample_ids, locus_ids = list(sample_pos), sorted(locus_pos)
    rank = np.empty(len(locus_ids), np.intp)  # code -> column
    rank[[locus_pos[locus] for locus in locus_ids]] = np.arange(len(locus_ids))
    matrix = np.zeros((len(sample_ids), len(locus_ids)), dtype=np.uint8)
    matrix[np.frombuffer(rows, np.intc), rank[np.frombuffer(cols, np.intc)]] = 1
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
    return SplitPlan(np.sort(perm[:n_train]), np.sort(perm[n_train:]))


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
        plans.append(SplitPlan(np.sort(train), np.sort(val)))
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
    write_tsv(path, PROFILE_HEADER, ((s, cohort.locus_ids[j]) for i, s in enumerate(cohort.sample_ids)
                                     for j in np.flatnonzero(cohort.matrix[i])))


def write_label_tsv(labels, sample_order, path):
    write_tsv(path, LABEL_HEADER, ((s, labels[s]) for s in sample_order if s in labels))


def save_cohort(cohort, cache_dir):
    """Write the cohort cache: cohort.bin (+ labels.tsv, removed for an
    unlabeled cohort so that a stale one is never loaded). The text cache
    of older versions, loci.txt + matrix.tsv, is removed too.

    cohort.bin is a framing.py container under the magic ``FLATCOH\\0``:
    the JSON block holds the locus and sample IDs, the payload the rows of
    np.packbits(matrix, axis=1), ceil(d/8) bytes each.
    """
    cohort.validate()
    os.makedirs(cache_dir, exist_ok=True)
    ids = {"loci": list(cohort.locus_ids), "samples": list(cohort.sample_ids)}
    framing.write(os.path.join(cache_dir, CACHE_FILE), CACHE_MAGIC, CACHE_VERSION, ids,
                  [np.packbits(cohort.matrix, axis=1)])
    stale = ["loci.txt", "matrix.tsv"]
    if cohort.labels is not None:
        write_label_tsv(cohort.labels, cohort.sample_ids, os.path.join(cache_dir, "labels.tsv"))
    else:
        stale.append("labels.tsv")
    for name in stale:
        with suppress(FileNotFoundError):
            os.remove(os.path.join(cache_dir, name))


def _packed_rows(ids):
    locus_ids, sample_ids = ids["loci"], ids["samples"]
    if not all(isinstance(s, str) for s in locus_ids + sample_ids):
        raise TypeError("IDs must be strings")
    n, d = len(sample_ids), len(locus_ids)
    packed = np.empty((n, (d + 7) // 8), dtype=np.uint8)
    return (sample_ids, locus_ids, packed), (packed,), f"{n} samples x {d} loci need"


def load_cohort(cache_dir):
    """Read and validate a cache that save_cohort wrote."""
    path = os.path.join(cache_dir, CACHE_FILE)
    if not os.path.exists(path) and os.path.exists(os.path.join(cache_dir, "matrix.tsv")):
        raise ValueError(f"{cache_dir}: text cohort cache from an older version; "
                         "re-run preprocess")
    sample_ids, locus_ids, packed = framing.read(
        path, CACHE_MAGIC, CACHE_VERSION, "cohort cache", ValueError, _packed_rows)
    matrix = np.unpackbits(packed, axis=1, count=len(locus_ids))
    labels = None
    labels_path = os.path.join(cache_dir, "labels.tsv")
    if os.path.exists(labels_path):
        with open(labels_path, encoding="utf-8") as fh:
            labels = read_labels(fh)
    cohort = Cohort(sample_ids, locus_ids, matrix, labels)
    cohort.validate()
    return cohort
