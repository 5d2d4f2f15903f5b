"""Walk the data pipeline end to end on toy inputs.

Covers TSV ingestion, duplicate collapsing, low-frequency locus filtering,
holdout and k-fold splits, synthetic cohort generation, and the on-disk
cache roundtrip through cohort.bin. Run from anywhere: python3 demos/01_cohort_pipeline.py
"""

import io
import os
import tempfile

import numpy as np

import somatic_vae as sv
from somatic_vae.cohort import align_labels


def banner(title):
    print(f"\n=== {title} ===")


banner("ingest sparse pair records")
records = """sample_id\tlocus_id
P01\tTP53
P01\tKRAS
P01\tTP53
P02\tKRAS
P03\tBRAF
"""
labels = "sample_id\tlabel\nP01\tlumA\nP02\tlumB\nP03\tlumA\n"
cohort = sv.ingest_profiles(io.StringIO(records), io.StringIO(labels))
print(f"samples {cohort.sample_ids}")
print(f"loci    {cohort.locus_ids}")
print("matrix (duplicate P01/TP53 collapsed to a single 1):")
print(cohort.matrix)
print(f"labels  {cohort.labels}")

banner("filter low-frequency loci")
spec = sv.SyntheticSpec(
    n_samples=120, n_loci=300, n_clusters=4,
    background_rate=0.02, enriched_rate=0.4, enriched_loci_per_cluster=12, seed=11,
)
synth = sv.generate_synthetic_cohort(spec)
filtered, kept = sv.filter_low_frequency(synth, min_count=5)
print(f"raw {synth.n_samples}x{synth.n_loci} -> filtered "
      f"{filtered.n_samples}x{filtered.n_loci} (dropped {(~kept).sum()} loci)")
counts = synth.matrix.sum(axis=0)
print(f"locus mutation counts: min {counts.min()}, median "
      f"{np.median(counts):.0f}, max {counts.max()}")

banner("synthetic rates match the generating spec")
label_ids = align_labels(filtered.labels, filtered.sample_ids).astype(int)
background = synth.matrix.mean()
print(f"overall mutation rate {background:.4f} "
      f"(background {spec.background_rate}, plus enriched blocks)")
first_block = synth.matrix[label_ids == 0][:, :spec.enriched_loci_per_cluster]
print(f"cluster-0 rate over its enriched block {first_block.mean():.3f} "
      f"(target {spec.enriched_rate})")

banner("holdout and k-fold splits")
holdout = sv.holdout_split(filtered.n_samples, train_fraction=0.8, seed=0)
print(f"holdout: {holdout.train_indices.size} train / "
      f"{holdout.val_indices.size} val, disjoint="
      f"{np.intersect1d(holdout.train_indices, holdout.val_indices).size == 0}")
folds = sv.kfold_split(filtered.n_samples, k=5, seed=0)
print(f"5-fold val sizes: {[f.val_indices.size for f in folds]}")

banner("cache roundtrip")
with tempfile.TemporaryDirectory() as tmp:
    sv.save_cohort(filtered, tmp)
    size = os.path.getsize(os.path.join(tmp, "cohort.bin"))
    print(f"cohort.bin: {size} bytes for {filtered.n_samples} x {filtered.n_loci} "
          f"bit-packed cells plus IDs, under a CRC-32")
    reloaded = sv.load_cohort(tmp)
    print(f"matrix identical after reload: "
          f"{np.array_equal(filtered.matrix, reloaded.matrix)}")
    print(f"sample ids preserved: {filtered.sample_ids == reloaded.sample_ids}")
