"""Seeded planted-cluster cohort, written as the TSV files a user supplies.

The generator is the benchmark's own, so the program under test only
ever sees the files: ``profiles.tsv`` (one sample/locus pair per
mutation), ``labels.tsv`` (planted cluster ids) and ``binary.tsv``
(cluster id below k/2 -> 1, else 0, for the logistic probe). Rows are
drawn one at a time so the generator's memory stays far below the
program's.
"""

import os
from dataclasses import dataclass

import numpy as np


@dataclass
class Expected:
    """Facts about the generated cohort that the program's outputs must match."""

    n_samples: int  # samples with at least one mutation
    n_loci_seen: int  # loci mutated in at least one sample
    n_loci_kept: int  # loci mutated in at least min_count samples


def write_inputs(workload, seed, out_dir):
    w = workload
    n, d, k, m = w.n_samples, w.n_loci, w.n_clusters, w.loci_per_cluster
    rng = np.random.default_rng([int(seed), n, d])
    clusters = rng.integers(0, k, size=n)
    sample_ids = [f"S{i:05d}" for i in range(n)]
    locus_ids = [f"L{j:05d}" for j in range(d)]
    counts = np.zeros(d, dtype=np.int64)
    present = []
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "profiles.tsv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id\tlocus_id\n")
        for i in range(n):
            row = rng.random(d) < w.background_rate
            c = int(clusters[i])
            row[c * m : (c + 1) * m] = rng.random(m) < w.enriched_rate
            cols = np.flatnonzero(row)
            if cols.size:
                present.append(i)
                counts[cols] += 1
                fh.write("".join(f"{sample_ids[i]}\t{locus_ids[j]}\n" for j in cols))
    for name, value in (("labels.tsv", lambda c: c), ("binary.tsv", lambda c: int(c < k // 2))):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("sample_id\tlabel\n")
            fh.write("".join(f"{sample_ids[i]}\t{value(int(clusters[i]))}\n" for i in present))
    return Expected(
        n_samples=len(present),
        n_loci_seen=int((counts > 0).sum()),
        n_loci_kept=int((counts >= w.min_count).sum()),
    )
