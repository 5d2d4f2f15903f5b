"""Cohort ingestion, filtering, splits, synthesis, and the disk cache."""

import io

import numpy as np
import pytest

from somatic_vae.cohort import (
    Cohort,
    SyntheticSpec,
    filter_low_frequency,
    generate_synthetic_cohort,
    holdout_split,
    ingest_profiles,
    kfold_split,
    load_cohort,
    read_labels,
    save_cohort,
)


def profiles(*pairs):
    return io.StringIO(
        "sample_id\tlocus_id\n" + "".join(f"{s}\t{l}\n" for s, l in pairs)
    )


# ---------------------------------------------------------------- ingest


def test_ingest_builds_incidence_matrix_with_sorted_loci():
    # oracle: hand-built incidence matrix
    cohort = ingest_profiles(profiles(("s1", "gA"), ("s1", "gB"), ("s2", "gB")))
    assert cohort.sample_ids == ["s1", "s2"]
    assert cohort.locus_ids == ["gA", "gB"]
    assert cohort.matrix.tolist() == [[1, 1], [0, 1]]


def test_ingest_duplicate_pairs_are_idempotent():
    cohort = ingest_profiles(profiles(("s1", "gA"), ("s1", "gA")))
    assert cohort.matrix.tolist() == [[1]]


def test_ingest_unsorted_input_still_sorts_loci():
    cohort = ingest_profiles(profiles(("s1", "gZ"), ("s1", "gA")))
    assert cohort.locus_ids == ["gA", "gZ"]
    assert cohort.matrix.tolist() == [[1, 1]]


def test_ingest_rejects_wrong_header():
    with pytest.raises(ValueError, match="line 1"):
        ingest_profiles(io.StringIO("patient\tsite\ns1\tgA\n"))


def test_ingest_rejects_malformed_row_with_line_number():
    stream = io.StringIO("sample_id\tlocus_id\ns1\tgA\nbroken-row\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_profiles(stream)


def test_ingest_rejects_empty_stream():
    with pytest.raises(ValueError, match="no records"):
        ingest_profiles(io.StringIO(""))
    with pytest.raises(ValueError, match="no records"):
        ingest_profiles(io.StringIO("sample_id\tlocus_id\n"))


def test_ingest_attaches_labels_for_present_samples():
    labels = io.StringIO("sample_id\tlabel\ns1\tlumA\nghost\tlumB\n")
    cohort = ingest_profiles(profiles(("s1", "gA"), ("s2", "gB")), labels)
    assert cohort.labels == {"s1": "lumA"}


def test_read_labels_rejects_conflicts():
    with pytest.raises(ValueError, match="conflicting"):
        read_labels(io.StringIO("sample_id\tlabel\ns1\ta\ns1\tb\n"))


# ---------------------------------------------------------------- filter


def build_cohort(matrix, labels=None):
    matrix = np.asarray(matrix, dtype=np.uint8)
    n, d = matrix.shape
    return Cohort(
        [f"s{i}" for i in range(n)], [f"g{j:03d}" for j in range(d)], matrix, labels
    )


def test_filter_keeps_columns_at_or_above_min_count():
    # column 1-counts [5, 4, 0, 7]; only counts >= 5 survive
    rows = np.zeros((7, 4), dtype=np.uint8)
    rows[:5, 0] = 1
    rows[:4, 1] = 1
    rows[:7, 3] = 1
    filtered, mask = filter_low_frequency(build_cohort(rows), min_count=5)
    assert mask.tolist() == [True, False, False, True]
    assert filtered.locus_ids == ["g000", "g003"]
    assert filtered.matrix.shape == (7, 2)
    assert np.array_equal(filtered.matrix[:, 0], rows[:, 0])
    assert np.array_equal(filtered.matrix[:, 1], rows[:, 3])


def test_filter_no_op_when_all_columns_frequent():
    rows = np.ones((5, 3), dtype=np.uint8)
    filtered, mask = filter_low_frequency(build_cohort(rows), min_count=5)
    assert mask.all()
    assert np.array_equal(filtered.matrix, rows)


def test_filter_min_count_one_keeps_any_nonzero_column():
    rows = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    filtered, mask = filter_low_frequency(build_cohort(rows), min_count=1)
    assert mask.tolist() == [True, False]


def test_filter_can_remove_every_column():
    rows = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    filtered, mask = filter_low_frequency(build_cohort(rows), min_count=5)
    assert filtered.matrix.shape == (2, 0)
    assert filtered.sample_ids == ["s0", "s1"]


def test_filter_is_idempotent():
    rng = np.random.default_rng(0)
    rows = (rng.random((20, 12)) < 0.3).astype(np.uint8)
    once, _ = filter_low_frequency(build_cohort(rows), min_count=4)
    twice, mask2 = filter_low_frequency(once, min_count=4)
    assert mask2.all()
    assert np.array_equal(once.matrix, twice.matrix)
    assert once.locus_ids == twice.locus_ids


def test_filter_rejects_min_count_below_one():
    with pytest.raises(ValueError):
        filter_low_frequency(build_cohort(np.ones((2, 2), dtype=np.uint8)), min_count=0)


# ---------------------------------------------------------------- splits


def test_holdout_sizes_follow_train_fraction():
    plan = holdout_split(10, 0.8, seed=0)
    assert len(plan.train_indices) == 8
    assert len(plan.val_indices) == 2


def test_holdout_is_a_partition():
    plan = holdout_split(23, 0.8, seed=5)
    both = np.concatenate([plan.train_indices, plan.val_indices])
    assert sorted(both.tolist()) == list(range(23))
    assert not set(plan.train_indices) & set(plan.val_indices)


def test_holdout_deterministic_in_seed():
    a = holdout_split(30, 0.8, seed=9)
    b = holdout_split(30, 0.8, seed=9)
    c = holdout_split(30, 0.8, seed=10)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert np.array_equal(a.val_indices, b.val_indices)
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_holdout_rejects_tiny_or_degenerate_inputs():
    with pytest.raises(ValueError):
        holdout_split(1, 0.8, seed=0)
    with pytest.raises(ValueError):
        holdout_split(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        holdout_split(10, 1.0, seed=0)


def test_kfold_even_sizes():
    plans = kfold_split(10, 5, seed=0)
    assert len(plans) == 5
    assert all(len(p.val_indices) == 2 for p in plans)


def test_kfold_folds_partition_indices():
    plans = kfold_split(10, 5, seed=1)
    folds = [set(p.val_indices.tolist()) for p in plans]
    assert set().union(*folds) == set(range(10))
    assert sum(len(f) for f in folds) == 10
    for p in plans:
        assert sorted(np.concatenate([p.train_indices, p.val_indices])) == list(range(10))


def test_kfold_uneven_sizes_differ_by_at_most_one():
    plans = kfold_split(7, 5, seed=2)
    sizes = sorted(len(p.val_indices) for p in plans)
    assert sizes == [1, 1, 1, 2, 2]


def test_kfold_rejects_k_out_of_range():
    with pytest.raises(ValueError):
        kfold_split(4, 5, seed=0)
    with pytest.raises(ValueError):
        kfold_split(4, 1, seed=0)


def test_kfold_deterministic_in_seed():
    a = kfold_split(12, 3, seed=4)
    b = kfold_split(12, 3, seed=4)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.val_indices, pb.val_indices)


# ---------------------------------------------------------------- synthesis


def test_synthetic_degenerate_rates_give_exact_indicator_rows():
    spec = SyntheticSpec(30, 50, 3, 0.0, 1.0, 5, seed=11)
    cohort = generate_synthetic_cohort(spec)
    for i, sample in enumerate(cohort.sample_ids):
        c = int(cohort.labels[sample])
        expected = np.zeros(50, dtype=np.uint8)
        expected[c * 5 : (c + 1) * 5] = 1
        assert np.array_equal(cohort.matrix[i], expected)


def test_synthetic_deterministic_in_seed():
    spec = SyntheticSpec(40, 60, 4, 0.05, 0.5, 8, seed=3)
    a = generate_synthetic_cohort(spec)
    b = generate_synthetic_cohort(spec)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.labels == b.labels


def test_synthetic_enriched_rate_empirically_close():
    # binomial-rate check on the pinned example spec
    spec = SyntheticSpec(600, 2000, 6, 0.01, 0.35, 40, seed=7)
    cohort = generate_synthetic_cohort(spec)
    clusters = np.array([int(cohort.labels[s]) for s in cohort.sample_ids])
    for c in range(6):
        block = cohort.matrix[clusters == c, c * 40 : (c + 1) * 40]
        assert abs(block.mean() - 0.35) < 0.03


def test_synthetic_raw_kmeans_recovers_structure():
    # sanity floor: planted clusters visible to k-means on the raw matrix
    from somatic_vae.baselines import kmeans_cluster
    from somatic_vae.metrics import nmi

    spec = SyntheticSpec(600, 2000, 6, 0.01, 0.35, 40, seed=7)
    cohort = generate_synthetic_cohort(spec)
    result = kmeans_cluster(cohort.matrix.astype(np.float64), 6, seed=0)
    assert nmi(cohort.label_array(), result.labels) > 0.5


def test_synthetic_spec_invariants_enforced():
    with pytest.raises(ValueError):
        generate_synthetic_cohort(SyntheticSpec(10, 20, 2, 0.5, 0.4, 5, seed=0))
    with pytest.raises(ValueError):
        generate_synthetic_cohort(SyntheticSpec(10, 20, 11, 0.1, 0.5, 1, seed=0))
    with pytest.raises(ValueError):
        generate_synthetic_cohort(SyntheticSpec(10, 20, 3, 0.1, 0.5, 7, seed=0))


# ---------------------------------------------------------------- cache


def test_cohort_cache_roundtrip(tmp_path):
    spec = SyntheticSpec(25, 40, 3, 0.05, 0.6, 6, seed=2)
    cohort = generate_synthetic_cohort(spec)
    save_cohort(cohort, tmp_path / "cache")
    loaded = load_cohort(tmp_path / "cache")
    assert loaded.sample_ids == cohort.sample_ids
    assert loaded.locus_ids == cohort.locus_ids
    assert np.array_equal(loaded.matrix, cohort.matrix)
    assert loaded.labels == cohort.labels


def test_cohort_cache_header_mismatch_rejected(tmp_path):
    cohort = build_cohort(np.eye(3, dtype=np.uint8))
    save_cohort(cohort, tmp_path / "cache")
    loci = tmp_path / "cache" / "loci.txt"
    loci.write_text("gX\ngY\ngZ\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_cohort(tmp_path / "cache")


@pytest.mark.parametrize("cell", ["2", "300", "-1"])
def test_cohort_cache_out_of_range_cell_rejected_with_line_number(tmp_path, cell):
    save_cohort(build_cohort(np.eye(3, dtype=np.uint8)), tmp_path / "cache")
    matrix = tmp_path / "cache" / "matrix.tsv"
    lines = matrix.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3][: -1] + cell  # last cell of the third sample
    lines.insert(1, "")  # a blank line is skipped but still counted
    matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^matrix.tsv line 5: cell outside \{0, 1\}$"):
        load_cohort(tmp_path / "cache")


def test_cohort_cache_missing_file_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_cohort(tmp_path / "nowhere")


def test_label_array_requires_full_coverage():
    cohort = build_cohort(np.eye(2, dtype=np.uint8), labels={"s0": "a"})
    with pytest.raises(ValueError, match="no label"):
        cohort.label_array()
