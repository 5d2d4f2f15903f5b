"""Cohort ingestion, filtering, splits, synthesis, and the disk cache."""

import io
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from somatic_vae.cohort import (
    Cohort,
    SyntheticSpec,
    align_labels,
    filter_low_frequency,
    generate_synthetic_cohort,
    holdout_split,
    ingest_profiles,
    kfold_split,
    load_cohort,
    read_labels,
    save_cohort,
)

CACHE_MAGIC = b"FLATCOH\x00"


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


def named_stream(text, name):
    stream = io.StringIO(text)
    stream.name = name
    return stream


def test_ingest_rejects_empty_stream():
    with pytest.raises(ValueError, match="^empty.tsv line 1: no records$"):
        ingest_profiles(named_stream("", "empty.tsv"))
    # a header, then no rows or only blank lines: the file is named too
    for text in ("sample_id\tlocus_id\n", "sample_id\tlocus_id\n\n\n"):
        with pytest.raises(ValueError, match="^hdr.tsv: no records$"):
            ingest_profiles(named_stream(text, "hdr.tsv"))
    with pytest.raises(ValueError, match="no records"):
        ingest_profiles(io.StringIO("sample_id\tlocus_id\n"))


def test_ingest_holds_no_python_object_per_profile_line():
    # 2000 samples x 25 of 1000 loci: 50001 lines, streamed one at a time.
    # A tuple of two strings per line, kept until the matrix was built,
    # peaked at 10.6 MiB; two integer codes per line peak at 3.1 MiB
    def lines():
        yield "sample_id\tlocus_id\n"
        for i in range(2000):
            for j in sorted(rng.choice(1000, 25, replace=False)):
                yield f"S{i:05d}\tL{j:05d}\n"

    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        cohort = ingest_profiles(lines())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cohort.matrix.shape == (2000, 1000)
    assert (cohort.matrix.sum(axis=1) == 25).all()
    assert peak < 6 * 2**20


def test_ingest_attaches_labels_for_present_samples():
    labels = io.StringIO("sample_id\tlabel\ns1\tlumA\nghost\tlumB\n")
    cohort = ingest_profiles(profiles(("s1", "gA"), ("s2", "gB")), labels)
    assert cohort.labels == {"s1": "lumA"}


def test_read_labels_rejects_conflicts():
    with pytest.raises(ValueError, match="conflicting"):
        read_labels(io.StringIO("sample_id\tlabel\ns1\ta\ns1\tb\n"))


def test_crlf_and_unicode_ids_survive_ingest_and_the_cache(tmp_path):
    rows = [("Échantillon-1", "TP53:c.215C>G"), ("样本-2", "locus-β"),
            ("Échantillon-1", "locus-β"), ("patient ☃", "TP53:c.215C>G")]
    profiles, labels = tmp_path / "profiles.tsv", tmp_path / "labels.tsv"
    profiles.write_bytes("".join(f"{a}\t{b}\r\n" for a, b in [("sample_id", "locus_id")] + rows)
                         .encode("utf-8"))
    labels.write_bytes("sample_id\tlabel\r\nÉchantillon-1\tα\r\n样本-2\tβ\r\n"
                       "patient ☃\tα\r\n".encode("utf-8"))
    # newline="" hands the reader the raw CRLF line ends
    with open(profiles, encoding="utf-8", newline="") as pf, \
            open(labels, encoding="utf-8", newline="") as lf:
        cohort = ingest_profiles(pf, lf)
    assert cohort.sample_ids == ["Échantillon-1", "样本-2", "patient ☃"]
    assert cohort.locus_ids == ["TP53:c.215C>G", "locus-β"]
    assert cohort.labels == {"Échantillon-1": "α", "样本-2": "β", "patient ☃": "α"}
    assert cohort.matrix.tolist() == [[1, 1], [0, 1], [1, 0]]
    save_cohort(cohort, tmp_path / "cache")
    loaded = load_cohort(tmp_path / "cache")
    assert (loaded.sample_ids, loaded.locus_ids, loaded.labels) == (
        cohort.sample_ids, cohort.locus_ids, cohort.labels)
    assert np.array_equal(loaded.matrix, cohort.matrix)


# ---------------------------------------------------------------- filter


def build_cohort(matrix, labels=None):
    matrix = np.asarray(matrix, dtype=np.uint8)
    n, d = matrix.shape
    return Cohort(
        [f"s{i}" for i in range(n)], [f"g{j:03d}" for j in range(d)], matrix, labels
    )


def test_cohort_validate_requires_a_binary_uint8_matrix():
    cohort = build_cohort([[0, 1], [1, 0]])
    cohort.validate()
    widened = Cohort(cohort.sample_ids, cohort.locus_ids, cohort.matrix.astype(np.int64))
    with pytest.raises(ValueError, match="matrix must be uint8, got int64"):
        widened.validate()
    cohort.matrix[0, 0] = 2
    with pytest.raises(ValueError, match="matrix entries must be 0 or 1"):
        cohort.validate()


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
    assert nmi(align_labels(cohort.labels, cohort.sample_ids), result.labels) > 0.5


def test_synthetic_spec_invariants_enforced():
    with pytest.raises(ValueError):
        generate_synthetic_cohort(SyntheticSpec(10, 20, 2, 0.5, 0.4, 5, seed=0))
    with pytest.raises(ValueError):
        generate_synthetic_cohort(SyntheticSpec(10, 20, 11, 0.1, 0.5, 1, seed=0))
    with pytest.raises(ValueError):
        generate_synthetic_cohort(SyntheticSpec(10, 20, 3, 0.1, 0.5, 7, seed=0))


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("enriched_loci_per_cluster", True, "enriched_loci_per_cluster must be an integer, got True"),
    ("n_samples", 20.5, "n_samples must be an integer, got 20.5"),
    ("background_rate", float("nan"), "background_rate must be finite, got nan"),
    ("enriched_rate", float("inf"), "enriched_rate must be finite, got inf"),
    ("background_rate", float("-inf"), "background_rate must be finite, got -inf"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),  # numpy's refusal names no field
])
def test_synthetic_spec_rejects_a_wrong_type_naming_the_field(field, value, message):
    spec = SyntheticSpec(20, 30, 2, 0.1, 0.5, 5, seed=0)
    setattr(spec, field, value)
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_synthetic_cohort(spec)


# ---------------------------------------------------------------- cache


def test_cohort_cache_roundtrip(tmp_path):
    spec = SyntheticSpec(25, 40, 3, 0.05, 0.6, 6, seed=2)
    cohort = generate_synthetic_cohort(spec)
    save_cohort(cohort, tmp_path / "cache")
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["cohort.bin", "labels.tsv"]
    loaded = load_cohort(tmp_path / "cache")
    assert loaded.sample_ids == cohort.sample_ids
    assert loaded.locus_ids == cohort.locus_ids
    assert np.array_equal(loaded.matrix, cohort.matrix)
    assert loaded.labels == cohort.labels


@pytest.mark.parametrize("d", [1, 7, 8, 9, 17])
def test_cohort_cache_roundtrip_packs_rows_of_any_width(tmp_path, d):
    matrix = np.random.default_rng(d).random((6, d)) < 0.5
    cohort = build_cohort(matrix)
    save_cohort(cohort, tmp_path / "cache")
    raw = (tmp_path / "cache" / "cohort.bin").read_bytes()
    assert len(raw) == 20 + struct.unpack_from("<I", raw, 12)[0] + 6 * ((d + 7) // 8)
    loaded = load_cohort(tmp_path / "cache")
    assert loaded.matrix.dtype == np.uint8
    assert np.array_equal(loaded.matrix, cohort.matrix)
    assert (loaded.sample_ids, loaded.locus_ids) == (cohort.sample_ids, cohort.locus_ids)
    assert loaded.labels is None


def cache_image(tmp_path):
    """Save a 5 x 11 cohort (2 packed bytes per row); returns the path of
    its cohort.bin and each section's (start, stop) in the file."""
    matrix = np.random.default_rng(0).random((5, 11)) < 0.4
    save_cohort(build_cohort(matrix), tmp_path / "cache")
    path = tmp_path / "cache" / "cohort.bin"
    raw = path.read_bytes()
    edges = [0, 8, 12, 16, 16 + struct.unpack_from("<I", raw, 12)[0], len(raw) - 4, len(raw)]
    names = ["magic", "version", "json-length", "json", "rows", "trailer"]
    return path, {name: (a, b) for name, a, b in zip(names, edges, edges[1:])}


def reseal(body):
    """A cohort.bin image around body with a CRC that matches it."""
    return CACHE_MAGIC + body + struct.pack("<I", zlib.crc32(body))


# the error for a file cut in the middle of each section
TRUNCATED = {
    "magic": "not a cohort cache",
    "version": "corrupt cohort cache: truncated file",
    "json-length": "corrupt cohort cache: truncated file",
    "json": "corrupt cohort cache: CRC mismatch",
    "rows": "corrupt cohort cache: CRC mismatch",
    "trailer": "corrupt cohort cache: CRC mismatch",
}


@pytest.mark.parametrize("section", list(TRUNCATED))
def test_cohort_cache_truncated_in_each_section_rejected(tmp_path, section):
    message = TRUNCATED[section]
    path, sections = cache_image(tmp_path)
    start, stop = sections[section]
    path.write_bytes(path.read_bytes()[: (start + stop) // 2])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_cohort(tmp_path / "cache")


@pytest.mark.parametrize("section", list(TRUNCATED))
def test_cohort_cache_bit_flip_in_each_section_rejected(tmp_path, section):
    path, sections = cache_image(tmp_path)
    start, stop = sections[section]
    raw = bytearray(path.read_bytes())
    raw[(start + stop) // 2] ^= 0x04
    path.write_bytes(bytes(raw))
    message = "not a cohort cache" if section == "magic" else "corrupt cohort cache: CRC mismatch"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_cohort(tmp_path / "cache")


def test_cohort_cache_header_mismatch_rejected(tmp_path):
    # the IDs sit under the CRC: an edited locus ID is caught even though
    # the file keeps its size, and with a fresh CRC the ID check still runs
    path, _ = cache_image(tmp_path)
    raw = path.read_bytes()
    assert raw.count(b'"g001"') == 1
    path.write_bytes(raw.replace(b'"g001"', b'"g999"'))
    with pytest.raises(ValueError, match="CRC mismatch$"):
        load_cohort(tmp_path / "cache")
    path.write_bytes(reseal(raw[8:-4].replace(b'"g001"', b'"g999"')))
    with pytest.raises(ValueError, match="^locus_ids not in lexicographic order$"):
        load_cohort(tmp_path / "cache")


RESEALED = {
    "row-short": "corrupt cohort cache: payload has 8 bytes, 5 samples x 11 loci need 10",
    "row-long": "corrupt cohort cache: payload has 12 bytes, 5 samples x 11 loci need 10",
    "version-2": "unsupported cohort cache version 2",
    "ids-not-json": "corrupt cohort cache: Expecting ',' delimiter",
}


@pytest.mark.parametrize("fault", list(RESEALED))
def test_cohort_cache_resealed_corruption_rejected(tmp_path, fault):
    # each fault carries a valid CRC, so the checks behind the CRC name it
    message = RESEALED[fault]
    path, sections = cache_image(tmp_path)
    body = path.read_bytes()[8:-4]
    if fault == "row-short":
        body = body[:-2]
    elif fault == "row-long":
        body = body + body[-2:]
    elif fault == "version-2":
        body = struct.pack("<I", 2) + body[4:]
    else:
        start, _ = sections["json"]
        body = body[: start - 8] + b"[" + body[start - 7 :]
    path.write_bytes(reseal(body))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        load_cohort(tmp_path / "cache")


def test_cohort_cache_in_the_old_text_format_refused(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "loci.txt").write_text("g000\n", encoding="utf-8")
    (cache / "matrix.tsv").write_text("sample_id\tg000\ns0\t1\n", encoding="utf-8")
    message = f"{cache}: text cohort cache from an older version; re-run preprocess"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_cohort(cache)


def test_saving_over_an_old_text_cache_removes_it(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "loci.txt").write_text("g000\n", encoding="utf-8")
    (cache / "matrix.tsv").write_text("sample_id\tg000\ns0\t1\n", encoding="utf-8")
    cohort = build_cohort(np.eye(3, dtype=np.uint8), labels={"s0": "a", "s1": "b", "s2": "a"})
    save_cohort(cohort, cache)
    assert sorted(p.name for p in cache.iterdir()) == ["cohort.bin", "labels.tsv"]
    assert load_cohort(cache).matrix.tolist() == np.eye(3).tolist()


def test_save_cohort_rejects_a_non_binary_matrix(tmp_path):
    cohort = build_cohort(np.eye(3, dtype=np.uint8))
    cohort.matrix[1, 2] = 2  # packbits would store it as a silent 1
    with pytest.raises(ValueError, match="^matrix entries must be 0 or 1$"):
        save_cohort(cohort, tmp_path / "cache")
    assert not (tmp_path / "cache").exists()


def test_saving_an_unlabeled_cohort_removes_old_labels(tmp_path):
    cohort = build_cohort(np.eye(3, dtype=np.uint8), labels={"s0": "a", "s1": "b", "s2": "a"})
    save_cohort(cohort, tmp_path / "cache")
    cohort.labels = None
    save_cohort(cohort, tmp_path / "cache")
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["cohort.bin"]
    assert load_cohort(tmp_path / "cache").labels is None


def test_cohort_cache_file_bytes_are_pinned(tmp_path):
    # the JSON block is key-sorted, compact and raw UTF-8 (not \u-escaped)
    cohort = Cohort(["s0", "patient ☃"], ["g0", "g1", "g2"],
                    np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8))
    save_cohort(cohort, tmp_path / "cache")
    ids = '{"loci":["g0","g1","g2"],"samples":["s0","patient ☃"]}'.encode("utf-8")
    body = struct.pack("<II", 1, len(ids)) + ids + bytes([0b10100000, 0b01100000])
    assert (tmp_path / "cache" / "cohort.bin").read_bytes() == reseal(body)


def test_cohort_cache_missing_file_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_cohort(tmp_path / "nowhere")


def test_align_labels_requires_full_coverage():
    assert align_labels({"s1": "b", "s0": "a"}, ["s0", "s1"]).tolist() == ["a", "b"]
    with pytest.raises(ValueError, match=r"^1 samples have no label \(first: s1\)$"):
        align_labels({"s0": "a"}, ["s0", "s1"])
