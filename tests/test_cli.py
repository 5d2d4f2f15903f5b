"""Command-line pipeline: config handling, subcommands, reproducibility."""

import argparse
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import somatic_vae.vae as vae_module
from somatic_vae.checkpoint import save_checkpoint
from somatic_vae.cohort import (
    ASSIGNMENT_HEADER,
    Cohort,
    SyntheticSpec,
    filter_low_frequency,
    generate_synthetic_cohort,
    ingest_profiles,
    load_cohort,
    read_labels,
    read_sample_map,
    save_cohort,
    write_label_tsv,
)
from somatic_vae.seeding import sub_rng
from somatic_vae.cli import (
    coerce_config_value,
    emit_history,
    parse_config_file,
    read_embeddings,
    resolve_run_config,
    run,
    write_effective_config,
    write_embeddings,
)
from somatic_vae.vae import EpochStats, VaeConfig, build_vae


# ---------------------------------------------------------------- config


def test_parse_config_file_values_comments_quotes(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text(
        "# comment line\n"
        "latent_dim = 16\n"
        'loss_kind = "bce"  # trailing comment\n'
        "learning_rate = 0.01\n"
        "\n"
        "hidden_dims = '64,32'\n",
        encoding="utf-8",
    )
    values = parse_config_file(cfg)
    assert values == {
        "latent_dim": "16",
        "loss_kind": "bce",
        "learning_rate": "0.01",
        "hidden_dims": "64,32",
    }


def test_parse_config_file_reports_line_numbers(tmp_path):
    cfg = tmp_path / "bad.toml"
    cfg.write_text("latent_dim = 16\nnot a pair\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        parse_config_file(cfg)


def test_parse_config_file_rejects_duplicate_keys(tmp_path):
    cfg = tmp_path / "dup.toml"
    cfg.write_text("latent_dim = 16\nepochs = 3\nlatent_dim = 8\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3: duplicate key 'latent_dim'"):
        parse_config_file(cfg)


def test_coerce_rejects_unknown_keys_and_bad_values():
    assert coerce_config_value("latent_dim", "8") == 8
    assert coerce_config_value("hidden_dims", "64,32") == (64, 32)
    assert coerce_config_value("learning_rate", "1e-3") == 1e-3
    assert coerce_config_value("loss_kind", "soft_f1") == "soft_f1"
    with pytest.raises(ValueError, match="unknown config key"):
        coerce_config_value("latent_size", "8")
    with pytest.raises(ValueError, match="cannot parse"):
        coerce_config_value("latent_dim", "eight")


def test_effective_config_of_the_defaults_is_pinned(tmp_path):
    # the options and defaults all come from VaeConfig and BetaSchedule;
    # this is the echo they must keep producing, byte for byte
    path = tmp_path / "effective-config.toml"
    write_effective_config(resolve_run_config(argparse.Namespace()), path)
    assert path.read_bytes() == (
        b"batch_size = 128\n"
        b'beta_kind = "linear_warmup"\n'
        b"beta_max = 0.03\n"
        b"dropout_rate = 0.2\n"
        b"epochs = 100\n"
        b"epsilon = 1e-08\n"
        b'hidden_dims = "1024,256"\n'
        b"l1_coefficient = 1e-05\n"
        b"latent_dim = 64\n"
        b"leaky_slope = 0.3\n"
        b"learning_rate = 0.001\n"
        b'loss_kind = "soft_f1"\n'
        b"rho = 0.9\n"
        b"seed = 0\n"
        b"train_fraction = 0.8\n"
        b"warmup_epochs = 25\n"
    )


# ---------------------------------------------------------------- history


def fake_history(epochs):
    rows = []
    for e in range(epochs):
        rows.append(
            EpochStats(e, 0.5 / (e + 1), 0.1 * e, 1e-3, min(1.0, e / 5), 0.6, 0.7, 0.8)
        )
    return rows


def test_emit_history_row_count_and_header(tmp_path):
    path = tmp_path / "history.tsv"
    emit_history(fake_history(30), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 31
    assert lines[0] == "epoch\trecon\tkl\tl1\tbeta\ttotal\tval_micro_f1\tval_cosine"


def test_emit_history_is_byte_identical_on_re_emit(tmp_path):
    history = fake_history(5)
    emit_history(history, tmp_path / "a.tsv")
    emit_history(history, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def test_emit_history_17_digit_reals_roundtrip(tmp_path):
    history = [EpochStats(0, 1 / 3, 2 / 7, 1e-5, 0.123456789012345678, 0.9, 0.5, 0.25)]
    path = tmp_path / "history.tsv"
    emit_history(history, path)
    row = path.read_text(encoding="utf-8").splitlines()[1].split("\t")
    assert float(row[1]) == 1 / 3
    assert float(row[2]) == 2 / 7
    assert float(row[4]) == 0.123456789012345678


def test_emit_history_writes_numpy_reals_with_17_digits(tmp_path):
    # the whole file, byte for byte: np.float32 is not a Python float, and
    # every real keeps 17 digits (nan, inf and -0.0 included), an int
    # epoch none, whether Python or numpy
    history = [
        EpochStats(np.int64(3), np.float32(0.1), 2 / 7, np.float64(1e-5), 0.0,
                   np.float32(1.5), np.float32(np.nan), 0.25),
        EpochStats(4, 1 / 3, np.float64(np.nan), np.float32(-0.0), -0.0,
                   float("inf"), np.float32(-np.inf), np.float64(2.5e-300)),
    ]
    path = tmp_path / "history.tsv"
    emit_history(history, path)
    assert path.read_bytes() == (
        b"epoch\trecon\tkl\tl1\tbeta\ttotal\tval_micro_f1\tval_cosine\n"
        b"3\t0.10000000149011612\t0.2857142857142857\t1.0000000000000001e-05\t0\t1.5\tnan\t0.25\n"
        b"4\t0.33333333333333331\tnan\t-0\t-0\tinf\t-inf\t2.5e-300\n"
    )


def test_emit_history_rejects_empty():
    with pytest.raises(ValueError):
        emit_history([], "unused.tsv")


def test_embeddings_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 3))
    ids = ["a", "b", "c", "d"]
    path = tmp_path / "emb.tsv"
    write_embeddings(ids, z, path)
    got_ids, got_z = read_embeddings(path)
    assert got_ids == ids
    assert np.array_equal(got_z, z)  # 17 significant digits preserve f64 exactly


def test_write_embeddings_pins_its_bytes(tmp_path):
    z = np.array([[0.1, -2.5, 1e-40], [3.0, -0.0, 123456.789]], dtype=np.float32)
    path = tmp_path / "emb.tsv"
    write_embeddings(["s%1", "s2"], z, path)
    assert path.read_bytes() == (
        b"sample_id\tz0\tz1\tz2\n"
        b"s%1\t0.10000000149011612\t-2.5\t9.9999461011147596e-41\n"
        b"s2\t3\t-0\t123456.7890625\n"
    )
    got_ids, got_z = read_embeddings(path)
    assert got_ids == ["s%1", "s2"]
    assert np.array_equal(got_z, z) and got_z.dtype == np.float64


def test_read_embeddings_rejects_other_tsvs(tmp_path):
    path = tmp_path / "not-emb.tsv"
    path.write_text("sample_id\tcluster\na\t0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not an embedding"):
        read_embeddings(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_embeddings_rejects_a_non_finite_value_naming_its_line(tmp_path, value):
    path = tmp_path / "emb.tsv"
    path.write_text(f"sample_id\tz0\tz1\na\t0.5\t1\n\nb\t2\t{value}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_embeddings(path)
    assert str(err.value) == f"{path} line 4: non-finite value"


# float() takes "1_5", " 2.5", "2.5 " and "١٢", which write_embeddings never writes
@pytest.mark.parametrize("value", ["abc", "", "0x10", "1_5", " 2.5", "2.5 ", "\u0661\u0662"])
def test_read_embeddings_rejects_a_value_that_is_not_a_number_naming_its_line(tmp_path, value):
    path = tmp_path / "emb.tsv"
    path.write_text(f"sample_id\tz0\tz1\na\t0.5\t1\n\nb\t2\t{value}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_embeddings(path)
    problem = (f"could not convert string to float: {value!r}" if value
               else "empty z1 in embedding row 'b\\t2\\t'")
    assert str(err.value) == f"{path} line 4: {problem}"


def test_read_embeddings_rejects_a_repeated_sample_naming_both_lines(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("sample_id\tz0\na\t0.5\nb\t1\na\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_embeddings(path)
    assert str(err.value) == f"{path} line 4: sample_id 'a' repeats line 2"


def test_read_embeddings_holds_no_python_float_per_value(tmp_path):
    # a list of 64 Python floats per row, 4000 rows, peaked at 10.7 MiB;
    # one flat buffer of float64 peaks at 2.7 MiB, 2 of them the result
    path = tmp_path / "emb.tsv"
    z = np.random.default_rng(0).standard_normal((4000, 64))
    write_embeddings([f"S{i}" for i in range(4000)], z, path)
    tracemalloc.start()
    try:
        ids, got = read_embeddings(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ids) == 4000 and np.array_equal(got, z)
    assert peak < 5 * 2**20


def read_from(reader):
    """A reader of one TSV format as a function of its path."""
    def read(path):
        with open(path, encoding="utf-8") as fh:
            return reader(fh)
    return read


# format -> (its reader, the word its errors use, its header, a valid row)
TSV_FORMATS = {
    "profiles": (read_from(ingest_profiles), "profile", "sample_id\tlocus_id", "s1\tgA"),
    "labels": (read_from(read_labels), "label", "sample_id\tlabel", "s1\tlumA"),
    "assignments": (read_from(lambda fh: read_sample_map(fh, ASSIGNMENT_HEADER, "assignment")),
                    "assignment", "sample_id\tcluster", "s1\t0"),
    "embeddings": (read_embeddings, "embedding", "sample_id\tz0", "s1\t0.5"),
}


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("kind", sorted(TSV_FORMATS))
def test_every_tsv_reader_refuses_an_empty_field_naming_it(tmp_path, kind, column):
    # an embedding row "\t1.5" used to be read as the sample ''
    read, what, header, row = TSV_FORMATS[kind]
    fields = row.split("\t")
    fields[column] = ""
    bad = "\t".join(fields)
    path = tmp_path / f"{kind}.tsv"
    path.write_text(f"{header}\n{row}\n{bad}\n", encoding="utf-8")
    name = header.split("\t")[column]
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == f"{path} line 3: empty {name} in {what} row {bad!r}"


@pytest.mark.parametrize("bad", ["s3 gA", "s3\tgA\textra"])
@pytest.mark.parametrize("kind", sorted(TSV_FORMATS))
def test_every_tsv_reader_names_the_file_and_line_of_a_malformed_row(tmp_path, kind, bad):
    read, what, header, row = TSV_FORMATS[kind]
    path = tmp_path / f"{kind}.tsv"
    path.write_text(f"{header}\n{row}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == f"{path} line 4: malformed {what} row {bad!r}"


# ---------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "somatic-vae" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_required_argument_exits_two(capsys):
    assert run(["train", "--cohort", "somewhere"]) == 2  # --out missing
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval-cluster", "probe"])
def test_embeddings_and_cohort_are_one_required_choice(command, capsys):
    # either mistake used to exit 1, as a runtime failure
    assert run([command, "--embeddings", "e.tsv", "--cohort", "cache"]) == 2
    assert "argument --cohort: not allowed with argument --embeddings" in capsys.readouterr().err
    assert run([command]) == 2
    err = capsys.readouterr().err
    assert "one of the arguments --embeddings --cohort is required" in err


def input_files(tmp_path, capsys):
    """Every kind of file a subcommand reads, for the small cohort; the
    embeddings are 2-D, as plot-data needs."""
    cohort_dir = make_small_cohort(tmp_path, capsys)
    data = load_cohort(cohort_dir)
    checkpoint = tmp_path / "model.bin"
    config = VaeConfig(input_dim=data.n_loci, hidden_dims=(8, 4), latent_dim=2)
    save_checkpoint(build_vae(config, sub_rng(0, "init")), 0, checkpoint)
    emb, assign = tmp_path / "emb.tsv", tmp_path / "assign.tsv"
    write_embeddings(data.sample_ids, np.random.default_rng(0).random((data.n_samples, 2)), emb)
    assign.write_text("".join([ASSIGNMENT_HEADER + "\n"] + [f"{sid}\t0\n" for sid in data.sample_ids]),
                      encoding="utf-8")
    return {"profiles": tmp_path / "raw" / "profiles.tsv", "labels": tmp_path / "raw" / "labels.tsv",
            "cohort": cohort_dir, "checkpoint": checkpoint, "embeddings": emb,
            "assignments": assign}


MISSING_INPUTS = [  # (argv, the input made missing)
    (["preprocess", "--profiles", "--labels", "--min-count", "3", "--out", "OUT"], "profiles"),
    (["preprocess", "--profiles", "--labels", "--min-count", "3", "--out", "OUT"], "labels"),
    (["train", "--cohort", "--out", "OUT"], "cohort"),
    (["sweep-latent", "--cohort", "--sizes", "2", "--out", "OUT"], "cohort"),
    (["embed", "--checkpoint", "--cohort", "--out", "OUT"], "checkpoint"),
    (["embed", "--checkpoint", "--cohort", "--out", "OUT"], "cohort"),
    (["eval-recon", "--checkpoint", "--cohort"], "checkpoint"),
    (["eval-recon", "--checkpoint", "--cohort"], "cohort"),
    (["eval-cluster", "--embeddings", "--labels", "--out", "OUT"], "embeddings"),
    (["eval-cluster", "--cohort", "--pca", "2", "--labels", "--out", "OUT"], "cohort"),
    (["eval-cluster", "--embeddings", "--labels", "--out", "OUT"], "labels"),
    (["probe", "--embeddings", "--labels"], "embeddings"),
    (["probe", "--cohort", "--labels"], "cohort"),
    (["probe", "--embeddings", "--labels"], "labels"),
    (["plot-data", "--embeddings", "--assignments", "--labels", "--out", "OUT"], "embeddings"),
    (["plot-data", "--embeddings", "--assignments", "--labels", "--out", "OUT"], "assignments"),
    (["plot-data", "--embeddings", "--assignments", "--labels", "--out", "OUT"], "labels"),
]


@pytest.mark.parametrize("argv, missing", MISSING_INPUTS,
                         ids=[f"{argv[0]}-{missing}" for argv, missing in MISSING_INPUTS])
def test_missing_input_file_exits_one_with_path(tmp_path, capsys, argv, missing):
    files = input_files(tmp_path, capsys)
    ghost, out = tmp_path / "ghost", tmp_path / "out"
    files[missing] = ghost
    full = []
    for word in argv:
        full.append(word)
        if word.startswith("--") and word[2:] in files:
            full.append(str(files[word[2:]]))
    full = [str(out) if word == "OUT" else word for word in full]
    assert run(full) == 1
    assert str(ghost) in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_value_exits_one_naming_field(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    for flag, value, field in (
        ("--latent-dim", "0", "latent_dim"),
        ("--hidden-dims", "a,b", "hidden_dims"),
    ):
        code = run(["train", "--cohort", cohort_dir, "--out", str(tmp_path / "run"), flag, value])
        assert code == 1
        assert field in capsys.readouterr().err


def test_leaky_slope_outside_zero_one_exits_one_before_training(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    for value, problem in (("nan", "finite, got nan"), ("1.5", "in [0, 1]"), ("-2", "in [0, 1]")):
        run_dir = tmp_path / f"run{value}"
        code = run(["train", "--cohort", cohort_dir, "--out", str(run_dir), "--leaky-slope", value])
        assert code == 1
        assert f"leaky_slope must be {problem}" in capsys.readouterr().err
        assert not (run_dir / "checkpoint.bin").exists()


def test_non_finite_epsilon_exits_one_naming_it_and_writes_no_run(tmp_path, capsys):
    # it used to train, exit 0 and save a checkpoint whose theta was the initial draw
    cohort_dir = make_small_cohort(tmp_path, capsys)
    run_dir = tmp_path / "run"
    assert run(["train", "--cohort", cohort_dir, "--out", str(run_dir), "--epsilon", "inf"]) == 1
    assert capsys.readouterr().err == "error: epsilon must be finite, got inf\n"
    assert not run_dir.exists()


@pytest.mark.parametrize("flag, value, problem", [
    ("--epsilon", "1e308", "epsilon is inf in float32, got 1e+308"),
    ("--learning-rate", "1e-320", "learning_rate is 0.0 in float32, got 1e-320"),
    ("--learning-rate", "1e-46", "learning_rate is 0.0 in float32, got 1e-46"),
    ("--l1-coefficient", "1e300", "l1_coefficient is inf in float32, got 1e+300"),
    ("--beta-max", "1e-300", "beta_max is 0.0 in float32, got 1e-300"),
], ids=["epsilon-1e308", "learning-rate-1e-320", "learning-rate-1e-46", "l1-1e300", "beta-1e-300"])
def test_train_refuses_a_real_float32_cannot_hold_naming_it_before_training(
        tmp_path, capsys, monkeypatch, flag, value, problem):
    # the first three used to train, exit 0 and save the initial theta;
    # the l1 coefficient failed at batch 0, naming no option
    cohort_dir = make_small_cohort(tmp_path, capsys)
    trained = []
    monkeypatch.setattr("somatic_vae.cli.train", lambda *args: trained.append(args))
    run_dir = tmp_path / "run"
    assert run(["train", "--cohort", cohort_dir, "--out", str(run_dir), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert trained == []
    assert not run_dir.exists()


@pytest.mark.parametrize("command, extra", [
    ("synth", ["--n-samples", "20", "--n-loci", "30", "--n-clusters", "2",
               "--background-rate", "0.1", "--enriched-rate", "0.5",
               "--enriched-loci-per-cluster", "5"]),
    ("train", ["--cohort", "COHORT"]),
    ("sweep-latent", ["--cohort", "COHORT", "--sizes", "2"]),
    ("eval-cluster", ["--cohort", "COHORT", "--pca", "2"]),
    ("probe", ["--cohort", "COHORT"]),
], ids=["synth", "train", "sweep-latent", "eval-cluster", "probe"])
def test_negative_seed_exits_one_naming_it(tmp_path, capsys, command, extra):
    # numpy's own message, "expected non-negative integer", named no option
    cohort_dir = make_small_cohort(tmp_path, capsys)
    out = tmp_path / "out"
    argv = [command] + [cohort_dir if word == "COHORT" else word for word in extra] + ["--seed", "-3"]
    if command in ("synth", "train"):
        argv += ["--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -3\n"
    assert not out.exists()


def test_batch_size_one_exits_one_before_training(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    run_dir = tmp_path / "run"
    code = run(["train", "--cohort", cohort_dir, "--out", str(run_dir), "--batch-size", "1"])
    assert code == 1
    assert "in batches of 1: batch norm needs at least 2 rows per batch" in capsys.readouterr().err
    assert not (run_dir / "checkpoint.bin").exists()


def test_unknown_config_key_in_file_exits_one(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    cfg = tmp_path / "bad.toml"
    cfg.write_text("latent_size = 4\n", encoding="utf-8")
    code = run([
        "train", "--cohort", cohort_dir, "--out", str(tmp_path / "run"),
        "--config", str(cfg),
    ])
    assert code == 1
    assert "latent_size" in capsys.readouterr().err


# ---------------------------------------------------------------- pipeline


def make_small_cohort(tmp_path, capsys, clusters=2):
    """synth + preprocess a small labeled cohort; returns the cache dir."""
    raw = tmp_path / "raw"
    cache = tmp_path / "cache"
    if cache.exists():
        return str(cache)
    assert run([
        "synth", "--out", str(raw),
        "--n-samples", "60", "--n-loci", "90", "--n-clusters", str(clusters),
        "--background-rate", "0.02", "--enriched-rate", "0.6",
        "--enriched-loci-per-cluster", "10", "--seed", "3",
    ]) == 0
    assert run([
        "preprocess", "--profiles", str(raw / "profiles.tsv"),
        "--labels", str(raw / "labels.tsv"),
        "--min-count", "3", "--out", str(cache),
    ]) == 0
    capsys.readouterr()
    return str(cache)


TRAIN_FLAGS = [
    "--hidden-dims", "24,12", "--latent-dim", "4", "--epochs", "4",
    "--batch-size", "16", "--dropout-rate", "0.1", "--beta-max", "0.1",
    "--warmup-epochs", "3", "--seed", "5",
]


def test_train_writes_the_same_bytes_in_fresh_processes(tmp_path, capsys):
    # a run is a pure function of its inputs: two processes with different
    # string hashing write the same files and print the same lines. One
    # BLAS thread each, since the thread count can change the bytes
    # (README, "Determinism"). Each process ingests the profiles itself,
    # since ingest codes its ids through dicts
    make_small_cohort(tmp_path, capsys)
    raw = tmp_path / "raw"
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / f"run{hash_seed}"
        cohort_dir = str(run_dir / "cache")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed,
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        printed = []
        for argv in (["preprocess", "--profiles", str(raw / "profiles.tsv"),
                      "--labels", str(raw / "labels.tsv"), "--min-count", "3",
                      "--out", cohort_dir],
                     ["train", "--cohort", cohort_dir, "--out", str(run_dir), *TRAIN_FLAGS],
                     ["embed", "--checkpoint", str(run_dir / "checkpoint.bin"),
                      "--cohort", cohort_dir, "--out", str(run_dir / "embeddings.tsv")],
                     ["eval-cluster", "--cohort", cohort_dir, "--pca", "4",
                      "--out", str(run_dir / "assignments.tsv")]):
            proc = subprocess.run(
                [sys.executable, "-m", "somatic_vae.cli", *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            printed.append(proc.stdout.replace(str(run_dir), "RUN"))
        names = ("cache/cohort.bin", "cache/labels.tsv", "history.tsv", "checkpoint.bin",
                 "embeddings.tsv", "assignments.tsv")
        outputs.append((printed, [(run_dir / name).read_bytes() for name in names]))
    assert outputs[0] == outputs[1]


def test_pipeline_train_embed_eval(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    run_dir = tmp_path / "run"
    assert run(["train", "--cohort", cohort_dir, "--out", str(run_dir)] + TRAIN_FLAGS) == 0
    assert (run_dir / "checkpoint.bin").exists()
    assert (run_dir / "history.tsv").exists()
    assert (run_dir / "effective-config.toml").exists()
    history_lines = (run_dir / "history.tsv").read_text(encoding="utf-8").splitlines()
    assert len(history_lines) == 5  # header + 4 epochs

    emb = tmp_path / "emb.tsv"
    assert run([
        "embed", "--checkpoint", str(run_dir / "checkpoint.bin"),
        "--cohort", cohort_dir, "--out", str(emb),
    ]) == 0
    ids, z = read_embeddings(emb)
    assert len(ids) == 60
    assert z.shape == (60, 4)
    capsys.readouterr()

    assert run([
        "eval-recon", "--checkpoint", str(run_dir / "checkpoint.bin"),
        "--cohort", cohort_dir,
    ]) == 0
    out = capsys.readouterr().out
    metrics = dict(line.split("\t") for line in out.splitlines())
    assert 0.0 <= float(metrics["micro_f1"]) <= 1.0
    assert 0.0 <= float(metrics["mean_cosine"]) <= 1.0

    assign = tmp_path / "assign.tsv"
    assert run([
        "eval-cluster", "--embeddings", str(emb),
        "--labels", f"{cohort_dir}/labels.tsv", "--out", str(assign),
    ]) == 0
    out = capsys.readouterr().out
    values = dict(line.split("\t") for line in out.splitlines())
    assert values["k"] == "2"  # defaults to label cardinality
    assert 0.0 <= float(values["nmi"]) <= 1.0
    assert assign.read_text(encoding="utf-8").startswith("sample_id\tcluster\n")

    assert run([
        "probe", "--embeddings", str(emb),
        "--labels", f"{cohort_dir}/labels.tsv", "--seed", "0",
    ]) == 0
    out = capsys.readouterr().out
    probe_values = dict(line.split("\t", 1) for line in out.splitlines())
    assert 0.0 <= float(probe_values["f1"]) <= 1.0
    assert probe_values["support"].startswith("0=")


def test_pipeline_rerun_is_byte_identical(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    args = ["train", "--cohort", cohort_dir] + TRAIN_FLAGS
    assert run(args + ["--out", str(tmp_path / "r1")]) == 0
    assert run(args + ["--out", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    for name in ("history.tsv", "checkpoint.bin", "effective-config.toml"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_effective_config_reproduces_the_run(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    assert run(
        ["train", "--cohort", cohort_dir, "--out", str(tmp_path / "r1")] + TRAIN_FLAGS
    ) == 0
    # feed the echoed config back with no flags at all
    assert run([
        "train", "--cohort", cohort_dir, "--out", str(tmp_path / "r3"),
        "--config", str(tmp_path / "r1" / "effective-config.toml"),
    ]) == 0
    capsys.readouterr()
    for name in ("history.tsv", "checkpoint.bin", "effective-config.toml"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r3" / name).read_bytes()


def test_effective_config_echoes_reference_beta_max_by_default(tmp_path, capsys):
    # at beta_max = 1.0 the posterior collapses; the reference recipe is 3e-2
    cohort_dir = make_small_cohort(tmp_path, capsys)
    assert run([
        "train", "--cohort", cohort_dir, "--out", str(tmp_path / "run"),
        "--hidden-dims", "24,12", "--latent-dim", "4", "--epochs", "1", "--batch-size", "16",
    ]) == 0
    capsys.readouterr()
    lines = (tmp_path / "run" / "effective-config.toml").read_text(encoding="utf-8").splitlines()
    assert "beta_max = 0.03" in lines


def test_eval_cluster_pca_route_and_argument_exclusivity(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    assert run(["eval-cluster", "--cohort", cohort_dir, "--pca", "4"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split("\t") for line in out.splitlines())
    assert 0.0 <= float(values["nmi"]) <= 1.0
    # both sources at once is a usage error
    assert run([
        "eval-cluster", "--cohort", cohort_dir, "--pca", "4",
        "--embeddings", "whatever.tsv",
    ]) == 2
    assert "argument --embeddings: not allowed with argument --cohort" in capsys.readouterr().err


def test_eval_cluster_pca_on_a_wide_cohort_of_rank_below_q(tmp_path, capsys):
    # six all-zero rows leave 20 x 2000 centered data of rank 14 < 16; the
    # d x d covariance this once fell back to took seconds and 92 MiB
    matrix = (np.random.default_rng(4).random((20, 2000)) < 0.05).astype(np.uint8)
    matrix[14:] = 0
    ids = [f"S{i:02d}" for i in range(20)]
    labels = {s: str(i % 2) for i, s in enumerate(ids)}
    save_cohort(Cohort(ids, [f"L{j:04d}" for j in range(2000)], matrix, labels),
                str(tmp_path / "cache"))
    assert run(["eval-cluster", "--cohort", str(tmp_path / "cache"), "--pca", "16"]) == 0
    values = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert values["k"] == "2"
    assert 0.0 <= float(values["nmi"]) <= 1.0


def test_eval_cluster_rejects_pca_on_embeddings(tmp_path, capsys):
    # --pca used to be ignored here: the raw embeddings were clustered
    cohort_dir = make_small_cohort(tmp_path, capsys)
    ids = load_cohort(cohort_dir).sample_ids
    emb = tmp_path / "emb.tsv"
    write_embeddings(ids, np.random.default_rng(0).random((len(ids), 3)), emb)
    argv = ["eval-cluster", "--embeddings", str(emb), "--labels", f"{cohort_dir}/labels.tsv"]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + ["--pca", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: --pca projects a cohort: pass it with --cohort, not --embeddings\n"


def test_eval_cluster_with_unlabeled_samples_exits_one_naming_them(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    cohort = load_cohort(cohort_dir)
    ids = cohort.sample_ids
    emb, labels = tmp_path / "emb.tsv", tmp_path / "labels.tsv"
    write_embeddings(ids, np.random.default_rng(0).random((len(ids), 3)), emb)
    write_label_tsv({s: v for s, v in cohort.labels.items() if s not in (ids[3], ids[7])},
                    ids, labels)
    assert run(["eval-cluster", "--embeddings", str(emb), "--labels", str(labels)]) == 1
    assert capsys.readouterr().err == f"error: 2 samples have no label (first: {ids[3]})\n"


def damaged_embeddings(tmp_path, capsys, damage):
    """(cohort dir, path of the cohort's embeddings, their sample ids),
    the file's lines passed through damage first."""
    cohort_dir = make_small_cohort(tmp_path, capsys)
    ids = load_cohort(cohort_dir).sample_ids
    emb = tmp_path / "emb.tsv"
    write_embeddings(ids, np.random.default_rng(0).random((len(ids), 3)), emb)
    lines = emb.read_text(encoding="utf-8").splitlines()
    emb.write_text("\n".join(damage(lines)) + "\n", encoding="utf-8")
    return cohort_dir, emb, ids


@pytest.mark.parametrize("command, value", [("probe", "nan"), ("eval-cluster", "inf")])
def test_embedding_commands_refuse_a_non_finite_value_naming_its_line(
        tmp_path, capsys, command, value):
    # a nan used to give a probe report, an inf numpy's "Probabilities contain NaN"
    def damage(lines):
        lines[5] = lines[5].rsplit("\t", 1)[0] + "\t" + value  # line 6 of the file
        return lines

    cohort_dir, emb, _ = damaged_embeddings(tmp_path, capsys, damage)
    assert run([command, "--embeddings", str(emb), "--labels", f"{cohort_dir}/labels.tsv"]) == 1
    assert capsys.readouterr().err == f"error: {emb} line 6: non-finite value\n"


def test_eval_cluster_refuses_a_repeated_embedding_row_naming_both_lines(tmp_path, capsys):
    cohort_dir, emb, ids = damaged_embeddings(tmp_path, capsys, lambda lines: lines + lines[3:4])
    assert run(["eval-cluster", "--embeddings", str(emb),
                "--labels", f"{cohort_dir}/labels.tsv"]) == 1
    last = len(ids) + 2
    assert capsys.readouterr().err == f"error: {emb} line {last}: sample_id {ids[2]!r} repeats line 4\n"


@pytest.mark.parametrize("command", ["plot-data", "eval-cluster", "probe"])
def test_embedding_commands_refuse_a_file_with_no_rows(tmp_path, capsys, command):
    # a header-only file used to give plot-data an IndexError traceback and
    # eval-cluster "kmeans_cluster expects a 2-D matrix"
    emb = tmp_path / "emb.tsv"
    emb.write_text("sample_id\tz0\tz1\n\n", encoding="utf-8")
    labels = tmp_path / "labels.tsv"
    labels.write_text("sample_id\tlabel\n", encoding="utf-8")
    extra = {"plot-data": ["--out", str(tmp_path / "scatter.tsv")],
             "eval-cluster": ["--labels", str(labels)], "probe": ["--labels", str(labels)]}
    assert run([command, "--embeddings", str(emb)] + extra[command]) == 1
    assert capsys.readouterr().err == f"error: {emb}: no embedding rows\n"
    assert not (tmp_path / "scatter.tsv").exists()


@pytest.mark.parametrize("command", ["plot-data", "eval-cluster", "probe"])
def test_embedding_commands_refuse_a_file_with_no_latent_columns(tmp_path, capsys, command):
    # a sample_id-only header used to give eval-cluster "nmi 0" and exit 0
    emb = tmp_path / "emb.tsv"
    emb.write_text("sample_id\nS0\nS1\nS2\n", encoding="utf-8")
    labels = tmp_path / "labels.tsv"
    labels.write_text("sample_id\tlabel\nS0\t0\nS1\t1\nS2\t0\n", encoding="utf-8")
    extra = {"plot-data": ["--out", str(tmp_path / "scatter.tsv")],
             "eval-cluster": ["--labels", str(labels)], "probe": ["--labels", str(labels)]}
    assert run([command, "--embeddings", str(emb)] + extra[command]) == 1
    assert capsys.readouterr().err == f"error: {emb}: no embedding columns\n"
    assert not (tmp_path / "scatter.tsv").exists()


def test_probe_with_zero_iters_exits_one(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    assert run(["probe", "--cohort", cohort_dir, "--iters", "0"]) == 1
    assert capsys.readouterr().err == "error: probe iters must be at least 1, got 0\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "inf", "probe lr must be finite, got inf"),
    ("--l2", "inf", "probe l2 must be finite, got inf"),
    ("--lr", "1e308", "probe fit diverged to non-finite weights at lr 1e+308, l2 0.001"),
], ids=["lr-inf", "l2-inf", "lr-1e308"])
def test_probe_with_a_non_finite_setting_or_fit_exits_one_naming_it(tmp_path, capsys, flag,
                                                                     value, message):
    # each used to print f1 0 and exit 0
    cohort_dir = make_small_cohort(tmp_path, capsys)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["probe", "--cohort", cohort_dir, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_cluster_on_a_corrupt_cohort_cache_exits_one(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    cache = tmp_path / "cache" / "cohort.bin"
    raw = bytearray(cache.read_bytes())
    raw[-5] ^= 0x01  # the last packed byte of the last row
    cache.write_bytes(bytes(raw))
    assert run(["eval-cluster", "--cohort", cohort_dir, "--pca", "4"]) == 1
    assert capsys.readouterr().err == f"error: {cache}: corrupt cohort cache: CRC mismatch\n"


def test_preprocess_without_labels_drops_the_old_labels(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    assert run([
        "preprocess", "--profiles", str(tmp_path / "raw" / "profiles.tsv"),
        "--min-count", "3", "--out", cohort_dir,
    ]) == 0
    capsys.readouterr()
    assert run(["eval-cluster", "--cohort", cohort_dir, "--pca", "4"]) == 1
    assert capsys.readouterr().err.startswith("error: labels required")


def test_preprocess_that_keeps_no_locus_exits_one_and_writes_no_cache(tmp_path, capsys):
    # a cache of zero loci used to be written, and train failed on it later
    profiles = tmp_path / "profiles.tsv"
    profiles.write_text("sample_id\tlocus_id\na\tL1\na\tL2\nb\tL2\n", encoding="utf-8")
    cache = tmp_path / "cache"
    argv = ["preprocess", "--profiles", str(profiles), "--min-count", "3", "--out", str(cache)]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "error: --min-count 3 keeps none of the 2 loci "
        "(the most frequent is mutated in 2 samples); no cache written\n"
    )
    assert not cache.exists()


@pytest.mark.parametrize("name, text, where", [
    ("empty.tsv", "", " line 1"),
    ("hdr.tsv", "sample_id\tlocus_id\n", ""),
    ("blank.tsv", "sample_id\tlocus_id\n\n\n", ""),
], ids=["empty", "header-only", "blank-lines"])
def test_preprocess_of_a_profile_file_with_no_rows_exits_one_naming_it(tmp_path, capsys,
                                                                       name, text, where):
    profiles = tmp_path / name
    profiles.write_text(text, encoding="utf-8")
    argv = ["preprocess", "--profiles", str(profiles), "--out", str(tmp_path / "cache")]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {profiles}{where}: no records\n"


def test_eval_cluster_with_zero_restarts_exits_one(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    assert run(["eval-cluster", "--cohort", cohort_dir, "--pca", "4", "--restarts", "0"]) == 1
    assert capsys.readouterr().err == "error: restarts must be >= 1, got 0\n"


def test_sweep_latent_emits_fold_table(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    table_path = tmp_path / "sweep.tsv"
    assert run([
        "sweep-latent", "--cohort", cohort_dir, "--sizes", "2,4", "--folds", "3",
        "--out", str(table_path),
        "--hidden-dims", "16,8", "--epochs", "2", "--batch-size", "16",
        "--dropout-rate", "0.0", "--beta-max", "0.01", "--seed", "1",
    ]) == 0
    capsys.readouterr()
    lines = table_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "latent_dim\tmean_val_micro_f1\tfold0\tfold1\tfold2"
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split("\t")
        scores = [float(v) for v in parts[2:]]
        assert float(parts[1]) == pytest.approx(np.mean(scores))


@pytest.mark.parametrize("sizes, problem", [
    ("2,2", "entry 2 ('2') is a repeat"),  # trained twice and wrote two rows of 2
    ("2,,3", "entry 2 ('') is empty"),  # the gap was dropped
    ("a", "entry 1 ('a') is not an integer"),  # these two named neither option nor entry
    ("2,2.5", "entry 2 ('2.5') is not an integer"),
], ids=["repeated", "empty", "word", "real"])
def test_sweep_latent_refuses_a_bad_size_entry_naming_it_before_training(tmp_path, capsys,
                                                                          monkeypatch, sizes,
                                                                          problem):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    trained = []
    monkeypatch.setattr("somatic_vae.cli.train", lambda *args: trained.append(args))
    table_path = tmp_path / "sweep.tsv"
    argv = ["sweep-latent", "--cohort", cohort_dir, "--sizes", sizes, "--out", str(table_path)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: --sizes {sizes!r}: {problem}\n"
    assert trained == []
    assert not table_path.exists()


def test_plot_data_scatter_output(tmp_path, capsys):
    emb = tmp_path / "e2.tsv"
    write_embeddings(["a", "b", "c"], np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), emb)
    assign = tmp_path / "assign.tsv"
    assign.write_text("sample_id\tcluster\na\t0\nb\t1\n", encoding="utf-8")
    labels = tmp_path / "labels.tsv"
    labels.write_text("sample_id\tlabel\na\tlumA\nc\tlumB\n", encoding="utf-8")
    out_path = tmp_path / "scatter.tsv"
    assert run([
        "plot-data", "--embeddings", str(emb), "--assignments", str(assign),
        "--labels", str(labels), "--out", str(out_path),
    ]) == 0
    capsys.readouterr()
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "sample_id\tx\ty\tcluster\tlabel"
    assert lines[1] == "a\t0\t1\t0\tlumA"
    assert lines[2] == "b\t2\t3\t1\tNA"  # missing label -> NA
    assert lines[3] == "c\t4\t5\tNA\tlumB"  # missing cluster -> NA


def test_plot_data_rejects_a_malformed_assignment_row(tmp_path, capsys):
    emb = tmp_path / "e2.tsv"
    write_embeddings(["S1", "S2"], np.zeros((2, 2)), emb)
    assign = tmp_path / "assign.tsv"
    assign.write_text("sample_id\tcluster\nS1\t0\nS2 1\n", encoding="utf-8")
    out_path = tmp_path / "scatter.tsv"
    argv = ["plot-data", "--embeddings", str(emb), "--assignments", str(assign),
            "--out", str(out_path)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {assign} line 3: malformed assignment row 'S2 1'\n"
    assert not out_path.exists()
    assign.write_text("sample\tcluster\nS1\t0\n", encoding="utf-8")  # wrong header
    assert run(argv) == 1
    assert "line 1: expected header" in capsys.readouterr().err


def test_plot_data_rejects_conflicting_assignments_naming_the_sample(tmp_path, capsys):
    # the second row for S1 used to win silently, as a conflicting label never did
    emb = tmp_path / "e2.tsv"
    write_embeddings(["S1", "S2"], np.zeros((2, 2)), emb)
    assign = tmp_path / "assign.tsv"
    out_path = tmp_path / "scatter.tsv"
    argv = ["plot-data", "--embeddings", str(emb), "--assignments", str(assign),
            "--out", str(out_path)]
    assign.write_text("sample_id\tcluster\nS1\t0\nS2\t1\nS1\t5\n", encoding="utf-8")
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: conflicting assignments for sample 'S1'\n"
    assert not out_path.exists()
    assign.write_text("sample_id\tcluster\nS1\t0\nS2\t1\nS1\t0\n", encoding="utf-8")
    assert run(argv) == 0  # a repeat with the same cluster is accepted
    capsys.readouterr()
    assert out_path.read_text(encoding="utf-8").splitlines()[1] == "S1\t0\t0\t0\tNA"


def test_plot_data_rejects_non_2d_embeddings(tmp_path, capsys):
    emb = tmp_path / "e3.tsv"
    write_embeddings(["a"], np.zeros((1, 3)), emb)
    assert run(["plot-data", "--embeddings", str(emb), "--out", str(tmp_path / "s.tsv")]) == 1
    assert "2-D" in capsys.readouterr().err


def test_full_scale_pipeline_embedding_shape(tmp_path, capsys):
    # end-to-end shape contract on the pinned example cohort:
    # 600 samples, latent 16 -> 600 x 16 embedding table
    raw = tmp_path / "raw"
    cache = tmp_path / "cache"
    run_dir = tmp_path / "run"
    assert run([
        "synth", "--out", str(raw),
        "--n-samples", "600", "--n-loci", "2000", "--n-clusters", "6",
        "--background-rate", "0.01", "--enriched-rate", "0.35",
        "--enriched-loci-per-cluster", "40", "--seed", "7",
    ]) == 0
    assert run([
        "preprocess", "--profiles", str(raw / "profiles.tsv"),
        "--labels", str(raw / "labels.tsv"), "--out", str(cache),
    ]) == 0
    assert run([
        "train", "--cohort", str(cache), "--out", str(run_dir),
        "--latent-dim", "16", "--epochs", "30",
    ]) == 0
    emb = tmp_path / "emb.tsv"
    assert run([
        "embed", "--checkpoint", str(run_dir / "checkpoint.bin"),
        "--cohort", str(cache), "--out", str(emb),
    ]) == 0
    capsys.readouterr()
    ids, z = read_embeddings(emb)
    assert len(ids) == 600
    assert z.shape == (600, 16)


# ---------------------------------------------------------------- inference in row chunks


@pytest.fixture(scope="module")
def tall_run(tmp_path_factory):
    """The tall benchmark workload's shapes: a 4000 x ~800 cohort cache with
    binary labels, and a checkpoint of its untrained 1024/256/64 network."""
    root = tmp_path_factory.mktemp("tall")
    spec = SyntheticSpec(4000, 800, 6, 0.01, 0.35, 40, 13)
    cohort, _ = filter_low_frequency(generate_synthetic_cohort(spec), 5)
    cohort.labels = {s: str(int(int(c) < 3)) for s, c in cohort.labels.items()}
    save_cohort(cohort, str(root / "cache"))
    config = VaeConfig(input_dim=cohort.n_loci, hidden_dims=(1024, 256), latent_dim=64)
    save_checkpoint(build_vae(config, sub_rng(0, "init")), 0, str(root / "checkpoint.bin"))
    return {"cache": str(root / "cache"), "checkpoint": str(root / "checkpoint.bin"),
            "embeddings": str(root / "emb.tsv")}


def test_chunked_embed_and_eval_recon_match_one_pass(tall_run, monkeypatch, capsys):
    def outputs():
        assert run(["embed", "--checkpoint", tall_run["checkpoint"], "--cohort", tall_run["cache"],
                    "--out", tall_run["embeddings"]]) == 0
        assert run(["eval-recon", "--checkpoint", tall_run["checkpoint"],
                    "--cohort", tall_run["cache"]]) == 0
        with open(tall_run["embeddings"], "rb") as fh:
            return fh.read(), capsys.readouterr().out

    chunked = outputs()
    monkeypatch.setattr(vae_module, "CHUNK_ROWS", 10**9)  # one pass over all rows
    assert outputs() == chunked


@pytest.mark.parametrize("argv, limit_mb", [
    (["eval-recon", "--checkpoint", "{checkpoint}", "--cohort", "{cache}"], 60),
    (["probe", "--cohort", "{cache}"], 25),
    (["eval-cluster", "--cohort", "{cache}", "--pca", "16"], 35),
    (["embed", "--checkpoint", "{checkpoint}", "--cohort", "{cache}", "--out", "{embeddings}"], 31),
], ids=["eval-recon", "probe-cohort", "eval-cluster-pca", "embed"])
def test_inference_and_raw_probe_memory_peaks(tall_run, capsys, argv, limit_mb):
    # a float copy of the whole cohort, or probabilities for every row at
    # once, take these past their limits (118.7, 49.7 and 67.5 MB before
    # chunking); embed holding its last chunk while the next is converted
    # peaked at 31.4 MB (29.9 MB without)
    argv = [a.format(**tall_run) for a in argv]
    tracemalloc.start()
    try:
        code = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak / 2**20 < limit_mb
