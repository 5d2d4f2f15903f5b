"""Command-line pipeline: config handling, subcommands, reproducibility."""

import argparse

import numpy as np
import pytest

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
from somatic_vae.vae import EpochStats


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


def test_read_embeddings_rejects_other_tsvs(tmp_path):
    path = tmp_path / "not-emb.tsv"
    path.write_text("sample_id\tcluster\na\t0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not an embedding"):
        read_embeddings(path)


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


def test_missing_input_file_exits_one_with_path(tmp_path, capsys):
    code = run(["train", "--cohort", str(tmp_path / "ghost"), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "ghost" in capsys.readouterr().err


def test_invalid_config_value_exits_one_naming_field(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    for flag, value, field in (
        ("--latent-dim", "0", "latent_dim"),
        ("--hidden-dims", "a,b", "hidden_dims"),
    ):
        code = run(["train", "--cohort", cohort_dir, "--out", str(tmp_path / "run"), flag, value])
        assert code == 1
        assert field in capsys.readouterr().err


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
    # both sources at once is a usage-level contradiction -> runtime failure
    assert run([
        "eval-cluster", "--cohort", cohort_dir, "--pca", "4",
        "--embeddings", "whatever.tsv",
    ]) == 1
    capsys.readouterr()


def test_eval_cluster_on_a_cache_with_an_out_of_range_cell_exits_one(tmp_path, capsys):
    cohort_dir = make_small_cohort(tmp_path, capsys)
    matrix = tmp_path / "cache" / "matrix.tsv"
    lines = matrix.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2][: -1] + "300"
    matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["eval-cluster", "--cohort", cohort_dir, "--pca", "4"]) == 1
    assert capsys.readouterr().err == "error: matrix.tsv line 3: cell outside {0, 1}\n"


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
    assert capsys.readouterr().err == "error: line 3: malformed assignment row 'S2 1'\n"
    assert not out_path.exists()
    assign.write_text("sample\tcluster\nS1\t0\n", encoding="utf-8")  # wrong header
    assert run(argv) == 1
    assert "line 1: expected header" in capsys.readouterr().err


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
