"""Command-line entry point.

Subcommands: synth, preprocess, train, embed, eval-recon, eval-cluster,
probe, sweep-latent, plot-data. Training options come from a flat
``key = value`` config file, and every key is also exposed as a
``--key value`` flag (flags win). The resolved configuration is echoed
to the run directory so a run can be reproduced by feeding the echo
back. Exit codes: 0 success, 1 runtime or input failure, 2 usage error.
"""

import argparse
import os
import sys
from dataclasses import MISSING, asdict, fields

import numpy as np

from . import baselines, cohort as cohort_io, metrics
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .losses import BetaSchedule
from .vae import VaeConfig, encode_batch, reconstruct_mu, train

# training option -> default, whose type parses it: VaeConfig's fields but
# input_dim, its beta schedule's (kind as beta_kind), and the holdout
# split's train_fraction
SCHEDULE_OPTIONS = {"kind": "beta_kind"}
DEFAULTS = {
    **{f.name: f.default for f in fields(VaeConfig) if f.default is not MISSING},
    **{SCHEDULE_OPTIONS.get(k, k): v for k, v in asdict(BetaSchedule()).items()},
    "train_fraction": 0.8,
}


def parse_config_file(path):
    """Parse a flat key = value file (strings optionally quoted, # comments)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path} line {lineno}: expected key = value")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if not key or not text:
                raise ValueError(f"{path} line {lineno}: expected key = value")
            if key in values:
                raise ValueError(f"{path} line {lineno}: duplicate key {key!r}")
            if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
                text = text[1:-1]
            values[key] = text
    return values


def coerce_config_value(key, text):
    """Parse text by the type of the option's default; a tuple is
    comma-separated ints."""
    if key not in DEFAULTS:
        raise ValueError(f"unknown config key {key!r}")
    kind = type(DEFAULTS[key])
    try:
        if kind is tuple:
            return tuple(int(part) for part in text.split(","))
        return kind(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: cannot parse {text!r}") from None


def resolve_run_config(args):
    """Defaults, then config file, then command-line flags."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, text in parse_config_file(args.config).items():
            merged[key] = coerce_config_value(key, text)
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = coerce_config_value(key, flag)
    return merged


def write_effective_config(merged, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(merged):
            value = merged[key]
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            if isinstance(value, str):
                fh.write(f'{key} = "{value}"\n')
            else:
                fh.write(f"{key} = {value!r}\n")


def build_vae_config(merged, input_dim):
    """The flat options nested back into a validated VaeConfig."""
    schedule = {k: merged[SCHEDULE_OPTIONS.get(k, k)] for k in asdict(BetaSchedule())}
    values = {f.name: merged.get(f.name) for f in fields(VaeConfig)}
    config = VaeConfig.from_dict({**values, "input_dim": input_dim, "beta_schedule": schedule})
    if not 0.0 < merged["train_fraction"] < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    return config


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_history(history, path):
    """History TSV: one row per epoch, 17 significant digits for reals."""
    if not history:
        raise ValueError("history is empty")
    columns = ["epoch", "recon", "kl", "l1", "beta", "total", "val_micro_f1", "val_cosine"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in history:
            fh.write("\t".join(_fmt(getattr(row, c)) for c in columns) + "\n")


def write_embeddings(sample_ids, z, path):
    q = z.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id" + "".join(f"\tz{j}" for j in range(q)) + "\n")
        for sid, row in zip(sample_ids, z):
            fh.write(sid + "".join(f"\t{v:.17g}" for v in row) + "\n")


def read_embeddings(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[0] != "sample_id" or header[1:] != [f"z{j}" for j in range(len(header) - 1)]:
            raise ValueError(f"{path}: not an embedding TSV")
        sample_ids, rows = [], []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(header):
                raise ValueError(f"{path} line {lineno}: wrong column count")
            sample_ids.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    return sample_ids, np.array(rows, dtype=np.float64)


def _require_file(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    return path


def _load_labels_for(sample_ids, labels_path=None, cohort=None):
    if labels_path is not None:
        with open(_require_file(labels_path), encoding="utf-8") as fh:
            mapping = cohort_io.read_labels(fh)
    elif cohort is not None and cohort.labels is not None:
        mapping = cohort.labels
    else:
        raise ValueError("labels required: pass --labels or a labeled cohort")
    missing = [s for s in sample_ids if s not in mapping]
    if missing:
        raise ValueError(f"{len(missing)} samples unlabeled (first: {missing[0]})")
    return np.array([mapping[s] for s in sample_ids])


def cmd_synth(args):
    spec = cohort_io.SyntheticSpec(
        args.n_samples, args.n_loci, args.n_clusters,
        args.background_rate, args.enriched_rate,
        args.enriched_loci_per_cluster, args.seed,
    )
    generated = cohort_io.generate_synthetic_cohort(spec)
    os.makedirs(args.out, exist_ok=True)
    cohort_io.write_profile_tsv(generated, os.path.join(args.out, "profiles.tsv"))
    cohort_io.write_label_tsv(
        generated.labels, generated.sample_ids, os.path.join(args.out, "labels.tsv")
    )
    print(f"wrote {generated.n_samples} samples x {generated.n_loci} loci to {args.out}")
    return 0


def cmd_preprocess(args):
    with open(_require_file(args.profiles), encoding="utf-8") as fh:
        if args.labels:
            with open(_require_file(args.labels), encoding="utf-8") as lf:
                parsed = cohort_io.ingest_profiles(fh, lf)
        else:
            parsed = cohort_io.ingest_profiles(fh)
    filtered, mask = cohort_io.filter_low_frequency(parsed, args.min_count)
    cohort_io.save_cohort(filtered, args.out)
    print(
        f"kept {int(mask.sum())} of {mask.size} loci (min_count {args.min_count}); "
        f"cache written to {args.out}"
    )
    return 0


def cmd_train(args):
    data = cohort_io.load_cohort(_require_file(args.cohort))
    merged = resolve_run_config(args)
    config = build_vae_config(merged, data.n_loci)
    split = cohort_io.holdout_split(data.n_samples, merged["train_fraction"], config.seed)
    model, history = train(data, split, config)
    os.makedirs(args.out, exist_ok=True)
    write_effective_config(merged, os.path.join(args.out, "effective-config.toml"))
    emit_history(history, os.path.join(args.out, "history.tsv"))
    save_checkpoint(model, config, config.epochs, os.path.join(args.out, "checkpoint.bin"))
    last = history[-1]
    print(
        f"trained {config.epochs} epochs; final recon {last.recon:.6g}, "
        f"val micro-F1 {last.val_micro_f1:.6g}; run dir {args.out}"
    )
    return 0


def cmd_embed(args):
    model, _, _ = load_checkpoint(_require_file(args.checkpoint))
    data = cohort_io.load_cohort(_require_file(args.cohort))
    dist = encode_batch(model, data.matrix.astype(np.float64))
    write_embeddings(data.sample_ids, dist.mu, args.out)
    print(f"wrote {len(data.sample_ids)} x {dist.mu.shape[1]} embeddings to {args.out}")
    return 0


def cmd_eval_recon(args):
    model, _, _ = load_checkpoint(_require_file(args.checkpoint))
    data = cohort_io.load_cohort(_require_file(args.cohort))
    x = data.matrix.astype(np.float64)
    probs = reconstruct_mu(model, x)
    f1 = metrics.micro_f1((probs >= 0.5).astype(np.uint8), data.matrix)
    cos = metrics.mean_cosine_similarity(probs, x)
    print(f"micro_f1\t{f1:.17g}")
    print(f"mean_cosine\t{cos:.17g}")
    return 0


def cmd_eval_cluster(args):
    if (args.embeddings is None) == (args.cohort is None):
        raise ValueError("pass exactly one of --embeddings or --cohort with --pca")
    data = None
    if args.embeddings is not None:
        sample_ids, points = read_embeddings(_require_file(args.embeddings))
    else:
        if args.pca is None:
            raise ValueError("--cohort requires --pca Q")
        data = cohort_io.load_cohort(_require_file(args.cohort))
        sample_ids = data.sample_ids
        pca = baselines.pca_fit(data.matrix.astype(np.float64), args.pca)
        points = baselines.pca_project(pca, data.matrix.astype(np.float64))
    labels = _load_labels_for(sample_ids, args.labels, data)
    k = args.k if args.k is not None else len(set(labels.tolist()))
    result = baselines.kmeans_cluster(points, k, args.seed, restarts=args.restarts)
    score = metrics.nmi(labels, result.labels)
    print(f"k\t{k}")
    print(f"nmi\t{score:.17g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("sample_id\tcluster\n")
            for sid, c in zip(sample_ids, result.labels):
                fh.write(f"{sid}\t{int(c)}\n")
    return 0


def cmd_probe(args):
    if (args.embeddings is None) == (args.cohort is None):
        raise ValueError("pass exactly one of --embeddings or --cohort")
    data = None
    if args.embeddings is not None:
        sample_ids, features = read_embeddings(_require_file(args.embeddings))
    else:
        data = cohort_io.load_cohort(_require_file(args.cohort))
        sample_ids = data.sample_ids
        features = data.matrix.astype(np.float64)
    raw = _load_labels_for(sample_ids, args.labels, data)
    try:
        y = np.array([int(v) for v in raw])
    except ValueError:
        raise ValueError("probe labels must be binary 0/1") from None
    split = cohort_io.holdout_split(len(sample_ids), args.train_fraction, args.seed)
    model = metrics.fit_probe(
        features[split.train_indices], y[split.train_indices],
        l2=args.l2, lr=args.lr, iters=args.iters,
    )
    report = metrics.eval_probe(model, features[split.val_indices], y[split.val_indices])
    print(f"precision\t{report.precision:.17g}")
    print(f"recall\t{report.recall:.17g}")
    print(f"f1\t{report.f1:.17g}")
    print(f"support\t0={report.support[0]}\t1={report.support[1]}")
    return 0


def cmd_sweep_latent(args):
    data = cohort_io.load_cohort(_require_file(args.cohort))
    merged = resolve_run_config(args)
    sizes = [int(s) for s in args.sizes.split(",") if s != ""]
    if not sizes:
        raise ValueError("no latent sizes given")
    plans = cohort_io.kfold_split(data.n_samples, args.folds, merged["seed"])
    lines = ["latent_dim\tmean_val_micro_f1\t" + "\t".join(f"fold{i}" for i in range(len(plans)))]
    for size in sizes:
        local = dict(merged, latent_dim=size)
        config = build_vae_config(local, data.n_loci)
        scores = []
        for plan in plans:
            _, history = train(data, plan, config)
            scores.append(history[-1].val_micro_f1)
        mean = float(np.mean(scores))
        lines.append(
            f"{size}\t{mean:.17g}\t" + "\t".join(f"{s:.17g}" for s in scores)
        )
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table)
    return 0


def cmd_plot_data(args):
    sample_ids, points = read_embeddings(_require_file(args.embeddings))
    if points.shape[1] != 2:
        raise ValueError(f"plot-data needs 2-D embeddings, got {points.shape[1]} columns")
    clusters = {}
    if args.assignments:
        with open(_require_file(args.assignments), encoding="utf-8") as fh:
            clusters = dict(cohort_io._parse_two_columns(fh, "sample_id\tcluster", "assignment"))
    labels = {}
    if args.labels:
        with open(_require_file(args.labels), encoding="utf-8") as fh:
            labels = cohort_io.read_labels(fh)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id\tx\ty\tcluster\tlabel\n")
        for sid, (x, y) in zip(sample_ids, points):
            fh.write(
                f"{sid}\t{x:.17g}\t{y:.17g}\t"
                f"{clusters.get(sid, 'NA')}\t{labels.get(sid, 'NA')}\n"
            )
    print(f"wrote scatter data for {len(sample_ids)} samples to {args.out}")
    return 0


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    for key in DEFAULTS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="V")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="somatic-vae",
        description="Compress binary somatic-mutation profiles with a VAE and evaluate against PCA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-cluster synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--n-loci", type=int, required=True)
    p.add_argument("--n-clusters", type=int, required=True)
    p.add_argument("--background-rate", type=float, required=True)
    p.add_argument("--enriched-rate", type=float, required=True)
    p.add_argument("--enriched-loci-per-cluster", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="ingest profiles, filter rare loci, cache the cohort")
    p.add_argument("--profiles", required=True)
    p.add_argument("--labels")
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train the VAE on a cached cohort")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="export mu embeddings for a cohort")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval-recon", help="micro-F1 and cosine of reconstructions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort", required=True)
    p.set_defaults(func=cmd_eval_recon)

    p = sub.add_parser("eval-cluster", help="k-means + NMI on embeddings or PCA projections")
    p.add_argument("--embeddings")
    p.add_argument("--cohort")
    p.add_argument("--pca", type=int, help="project the cohort to this many components")
    p.add_argument("--labels")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out", help="write per-sample cluster assignments here")
    p.set_defaults(func=cmd_eval_cluster)

    p = sub.add_parser("probe", help="logistic probe on embeddings or the raw matrix")
    p.add_argument("--embeddings")
    p.add_argument("--cohort")
    p.add_argument("--labels")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l2", type=float, default=1e-3)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=500)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("sweep-latent", help="k-fold validation micro-F1 per latent size")
    p.add_argument("--cohort", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated latent sizes")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep_latent)

    p = sub.add_parser("plot-data", help="emit scatter TSV from 2-D embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--assignments")
    p.add_argument("--labels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot_data)

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, CheckpointError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
