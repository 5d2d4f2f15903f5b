"""Command-line entry point.

Subcommands: synth, preprocess, train, embed, eval-recon, eval-cluster,
probe, sweep-latent, plot-data. Training options come from a flat
``key = value`` config file or ``--key value`` flags (flags win); the
resolved configuration is echoed to the run directory, to reproduce the
run when fed back. Every TSV goes through cohort.read_tsv and write_tsv.
Exit codes: 0 success, 1 runtime or input failure, 2 usage error.
"""

import argparse
import os
import sys
from array import array
from dataclasses import MISSING, asdict, astuple, fields

import numpy as np

from . import baselines, cohort as cohort_io, metrics
from .checkpoint import load_checkpoint, save_checkpoint
from .losses import BetaSchedule
from .vae import EpochStats, VaeConfig, encode_batch, reconstruction_scores, row_chunks, train

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
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if not key or not text:  # no "=" leaves text empty
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


def emit_history(history, path):
    """History TSV: one row per epoch, 17 significant digits for reals."""
    if not history:
        raise ValueError("history is empty")
    names = [f.name for f in fields(EpochStats)]
    cohort_io.write_tsv(path, "\t".join(names), map(astuple, history),
                        "%d" + "\t%.17g" * (len(names) - 1))


def write_embeddings(sample_ids, z, path):
    q = z.shape[1]
    cohort_io.write_tsv(path, "sample_id" + "".join(f"\tz{j}" for j in range(q)),
                        ((sid, *row.tolist()) for sid, row in zip(sample_ids, z)),
                        "%s" + "\t%.17g" * q)  # each value as a Python float


def _as_written(text):
    # float() also takes whitespace, "_" and non-ASCII digits; %.17g writes none
    return text.isascii() and not (" " in text or "_" in text or "\v" in text or "\f" in text)


def read_embeddings(path):
    """(sample ids, n x q float64 matrix) of an embedding TSV; a repeated
    sample_id, a value that is not a number as write_embeddings writes it
    or a non-finite value is an error that names its line, and so is a
    file with no rows or no latent columns."""
    with open(path, encoding="utf-8") as fh:
        rows = cohort_io.read_tsv(fh, None, "embedding")
        header = next(rows)[1]
        if header[0] != "sample_id" or header[1:] != [f"z{j}" for j in range(len(header) - 1)]:
            raise ValueError(f"{path}: not an embedding TSV")
        if len(header) == 1:
            raise ValueError(f"{path}: no embedding columns")
        lines, values = {}, array("d")  # sample_id -> its line number, in file order
        for lineno, fields in rows:
            first = lines.setdefault(fields[0], lineno)
            if first != lineno:
                raise ValueError(f"{path} line {lineno}: sample_id {fields[0]!r} repeats line {first}")
            numbers = fields[1:]  # a slice costs less than a starred unpacking
            try:
                if not _as_written("".join(numbers)):
                    bad = next(v for v in numbers if not _as_written(v))
                    raise ValueError(f"could not convert string to float: {bad!r}")
                values.fromlist(list(map(float, numbers)))  # faster than extend(map(...))
            except ValueError as err:  # a value that is not a number
                raise ValueError(f"{path} line {lineno}: {err}") from None
    if not lines:
        raise ValueError(f"{path}: no embedding rows")
    z = np.frombuffer(values, np.float64).reshape(len(lines), -1)
    row = metrics.first_non_finite_row(z)
    if row is not None:
        raise ValueError(f"{path} line {list(lines.values())[row]}: non-finite value")
    return list(lines), z


def _load_labels_for(sample_ids, labels_path=None, cohort=None):
    if labels_path is not None:
        with open(labels_path, encoding="utf-8") as fh:
            mapping = cohort_io.read_labels(fh)
    elif cohort is not None and cohort.labels is not None:
        mapping = cohort.labels
    else:
        raise ValueError("labels required: pass --labels or a labeled cohort")
    return cohort_io.align_labels(mapping, sample_ids)


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
    with open(args.profiles, encoding="utf-8") as fh:
        if args.labels:
            with open(args.labels, encoding="utf-8") as lf:
                parsed = cohort_io.ingest_profiles(fh, lf)
        else:
            parsed = cohort_io.ingest_profiles(fh)
    filtered, mask = cohort_io.filter_low_frequency(parsed, args.min_count)
    if not mask.any():
        most = int(parsed.matrix.sum(axis=0, dtype=np.int64).max())
        raise ValueError(
            f"--min-count {args.min_count} keeps none of the {mask.size} loci "
            f"(the most frequent is mutated in {most} samples); no cache written"
        )
    cohort_io.save_cohort(filtered, args.out)
    print(
        f"kept {int(mask.sum())} of {mask.size} loci (min_count {args.min_count}); "
        f"cache written to {args.out}"
    )
    return 0


def cmd_train(args):
    data = cohort_io.load_cohort(args.cohort)
    merged = resolve_run_config(args)
    config = build_vae_config(merged, data.n_loci)
    split = cohort_io.holdout_split(data.n_samples, merged["train_fraction"], config.seed)
    model, history = train(data, split, config)
    os.makedirs(args.out, exist_ok=True)
    write_effective_config(merged, os.path.join(args.out, "effective-config.toml"))
    emit_history(history, os.path.join(args.out, "history.tsv"))
    save_checkpoint(model, config.epochs, os.path.join(args.out, "checkpoint.bin"))
    last = history[-1]
    print(
        f"trained {config.epochs} epochs; final recon {last.recon:.6g}, "
        f"val micro-F1 {last.val_micro_f1:.6g}; run dir {args.out}"
    )
    return 0


def cmd_embed(args):
    model, _ = load_checkpoint(args.checkpoint)
    data = cohort_io.load_cohort(args.cohort)
    mu = np.empty((data.n_samples, model.config.latent_dim), model.theta.dtype)
    for rows, chunk in row_chunks(data.matrix, model.theta.dtype):
        mu[rows] = encode_batch(model, chunk).mu
        del chunk
    write_embeddings(data.sample_ids, mu, args.out)
    print(f"wrote {len(data.sample_ids)} x {mu.shape[1]} embeddings to {args.out}")
    return 0


def cmd_eval_recon(args):
    model, _ = load_checkpoint(args.checkpoint)
    data = cohort_io.load_cohort(args.cohort)
    f1, cos = reconstruction_scores(model, data.matrix)
    print(f"micro_f1\t{f1:.17g}")
    print(f"mean_cosine\t{cos:.17g}")
    return 0


def cmd_eval_cluster(args):
    data = None
    if args.embeddings is not None:
        if args.pca is not None:
            raise ValueError("--pca projects a cohort: pass it with --cohort, not --embeddings")
        sample_ids, points = read_embeddings(args.embeddings)
    else:
        if args.pca is None:
            raise ValueError("--cohort requires --pca Q")
        data = cohort_io.load_cohort(args.cohort)
        sample_ids = data.sample_ids
        pca = baselines.pca_fit(data.matrix, args.pca)  # uint8, read in chunks
        points = baselines.pca_project(pca, data.matrix)
    labels = _load_labels_for(sample_ids, args.labels, data)
    k = args.k if args.k is not None else len(set(labels.tolist()))
    result = baselines.kmeans_cluster(points, k, args.seed, restarts=args.restarts)
    score = metrics.nmi(labels, result.labels)
    print(f"k\t{k}")
    print(f"nmi\t{score:.17g}")
    if args.out:
        cohort_io.write_tsv(args.out, cohort_io.ASSIGNMENT_HEADER,
                            zip(sample_ids, result.labels.tolist()))
    return 0


def cmd_probe(args):
    data = None
    if args.embeddings is not None:
        sample_ids, features = read_embeddings(args.embeddings)
    else:
        data = cohort_io.load_cohort(args.cohort)
        sample_ids = data.sample_ids
        features = data.matrix  # uint8: the probe works on its nonzeros
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
    data = cohort_io.load_cohort(args.cohort)
    merged = resolve_run_config(args)
    sizes = []
    for k, entry in enumerate(args.sizes.split(","), 1):
        try:
            problem = "a repeat" if int(entry) in sizes else None
        except ValueError:
            problem = "not an integer" if entry else "empty"
        if problem:
            raise ValueError(f"--sizes {args.sizes!r}: entry {k} ({entry!r}) is {problem}")
        sizes.append(int(entry))
    plans = cohort_io.kfold_split(data.n_samples, args.folds, merged["seed"])
    header = "latent_dim\tmean_val_micro_f1" + "".join(f"\tfold{i}" for i in range(len(plans)))
    template = "%s" + "\t%.17g" * (1 + len(plans))
    rows = []
    for size in sizes:
        config = build_vae_config(dict(merged, latent_dim=size), data.n_loci)
        scores = [train(data, plan, config)[1][-1].val_micro_f1 for plan in plans]
        rows.append((size, float(np.mean(scores)), *scores))
    print("\n".join([header] + [template % r for r in rows]))
    if args.out:
        cohort_io.write_tsv(args.out, header, rows, template)
    return 0


def cmd_plot_data(args):
    sample_ids, points = read_embeddings(args.embeddings)
    if points.shape[1] != 2:
        raise ValueError(f"plot-data needs 2-D embeddings, got {points.shape[1]} columns")
    clusters = {}
    if args.assignments:
        with open(args.assignments, encoding="utf-8") as fh:
            clusters = cohort_io.read_sample_map(fh, cohort_io.ASSIGNMENT_HEADER, "assignment")
    labels = {}
    if args.labels:
        with open(args.labels, encoding="utf-8") as fh:
            labels = cohort_io.read_labels(fh)
    cohort_io.write_tsv(args.out, "sample_id\tx\ty\tcluster\tlabel",
                        ((sid, x, y, clusters.get(sid, "NA"), labels.get(sid, "NA"))
                         for sid, (x, y) in zip(sample_ids, points.tolist())),
                        "%s\t%.17g\t%.17g\t%s\t%s")
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--embeddings")
    source.add_argument("--cohort")
    p.add_argument("--pca", type=int, help="project the cohort to this many components")
    p.add_argument("--labels")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out", help="write per-sample cluster assignments here")
    p.set_defaults(func=cmd_eval_cluster)

    p = sub.add_parser("probe", help="logistic probe on embeddings or the raw matrix")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--embeddings")
    source.add_argument("--cohort")
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
    except (ValueError, FloatingPointError, OSError) as exc:  # CheckpointError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
