"""The package's public names."""

import somatic_vae

PUBLIC = [
    "BetaSchedule", "CheckpointError", "ClassificationReport", "Cohort", "EpochStats",
    "KmeansResult", "LatentDistribution", "PcaModel", "ProbeModel", "SplitPlan",
    "SyntheticSpec", "VaeConfig", "VaeLossBreakdown", "VaeModel", "beta_at_epoch",
    "build_vae", "classification_report", "count_parameters", "decode_batch",
    "encode_batch", "eval_probe", "filter_low_frequency", "fit_probe",
    "generate_synthetic_cohort", "holdout_split", "indexed_rng", "ingest_profiles",
    "kfold_split", "kl_divergence", "kl_grads", "kmeans_cluster", "load_checkpoint",
    "load_cohort", "mean_cosine_similarity", "micro_f1", "nmi", "pca_fit", "pca_project",
    "read_labels", "reconstruct_mu", "reconstruction_grad", "reconstruction_loss",
    "rmsprop_update", "save_checkpoint", "save_cohort", "sub_rng", "total_loss", "train",
    "write_label_tsv", "write_profile_tsv",
]


def test_public_names_are_pinned():
    assert somatic_vae.__all__ == PUBLIC


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from somatic_vae import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
