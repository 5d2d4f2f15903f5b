"""Benchmark workloads: cohort shape, training recipe and seeds.

Each workload is a planted-cluster binary cohort (see ``inputs.py``)
pushed through the whole quickstart pipeline; why each exists is in
``BENCHMARK.json`` and ``README.md``. ``default_seed`` is the
seed gains are measured on; ``heldout_seed`` is kept back so a claimed
gain can be re-checked on inputs not used while writing the change.
"""

from dataclasses import dataclass

TRAIN_FRACTION = 0.8  # the CLI's default holdout split


@dataclass(frozen=True)
class Workload:
    name: str
    n_samples: int
    n_loci: int
    n_clusters: int
    background_rate: float
    enriched_rate: float
    loci_per_cluster: int
    min_count: int
    hidden_dims: tuple
    latent_dim: int
    batch_size: int
    dropout_rate: float
    l1_coefficient: float
    epochs: int
    default_seed: int
    heldout_seed: int
    # PCA-16 k-means NMI every seed reaches, or None where it is not
    # guaranteed (canonical seed 109 gives 0.90; tall seed 201 gave 0.9993
    # at an earlier 6000x800 shape)
    pca_nmi_gate: float | None = None

    def train_flags(self):
        """`somatic-vae train` options: soft-F1 loss, beta 1e-4 warmed up
        over 25 epochs, everything else from the workload."""
        return [
            "--hidden-dims", ",".join(str(h) for h in self.hidden_dims),
            "--latent-dim", str(self.latent_dim),
            "--batch-size", str(self.batch_size),
            "--dropout-rate", repr(self.dropout_rate),
            "--l1-coefficient", repr(self.l1_coefficient),
            "--loss-kind", "soft_f1",
            "--beta-max", "1e-4",
            "--warmup-epochs", "25",
            "--epochs", str(self.epochs),
            "--train-fraction", repr(TRAIN_FRACTION),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="canonical",
            n_samples=600, n_loci=2000, n_clusters=6,
            background_rate=0.01, enriched_rate=0.35, loci_per_cluster=40,
            min_count=5, hidden_dims=(1024, 256), latent_dim=16, batch_size=32,
            dropout_rate=0.0, l1_coefficient=0.0, epochs=4,
            default_seed=7, heldout_seed=1007,
        ),
        Workload(
            name="wide",
            n_samples=1000, n_loci=4000, n_clusters=6,
            background_rate=0.01, enriched_rate=0.35, loci_per_cluster=40,
            min_count=5, hidden_dims=(1024, 256), latent_dim=16, batch_size=32,
            dropout_rate=0.0, l1_coefficient=0.0, epochs=1,
            default_seed=11, heldout_seed=1011, pca_nmi_gate=1.0,
        ),
        Workload(
            name="tall",
            n_samples=4000, n_loci=800, n_clusters=6,
            background_rate=0.01, enriched_rate=0.35, loci_per_cluster=40,
            min_count=5, hidden_dims=(1024, 256), latent_dim=64, batch_size=256,
            dropout_rate=0.2, l1_coefficient=1e-5, epochs=2,
            default_seed=13, heldout_seed=1013,
        ),
        # tiny cohort for the benchmark's own smoke test; not in BENCHMARK.json
        Workload(
            name="smoke",
            n_samples=120, n_loci=300, n_clusters=3,
            background_rate=0.02, enriched_rate=0.5, loci_per_cluster=20,
            min_count=3, hidden_dims=(32, 16), latent_dim=4, batch_size=16,
            dropout_rate=0.1, l1_coefficient=1e-5, epochs=2,
            default_seed=3, heldout_seed=1003,
        ),
    )
}
