"""Compress sparse binary somatic-mutation profiles with a small VAE.

The package is organized as:

- :mod:`somatic_vae.cohort` - TSV ingestion, filtering, splits, synthesis
- :mod:`somatic_vae.layers` - dense / batch-norm / activation / dropout stacks
- :mod:`somatic_vae.losses` - reconstruction losses, KL term, beta schedule
- :mod:`somatic_vae.optim` - RMSprop, blocked in-place steps over spans of the parameters
- :mod:`somatic_vae.vae` - model assembly, training loop, encoding
- :mod:`somatic_vae.framing` - the CRC-checked container of both binary files
- :mod:`somatic_vae.checkpoint` - binary checkpoint format
- :mod:`somatic_vae.baselines` - PCA and k-means
- :mod:`somatic_vae.metrics` - micro-F1, cosine, NMI, logistic probe
- :mod:`somatic_vae.cli` - command-line pipeline
"""

from .baselines import (
    KmeansResult,
    PcaModel,
    kmeans_cluster,
    pca_fit,
    pca_project,
)
from .cohort import (
    Cohort,
    SplitPlan,
    SyntheticSpec,
    filter_low_frequency,
    generate_synthetic_cohort,
    holdout_split,
    ingest_profiles,
    kfold_split,
    load_cohort,
    read_labels,
    save_cohort,
    write_label_tsv,
    write_profile_tsv,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .losses import (
    BetaSchedule,
    VaeLossBreakdown,
    beta_at_epoch,
    kl_divergence,
    kl_grads,
    reconstruction_grad,
    reconstruction_loss,
    total_loss,
)
from .metrics import (
    ClassificationReport,
    ProbeModel,
    classification_report,
    eval_probe,
    fit_probe,
    mean_cosine_similarity,
    micro_f1,
    nmi,
)
from .optim import rmsprop_update
from .seeding import indexed_rng, sub_rng
from .vae import (
    EpochStats,
    LatentDistribution,
    VaeConfig,
    VaeModel,
    build_vae,
    count_parameters,
    decode_batch,
    encode_batch,
    reconstruct_mu,
    train,
)

__version__ = "0.1.0"

# every class and function imported above from the submodules
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith(__name__ + "."))
