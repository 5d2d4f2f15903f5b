"""MLP variational autoencoder over binary mutation profiles.

Encoder: Dense -> BatchNorm -> LeakyReLU -> Dropout -> Dense -> BatchNorm
-> LeakyReLU, then two linear heads for mu and log-variance. Decoder
mirrors it back up with ReLU activations and a sigmoid output layer.
Training is plain minibatch RMSprop on
    recon + beta * KL + L1
with beta following the configured schedule. The whole run is a pure
function of (cohort, split, config.seed).

Every trainable tensor is a view into one float64 vector, model.theta,
laid out encoder, mu head, logvar head, decoder; the backward pass
writes the gradients into the same views of model.grad. The batch-norm
running statistics are views of a second vector, model.stats, in the
same layer order.
"""

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .layers import (
    INFERENCE,
    TRAIN,
    Activation,
    BatchNorm,
    Dense,
    Dropout,
    init_layer_params,
    stack_backward,
    stack_forward,
    stack_l1_penalty,
    stack_size,
    stack_views,
)
from .gradcheck import FD_DTYPE, compare_grads, finite_difference_grads
from .losses import (
    BetaSchedule,
    beta_at_epoch,
    kl_divergence,
    kl_grads,
    reconstruction_grad,
    reconstruction_loss,
    total_loss,
)
from .metrics import mean_cosine_similarity, micro_f1
from .optim import init_rmsprop, rmsprop_update
from .seeding import sub_rng


@dataclass
class VaeConfig:
    input_dim: int
    hidden_dims: tuple = (1024, 256)
    latent_dim: int = 64
    dropout_rate: float = 0.2
    l1_coefficient: float = 1e-5
    leaky_slope: float = 0.3
    loss_kind: str = "soft_f1"  # bce | soft_f1
    beta_schedule: BetaSchedule = field(default_factory=BetaSchedule)
    learning_rate: float = 1e-3
    rho: float = 0.9
    epsilon: float = 1e-8
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0

    @classmethod
    def from_dict(cls, values):
        """Inverse of dataclasses.asdict, validated: every field of the
        config and of its beta schedule must be present, and no other."""
        for kind, given in ((cls, values), (BetaSchedule, values.get("beta_schedule", {}))):
            names = {f.name for f in fields(kind)}
            for problem, keys in (("missing", names - given.keys()), ("unknown", given.keys() - names)):
                if keys:
                    raise ValueError(f"{problem} config field {', '.join(sorted(keys))}")
        config = cls(**{**values, "hidden_dims": tuple(values["hidden_dims"]),
                        "beta_schedule": BetaSchedule(**values["beta_schedule"])})
        config.validate()
        return config

    def validate(self):
        _check_field_types(self)
        _check_field_types(self.beta_schedule)
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if len(self.hidden_dims) != 2 or any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be two dimensions >= 1")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.l1_coefficient < 0.0:
            raise ValueError("l1_coefficient must be nonnegative")
        if self.loss_kind not in ("bce", "soft_f1"):
            raise ValueError("loss_kind must be bce or soft_f1")
        self.beta_schedule.validate()
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def _check_field_types(config):
    """Every int field (and hidden_dims entry) must hold an integral number
    and every float field a real one; a bool is neither."""
    for f in fields(config):
        kind = {int: numbers.Integral, tuple: numbers.Integral, float: numbers.Real}.get(f.type)
        values = getattr(config, f.name)
        for value in values if f.type is tuple else (values,):
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                name = f"{f.name} entry" if f.type is tuple else f.name
                noun = "an integer" if kind is numbers.Integral else "a real number"
                raise ValueError(f"{name} must be {noun}, got {value!r}")


@dataclass
class LatentDistribution:
    mu: np.ndarray
    logvar: np.ndarray


@dataclass
class EpochStats:
    epoch: int
    recon: float
    kl: float
    l1: float
    beta: float
    total: float
    val_micro_f1: float
    val_cosine: float


@dataclass
class VaeModel:
    config: VaeConfig
    enc_specs: list
    enc_params: list
    mu_specs: list
    mu_params: list
    lv_specs: list
    lv_params: list
    dec_specs: list
    dec_params: list
    theta: np.ndarray  # every trainable scalar; the params dicts view it
    grad: np.ndarray  # twin of theta, written by the backward pass
    grads: list  # per stack, per layer views into grad
    stats: np.ndarray  # batch-norm running statistics; the params dicts view it

    def param_stacks(self):
        """(specs, params) pairs in canonical order."""
        return [
            (self.enc_specs, self.enc_params),
            (self.mu_specs, self.mu_params),
            (self.lv_specs, self.lv_params),
            (self.dec_specs, self.dec_params),
        ]

    def flat_params(self):
        """One flat list of parameter dicts (canonical order, shared refs)."""
        return [p for _, params in self.param_stacks() for p in params]

    def l1_penalty(self):
        return sum(stack_l1_penalty(specs, params) for specs, params in self.param_stacks())


def _architecture(config):
    h1, h2 = (int(h) for h in config.hidden_dims)
    d, q = int(config.input_dim), int(config.latent_dim)
    l1 = float(config.l1_coefficient)
    enc = [
        Dense(d, h1, l1),
        BatchNorm(h1),
        Activation("leaky_relu", slope=float(config.leaky_slope)),
        Dropout(float(config.dropout_rate)),
        Dense(h1, h2, l1),
        BatchNorm(h2),
        Activation("leaky_relu", slope=float(config.leaky_slope)),
    ]
    mu = [Dense(h2, q, l1)]
    lv = [Dense(h2, q, l1)]
    dec = [
        Dense(q, h2, l1),
        BatchNorm(h2),
        Activation("relu"),
        Dropout(float(config.dropout_rate)),
        Dense(h2, h1, l1),
        BatchNorm(h1),
        Activation("relu"),
        Dense(h1, d, l1),
        Activation("sigmoid"),
    ]
    return enc, mu, lv, dec


def _bind(config, theta=None):
    """A model whose trainable tensors are views into theta (a fresh,
    unfilled vector when None), with a zeroed twin gradient vector, and
    whose running statistics are views into a fresh, unfilled stats."""
    stacks = _architecture(config)
    if theta is None:
        theta = np.empty(sum(stack_size(specs) for specs in stacks))
    grad = np.zeros(theta.size, theta.dtype)  # calloc: no memory until written
    stats = np.empty(sum(stack_size(specs, buffers=True) for specs in stacks))
    params, grads, offset, stats_offset = [], [], 0, 0
    for specs in stacks:
        views, _ = stack_views(specs, theta, offset)
        gviews, offset = stack_views(specs, grad, offset)
        sviews, stats_offset = stack_views(specs, stats, stats_offset, buffers=True)
        params.append([{**v, **s} for v, s in zip(views, sviews)])
        grads.append(gviews)
    # the dataclass fields take each stack's specs, then its params
    specs_and_params = [part for pair in zip(stacks, params) for part in pair]
    return VaeModel(config, *specs_and_params, theta, grad, grads, stats)


def build_vae(config, rng):
    """Initialize a model: Glorot-uniform weights, zero biases, unit
    batch-norm scale. Draw order is encoder, mu head, logvar head,
    decoder."""
    config.validate()
    model = _bind(config)
    for specs, params in model.param_stacks():
        for spec, p in zip(specs, params):
            for key, value in init_layer_params(spec, rng).items():
                p[key][...] = value
    return model


def count_parameters(model):
    """Trainable scalars (weights, biases, batch-norm scale/shift)."""
    return model.theta.size


def _check_binary(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D batch")
    if x.size and not np.isin(x, (0.0, 1.0)).all():
        raise ValueError("encoder input entries must be 0 or 1")
    return x


def encode_batch(model, x, mode=INFERENCE, rng=None):
    """Run the encoder and both heads; returns the latent Gaussian."""
    x = _check_binary(x)
    if x.shape[1] != model.config.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} columns, model expects {model.config.input_dim}"
        )
    h, _ = stack_forward(model.enc_specs, model.enc_params, x, mode, rng=rng)
    mu, _ = stack_forward(model.mu_specs, model.mu_params, h, mode)
    lv, _ = stack_forward(model.lv_specs, model.lv_params, h, mode)
    return LatentDistribution(mu, lv)


def decode_batch(model, z, mode=INFERENCE, rng=None):
    """Decode latent points to per-locus probabilities in (0, 1)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.config.latent_dim:
        raise ValueError(f"latent batch must have {model.config.latent_dim} columns")
    probs, _ = stack_forward(model.dec_specs, model.dec_params, z, mode, rng=rng)
    # sigmoid can round to exactly 0 or 1 at extreme logits; keep the
    # documented open interval
    return np.clip(probs, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def reconstruct_mu(model, x):
    """Deterministic reconstruction through mu (inference mode)."""
    dist = encode_batch(model, x, INFERENCE)
    return decode_batch(model, dist.mu, INFERENCE)


def _forward_train(model, x, beta, rngs, masks=None, eps=None, update_running=True):
    """One training-mode pass; returns loss breakdown plus everything the
    backward pass needs. masks/eps, when given, freeze the stochastic path."""
    enc_masks = masks[0] if masks is not None else None
    dec_masks = masks[1] if masks is not None else None
    h, enc_tape = stack_forward(
        model.enc_specs, model.enc_params, x, TRAIN,
        rng=None if enc_masks is not None else rngs.get("dropout"),
        masks=enc_masks, update_running=update_running,
    )
    mu, mu_tape = stack_forward(model.mu_specs, model.mu_params, h, TRAIN)
    lv, lv_tape = stack_forward(model.lv_specs, model.lv_params, h, TRAIN)
    if eps is None:
        eps = rngs["reparam"].standard_normal(mu.shape)
    z = mu + np.exp(0.5 * lv) * eps
    probs, dec_tape = stack_forward(
        model.dec_specs, model.dec_params, z, TRAIN,
        rng=None if dec_masks is not None else rngs.get("dropout"),
        masks=dec_masks, update_running=update_running,
    )
    recon = reconstruction_loss(model.config.loss_kind, probs, x)
    kl = kl_divergence(mu, lv)
    breakdown = total_loss(recon, kl, model.l1_penalty(), beta)
    return {
        "breakdown": breakdown,
        "probs": probs,
        "mu": mu,
        "lv": lv,
        "eps": eps,
        "tapes": (enc_tape, mu_tape, lv_tape, dec_tape),
    }


def _backward_train(model, x, beta, fwd):
    """Writes the gradients of the total loss into model.grad; returns its
    per-layer views in the canonical flat order of model.flat_params()."""
    enc_tape, mu_tape, lv_tape, dec_tape = fwd["tapes"]
    enc_grads, mu_grads, lv_grads, dec_grads = model.grads
    mu, lv, eps = fwd["mu"], fwd["lv"], fwd["eps"]
    dprobs = reconstruction_grad(model.config.loss_kind, fwd["probs"], x)
    dz = stack_backward(model.dec_specs, model.dec_params, dec_tape, dprobs, dec_grads)
    dmu_kl, dlv_kl = kl_grads(mu, lv)
    dmu = dz + beta * dmu_kl
    dlv = dz * eps * 0.5 * np.exp(0.5 * lv) + beta * dlv_kl
    dh_mu = stack_backward(model.mu_specs, model.mu_params, mu_tape, dmu, mu_grads)
    dh_lv = stack_backward(model.lv_specs, model.lv_params, lv_tape, dlv, lv_grads)
    stack_backward(model.enc_specs, model.enc_params, enc_tape, dh_mu + dh_lv, enc_grads)
    return enc_grads + mu_grads + lv_grads + dec_grads


def _fd_objective(model, x, beta, fwd):
    """Total loss of fwd's training pass, dropout masks and noise frozen,
    replayed at FD_DTYPE on a copy of model.theta taken at each call, so
    it sees every in-place perturbation of the model's parameter views."""
    enc_tape, _, _, dec_tape = fwd["tapes"]
    masks = (enc_tape.masks, dec_tape.masks)
    x_fd = x.astype(FD_DTYPE)
    wide = _bind(model.config, np.empty(model.theta.size, FD_DTYPE))

    def objective(_params):
        wide.theta[...] = model.theta
        out = _forward_train(
            wide, x_fd, beta, rngs={}, masks=masks, eps=fwd["eps"], update_running=False
        )
        return out["breakdown"].total

    return objective


def train(cohort, split, config):
    """Train on the split's training rows; returns (model, history).

    Per epoch: seeded shuffle, minibatches (a last partial batch is kept,
    except that a single row joins the batch before it, where batch norm
    would otherwise see zero variance), forward in train mode, one RMSprop
    step over model.theta, then validation micro-F1 and mean cosine
    similarity on deterministic mu reconstructions. History loss
    components are per-sample means over the epoch's batches.
    """
    config.validate()
    if cohort.n_loci != config.input_dim:
        raise ValueError(
            f"cohort has {cohort.n_loci} loci, config.input_dim is {config.input_dim}"
        )
    train_idx = np.asarray(split.train_indices, dtype=int)
    val_idx = np.asarray(split.val_indices, dtype=int)
    if train_idx.size == 0:
        raise ValueError("empty training split")
    x_all = cohort.matrix.astype(np.float64)
    x_train = x_all[train_idx]
    x_val = x_all[val_idx] if val_idx.size else None

    rngs = {
        "dropout": sub_rng(config.seed, "dropout"),
        "reparam": sub_rng(config.seed, "reparam"),
    }
    model = build_vae(config, sub_rng(config.seed, "init"))
    state = init_rmsprop(model.theta)
    shuffle_rng = sub_rng(config.seed, "shuffle")

    history = []
    n, bs = train_idx.size, int(config.batch_size)
    starts = list(range(0, n, bs))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for epoch in range(int(config.epochs)):
        beta = beta_at_epoch(config.beta_schedule, epoch)
        perm = shuffle_rng.permutation(n)
        sums = {"recon": 0.0, "kl": 0.0, "l1": 0.0, "total": 0.0}
        seen = 0
        for batch, (start, stop) in enumerate(zip(starts, starts[1:] + [n])):
            rows = perm[start:stop]
            xb = x_train[rows]
            try:
                fwd = _forward_train(model, xb, beta, rngs)
            except FloatingPointError as exc:
                raise FloatingPointError(f"epoch {epoch} batch {batch}: {exc}") from None
            breakdown = fwd["breakdown"]
            if not np.isfinite(breakdown.total):
                raise FloatingPointError(f"epoch {epoch} batch {batch}: non-finite loss")
            _backward_train(model, xb, beta, fwd)
            rmsprop_update(
                model.theta, model.grad, state,
                lr=config.learning_rate, rho=config.rho, eps=config.epsilon,
            )
            for key in sums:
                sums[key] += getattr(breakdown, key) * len(rows)
            seen += len(rows)
        if x_val is not None:
            probs = reconstruct_mu(model, x_val)
            val_f1 = micro_f1((probs >= 0.5).astype(np.uint8), x_val.astype(np.uint8))
            val_cos = mean_cosine_similarity(probs, x_val)
        else:
            val_f1 = val_cos = float("nan")
        mean = {key: total / seen for key, total in sums.items()}
        history.append(EpochStats(
            epoch, mean["recon"], mean["kl"], mean["l1"], beta, mean["total"], val_f1, val_cos
        ))
    return model, history


def vae_grad_check(config, beta, batch_size=4, tolerance=1e-5, fd_step=1e-5):
    """Full-model finite-difference check of the training gradients.

    Builds a model from config, draws one binary batch, freezes the
    dropout masks and reparameterization noise, then compares the
    analytic gradients of recon + beta * KL + L1 against central
    differences for every parameter.
    """
    config.validate()
    rng = sub_rng(config.seed, "gradcheck")
    model = build_vae(config, rng)
    x = (rng.random((batch_size, config.input_dim)) < 0.3).astype(np.float64)

    rngs = {"dropout": rng, "reparam": rng}
    fwd = _forward_train(model, x, beta, rngs)
    analytic = _backward_train(model, x, beta, fwd)
    objective = _fd_objective(model, x, beta, fwd)
    numeric = finite_difference_grads(objective, model.flat_params(), fd_step)
    return compare_grads(analytic, numeric, tolerance)
