"""MLP variational autoencoder over binary mutation profiles.

model.specs and model.params list every layer in the order of theta;
model.stacks slices them into the encoder "enc", Dense -> BatchNorm ->
LeakyReLU -> Dropout -> Dense -> BatchNorm -> LeakyReLU; the linear
heads "mu" and "lv" (log-variance); and the decoder "dec", which mirrors
the encoder with ReLU activations and a sigmoid output layer. Training
is plain minibatch RMSprop on recon + beta * KL + L1, with beta
following the configured schedule; the whole run is a pure function of
(cohort, split, config.seed).

Every trainable tensor is a view into one float32 vector, model.theta;
the batch-norm running statistics are views of model.stats. Both are
laid out layer by layer, and layer i of model.specs is the step hook's
i and the gradient check's layer{i} (tests/fdcheck.py). Training steps
RMSprop inside the backward pass on each gradient span as soon as it is
computed (layers.stack_backward), over the same rows of one accumulator
vector laid out as theta. Training and inference compute in float32;
the random draws (initial weights, dropout uniforms, reparameterization
noise) stay float64 and are rounded, so the streams do not depend on
the model's dtype.
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
from .losses import (
    BetaSchedule,
    beta_at_epoch,
    kl_divergence,
    kl_grads,
    reconstruction_grad,
    reconstruction_loss,
    total_loss,
)
from .metrics import _as_bool, mean_cosine_similarity, micro_f1
from .optim import rmsprop_update
from .seeding import sub_rng

CHUNK_ROWS = 512  # most rows a streamed pass converts to float at once


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
        for config in (self, self.beta_schedule):
            _check_field_types(config)
            _check_float32(config)
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
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError("leaky_slope must be in [0, 1]")
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
    and every float field a finite real one; a bool is neither."""
    for f in fields(config):
        kind = {int: numbers.Integral, tuple: numbers.Integral, float: numbers.Real}.get(f.type)
        values = getattr(config, f.name)
        for value in values if f.type is tuple else (values,):
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                name = f"{f.name} entry" if f.type is tuple else f.name
                noun = "an integer" if kind is numbers.Integral else "a real number"
                raise ValueError(f"{name} must be {noun}, got {value!r}")
            if kind is numbers.Real and not abs(value) < np.inf:  # nan compares false
                raise ValueError(f"{f.name} must be finite, got {value!r}")


def _check_float32(config):
    """Training computes in float32: no float field may overflow it, nor
    round to 0 in it unless it is 0."""
    for f in fields(config):
        if f.type is float:
            value = getattr(config, f.name)
            with np.errstate(over="ignore"):
                single = np.float32(value)
            if np.isinf(single) or (single == 0.0 and value != 0.0):
                raise ValueError(f"{f.name} is {single} in float32, got {value!r}")


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
    specs: list  # every layer spec, in the order of theta
    params: list  # per layer, views into theta (and stats, for batch norm)
    stacks: dict  # "enc", "mu", "lv", "dec" -> slice of specs and params
    theta: np.ndarray  # every trainable scalar; params view it
    stats: np.ndarray  # batch-norm running statistics; params view it

    def forward(self, name, x, mode, **kwargs):
        """stack_forward over the layers of stack name."""
        s = self.stacks[name]
        return stack_forward(self.specs[s], self.params[s], x, mode, **kwargs)


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
    return {"enc": enc, "mu": [Dense(h2, q, l1)], "lv": [Dense(h2, q, l1)], "dec": dec}


def _bind(config, theta=None):
    """A model whose trainable tensors are views into theta (a fresh,
    unfilled float32 vector when None), and whose running statistics are
    views into a fresh, unfilled stats vector of theta's dtype."""
    specs, stacks = [], {}
    for name, layers in _architecture(config).items():
        stacks[name] = slice(len(specs), len(specs) + len(layers))
        specs += layers
    if theta is None:
        theta = np.empty(stack_size(specs), np.float32)
    stats = np.empty(stack_size(specs, buffers=True), theta.dtype)
    params = [{**v, **s} for v, s in zip(stack_views(specs, theta),
                                         stack_views(specs, stats, buffers=True))]
    return VaeModel(config, specs, params, stacks, theta, stats)


def build_vae(config, rng):
    """Initialize a model: Glorot-uniform weights, zero biases, unit
    batch-norm scale. Draw order is encoder, mu head, logvar head,
    decoder; the float64 draws are rounded to float32."""
    config.validate()
    model = _bind(config)
    for spec, p in zip(model.specs, model.params):
        init_layer_params(spec, rng, p)
    return model


def count_parameters(model):
    """Trainable scalars (weights, biases, batch-norm scale/shift)."""
    return model.theta.size


def encode_batch(model, x):
    """Run the encoder and both heads on a 2-D batch of 0/1 entries;
    returns the latent Gaussian."""
    x = np.asarray(x, dtype=model.theta.dtype)
    if x.ndim != 2:
        raise ValueError("expected a 2-D batch")
    _as_bool(x, "encoder input")
    if x.shape[1] != model.config.input_dim:
        raise ValueError(f"input has {x.shape[1]} columns, model expects {model.config.input_dim}")
    mu, lv, _ = _encode(model, x, INFERENCE)
    return LatentDistribution(mu, lv)


def _encode(model, x, mode, rng=None):
    """The encoder and both heads: (mu, logvar, their tapes by stack name)."""
    tapes = {}
    h, tapes["enc"] = model.forward("enc", x, mode, rng=rng)
    mu, tapes["mu"] = model.forward("mu", h, mode)
    lv, tapes["lv"] = model.forward("lv", h, mode)
    return mu, lv, tapes


def decode_batch(model, z):
    """Decode latent points to per-locus probabilities in (0, 1)."""
    z = np.asarray(z, dtype=model.theta.dtype)
    if z.ndim != 2 or z.shape[1] != model.config.latent_dim:
        raise ValueError(f"latent batch must have {model.config.latent_dim} columns")
    probs, _ = model.forward("dec", z, INFERENCE)
    # sigmoid can round to exactly 0 or 1 at extreme logits; keep the
    # documented open interval (in place: probs is fresh, its tape dropped)
    zero, one = probs.dtype.type(0), probs.dtype.type(1)
    return np.clip(probs, np.nextafter(zero, one), np.nextafter(one, zero), out=probs)


def reconstruct_mu(model, x):
    """Deterministic reconstruction through mu (inference mode)."""
    dist = encode_batch(model, x)
    return decode_batch(model, dist.mu)


def row_chunks(matrix, dtype):
    """(rows, chunk) pairs over the rows of a matrix: rows a slice,
    chunk those rows converted to dtype. One chunk when there are at most
    CHUNK_ROWS rows, else the fewest near-equal chunks of at most
    CHUNK_ROWS, each then at least CHUNK_ROWS // 2 rows long: a pass over
    a few rows can round differently from a pass over many. A loop over
    the chunks deletes each (and what it made from it) before asking for
    the next, which is otherwise converted while the last is still alive:
    that doubled pca_project's peak on a 1000 x 3896 cohort."""
    n = matrix.shape[0]
    count = max(1, -(-n // CHUNK_ROWS))
    bounds = [i * n // count for i in range(count + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        yield slice(start, stop), matrix[start:stop].astype(dtype)


def reconstruction_scores(model, x):
    """(micro-F1, mean cosine similarity) of the deterministic mu
    reconstructions of the 0/1 rows x against x, streamed over row chunks."""
    totals = np.zeros(3, np.int64)
    cosines = np.empty(x.shape[0])
    for rows, chunk in row_chunks(x, model.theta.dtype):
        probs = reconstruct_mu(model, chunk)
        f1 = micro_f1(probs >= 0.5, x[rows], totals)
        cos = mean_cosine_similarity(probs, chunk, cosines[:rows.stop])
        del chunk, probs
    return f1, cos


def _forward_train(model, x, beta, rngs):
    """One training-mode pass, a function of (theta, x, the states of
    rngs["dropout"] and rngs["reparam"]); returns loss breakdown plus
    everything the backward pass needs."""
    mu, lv, tapes = _encode(model, x, TRAIN, rngs["dropout"])
    eps = rngs["reparam"].standard_normal(mu.shape).astype(mu.dtype, copy=False)
    std = np.exp(0.5 * lv)
    z = mu + std * eps
    probs, tapes["dec"] = model.forward("dec", z, TRAIN, rng=rngs["dropout"])
    recon = reconstruction_loss(model.config.loss_kind, probs, x)
    kl = kl_divergence(mu, lv)
    # per stack, then over stacks: one flat float32 sum rounds history.tsv differently
    l1 = sum(stack_l1_penalty(model.specs[s], model.params[s]) for s in model.stacks.values())
    breakdown = total_loss(recon, kl, l1, beta)
    return {"breakdown": breakdown, "probs": probs, "mu": mu, "lv": lv, "eps": eps, "std": std,
            "tapes": tapes}  # tapes by stack name


def _backward_train(model, x, beta, fwd, step):
    """Backpropagates the total loss, each gradient span handed to step
    with its layer's index in model.specs."""
    tapes = fwd["tapes"]
    mu, lv, eps, std = fwd["mu"], fwd["lv"], fwd["eps"], fwd["std"]

    def backward(name, dout, input_grad=True):
        s = model.stacks[name]
        return stack_backward(model.specs[s], model.params[s], tapes[name], dout,
                              lambda i, *span: step(s.start + i, *span), input_grad)

    dz = backward("dec", reconstruction_grad(model.config.loss_kind, fwd["probs"], x))
    dmu_kl, dlv_kl = kl_grads(mu, lv)
    dmu = dz + beta * dmu_kl
    dlv = dz * eps * 0.5 * std + beta * dlv_kl
    dh = backward("mu", dmu) + backward("lv", dlv)
    backward("enc", dh, input_grad=False)


def _rmsprop_step(model, accumulator, config):
    """A step hook that steps RMSprop over the rows of the parameter
    tensor and of accumulator (a vector laid out as theta, zeros before
    the first step) that each gradient span covers, looking
    rmsprop_update up at each call."""
    hyper = {"lr": config.learning_rate, "rho": config.rho, "eps": config.epsilon}
    acc = stack_views(model.specs, accumulator)

    def step(i, key, rows, grad, live=None):
        rmsprop_update(model.params[i][key][rows], grad, acc[i][key][rows], live=live, **hyper)

    return step


def train(cohort, split, config):
    """Train on the split's training rows; returns (model, history).

    Per epoch: seeded shuffle, minibatches (a last partial batch is kept,
    except that a single row joins the batch before it, where batch norm
    would otherwise see zero variance), each converted from the cohort's
    rows on its own, forward in train mode, then backward with the
    RMSprop step of each span of a layer's parameters (a bias, a block of
    weights, a batch-norm tensor) taken as soon as its gradient is
    computed; then validation micro-F1 and mean cosine similarity on
    deterministic mu reconstructions (reconstruction_scores). History
    loss components are per-sample means over the epoch's batches.
    """
    config.validate()
    if cohort.n_loci != config.input_dim:
        raise ValueError(
            f"cohort has {cohort.n_loci} loci, config.input_dim is {config.input_dim}"
        )
    train_idx = np.asarray(split.train_indices, dtype=int)
    val_idx = np.asarray(split.val_indices, dtype=int)
    if min(train_idx.size, config.batch_size) < 2:  # batch norm maps one row to its shift
        raise ValueError(f"a training split of {train_idx.size} rows in batches of "
                         f"{config.batch_size}: batch norm needs at least 2 rows per batch")
    x_val = cohort.matrix[val_idx]

    rngs = {
        "dropout": sub_rng(config.seed, "dropout"),
        "reparam": sub_rng(config.seed, "reparam"),
    }
    model = build_vae(config, sub_rng(config.seed, "init"))
    step = _rmsprop_step(model, np.zeros_like(model.theta), config)
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
            rows = train_idx[perm[start:stop]]
            xb = cohort.matrix[rows].astype(np.float32)  # exact: entries are 0/1
            try:
                fwd = _forward_train(model, xb, beta, rngs)
            except FloatingPointError as exc:
                raise FloatingPointError(f"epoch {epoch} batch {batch}: {exc}") from None
            breakdown = fwd["breakdown"]
            if not np.isfinite(breakdown.total):
                raise FloatingPointError(f"epoch {epoch} batch {batch}: non-finite loss")
            _backward_train(model, xb, beta, fwd, step)
            del fwd, xb  # else this batch's tape lives on beside the next one's
            for key in sums:
                sums[key] += float(getattr(breakdown, key)) * len(rows)
            seen += len(rows)
        if val_idx.size:
            val_f1, val_cos = reconstruction_scores(model, x_val)
        else:
            val_f1 = val_cos = float("nan")
        mean = {key: total / seen for key, total in sums.items()}
        history.append(EpochStats(
            epoch, mean["recon"], mean["kl"], mean["l1"], beta, mean["total"], val_f1, val_cos
        ))
    return model, history

