"""Model assembly, encoding/decoding, reparameterization, training loop."""

import itertools
import re
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from fdcheck import collect_grads, compare_grads, vae_grads

import somatic_vae.layers as layers_module
import somatic_vae.vae as vae_module
from somatic_vae.checkpoint import load_checkpoint, save_checkpoint
from somatic_vae.cli import emit_history
from somatic_vae.cohort import (
    SplitPlan,
    SyntheticSpec,
    filter_low_frequency,
    generate_synthetic_cohort,
    holdout_split,
)
from somatic_vae.layers import (
    BUFFER_KEYS,
    Activation,
    BatchNorm,
    Dense,
    Dropout,
    block_rows,
    layer_shapes,
    stack_views,
)
from somatic_vae.losses import BetaSchedule, reconstruction_loss
from somatic_vae.optim import rmsprop_update
from somatic_vae.seeding import sub_rng
from somatic_vae.vae import (
    VaeConfig,
    _backward_train,
    _forward_train,
    _rmsprop_step,
    build_vae,
    count_parameters,
    decode_batch,
    encode_batch,
    reconstruct_mu,
    reconstruction_scores,
    row_chunks,
    train,
)
from somatic_vae.metrics import mean_cosine_similarity, micro_f1

DEFAULT_GRAD_BLOCK = layers_module.GRAD_BLOCK

TINY = dict(
    input_dim=12,
    hidden_dims=(8, 6),
    latent_dim=3,
    dropout_rate=0.25,
    batch_size=4,
    epochs=2,
    seed=0,
)


def tiny_config(**overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return VaeConfig(**kwargs)


def tiny_model(seed=0):
    config = tiny_config(seed=seed)
    return build_vae(config, sub_rng(seed, "init")), config


class ZeroNoise:
    def standard_normal(self, shape):
        return np.zeros(shape)


class FixedNoise:
    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


# ---------------------------------------------------------------- assembly


def test_full_scale_architecture_shapes():
    config = VaeConfig(input_dim=8298, hidden_dims=(1024, 256), latent_dim=64)
    model = build_vae(config, sub_rng(0, "init"))
    dec = model.stacks["dec"]
    final_dense = model.specs[dec][-2]
    assert isinstance(final_dense, Dense)
    assert (final_dense.in_dim, final_dense.out_dim) == (1024, 8298)
    assert model.params[dec][-2]["w"].shape == (1024, 8298)
    assert isinstance(model.specs[dec][-1], Activation)
    assert model.specs[dec][-1].kind == "sigmoid"
    assert model.params[model.stacks["mu"]][0]["w"].shape == (256, 64)
    assert model.params[model.stacks["lv"]][0]["w"].shape == (256, 64)


def test_parameter_count_matches_shape_arithmetic():
    model, _ = tiny_model()
    d, (h1, h2), q = 12, (8, 6), 3

    def dense(i, o):
        return i * o + o

    def bn(dim):
        return 2 * dim  # gamma + delta; running stats are buffers

    expected = (
        dense(d, h1) + bn(h1) + dense(h1, h2) + bn(h2)  # encoder
        + 2 * dense(h2, q)  # mu and logvar heads
        + dense(q, h2) + bn(h2) + dense(h2, h1) + bn(h1) + dense(h1, d)  # decoder
    )
    assert count_parameters(model) == expected


def test_build_rejects_invalid_config_naming_the_field():
    with pytest.raises(ValueError, match="latent_dim"):
        build_vae(tiny_config(latent_dim=0), sub_rng(0, "init"))
    # wrong types are not truncated into a different architecture
    for bad, message in (
        (dict(latent_dim=1.7), "latent_dim must be an integer, got 1.7"),
        (dict(hidden_dims=(2.9, 2)), "hidden_dims entry must be an integer, got 2.9"),
        (dict(seed="3"), "seed must be an integer, got '3'"),
        (dict(epochs=2.5), "epochs must be an integer"),
        (dict(batch_size=True), "batch_size must be an integer, got True"),
        (dict(dropout_rate="0.1"), "dropout_rate must be a real number"),
        (dict(beta_schedule=BetaSchedule(warmup_epochs=2.0)), "warmup_epochs must be an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            tiny_config(**bad).validate()
    # numpy scalars, and an int where a float stands, are fine
    tiny_config(latent_dim=np.int64(3), hidden_dims=(np.int32(8), 6), seed=np.uint8(1),
                dropout_rate=0, learning_rate=np.float32(1e-3)).validate()
    with pytest.raises(ValueError, match="hidden_dims"):
        tiny_config(hidden_dims=(8,)).validate()
    with pytest.raises(ValueError, match="dropout_rate"):
        tiny_config(dropout_rate=1.0).validate()
    with pytest.raises(ValueError, match="loss_kind"):
        tiny_config(loss_kind="mse").validate()
    for slope in (-0.1, 1.5):  # nan: test_validate_refuses_a_non_finite_real_naming_the_field
        with pytest.raises(ValueError, match=r"^leaky_slope must be in \[0, 1\]$"):
            tiny_config(leaky_slope=slope).validate()
    with pytest.raises(ValueError, match="rho"):
        tiny_config(rho=1.5).validate()
    with pytest.raises(ValueError, match="batch_size"):
        tiny_config(batch_size=0).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", [f.name for kind in (VaeConfig, BetaSchedule)
                                  for f in fields(kind) if f.type is float])
def test_validate_refuses_a_non_finite_real_naming_the_field(name, value):
    # an inf epsilon used to train without moving theta, a nan learning
    # rate or beta_max to fail later at a layer or the loss
    if name in {f.name for f in fields(BetaSchedule)}:
        config = tiny_config(beta_schedule=BetaSchedule(**{name: value}))
    else:
        config = tiny_config(**{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        config.validate()


@pytest.mark.parametrize("value, single", [(1e300, "inf"), (-1e300, "-inf"), (1e-300, "0.0"),
                                           (1e-46, "0.0"), (-1e-46, "-0.0")])
@pytest.mark.parametrize("name", [f.name for kind in (VaeConfig, BetaSchedule)
                                  for f in fields(kind) if f.type is float])
def test_validate_refuses_a_real_float32_turns_into_inf_or_0_naming_the_field(name, value, single):
    # training computes in float32: epsilon 1e308 and learning rates 1e-320
    # and 1e-46 used to train without moving theta, and l1_coefficient
    # 1e300 to fail at batch 0 naming no option
    if name in {f.name for f in fields(BetaSchedule)}:
        config = tiny_config(beta_schedule=BetaSchedule(**{name: value}))
    else:
        config = tiny_config(**{name: value})
    message = re.escape(f"{name} is {single} in float32, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        config.validate()


def test_validate_keeps_reals_float32_holds():
    # the smallest float32 subnormal, the largest finite float32, and 0
    tiny_config(learning_rate=1e-45, epsilon=float(np.finfo(np.float32).max),
                l1_coefficient=0.0, dropout_rate=0.0,
                beta_schedule=BetaSchedule(beta_max=1e-45)).validate()


def test_build_is_deterministic_in_rng():
    a, _ = tiny_model(seed=5)
    b, _ = tiny_model(seed=5)
    assert_same_vectors(a, b)


# ---------------------------------------------------------------- encode/decode


def test_encode_output_shapes():
    model, _ = tiny_model()
    x = (np.random.default_rng(0).random((5, 12)) < 0.3).astype(float)
    dist = encode_batch(model, x)
    assert dist.mu.shape == (5, 3)
    assert dist.logvar.shape == (5, 3)


def test_encode_inference_is_deterministic():
    model, _ = tiny_model()
    x = (np.random.default_rng(1).random((4, 12)) < 0.3).astype(float)
    a = encode_batch(model, x)
    b = encode_batch(model, x)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.logvar, b.logvar)


def test_encode_constant_input_gives_constant_rows():
    model, _ = tiny_model()
    dist = encode_batch(model, np.zeros((6, 12)))
    assert np.isfinite(dist.mu).all()
    assert np.allclose(dist.mu, dist.mu[0])
    assert np.allclose(dist.logvar, dist.logvar[0])


def test_encode_rejects_non_binary_and_wrong_width():
    model, _ = tiny_model()
    with pytest.raises(ValueError, match="0 or 1"):
        encode_batch(model, np.full((2, 12), 0.5))
    with pytest.raises(ValueError, match="12"):
        encode_batch(model, np.zeros((2, 9)))


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan, np.inf])
def test_encode_refuses_an_entry_other_than_zero_or_one(value):
    model, _ = tiny_model()
    x = np.zeros((3, 12))
    x[1, 4] = value
    with pytest.raises(ValueError, match="^encoder input entries must be 0 or 1$"):
        encode_batch(model, x)


@pytest.mark.parametrize("value, rows", [(0.0, 2), (-0.0, 2), (1.0, 2), (1.0, 0)])
def test_encode_accepts_zero_minus_zero_one_and_an_empty_batch(value, rows):
    model, _ = tiny_model()
    dist = encode_batch(model, np.full((rows, 12), value))
    assert dist.mu.shape == (rows, 3)
    assert np.isfinite(dist.mu).all()


def training_latents(model, x, noise):
    """(mu, z) of one training pass whose reparameterization noise comes
    from noise; z is the input the decoder's first Dense layer recorded."""
    fwd = _forward_train(model, x, 0.0, {"reparam": noise, "dropout": sub_rng(0, "dropout")})
    return fwd["mu"], fwd["tapes"]["dec"][0]


def fix_heads(model, mu, logvar):
    """Zero both heads' weights so every row gets the given mu and logvar."""
    for name, value in (("mu", mu), ("lv", logvar)):
        params = model.params[model.stacks[name]]
        params[0]["w"][...] = 0.0
        params[0]["b"][...] = value


def test_reparameterize_zero_noise_returns_mu():
    model, _ = tiny_model()
    x = (np.random.default_rng(6).random((5, 12)) < 0.3).astype(float)
    mu, z = training_latents(model, x, ZeroNoise())
    assert np.array_equal(z, mu)


def test_reparameterize_unit_variance_adds_noise_directly():
    model, _ = tiny_model()
    fix_heads(model, [1.0, 2.0, 3.0], 0.0)
    _, z = training_latents(model, np.zeros((2, 12)), FixedNoise(0.5))
    assert np.allclose(z, [[1.5, 2.5, 3.5]] * 2)


def test_reparameterize_moments_over_many_draws():
    n = 100_000
    mu_val, logvar_val = 0.7, np.log(2.25)  # sigma = 1.5
    config = tiny_config(latent_dim=1)
    model = build_vae(config, sub_rng(0, "init"))
    fix_heads(model, mu_val, logvar_val)
    _, z = training_latents(model, np.zeros((n, 12)), sub_rng(0, "moment-test"))
    sigma = 1.5
    assert abs(z.mean() - mu_val) < 4 * sigma / np.sqrt(n)
    assert abs(z.var() - sigma**2) < 4 * sigma**2 * np.sqrt(2.0 / n)


def test_decode_outputs_open_unit_interval_and_deterministic():
    model, _ = tiny_model()
    z = np.random.default_rng(2).standard_normal((5, 3))
    a = decode_batch(model, z)
    b = decode_batch(model, z)
    assert np.array_equal(a, b)
    assert (a > 0.0).all() and (a < 1.0).all()
    assert a.shape == (5, 12)


def test_decode_zero_parameters_give_half_everywhere():
    model, _ = tiny_model()
    for p in model.params[model.stacks["dec"]]:
        if "w" in p:
            p["w"][:] = 0.0
            p["b"][:] = 0.0
    probs = decode_batch(model, np.random.default_rng(3).standard_normal((4, 3)))
    assert np.allclose(probs, 0.5)


def test_decode_rejects_wrong_latent_width():
    model, _ = tiny_model()
    with pytest.raises(ValueError, match="3"):
        decode_batch(model, np.zeros((2, 5)))


# ---------------------------------------------------------------- training


def assert_same_vectors(a, b):
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.stats, b.stats)


def small_cohort(n=40, d=30, seed=2):
    spec = SyntheticSpec(n, d, 3, 0.05, 0.6, 6, seed=seed)
    return generate_synthetic_cohort(spec)


def test_train_history_length_and_epoch_numbers():
    cohort = small_cohort()
    split = holdout_split(cohort.n_samples, 0.8, seed=0)
    config = tiny_config(input_dim=cohort.n_loci, epochs=3, batch_size=16)
    _, history = train(cohort, split, config)
    assert len(history) == 3
    assert [h.epoch for h in history] == [0, 1, 2]
    for h in history:
        assert np.isfinite([h.recon, h.kl, h.l1, h.total, h.val_micro_f1, h.val_cosine]).all()


def test_train_is_bit_deterministic():
    cohort = small_cohort()
    split = holdout_split(cohort.n_samples, 0.8, seed=1)
    config = tiny_config(input_dim=cohort.n_loci, epochs=2, batch_size=16, seed=9)
    model_a, hist_a = train(cohort, split, config)
    model_b, hist_b = train(cohort, split, config)
    assert hist_a == hist_b
    assert_same_vectors(model_a, model_b)


def test_train_holds_one_minibatch_tape_at_a_time(monkeypatch):
    # the next pass starts only after the last one's tape (whose sigmoid
    # cache is its probs) is gone
    real, probs = vae_module._forward_train, []

    def spy(*args):
        if probs:
            assert probs[-1]() is None, f"pass {len(probs) - 1}'s probs outlive it"
        fwd = real(*args)
        probs.append(weakref.ref(fwd["probs"]))
        return fwd

    monkeypatch.setattr(vae_module, "_forward_train", spy)
    cohort = small_cohort()
    split = holdout_split(cohort.n_samples, 0.8, seed=0)
    train(cohort, split, tiny_config(input_dim=cohort.n_loci, epochs=2, batch_size=8))
    assert len(probs) == 8  # 32 training rows: 4 batches per epoch


def test_a_training_pass_holds_only_what_its_backward_pass_reads():
    # tall's shapes: a tape that kept each activation's input, a float
    # dropout mask and batch norm's xhat held 12.3 MiB past the input; the
    # bool masks and (xmu, inv) hold 7.0 MiB
    config = VaeConfig(input_dim=800, hidden_dims=(1024, 256), latent_dim=64,
                       dropout_rate=0.2, l1_coefficient=1e-5, batch_size=256)
    model = build_vae(config, sub_rng(0, "init"))
    x = (np.random.default_rng(0).random((256, 800)) < 0.05).astype(np.float32)
    rngs = {"dropout": sub_rng(0, "dropout"), "reparam": sub_rng(0, "reparam")}
    tracemalloc.start()
    try:
        fwd = _forward_train(model, x, 1e-4, rngs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fwd["probs"].shape == x.shape
    assert held < 9 * 2**20


def test_train_rejects_empty_training_split():
    cohort = small_cohort()
    split = SplitPlan(np.array([], dtype=int), np.arange(cohort.n_samples))
    config = tiny_config(input_dim=cohort.n_loci)
    with pytest.raises(ValueError, match="training split of 0 rows"):
        train(cohort, split, config)


def test_train_refuses_one_row_batches_and_splits():
    # batch norm maps every row of a one-row batch to its shift, so such a
    # run would train silently on nothing
    cohort = small_cohort()
    split = holdout_split(cohort.n_samples, 0.8, seed=0)
    with pytest.raises(ValueError, match=r"^a training split of \d+ rows in batches of 1: batch "
                                         "norm needs at least 2 rows per batch$"):
        train(cohort, split, tiny_config(input_dim=cohort.n_loci, batch_size=1))
    two = generate_synthetic_cohort(SyntheticSpec(2, 30, 2, 0.05, 0.6, 6, seed=2))
    split = holdout_split(two.n_samples, 0.5, seed=0)
    assert len(split.train_indices) == 1
    with pytest.raises(ValueError, match="^a training split of 1 rows in batches of 4: "):
        train(two, split, tiny_config(input_dim=two.n_loci))


def test_empty_validation_split_trains_and_writes_nan_validation_columns(tmp_path):
    cohort = small_cohort()
    split = SplitPlan(np.arange(cohort.n_samples), np.array([], dtype=int))
    config = tiny_config(input_dim=cohort.n_loci, epochs=2, batch_size=16)
    _, history = train(cohort, split, config)
    emit_history(history, tmp_path / "history.tsv")
    rows = [line.split("\t") for line in (tmp_path / "history.tsv").read_text().splitlines()]
    assert rows[0][-2:] == ["val_micro_f1", "val_cosine"]
    assert [row[-2:] for row in rows[1:]] == [["nan", "nan"]] * 2
    assert all(np.isfinite([float(v) for v in row[1:-2]]).all() for row in rows[1:])


def test_all_zero_rows_survive_filtering_and_are_embedded():
    cohort = small_cohort()
    cohort.matrix[[3, 17]] = 0
    filtered, _ = filter_low_frequency(cohort, min_count=2)
    assert filtered.n_samples == cohort.n_samples
    assert not filtered.matrix[[3, 17]].any()
    split = holdout_split(filtered.n_samples, 0.8, seed=0)
    model, _ = train(filtered, split, tiny_config(input_dim=filtered.n_loci, batch_size=16))
    mu = encode_batch(model, filtered.matrix).mu
    assert mu.shape == (filtered.n_samples, 3)
    assert np.isfinite(mu).all()


def test_train_rejects_mismatched_input_dim():
    cohort = small_cohort()
    split = holdout_split(cohort.n_samples, 0.8, seed=0)
    with pytest.raises(ValueError, match="input_dim"):
        train(cohort, split, tiny_config(input_dim=cohort.n_loci + 1))


def test_train_divergence_aborts_with_epoch_batch_context():
    cohort = small_cohort()
    split = holdout_split(cohort.n_samples, 0.8, seed=0)
    config = tiny_config(
        input_dim=cohort.n_loci, epochs=3, batch_size=16, learning_rate=1e12
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"epoch \d+ batch \d+"):
            train(cohort, split, config)


def test_train_parameter_trajectory_ignores_validation_rows():
    cohort = small_cohort(n=30)
    train_idx = np.arange(20)
    split_a = SplitPlan(train_idx, np.arange(20, 25))
    split_b = SplitPlan(train_idx, np.arange(25, 30))
    config = tiny_config(input_dim=cohort.n_loci, epochs=2, batch_size=8)
    model_a, hist_a = train(cohort, split_a, config)
    model_b, hist_b = train(cohort, split_b, config)
    assert_same_vectors(model_a, model_b)
    # training-side history identical; only validation metrics may differ
    for ha, hb in zip(hist_a, hist_b):
        assert (ha.recon, ha.kl, ha.l1, ha.beta, ha.total) == (
            hb.recon, hb.kl, hb.l1, hb.beta, hb.total,
        )


def test_single_row_final_batch_joins_the_previous_one(monkeypatch):
    # 449 = 14 * 32 + 1: a 1-row batch would give batch norm zero variance
    cohort = small_cohort(n=469, d=30, seed=3)
    split = SplitPlan(np.arange(449), np.arange(449, 469))
    config = tiny_config(input_dim=cohort.n_loci, epochs=2, batch_size=32)
    sizes = []

    def recording(model, x, *args, **kwargs):
        sizes.append(x.shape[0])
        return _forward_train(model, x, *args, **kwargs)

    monkeypatch.setattr(vae_module, "_forward_train", recording)
    _, history = train(cohort, split, config)
    assert sizes == ([32] * 13 + [33]) * 2
    assert len(history) == 2


def arrays_in(tree):
    """Every array in a nest of tuples and lists (None leaves skipped)."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, (tuple, list)):
        return [a for item in tree for a in arrays_in(item)]
    return []


def test_one_training_step_computes_in_float32(monkeypatch):
    # a stray float64 scalar, table or draw would promote the whole pass silently
    cohort = small_cohort()
    split = holdout_split(cohort.n_samples, 0.8, seed=0)
    config = tiny_config(input_dim=cohort.n_loci, epochs=1, batch_size=64,
                         dropout_rate=0.25, l1_coefficient=1e-4)
    calls = {}

    def spy(module, name):
        real = getattr(module, name)

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.setdefault(name, []).append((args, out))
            return out

        monkeypatch.setattr(module, name, recording)

    vae_module_spies = ("_forward_train", "reconstruction_grad", "rmsprop_update")
    for name in vae_module_spies:
        spy(vae_module, name)
    # the backward kernels' input gradients never reach a step uncast
    backward = ("_dense_backward", "_batchnorm_backward", "_activation_backward")
    for name in backward:
        spy(layers_module, name)
    model, _ = train(cohort, split, config)
    assert [len(calls[name]) for name in vae_module_spies[:2]] == [1, 1]  # one step
    (_, fwd), = calls["_forward_train"]
    (_, dprobs), = calls["reconstruction_grad"]
    # one RMSprop call per gradient span, inside the backward pass: each
    # Dense bias and weight block (one block each here), each batch-norm tensor
    steps = [args for args, _ in calls["rmsprop_update"]]
    assert len(steps) == sum(key not in BUFFER_KEYS for spec in model.specs
                             for key in layer_shapes(spec)) == 22
    layers = [(spec, cache) for name, tape in fwd["tapes"].items()
              for spec, cache in zip(model.specs[model.stacks[name]], tape)]
    # a ReLU, leaky ReLU or Dropout layer caches a bool mask, every other layer float32
    masked = [isinstance(spec, Dropout) or isinstance(spec, Activation) and spec.kind != "sigmoid"
              for spec, _ in layers]
    caches = arrays_in([cache for (_, cache), mask in zip(layers, masked) if not mask])
    masks = arrays_in([cache for (_, cache), mask in zip(layers, masked) if mask])
    # four activations, one dropout layer in the encoder and one in the decoder
    assert len(masks) == 6
    assert len(arrays_in([cache for spec, cache in layers if isinstance(spec, Dropout)])) == 2
    assert {i: m.dtype for i, m in enumerate(masks) if m.dtype != np.bool_} == {}
    dxs = arrays_in([out for name in backward for _, out in calls[name]])
    assert len(dxs) == 15  # 16 backward kernel calls; the first Dense layer returns None
    named = {"eps": fwd["eps"], "std": fwd["std"], "probs": fwd["probs"], "dprobs": dprobs,
             "theta": model.theta, "stats": model.stats,
             **{f"step {i} {what}": a for i, (theta, grad, acc) in enumerate(steps)
                for what, a in (("theta", theta), ("grad", grad), ("accumulator", acc))},
             **{f"cache {i}": c for i, c in enumerate(caches)},
             **{f"input gradient {i}": d for i, d in enumerate(dxs)}}
    assert {name: a.dtype for name, a in named.items() if a.dtype != np.float32} == {}
    breakdown = fwd["breakdown"]
    assert [np.asarray(getattr(breakdown, key)).dtype for key in ("recon", "kl", "l1", "total")] \
        == [np.float32] * 4


def assert_layer_steps_equal_one_step_over_theta(monkeypatch, config, cohort, moved=0.9):
    # the order before the steps moved into the backward pass: the whole
    # gradient, collected at the default GRAD_BLOCK (one block per weight
    # at these shapes), then one rmsprop_update over theta; the steps in
    # the backward pass take GRAD_BLOCK as the caller set it
    grad_block, default = layers_module.GRAD_BLOCK, DEFAULT_GRAD_BLOCK
    fused, flat = (build_vae(config, sub_rng(0, "init")) for _ in range(2))
    initial = fused.theta.copy()
    fused_acc, flat_acc = np.zeros_like(fused.theta), np.zeros_like(flat.theta)
    step = _rmsprop_step(fused, fused_acc, config)
    rngs = [{"dropout": sub_rng(0, "dropout"), "reparam": sub_rng(0, "reparam")} for _ in range(2)]
    for batch in range(4):
        xb = cohort.matrix[10 * batch : 10 * (batch + 1)].astype(np.float32)
        monkeypatch.setattr(layers_module, "GRAD_BLOCK", grad_block)
        fwd = _forward_train(fused, xb, 0.5, rngs[0])
        _backward_train(fused, xb, 0.5, fwd, step)
        monkeypatch.setattr(layers_module, "GRAD_BLOCK", default)
        fwd = _forward_train(flat, xb, 0.5, rngs[1])
        grad = np.zeros_like(flat.theta)
        _backward_train(flat, xb, 0.5, fwd, collect_grads(stack_views(flat.specs, grad)))
        rmsprop_update(flat.theta, grad, flat_acc,
                       lr=config.learning_rate, rho=config.rho, eps=config.epsilon)
        assert fused.theta.tobytes() == flat.theta.tobytes()
        assert fused_acc.tobytes() == flat_acc.tobytes()
        assert fused.stats.tobytes() == flat.stats.tobytes()
    assert (fused.theta != initial).mean() > moved


def test_layer_steps_in_the_backward_pass_equal_one_step_over_theta(monkeypatch):
    cohort = small_cohort()
    config = tiny_config(input_dim=cohort.n_loci, dropout_rate=0.25, l1_coefficient=1e-3,
                         learning_rate=1e-2, batch_size=10)
    assert_layer_steps_equal_one_step_over_theta(monkeypatch, config, cohort)


def test_block_steps_in_the_backward_pass_equal_one_step_over_theta(monkeypatch):
    monkeypatch.setattr(layers_module, "GRAD_BLOCK", 28)
    cohort = small_cohort()
    config = tiny_config(input_dim=cohort.n_loci, hidden_dims=(7, 5), dropout_rate=0.25,
                         l1_coefficient=1e-3, learning_rate=1e-2, batch_size=10)
    first, last = Dense(cohort.n_loci, 7), Dense(7, cohort.n_loci)
    # the first layer's 30 rows take 7 blocks of 4 and one of 2; the last
    # layer is wider than a block, so one row per block
    assert (first.in_dim, block_rows(first)) == (30, 4)
    assert (last.out_dim, block_rows(last)) == (30, 1)
    assert_layer_steps_equal_one_step_over_theta(monkeypatch, config, cohort)


def test_live_row_steps_in_the_backward_pass_equal_one_step_over_theta(monkeypatch):
    # without an L1 term a block of the first layer with at most half its
    # rows live is computed and stepped over those rows only. Its 30 rows
    # take blocks of 4: loci 0-3 are never mutated (no live row), 4-7 are
    # all live in every minibatch (the whole block), 8 is the only live
    # locus of 8-11 (one live row of four)
    monkeypatch.setattr(layers_module, "GRAD_BLOCK", 28)
    cohort = small_cohort()
    cohort.matrix[:, 0:4] = 0
    cohort.matrix[::10, 4:8] = 1
    cohort.matrix[:, 9:12] = 0
    cohort.matrix[::10, 8] = 1
    config = tiny_config(input_dim=cohort.n_loci, hidden_dims=(7, 5), dropout_rate=0.25,
                         l1_coefficient=0.0, learning_rate=1e-2, batch_size=10)
    first = Dense(cohort.n_loci, 7)
    assert block_rows(first) == 4
    layer_0 = first.in_dim * first.out_dim
    steps = []  # (offset in theta, size, live rows or None) of each weight step of layer 0
    real = vae_module.rmsprop_update

    def recording(theta, grad, acc, live=None, **hyper):
        # theta is a span of the model's vector, theta.base
        offset = (theta.ctypes.data - theta.base.ctypes.data) // theta.itemsize
        if offset < layer_0:  # a block of the first layer's weights
            steps.append((offset, theta.size, None if live is None else int(live.sum())))
        real(theta, grad, acc, live=live, **hyper)

    monkeypatch.setattr(vae_module, "rmsprop_update", recording)
    # rows of loci that no minibatch mutates keep their weights
    assert_layer_steps_equal_one_step_over_theta(monkeypatch, config, cohort, moved=0.85)
    steps = {(offset, size, live) for offset, size, live in steps}
    assert (0, 28, 0) in steps  # loci 0-3: no live row
    assert (28, 28, None) in steps  # loci 4-7: the whole block
    assert (56, 28, 1) in steps  # loci 8-11: one live row
    assert {size for _, size, _ in steps} == {28, 14}  # 7 blocks of 4 rows, one of 2


def test_training_hands_the_hook_at_most_one_block_of_one_tensor_apart_from_theta(monkeypatch):
    # each span is the array its kernel computed: never a view of theta or
    # of the accumulator, and never more than one row block of one tensor
    cohort = small_cohort()
    split = holdout_split(cohort.n_samples, 0.8, seed=0)
    real = vae_module._rmsprop_step
    # at 28 entries the first Dense layer and the last are split into blocks
    for grad_block, l1 in ((layers_module.GRAD_BLOCK, 1e-3), (28, 1e-3), (28, 0.0)):
        monkeypatch.setattr(layers_module, "GRAD_BLOCK", grad_block)
        config = tiny_config(input_dim=cohort.n_loci, epochs=1, batch_size=16, l1_coefficient=l1)
        spans = []

        def checking(model, accumulator, config):
            step = real(model, accumulator, config)

            def spy(i, key, rows, grad, live=None):
                spec, covered = model.specs[i], model.params[i][key][rows]
                most = block_rows(spec) * spec.out_dim if key == "w" else covered.size
                assert grad.size == (covered if live is None else covered[live]).size <= most
                assert not np.shares_memory(grad, model.theta)
                assert not np.shares_memory(grad, accumulator)
                spans.append((i, key))
                step(i, key, rows, grad, live)

            return spy

        monkeypatch.setattr(vae_module, "_rmsprop_step", checking)
        train(cohort, split, config)
        # two minibatches of 32 training rows; at 28 entries the first
        # layer's 30 rows take 10 blocks of 3
        blocks = max(spans.count(span) for span in set(spans)) // 2
        assert blocks == (1 if grad_block > 28 else 10)


def test_build_vae_draws_the_same_weights_as_one_draw_per_layer():
    # the first Dense layer takes three row blocks, the last more columns
    # than half a block, so one row per block
    config = tiny_config(input_dim=DEFAULT_GRAD_BLOCK // 2 + 5000, hidden_dims=(5, 3),
                         latent_dim=2)
    model = build_vae(config, sub_rng(4, "init"))
    first, last = model.specs[0], model.specs[-2]
    assert (-(-first.in_dim // block_rows(first)), block_rows(last)) == (3, 1)
    rng = sub_rng(4, "init")
    want, stats = [], []
    for spec in model.specs:
        if isinstance(spec, Dense):
            limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
            want += [rng.uniform(-limit, limit, size=(spec.in_dim, spec.out_dim)).ravel(),
                     np.zeros(spec.out_dim)]
        elif isinstance(spec, BatchNorm):
            want += [np.ones(spec.dim), np.zeros(spec.dim)]
            stats += [np.zeros(spec.dim), np.ones(spec.dim)]
    assert model.theta.tobytes() == np.concatenate(want).astype(np.float32).tobytes()
    assert model.stats.tobytes() == np.concatenate(stats).astype(np.float32).tobytes()


def assert_views_of_flat_vectors(model):
    tensors = [(key, t) for p in model.params for key, t in p.items()]
    trainable = [t for key, t in tensors if key not in BUFFER_KEYS]
    buffers = [t for key, t in tensors if key in BUFFER_KEYS]
    assert buffers
    assert model.theta.size == count_parameters(model)
    # the views tile each vector in layer order, so a rebound tensor
    # would leave the vector, and a checkpoint of it, stale
    assert np.array_equal(np.concatenate([t.ravel() for t in trainable]), model.theta)
    assert np.array_equal(np.concatenate([b.ravel() for b in buffers]), model.stats)
    assert all(np.shares_memory(t, model.theta) for t in trainable)
    assert all(np.shares_memory(b, model.stats) for b in buffers)
    assert not any(np.shares_memory(b, model.theta) for b in buffers)


def test_trainable_tensors_are_views_of_theta(tmp_path):
    fresh = tiny_model()[0]
    assert_views_of_flat_vectors(fresh)
    cohort = small_cohort()
    split = holdout_split(cohort.n_samples, 0.8, seed=0)
    config = tiny_config(input_dim=cohort.n_loci, epochs=2, batch_size=16)
    model, _ = train(cohort, split, config)
    assert_views_of_flat_vectors(model)
    assert not np.array_equal(model.stats, fresh.stats)  # training moved the statistics
    path = tmp_path / "model.bin"
    save_checkpoint(model, epoch=2, path=path)
    loaded, _ = load_checkpoint(path)
    assert_views_of_flat_vectors(loaded)
    assert_same_vectors(loaded, model)


def test_train_loss_decreases_on_easy_cohort():
    cohort = small_cohort(n=60, d=40)
    split = holdout_split(cohort.n_samples, 0.8, seed=0)
    config = VaeConfig(
        input_dim=cohort.n_loci,
        hidden_dims=(32, 16),
        latent_dim=4,
        dropout_rate=0.0,
        batch_size=16,
        epochs=15,
        seed=0,
        beta_schedule=BetaSchedule("linear_warmup", beta_max=0.01, warmup_epochs=10),
    )
    _, history = train(cohort, split, config)
    assert history[-1].recon < history[0].recon


def test_reconstruct_mu_matches_separate_encode_decode():
    model, _ = tiny_model()
    x = (np.random.default_rng(5).random((4, 12)) < 0.3).astype(float)
    direct = reconstruct_mu(model, x)
    dist = encode_batch(model, x)
    assert np.array_equal(direct, decode_batch(model, dist.mu))


# ---------------------------------------------------------------- row chunks


def chunk_bounds(n):
    return [(rows.start, rows.stop)
            for rows, _ in row_chunks(np.zeros((n, 1), np.uint8), np.float32)]


def test_row_chunks_pin_their_boundaries():
    assert chunk_bounds(0) == [(0, 0)]
    assert chunk_bounds(1) == [(0, 1)]
    assert chunk_bounds(512) == [(0, 512)]
    assert chunk_bounds(513) == [(0, 256), (256, 513)]
    assert chunk_bounds(800) == [(0, 400), (400, 800)]  # tall's validation rows
    assert chunk_bounds(1025) == [(0, 341), (341, 683), (683, 1025)]
    assert chunk_bounds(4000) == [(i * 500, (i + 1) * 500) for i in range(8)]
    # past one chunk: no chunk under 256 rows, none over 512, no short tail
    for n in range(513, 6000, 7):
        bounds = chunk_bounds(n)
        sizes = [stop - start for start, stop in bounds]
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert 256 <= min(sizes) and max(sizes) <= 512 and max(sizes) - min(sizes) <= 1
        assert len(sizes) == -(-n // 512)


def test_row_chunks_convert_each_chunk():
    x = (np.random.default_rng(3).random((1100, 6)) < 0.5).astype(np.uint8)
    chunks = list(row_chunks(x, np.float32))
    assert [c.dtype for _, c in chunks] == [np.float32] * 3
    assert np.array_equal(np.concatenate([c for _, c in chunks]), x)


# the benchmark workloads' networks: loci kept after filtering, latent size
WORKLOAD_NETWORKS = [(1470, 16), (3896, 16), (797, 64)]


@pytest.mark.parametrize("d, latent", WORKLOAD_NETWORKS)
def test_chunked_inference_matches_one_pass_byte_for_byte(d, latent):
    config = VaeConfig(input_dim=d, hidden_dims=(1024, 256), latent_dim=latent)
    model = build_vae(config, sub_rng(0, "init"))
    x = (np.random.default_rng(d).random((4000, d)) < 0.03).astype(np.uint8)
    for n in (513, 1000, 1025, 4000):
        whole = x[:n].astype(np.float32)
        mu, probs = encode_batch(model, whole).mu, reconstruct_mu(model, whole)
        del whole
        chunks = list(row_chunks(x[:n], np.float32))
        assert len(chunks) > 1
        for rows, chunk in chunks:
            assert encode_batch(model, chunk).mu.tobytes() == mu[rows].tobytes()
            assert reconstruct_mu(model, chunk).tobytes() == probs[rows].tobytes()
        scores = (micro_f1(probs >= 0.5, x[:n]), mean_cosine_similarity(probs, x[:n]))
        assert reconstruction_scores(model, x[:n]) == scores


# ---------------------------------------------------------------- gradients


def test_full_model_gradient_check_single_combo():
    config = tiny_config(l1_coefficient=1e-5)
    report = compare_grads(*vae_grads(config, 0.5), 1e-5)
    assert report.passed, str(report)


def test_full_model_gradient_check_refuses_a_replay_that_diverges(monkeypatch):
    # a loss that draws from a fresh generator at each pass: the replay
    # does not reproduce the recorded pass, and no report is made
    seeds = itertools.count()

    def scrambled(kind, probs, x):
        scale = np.random.default_rng(next(seeds)).uniform(0.5, 1.0, probs.shape)
        return reconstruction_loss(kind, probs * scale, x)

    monkeypatch.setattr(vae_module, "reconstruction_loss", scrambled)
    with pytest.raises(RuntimeError, match="replay diverged"):
        vae_grads(tiny_config(), 0.5)


def test_step_hook_layer_index_is_the_gradient_check_name(monkeypatch):
    # a layer has one index: the hook's (i, key) over one training pass is
    # the tensor compare_grads names layer{i}.{key}, and its spans' rows
    # tile that tensor's first axis (at 28 entries the first and last
    # Dense layers take several blocks)
    monkeypatch.setattr(layers_module, "GRAD_BLOCK", 28)
    cohort = small_cohort()
    config = tiny_config(input_dim=cohort.n_loci, hidden_dims=(7, 5), l1_coefficient=1e-3)
    model = build_vae(config, sub_rng(0, "init"))
    xb = cohort.matrix[:10].astype(np.float32)
    fwd = _forward_train(model, xb, 0.5, {"dropout": sub_rng(0, "dropout"),
                                          "reparam": sub_rng(0, "reparam")})
    seen = {}

    def spy(i, key, rows, grad, live=None):
        tensor = model.params[i][key]
        start, stop, stride = rows.indices(len(tensor))
        assert stride == 1 and grad.size == (stop - start) * tensor[0].size
        seen.setdefault(f"layer{i}.{key}", []).append((start, stop, len(tensor)))

    _backward_train(model, xb, 0.5, fwd, spy)
    zeros = np.zeros(model.theta.size)
    assert seen.keys() == compare_grads(model.specs, zeros, zeros, 0.0).per_param.keys()
    assert max(len(spans) for spans in seen.values()) > 1
    for spans in seen.values():
        bounds = sorted(spans)
        assert bounds[0][0] == 0 and bounds[-1][1] == bounds[-1][2]
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
