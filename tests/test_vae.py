"""Model assembly, encoding/decoding, reparameterization, training loop."""

import numpy as np
import pytest

import somatic_vae.vae as vae_module
from somatic_vae.checkpoint import load_checkpoint, save_checkpoint
from somatic_vae.cohort import SplitPlan, SyntheticSpec, generate_synthetic_cohort, holdout_split
from somatic_vae.layers import BUFFER_KEYS, Activation, Dense
from somatic_vae.losses import BetaSchedule
from somatic_vae.seeding import sub_rng
from somatic_vae.vae import (
    VaeConfig,
    _forward_train,
    build_vae,
    count_parameters,
    decode_batch,
    encode_batch,
    reconstruct_mu,
    train,
    vae_grad_check,
)

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
    final_dense = model.dec_specs[-2]
    assert isinstance(final_dense, Dense)
    assert (final_dense.in_dim, final_dense.out_dim) == (1024, 8298)
    assert model.dec_params[-2]["w"].shape == (1024, 8298)
    assert isinstance(model.dec_specs[-1], Activation)
    assert model.dec_specs[-1].kind == "sigmoid"
    assert model.mu_params[0]["w"].shape == (256, 64)
    assert model.lv_params[0]["w"].shape == (256, 64)


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
    with pytest.raises(ValueError, match="rho"):
        tiny_config(rho=1.5).validate()
    with pytest.raises(ValueError, match="batch_size"):
        tiny_config(batch_size=0).validate()


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


def training_latents(model, x, noise):
    """(mu, z) of one training pass whose reparameterization noise comes
    from noise; z is the input the decoder's first Dense layer recorded."""
    fwd = _forward_train(model, x, 0.0, {"reparam": noise, "dropout": sub_rng(0, "dropout")})
    return fwd["mu"], fwd["tapes"][3].caches[0]


def fix_heads(model, mu, logvar):
    """Zero both heads' weights so every row gets the given mu and logvar."""
    for params, value in ((model.mu_params, mu), (model.lv_params, logvar)):
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
    for p in model.dec_params:
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


def test_train_rejects_empty_training_split():
    cohort = small_cohort()
    split = SplitPlan(np.array([], dtype=int), np.arange(cohort.n_samples), 0)
    config = tiny_config(input_dim=cohort.n_loci)
    with pytest.raises(ValueError, match="empty training split"):
        train(cohort, split, config)


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
    split_a = SplitPlan(train_idx, np.arange(20, 25), 0)
    split_b = SplitPlan(train_idx, np.arange(25, 30), 0)
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
    split = SplitPlan(np.arange(449), np.arange(449, 469), 0)
    config = tiny_config(input_dim=cohort.n_loci, epochs=2, batch_size=32)
    sizes = []

    def recording(model, x, *args, **kwargs):
        sizes.append(x.shape[0])
        return _forward_train(model, x, *args, **kwargs)

    monkeypatch.setattr(vae_module, "_forward_train", recording)
    _, history = train(cohort, split, config)
    assert sizes == ([32] * 13 + [33]) * 2
    assert len(history) == 2


def assert_views_of_flat_vectors(model):
    tensors = [(key, t) for p in model.flat_params() for key, t in p.items()]
    trainable = [t for key, t in tensors if key not in BUFFER_KEYS]
    buffers = [t for key, t in tensors if key in BUFFER_KEYS]
    grads = [g for stack in model.grads for layer in stack for g in layer.values()]
    assert buffers
    assert model.theta.size == count_parameters(model)
    # the views tile each vector in layer order, so a rebound tensor
    # would leave the vector, and a checkpoint of it, stale
    assert np.array_equal(np.concatenate([t.ravel() for t in trainable]), model.theta)
    assert np.array_equal(np.concatenate([b.ravel() for b in buffers]), model.stats)
    assert all(np.shares_memory(t, model.theta) for t in trainable)
    assert all(np.shares_memory(b, model.stats) for b in buffers)
    assert not any(np.shares_memory(b, model.theta) for b in buffers)
    assert [g.shape for g in grads] == [t.shape for t in trainable]
    assert all(np.shares_memory(g, model.grad) for g in grads)
    assert model.grad.shape == model.theta.shape


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
    save_checkpoint(model, config, epoch=2, path=path)
    loaded, _, _ = load_checkpoint(path)
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


# ---------------------------------------------------------------- gradients


def test_full_model_gradient_check_single_combo():
    config = tiny_config(l1_coefficient=1e-5)
    report = vae_grad_check(config, beta=0.5)
    assert report.passed, str(report)
