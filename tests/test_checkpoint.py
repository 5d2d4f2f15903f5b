"""Binary checkpoint round-trips and corruption handling."""

import json
import struct
import zlib

import numpy as np
import pytest

from somatic_vae.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from somatic_vae.cli import run
from somatic_vae.cohort import SyntheticSpec, generate_synthetic_cohort, holdout_split
from somatic_vae.seeding import sub_rng
from somatic_vae.vae import VaeConfig, build_vae, reconstruct_mu, train


def trained_model():
    spec = SyntheticSpec(30, 24, 3, 0.05, 0.6, 5, seed=4)
    cohort = generate_synthetic_cohort(spec)
    config = VaeConfig(
        input_dim=cohort.n_loci,
        hidden_dims=(10, 8),
        latent_dim=3,
        dropout_rate=0.1,
        batch_size=8,
        epochs=2,
        seed=1,
    )
    split = holdout_split(cohort.n_samples, 0.8, seed=1)
    model, _ = train(cohort, split, config)
    return model, config, cohort


def test_roundtrip_reproduces_every_tensor_bit_exactly(tmp_path):
    model, config, _ = trained_model()
    path = tmp_path / "model.bin"
    save_checkpoint(model, config, epoch=2, path=path)
    loaded, loaded_config, epoch = load_checkpoint(path)
    assert epoch == 2
    assert loaded_config == config
    original = dict(model.named_tensors())
    restored = dict(loaded.named_tensors())
    assert original.keys() == restored.keys()
    for name in original:
        assert np.array_equal(original[name], restored[name]), name


def test_roundtrip_inference_outputs_identical(tmp_path):
    model, config, cohort = trained_model()
    x = cohort.matrix[:10].astype(np.float64)
    before = reconstruct_mu(model, x)
    path = tmp_path / "model.bin"
    save_checkpoint(model, config, epoch=2, path=path)
    loaded, _, _ = load_checkpoint(path)
    after = reconstruct_mu(loaded, x)
    assert np.array_equal(before, after)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOTAVAE0" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    model, config, _ = trained_model()
    path = tmp_path / "model.bin"
    save_checkpoint(model, config, epoch=1, path=path)
    raw = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(tmp_path / "cut.bin")
    # pathological: magic only, no trailer
    (tmp_path / "stub.bin").write_bytes(MAGIC)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "stub.bin")


def test_truncated_body_with_valid_crc_rejected(tmp_path):
    # header claims a longer JSON block than the file carries
    body = struct.pack("<I", VERSION) + struct.pack("<I", 1000)
    path = tmp_path / "short.bin"
    path.write_bytes(MAGIC + body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_flipped_byte_fails_crc(tmp_path):
    model, config, _ = trained_model()
    path = tmp_path / "model.bin"
    save_checkpoint(model, config, epoch=1, path=path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    (tmp_path / "flip.bin").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(tmp_path / "flip.bin")


def test_unsupported_version_rejected(tmp_path):
    body = struct.pack("<I", VERSION + 9)
    path = tmp_path / "future.bin"
    path.write_bytes(MAGIC + body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_untrained_model_roundtrip(tmp_path):
    config = VaeConfig(input_dim=9, hidden_dims=(6, 4), latent_dim=2, epochs=1)
    model = build_vae(config, sub_rng(0, "init"))
    path = tmp_path / "fresh.bin"
    save_checkpoint(model, config, epoch=0, path=path)
    loaded, loaded_config, epoch = load_checkpoint(path)
    assert epoch == 0
    assert loaded_config.hidden_dims == (6, 4)
    for (na, ta), (nb, tb) in zip(model.named_tensors(), loaded.named_tensors()):
        assert na == nb
        assert np.array_equal(ta, tb)


def test_numpy_scalars_in_config_saved_as_plain_numbers(tmp_path):
    config = VaeConfig(input_dim=np.int64(9), hidden_dims=(6, 4), latent_dim=2, epochs=1,
                       dropout_rate=np.float32(0.25))
    model = build_vae(config, sub_rng(0, "init"))
    path = tmp_path / "numpy.bin"
    save_checkpoint(model, config, epoch=1, path=path)
    _, loaded_config, _ = load_checkpoint(path)
    assert type(loaded_config.input_dim) is int and loaded_config.input_dim == 9
    assert type(loaded_config.dropout_rate) is float and loaded_config.dropout_rate == 0.25


class WithExtraTensors:
    """A model whose snapshot carries tensors no architecture owns, as a
    file from a writer that also stored optimizer state would."""

    def __init__(self, model, extra):
        self.model = model
        self.extra = extra

    def named_tensors(self):
        yield from self.model.named_tensors()
        yield from self.extra


def test_unexpected_tensor_rejected_by_name(tmp_path):
    config = VaeConfig(input_dim=9, hidden_dims=(6, 4), latent_dim=2, epochs=1)
    model = build_vae(config, sub_rng(0, "init"))
    path = tmp_path / "extra.bin"
    extra = [("opt/0/w", np.zeros((9, 6))), ("enc/0/v", np.zeros(6))]
    save_checkpoint(WithExtraTensors(model, extra), config, epoch=1, path=path)
    with pytest.raises(CheckpointError, match="unexpected tensor enc/0/v, opt/0/w"):
        load_checkpoint(path)
    # the same file without the extras loads
    save_checkpoint(WithExtraTensors(model, []), config, epoch=1, path=path)
    loaded, _, _ = load_checkpoint(path)
    assert np.array_equal(loaded.theta, model.theta)


def test_file_layout_keeps_the_constant_optimizer_keys(tmp_path):
    # files stay byte-identical to those written when the format could
    # also carry optimizer state: same metadata keys, then the tensors
    config = VaeConfig(input_dim=3, hidden_dims=(2, 2), latent_dim=1, epochs=1)
    model = build_vae(config, sub_rng(0, "init"))
    path = tmp_path / "small.bin"
    save_checkpoint(model, config, epoch=7, path=path)
    body = path.read_bytes()[len(MAGIC) : -4]
    (meta_len,) = struct.unpack("<I", body[4:8])
    meta = body[8 : 8 + meta_len].decode("utf-8")
    assert meta == (
        '{"config":{"batch_size":128,'
        '"beta_schedule":{"beta_max":0.03,"kind":"linear_warmup","warmup_epochs":25},'
        '"dropout_rate":0.2,"epochs":1,"epsilon":1e-08,"hidden_dims":[2,2],"input_dim":3,'
        '"l1_coefficient":1e-05,"latent_dim":1,"leaky_slope":0.3,"learning_rate":0.001,'
        '"loss_kind":"soft_f1","rho":0.9,"seed":0},'
        '"epoch":7,"has_optimizer":false,"opt_step":0}'
    )
    (count,) = struct.unpack("<I", body[8 + meta_len : 12 + meta_len])
    assert count == len(list(model.named_tensors()))


def small_checkpoint_with_meta(path, edit):
    """A small model's checkpoint whose metadata edit(meta) has changed,
    re-sealed with a valid CRC, so only the config check can catch it."""
    config = VaeConfig(input_dim=3, hidden_dims=(2, 2), latent_dim=1, epochs=1)
    save_checkpoint(build_vae(config, sub_rng(0, "init")), config, epoch=1, path=path)
    body = path.read_bytes()[len(MAGIC) : -4]
    (meta_len,) = struct.unpack("<I", body[4:8])
    meta = json.loads(body[8 : 8 + meta_len])
    edit(meta)
    blob = json.dumps(meta).encode("utf-8")
    body = body[:4] + struct.pack("<I", len(blob)) + blob + body[8 + meta_len :]
    path.write_bytes(MAGIC + body + struct.pack("<I", zlib.crc32(body)))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m["config"].pop("rho"), "missing config field rho"),
        (lambda m: m["config"]["beta_schedule"].pop("warmup_epochs"),
         "missing config field warmup_epochs"),
        (lambda m: m.pop("epoch"), "missing epoch"),
        (lambda m: m["config"].update(momentum=0.5), "unknown config field momentum"),
        (lambda m: m["config"].update(dropout_rate=1.5), "dropout_rate must be in"),
        (lambda m: m["config"].update(loss_kind="mse"), "loss_kind must be"),
    ],
    ids=["missing-rho", "missing-schedule-field", "missing-epoch", "unknown-key",
         "dropout-rate-1.5", "loss-kind-mse"],
)
def test_malformed_config_rejected_naming_the_field(tmp_path, edit, message):
    path = tmp_path / "bad-config.bin"
    small_checkpoint_with_meta(path, edit)
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint: {message}"):
        load_checkpoint(path)


def test_embed_with_malformed_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad-config.bin"
    small_checkpoint_with_meta(path, lambda m: m["config"].pop("rho"))
    code = run([
        "embed", "--checkpoint", str(path), "--cohort", str(tmp_path),
        "--out", str(tmp_path / "emb.tsv"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: corrupt checkpoint: missing config field rho")
