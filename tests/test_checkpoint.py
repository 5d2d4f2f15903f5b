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
    assert np.array_equal(loaded.theta, model.theta)
    assert np.array_equal(loaded.stats, model.stats)
    for p, q in zip(model.flat_params(), loaded.flat_params()):
        assert p.keys() == q.keys()
        assert all(np.array_equal(p[key], q[key]) for key in p)


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
    assert np.array_equal(loaded.theta, model.theta)
    assert np.array_equal(loaded.stats, model.stats)


def test_numpy_scalars_in_config_saved_as_plain_numbers(tmp_path):
    config = VaeConfig(input_dim=np.int64(9), hidden_dims=(6, 4), latent_dim=2, epochs=1,
                       dropout_rate=np.float32(0.25))
    model = build_vae(config, sub_rng(0, "init"))
    path = tmp_path / "numpy.bin"
    save_checkpoint(model, config, epoch=1, path=path)
    _, loaded_config, _ = load_checkpoint(path)
    assert type(loaded_config.input_dim) is int and loaded_config.input_dim == 9
    assert type(loaded_config.dropout_rate) is float and loaded_config.dropout_rate == 0.25


def small_checkpoint(path):
    config = VaeConfig(input_dim=3, hidden_dims=(2, 2), latent_dim=1, epochs=1)
    model = build_vae(config, sub_rng(0, "init"))
    model.stats[...] = np.arange(model.stats.size)  # not the initial zeros and ones
    save_checkpoint(model, config, epoch=7, path=path)
    return model


SECTIONS = ("magic", "version", "meta-length", "meta", "theta", "stats", "trailer")


def section_bounds(raw, model):
    """Section name -> (start, stop) byte offsets in a checkpoint file."""
    (meta_len,) = struct.unpack_from("<I", raw, len(MAGIC) + 4)
    sizes = [len(MAGIC), 4, 4, meta_len, 8 * model.theta.size, 8 * model.stats.size, 4]
    ends = np.cumsum(sizes)
    assert ends[-1] == len(raw)
    return {name: (int(end - size), int(end)) for name, size, end in zip(SECTIONS, sizes, ends)}


def reseal(path, body):
    path.write_bytes(MAGIC + body + struct.pack("<I", zlib.crc32(body)))


def test_file_layout_is_config_then_theta_then_stats(tmp_path):
    path = tmp_path / "small.bin"
    model = small_checkpoint(path)
    raw = path.read_bytes()
    bounds = section_bounds(raw, model)
    assert raw[slice(*bounds["version"])] == struct.pack("<I", VERSION) == struct.pack("<I", 2)
    assert raw[slice(*bounds["meta"])].decode("utf-8") == (
        '{"config":{"batch_size":128,'
        '"beta_schedule":{"beta_max":0.03,"kind":"linear_warmup","warmup_epochs":25},'
        '"dropout_rate":0.2,"epochs":1,"epsilon":1e-08,"hidden_dims":[2,2],"input_dim":3,'
        '"l1_coefficient":1e-05,"latent_dim":1,"leaky_slope":0.3,"learning_rate":0.001,'
        '"loss_kind":"soft_f1","rho":0.9,"seed":0},"epoch":7}'
    )
    assert raw[slice(*bounds["theta"])] == model.theta.astype("<f8").tobytes()
    assert raw[slice(*bounds["stats"])] == model.stats.astype("<f8").tobytes()
    assert raw[slice(*bounds["trailer"])] == struct.pack("<I", zlib.crc32(raw[8:-4]))


@pytest.mark.parametrize("section", SECTIONS)
def test_file_cut_inside_each_section_rejected(tmp_path, section):
    path = tmp_path / "small.bin"
    model = small_checkpoint(path)
    raw = path.read_bytes()
    start, stop = section_bounds(raw, model)[section]
    for cut in (start + 1, (start + stop) // 2, stop - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("section", SECTIONS)
def test_bit_flip_in_each_section_rejected(tmp_path, section):
    path = tmp_path / "small.bin"
    model = small_checkpoint(path)
    raw = path.read_bytes()
    start, stop = section_bounds(raw, model)[section]
    for at in (start, stop - 1):
        flipped = bytearray(raw)
        flipped[at] ^= 0x10
        path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError, match="not a checkpoint|CRC mismatch"):
            load_checkpoint(path)


def test_payload_one_float_short_or_long_rejected_naming_both_sizes(tmp_path):
    path = tmp_path / "small.bin"
    model = small_checkpoint(path)
    body = path.read_bytes()[len(MAGIC) : -4]
    need = 8 * (model.theta.size + model.stats.size)  # bytes after the JSON block
    for edited, size in ((body[:-8], need - 8), (body + struct.pack("<d", 1.0), need + 8)):
        reseal(path, edited)
        message = f"payload has {size} bytes, the config needs {need}"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
    reseal(path, body)  # the same bytes, re-sealed, still load
    assert np.array_equal(load_checkpoint(path)[0].stats, model.stats)


def test_version_1_file_rejected(tmp_path):
    # the first format: the same header, optimizer keys in the JSON block,
    # then a tensor count and named tensors
    meta = json.dumps({"config": {}, "epoch": 1, "has_optimizer": False, "opt_step": 0}).encode()
    body = struct.pack("<II", 1, len(meta)) + meta + struct.pack("<I", 0)
    path = tmp_path / "v1.bin"
    reseal(path, body)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1$"):
        load_checkpoint(path)


def small_checkpoint_with_meta(path, edit):
    """A small model's checkpoint whose metadata edit(meta) has changed,
    re-sealed with a valid CRC, so only the config check can catch it."""
    small_checkpoint(path)
    body = path.read_bytes()[len(MAGIC) : -4]
    (meta_len,) = struct.unpack("<I", body[4:8])
    meta = json.loads(body[8 : 8 + meta_len])
    edit(meta)
    blob = json.dumps(meta).encode("utf-8")
    reseal(path, body[:4] + struct.pack("<I", len(blob)) + blob + body[8 + meta_len :])


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
        (lambda m: m["config"].update(latent_dim=1.7), "latent_dim must be an integer, got 1.7"),
        (lambda m: m["config"].update(hidden_dims=[2.9, 2]),
         "hidden_dims entry must be an integer, got 2.9"),
        (lambda m: m["config"].update(seed="3"), "seed must be an integer, got '3'"),
    ],
    ids=["missing-rho", "missing-schedule-field", "missing-epoch", "unknown-key",
         "dropout-rate-1.5", "loss-kind-mse", "latent-dim-1.7", "hidden-dims-2.9",
         "seed-string"],
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
