"""Binary checkpoint format, version 2.

Layout: 8-byte magic ``FLATVAE\\0``, version u32, then a length-prefixed
canonical (key-sorted, compact) JSON block holding the config and the
epoch reached, then the raw float64 little-endian bytes of the model's
two flat vectors, theta and the batch-norm running statistics, and
finally a CRC32 trailer computed over everything between the magic and
the trailer. The config fixes the architecture, and with it the length
of both vectors. Both round-trip bit-exactly.
"""

import json
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .vae import VaeConfig, _bind

MAGIC = b"FLATVAE\x00"
VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(model, config, epoch, path):
    """Write the config, the epoch, model.theta and model.stats."""
    # numpy scalars in a caller's config are written as plain numbers
    meta = json.dumps({"config": asdict(config), "epoch": int(epoch)}, sort_keys=True,
                      separators=(",", ":"), default=lambda v: v.item()).encode("utf-8")
    parts = [struct.pack("<II", VERSION, len(meta)), meta]
    parts += [np.ascontiguousarray(v, dtype="<f8") for v in (model.theta, model.stats)]
    crc = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def _u32(body, offset):
    if len(body) < offset + 4:
        raise CheckpointError("corrupt checkpoint: truncated file")
    return struct.unpack_from("<I", body, offset)[0]


def load_checkpoint(path):
    """Returns (model, config, epoch). The payload after the JSON block
    must be exactly the two vectors that the stored config's architecture
    needs."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint")
    if len(raw) < len(MAGIC) + 4:
        raise CheckpointError("corrupt checkpoint: truncated file")
    # a view, so the vectors are copied once: into the model
    body, trailer = memoryview(raw)[len(MAGIC) : -4], raw[-4:]
    if struct.unpack("<I", trailer)[0] != zlib.crc32(body):
        raise CheckpointError("corrupt checkpoint: CRC mismatch")
    version = _u32(body, 0)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    start = 8 + _u32(body, 4)
    if len(body) < start:
        raise CheckpointError("corrupt checkpoint: truncated file")
    try:
        meta = json.loads(bytes(body[8:start]).decode("utf-8"))
        config = VaeConfig.from_dict(meta["config"])
        epoch = int(meta["epoch"])
    except KeyError as exc:
        raise CheckpointError(f"corrupt checkpoint: missing {exc.args[0]}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from None

    model = _bind(config)
    vectors = (model.theta, model.stats)
    size = 8 * sum(v.size for v in vectors)
    if len(body) - start != size:
        raise CheckpointError(
            f"corrupt checkpoint: payload has {len(body) - start} bytes, the config needs {size}"
        )
    for v in vectors:
        v[...] = np.frombuffer(body, "<f8", v.size, start)
        start += 8 * v.size
    return model, config, epoch
