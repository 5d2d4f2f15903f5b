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
import os
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .vae import VaeConfig, _bind

MAGIC = b"FLATVAE\x00"
VERSION = 2
CHUNK = 1 << 20  # bytes per read while the CRC is checked


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
    needs. The CRC is checked in chunks before anything is parsed, then the
    vectors are read into the model: the file is never held whole."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError("not a checkpoint")
        size = os.fstat(fh.fileno()).st_size - len(MAGIC) - 4  # the CRC'd body
        if size < 0:
            raise CheckpointError("corrupt checkpoint: truncated file")
        crc = 0
        for done in range(0, size, CHUNK):
            crc = zlib.crc32(fh.read(min(CHUNK, size - done)), crc)
        if fh.read(4) != struct.pack("<I", crc):
            raise CheckpointError("corrupt checkpoint: CRC mismatch")
        fh.seek(len(MAGIC))
        head = fh.read(min(size, 8))
        version = _u32(head, 0)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        start = 8 + _u32(head, 4)
        if size < start:
            raise CheckpointError("corrupt checkpoint: truncated file")
        try:
            meta = json.loads(fh.read(start - 8).decode("utf-8"))
            config = VaeConfig.from_dict(meta["config"])
            epoch = int(meta["epoch"])
        except KeyError as exc:
            raise CheckpointError(f"corrupt checkpoint: missing {exc.args[0]}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt checkpoint: {exc}") from None

        model = _bind(config)
        vectors = (model.theta, model.stats)
        need = 8 * sum(v.size for v in vectors)
        if size - start != need:
            raise CheckpointError(
                f"corrupt checkpoint: payload has {size - start} bytes, the config needs {need}"
            )
        for v in vectors:
            fh.readinto(v)
            if not np.little_endian:  # the file is little-endian
                v.byteswap(inplace=True)
    return model, config, epoch
