"""Binary checkpoint format.

Layout: 8-byte magic ``FLATVAE\\0``, version u32, then a length-prefixed
canonical (key-sorted, compact) JSON block holding the config and the
epoch reached, then a tensor count and the named tensors themselves (u32
name length, UTF-8 name, u32 ndim, u64 dims, float64 little-endian data),
and finally a CRC32 trailer computed over everything between the magic
and the trailer. Tensors round-trip bit-exactly.
"""

import json
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .layers import BUFFER_KEYS, layer_shapes
from .vae import VaeConfig, assemble

MAGIC = b"FLATVAE\x00"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _pack_tensor(name, arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    encoded = name.encode("utf-8")
    parts = [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", arr.ndim)]
    parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    parts.append(arr.tobytes(order="C"))
    return b"".join(parts)


def save_checkpoint(model, config, epoch, path):
    """Write model parameters and batch-norm buffers."""
    tensors = list(model.named_tensors())
    # constant keys from when the format could also hold optimizer state,
    # kept so that files stay byte-identical to the ones written then
    meta = {
        "config": asdict(config),
        "epoch": int(epoch),
        "has_optimizer": False,
        "opt_step": 0,
    }
    # numpy scalars in a caller's config are written as plain numbers
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":"), default=lambda v: v.item())
    blob = blob.encode("utf-8")
    payload = [struct.pack("<I", VERSION), struct.pack("<I", len(blob)), blob]
    payload.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors:
        payload.append(_pack_tensor(name, arr))
    body = b"".join(payload)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise CheckpointError("corrupt checkpoint: truncated file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path):
    """Returns (model, config, epoch). Every tensor the architecture
    expects must be present with its shape, and no other may be."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint")
    if len(raw) < len(MAGIC) + 4:
        raise CheckpointError("corrupt checkpoint: truncated file")
    # a view, so the tensor data is copied once: into the model's theta
    body, trailer = memoryview(raw)[len(MAGIC) : -4], raw[-4:]
    if struct.unpack("<I", trailer)[0] != zlib.crc32(body):
        raise CheckpointError("corrupt checkpoint: CRC mismatch")
    r = _Reader(body)
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    meta = json.loads(bytes(r.take(r.u32())).decode("utf-8"))
    n_tensors = r.u32()
    tensors = {}
    for _ in range(n_tensors):
        name = bytes(r.take(r.u32())).decode("utf-8")
        ndim = r.u32()
        shape = struct.unpack(f"<{ndim}Q", r.take(8 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        tensors[name] = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(shape)
    if r.pos != len(body):
        raise CheckpointError("corrupt checkpoint: trailing bytes")

    try:
        config = VaeConfig.from_dict(meta["config"])
        epoch = int(meta["epoch"])
    except KeyError as exc:
        raise CheckpointError(f"corrupt checkpoint: missing {exc.args[0]}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from None

    def layer_tensors(prefix, spec):
        out = {}
        for key, shape in layer_shapes(spec).items():
            name = prefix + key
            if name not in tensors:
                raise CheckpointError(f"corrupt checkpoint: missing tensor {name}")
            data = tensors.pop(name)
            if data.shape != shape:
                raise CheckpointError(f"corrupt checkpoint: bad shape for {name}")
            out[key] = data.copy() if key in BUFFER_KEYS else data
        return out

    model = assemble(config, layer_tensors)
    if tensors:
        raise CheckpointError(
            f"corrupt checkpoint: unexpected tensor {', '.join(sorted(tensors))}"
        )
    return model, config, epoch
