"""Binary checkpoint format, version 3.

A framing.py container under the magic ``FLATVAE\\0``: the JSON block holds
the config and the epoch reached, the payload the raw float32
little-endian bytes of the model's two flat vectors, theta and the
batch-norm running statistics. The config fixes the architecture, and
with it the length of both vectors. Both round-trip bit-exactly. Version
2 stored the same vectors as float64 and is refused, as is version 1.
"""

from dataclasses import asdict

import numpy as np

from . import framing
from .vae import VaeConfig, _bind

MAGIC = b"FLATVAE\x00"
VERSION = 3


class CheckpointError(ValueError):
    pass


def save_checkpoint(model, epoch, path):
    """Write model.config, the epoch, model.theta and model.stats."""
    vectors = [np.ascontiguousarray(v, dtype="<f4") for v in (model.theta, model.stats)]
    framing.write(path, MAGIC, VERSION, {"config": asdict(model.config), "epoch": int(epoch)}, vectors)


def _bind_vectors(meta):
    config = VaeConfig.from_dict(meta["config"])
    model = _bind(config)
    return (model, int(meta["epoch"])), (model.theta, model.stats), "the config needs"


def load_checkpoint(path):
    """Returns (model, epoch). The payload after the JSON block
    must be exactly the two vectors that the stored config's architecture
    needs; they are read straight into the model."""
    return framing.read(path, MAGIC, VERSION, "checkpoint", CheckpointError, _bind_vectors)
