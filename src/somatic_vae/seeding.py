"""Named sub-generators derived from one master seed.

Every random decision in the package (weight init, epoch shuffling,
dropout masks, reparameterization draws, k-means restarts, splits)
pulls from its own named stream so that components can be re-run
independently and still reproduce bit-for-bit.
"""

import zlib

import numpy as np


def _stream(seed, name, *words):
    if not isinstance(name, str) or not name:
        raise ValueError("stream name must be a non-empty string")
    if int(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, *words]))


def sub_rng(seed, name):
    """Return a Generator for the stream `name` under master `seed`.

    The stream identity is (seed, crc32(name)), so distinct names give
    independent streams and the same name always gives the same stream.
    """
    return _stream(seed, name)


def indexed_rng(seed, name, index):
    """Like sub_rng but with an extra integer lane, e.g. one per restart.

    The lane word is offset by one: SeedSequence treats a trailing zero
    entropy word as absent, so lane 0 would otherwise collide with the
    plain sub_rng stream of the same name.
    """
    return _stream(seed, name, int(index) + 1)
