"""Named sub-generator derivation from a master seed."""

import zlib

import numpy as np
import pytest

from somatic_vae.seeding import indexed_rng, sub_rng


def test_same_seed_and_name_reproduces_stream():
    a = sub_rng(7, "shuffle").random(16)
    b = sub_rng(7, "shuffle").random(16)
    assert np.array_equal(a, b)


def test_distinct_names_give_distinct_streams():
    a = sub_rng(7, "shuffle").random(16)
    b = sub_rng(7, "dropout").random(16)
    assert not np.array_equal(a, b)


def test_distinct_seeds_give_distinct_streams():
    a = sub_rng(7, "shuffle").random(16)
    b = sub_rng(8, "shuffle").random(16)
    assert not np.array_equal(a, b)


def test_invalid_stream_name_rejected():
    for make in (lambda name: sub_rng(0, name), lambda name: indexed_rng(0, name, 0)):
        for name in ("", None):
            with pytest.raises(ValueError, match="stream name must be a non-empty string"):
                make(name)


def test_negative_seed_rejected_naming_the_option():
    # numpy's own refusal, "expected non-negative integer", names no option
    for make in (lambda: sub_rng(-1, "shuffle"), lambda: indexed_rng(-1, "kmeans", 0)):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            make()


def test_indexed_rng_lane_is_the_index_plus_one():
    tag = zlib.crc32(b"kmeans")
    for index in (0, 1, 9):
        want = np.random.default_rng(np.random.SeedSequence([3, tag, index + 1])).random(8)
        assert np.array_equal(indexed_rng(3, "kmeans", index).random(8), want)


def test_indexed_rng_lanes_are_independent_and_reproducible():
    a0 = indexed_rng(3, "kmeans", 0).random(8)
    a0_again = indexed_rng(3, "kmeans", 0).random(8)
    a1 = indexed_rng(3, "kmeans", 1).random(8)
    assert np.array_equal(a0, a0_again)
    assert not np.array_equal(a0, a1)


def test_indexed_rng_differs_from_plain_stream():
    base = sub_rng(3, "kmeans").random(8)
    lane = indexed_rng(3, "kmeans", 0).random(8)
    assert not np.array_equal(base, lane)
