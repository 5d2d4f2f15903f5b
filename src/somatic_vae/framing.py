"""The framed binary container behind the checkpoint and the cohort cache.

Layout: a magic string, version u32, a length-prefixed canonical
(key-sorted, compact, UTF-8) JSON block, the raw bytes of the arrays in
order, and a CRC-32 trailer over everything between the magic and the
trailer. Arrays are written as given; callers pass little-endian ones.
"""

import json
import os
import struct
import zlib

import numpy as np

CHUNK = 1 << 20  # bytes per read while the CRC is checked


def write(path, magic, version, meta, arrays):
    """Write one container; numpy scalars in meta become plain numbers."""
    blob = json.dumps(meta, sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                      default=lambda v: v.item()).encode("utf-8")
    crc = 0
    with open(path, "wb") as fh:
        fh.write(magic)
        for part in (struct.pack("<II", version, len(blob)), blob, *arrays):
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def read(path, magic, version, what, error, layout):
    """Check a file that write() made and read its arrays; returns result.

    Checks the magic, a truncated body, the CRC (in chunks), the version and
    the JSON length, in that order. layout(meta) returns (result, arrays,
    needs): the arrays the payload fills, and what fixes their size ("the
    config needs"). The payload must hold exactly their bytes and is read
    into them. Failures raise error(f"{path}: ..."); a KeyError, TypeError,
    ValueError or AttributeError from parsing or layout is a corrupt file.
    """
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise error(f"{path}: not a {what}")
        size = os.fstat(fh.fileno()).st_size - len(magic) - 4  # the CRC'd body
        if size < 8:
            raise error(f"{path}: corrupt {what}: truncated file")
        crc = 0
        for done in range(0, size, CHUNK):
            crc = zlib.crc32(fh.read(min(CHUNK, size - done)), crc)
        if fh.read(4) != struct.pack("<I", crc):
            raise error(f"{path}: corrupt {what}: CRC mismatch")
        fh.seek(len(magic))
        found, start = struct.unpack("<II", fh.read(8))
        if found != version:
            raise error(f"{path}: unsupported {what} version {found}")
        start += 8
        if size < start:
            raise error(f"{path}: corrupt {what}: truncated file")
        try:
            result, arrays, needs = layout(json.loads(fh.read(start - 8).decode("utf-8")))
        except KeyError as exc:
            raise error(f"{path}: corrupt {what}: missing {exc.args[0]}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise error(f"{path}: corrupt {what}: {exc}") from None
        need = sum(a.nbytes for a in arrays)
        if size - start != need:
            raise error(f"{path}: corrupt {what}: payload has {size - start} bytes, {needs} {need}")
        for a in arrays:
            fh.readinto(a)
            if not np.little_endian:  # the file is little-endian
                a.byteswap(inplace=True)
    return result
