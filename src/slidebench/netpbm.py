"""Minimal binary netpbm reader/writer (P5 grayscale, P6 RGB, maxval 255).

Writing is canonical and byte-deterministic: a fixed single-line header per
field, no comments, then the rows, each block written from its contiguous
array's own buffer, never a bytes copy of it. ``row_writer``, the one writer,
writes the header first and takes the rows in blocks, so a raster can be
written while it is made; a whole array is one block. Reading
accepts any conforming header (whitespace and ``#`` comments between
tokens, of any length) and holds one copy of the raster: the header is
parsed from the open file and the raster is read straight into the returned
array.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import FormatError

_MAXVAL = 255


_CHANNELS = {b"P5": (), b"P6": (3,)}


@contextmanager
def row_writer(path: str | Path, magic: bytes, width: int, height: int):
    """Write the canonical ``magic`` (P5 or P6) header of a width x height raster, then
    yield ``append``, which writes a block of whole rows, top to bottom: an (n, width)
    array for P5 or (n, width, 3) for P6, as uint8. Leaving the block checks that
    exactly ``height`` rows were written. A failed write raises an OSError that names
    ``path``, as a failed read does.
    """
    shape = (width, *_CHANNELS[magic])
    written = 0

    def write(data) -> None:  # flushed, so closing the file has nothing left to fail on
        try:
            fh.write(data)
            fh.flush()
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc

    def append(rows) -> None:
        nonlocal written
        arr = np.ascontiguousarray(rows, dtype=np.uint8)
        if arr.shape[1:] != shape:
            raise FormatError(f"{path}: rows of shape {arr.shape} do not fit a {width}-wide "
                              f"{magic.decode()} raster")
        write(arr)
        written += len(arr)

    with open(path, "wb") as fh:
        write(b"%s\n%d %d\n%d\n" % (magic, width, height, _MAXVAL))
        yield append
    if written != height:
        raise FormatError(f"{path}: {written} rows written, header declares {height}")


def read_p5(path: str | Path) -> np.ndarray:
    """Read a binary PGM file into a (h, w) uint8 array."""
    return _read_binary(path, b"P5")


def read_p6(path: str | Path) -> np.ndarray:
    """Read a binary PPM file into a (h, w, 3) uint8 array."""
    return _read_binary(path, b"P6")


def _read_binary(path: str | Path, magic: bytes) -> np.ndarray:
    """Parse the header, then read the raster straight into one uint8 array.

    The payload length is checked against the file size before the array is
    allocated, so a header declaring a huge raster costs nothing.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(magic))
        if head != magic:
            raise FormatError(f"{path}: expected {magic.decode()} magic, got {head!r}")
        w, h, maxval = _read_header_ints(fh, path)
        if w < 1 or h < 1:
            raise FormatError(f"{path}: invalid dimensions {w}x{h}")
        if maxval != _MAXVAL:
            raise FormatError(f"{path}: unsupported maxval {maxval}, expected {_MAXVAL}")
        # the byte that ended maxval, exactly one, separates the header from the raster
        channels = _CHANNELS[magic]
        expected = w * h * math.prod(channels)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise FormatError(f"{path}: raster payload is {size} bytes, expected {expected}")
        payload = np.empty(expected, dtype=np.uint8)
        got = fh.readinto(payload)
    if got != expected:
        raise FormatError(f"{path}: raster payload is {got} bytes, expected {expected}")
    return payload.reshape(h, w, *channels)


def _read_header_ints(fh: BinaryIO, path: str | Path) -> list[int]:
    """Width, height and maxval; whitespace and ``#`` comments may precede each.

    Reads one byte past each number, so after the last one the file is
    positioned at the raster.
    """
    fields = []
    c = fh.read(1)
    for _ in range(3):
        while c == b"#" or c.isspace():
            if c == b"#":
                while c not in (b"\n", b""):
                    c = fh.read(1)
            else:
                c = fh.read(1)
        digits = b""
        while c.isdigit():
            digits += c
            c = fh.read(1)
        try:
            fields.append(int(digits))
        except ValueError:  # no digits, or more than int() converts
            raise FormatError(f"{path}: malformed netpbm header") from None
    return fields
