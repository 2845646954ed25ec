"""Binary framing shared by the NSDS and NSDF containers, and write_atomic.

A container is little-endian: 4-byte magic, u32 version, then struct-packed
scalars and raw arrays.  Reader reads each array straight from the file
(a pipe is read whole first).  It raises BadMagic or UnsupportedVersion on
a bad header, TruncatedFile on any read past the end, before allocating
for it (sizes are Python ints, so no count wraps), and ShapeInconsistency
on bytes left at finish().
"""

from __future__ import annotations

import io
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import BadMagic, ShapeInconsistency, TruncatedFile, UnsupportedVersion


@contextmanager
def write_atomic(path, mode: str = "w"):
    """How every output file lands: <path>.tmp, open in mode (text as UTF-8,
    newlines kept), renamed over path, or removed if the block raises."""
    tmp = str(path) + ".tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    fh = open(tmp, mode, **text)
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


class Writer:
    """Streams one container to an open binary file."""

    def __init__(self, fh, magic: bytes, version: int):
        self.fh = fh
        fh.write(magic)
        self.pack("<I", version)

    def pack(self, fmt: str, *values) -> None:
        self.fh.write(struct.pack(fmt, *values))

    def array(self, a, dtype="<f8") -> None:
        self.fh.write(np.ascontiguousarray(a, dtype=dtype).tobytes())


class Reader:
    """Walks one container in an open binary file front to back."""

    def __init__(self, fh, magic: bytes, version: int, what: str):
        if not fh.seekable():  # a pipe tells no size to check reads against
            fh = io.BytesIO(fh.read())
        self.fh = fh
        self.what = what
        self.size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        head = fh.read(4)
        if head != magic:
            raise BadMagic(f"not a {what} file: magic {head!r}")
        self.off = 4
        (found,) = self.unpack("<I")
        if found != version:
            raise UnsupportedVersion(f"{what} version {found}")

    def left(self) -> int:
        return self.size - self.off

    def _take(self, size: int) -> None:
        if size > self.left():
            raise TruncatedFile(f"{self.what} file ends early: {size} bytes needed "
                                f"at offset {self.off}, {self.left()} left")
        self.off += size

    def unpack(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        self._take(size)
        return struct.unpack(fmt, self._read(bytearray(size)))

    def array(self, shape: tuple, dtype="<f8") -> np.ndarray:
        """The next prod(shape) elements, read into a writable native-order
        array."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        self._take(count * dtype.itemsize)
        out = self._read(np.empty(shape, dtype))
        return out.astype(dtype.newbyteorder("="), copy=False)

    def _read(self, buf):
        """buf, filled from the file, which may have shrunk since _take."""
        if self.fh.readinto(buf) != memoryview(buf).nbytes:
            raise TruncatedFile(f"{self.what} file shrank while being read")
        return buf

    def finish(self) -> None:
        if self.left():
            raise ShapeInconsistency(f"trailing bytes after {self.what} payload")
