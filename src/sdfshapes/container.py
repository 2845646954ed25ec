"""Binary framing shared by the NSDS, NSDF and NSDG containers.

A container is little-endian: 4-byte magic, u32 version, then struct-packed
scalars and raw arrays.  Reader raises BadMagic or UnsupportedVersion on a
bad header, TruncatedFile on any read past the end (sizes are Python ints,
so no count wraps) and ShapeInconsistency on bytes left at finish().
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import BadMagic, ShapeInconsistency, TruncatedFile, UnsupportedVersion


def write_atomic(write_fn, path) -> None:
    """Call write_fn on a sibling temp path, then rename it over path."""
    tmp = str(path) + ".tmp"
    write_fn(tmp)
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
    """Reads a whole container file and walks it front to back."""

    def __init__(self, path, magic: bytes, version: int, what: str):
        with open(path, "rb") as fh:
            self.data = fh.read()
        self.what = what
        if self.data[:4] != magic:
            raise BadMagic(f"not a {what} file: magic {self.data[:4]!r}")
        self.off = 4
        (found,) = self.unpack("<I")
        if found != version:
            raise UnsupportedVersion(f"{what} version {found}")

    def left(self) -> int:
        return len(self.data) - self.off

    def _take(self, size: int) -> int:
        if size > self.left():
            raise TruncatedFile(f"{self.what} file ends early: {size} bytes needed "
                                f"at offset {self.off}, {self.left()} left")
        self.off += size
        return self.off - size

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._take(struct.calcsize(fmt)))

    def view(self, shape: tuple, dtype="<f8") -> np.ndarray:
        """The next prod(shape) elements as a read-only view of the file."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = self._take(count * dtype.itemsize)
        return np.frombuffer(self.data, dtype, count, start).reshape(shape)

    def array(self, shape: tuple, dtype="<f8") -> np.ndarray:
        """A writable native-order copy of the next prod(shape) elements."""
        return self.view(shape, dtype).astype(np.dtype(dtype).newbyteorder("="))

    def finish(self) -> None:
        if self.left():
            raise ShapeInconsistency(f"trailing bytes after {self.what} payload")
