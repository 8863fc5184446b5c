"""The one checked reader behind the CRIX1, CRIV1 and CREM1 binary formats.

Each format is a magic string followed by sections in a fixed order, each a
packed struct or a little-endian array whose size the earlier sections
imply. Every read names its section. A read past the end of the file, or
bytes left over after the last section, raises ValueError naming the file
and the section; the format loaders raise the same error (`fail`) when a
section's values are inconsistent.
"""

from __future__ import annotations

import struct

import numpy as np


class SectionReader:
    """Sequential, size-checked reads over one whole file."""

    def __init__(self, path, magic: bytes):
        with open(path, "rb") as f:
            self.data = f.read()
        self.path = path
        self.offset = len(magic)
        self.section = "magic"
        if self.data[:len(magic)] != magic:
            raise self.fail("magic", f"is bad: not a {magic.decode()} file")

    def fail(self, section: str, message: str) -> ValueError:
        return ValueError(f"{self.path}: {section} section {message}")

    def take(self, section: str, size: int) -> int:
        """Claim the next `size` bytes for `section`; returns where they start."""
        start, end = self.offset, self.offset + size
        if size < 0 or end > len(self.data):
            raise self.fail(section, f"truncated: the header implies bytes {start}-{end}, "
                                     f"the file has {len(self.data)}")
        self.offset, self.section = end, section
        return start

    def fields(self, section: str, fmt: str) -> tuple:
        """Unpack one struct, e.g. a header."""
        return struct.unpack_from(fmt, self.data, self.take(section, struct.calcsize(fmt)))

    def raw(self, section: str, size: int) -> bytes:
        start = self.take(section, size)
        return self.data[start:start + size]

    def array(self, section: str, dtype: str, count: int) -> np.ndarray:
        """`count` items of `dtype`, copied so the array is aligned and owned."""
        dtype = np.dtype(dtype)
        start = self.take(section, dtype.itemsize * count)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start).copy()

    def end(self) -> None:
        """Reject bytes after the last section."""
        if self.offset != len(self.data):
            raise ValueError(f"{self.path}: {len(self.data) - self.offset} bytes after the "
                             f"{self.section} section; the header implies "
                             f"{self.offset} bytes in all")
