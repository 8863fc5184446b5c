"""The one checked reader and writer behind the CRIX2, CRIV2 and CREM2 formats.

A file is an 8-byte magic (the format name, zero-padded), then sections in a
fixed order, each its payload, the payload's CRC32 (u32) and zero padding to
a multiple of 8 bytes, so every payload is 8-byte aligned: first the header,
the format's u64 counts, then little-endian arrays whose lengths follow from
them. One `Format` table per file kind drives `write` and `SectionReader`.
Every fault raises ValueError naming the file and the section; the loaders
raise the same error (`fail`) when a section's values are inconsistent.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

ALIGN = 8


@dataclass(frozen=True)
class Format:
    name: str  # e.g. "CRIX2"
    header: tuple[str, ...]  # the header's u64 fields, in order
    sections: tuple[tuple[str, str, Callable[[dict], int]], ...]  # (name, dtype, count)
    rebuild: str  # the CLI command that writes this kind of file


def _span(size: int) -> int:
    """The bytes a section of `size` payload bytes takes, with its CRC and padding."""
    return -(-(size + 4) // ALIGN) * ALIGN


def write(path, fmt: Format, header: dict, arrays: dict) -> None:
    payloads = [np.array([header[f] for f in fmt.header], "<u8")]
    payloads += [np.ascontiguousarray(arrays[name], dtype) for name, dtype, _ in fmt.sections]
    with open(path, "wb") as f:
        f.write(fmt.name.encode().ljust(ALIGN, b"\0"))
        for p in payloads:
            f.write(p)
            f.write(zlib.crc32(p).to_bytes(4, "little"))
            f.write(bytes(_span(p.nbytes) - p.nbytes - 4))


class SectionReader:
    """One file read once and checked in file order: magic, each section's bounds, checksum
    and padding, no bytes after. `header` maps counts by name, `arrays` views by section."""

    def __init__(self, path, fmt: Format):
        self.path = path
        self.data = np.fromfile(path, dtype=np.uint8)
        self.data.flags.writeable = False
        found = self.data[:ALIGN].tobytes()
        if found != fmt.name.encode().ljust(ALIGN, b"\0"):
            if found[:5] == fmt.name[:4].encode() + b"1":
                raise self.fail("magic", f"is {fmt.name[:4]}1, a format this version does not "
                                         f"read: rebuild the file with `blendrank {fmt.rebuild}`")
            raise self.fail("magic", f"is bad: not a {fmt.name} file")
        self.offset = ALIGN
        self.header = dict(zip(fmt.header, self.take("header", "<u8", len(fmt.header)).tolist()))
        self.arrays = {name: self.take(name, dtype, count(self.header))
                       for name, dtype, count in fmt.sections}
        if self.offset != self.data.shape[0]:
            raise ValueError(f"{path}: {self.data.shape[0] - self.offset} bytes after the "
                             f"{fmt.sections[-1][0]} section; the header implies "
                             f"{self.offset} bytes in all")

    def fail(self, section: str, message: str) -> ValueError:
        return ValueError(f"{self.path}: {section} section {message}")

    def take(self, section: str, dtype: str, count: int) -> np.ndarray:
        """The next section's payload as `count` items of `dtype`, once checked."""
        start, size = self.offset, np.dtype(dtype).itemsize * count
        end, self.offset = start + size, start + _span(size)
        if self.offset > self.data.shape[0]:
            raise self.fail(section, f"truncated: the header implies bytes {start}-"
                                     f"{self.offset}, the file has {self.data.shape[0]}")
        crc, stored = zlib.crc32(self.data[start:end]), self.data[end:end + 4].view("<u4")[0]
        if crc != stored:
            raise self.fail(section, f"checksum mismatch: stored {stored:08x}, computed {crc:08x}")
        if self.data[end + 4:self.offset].any():
            raise self.fail(section, "padding is not zero")
        return self.data[start:end].view(dtype)
