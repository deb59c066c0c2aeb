"""Binary image container: header, section directory, integrity checks.

An image file is:

* a 16-byte header: magic ``FABRIC01``, u16 format version, u16 flags,
  u32 section count;
* a directory of 32-byte entries (u32 section id, u32 reserved, u64 offset,
  u64 length, u32 CRC-32, u32 pad), sorted by section id;
* section payloads, each starting on an 8-byte boundary.

All integers are little-endian.  The CRC-32 (zlib polynomial) of every
payload is stored in its directory entry, so corruption is detected per
section before any payload is interpreted.

Every payload but TEXT, METADATA and STATS is a *table*, written by
``pack`` and read back by ``head`` and ``unpack``: u32 count, u32 extra,
u32 columns, then optionally ``count`` strings as u32 offsets[count+1]
and a UTF-8 blob.  This module is the only one that knows those layouts.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ImageError

MAGIC = b"FABRIC01"
FORMAT_VERSION = 2

_HEADER = struct.Struct("<8sHHI")
_DIRENT = struct.Struct("<IIQQII")

# Fixed section ids; per-feature stores are assigned ids from FEATURE_BASE up.
TEXT = 1
SLOTS = 2
OTYPES = 3
NODES = 4
MONADPOOL = 5
EDGELABELS = 6
EDGES = 7
METADATA = 8
STATS = 9
FEATINDEX = 10
FEATURE_BASE = 256

SECTION_NAMES = {
    TEXT: "text",
    SLOTS: "slots",
    OTYPES: "otypes",
    NODES: "nodes",
    MONADPOOL: "monadpool",
    EDGELABELS: "edgelabels",
    EDGES: "edges",
    METADATA: "metadata",
    STATS: "stats",
    FEATINDEX: "featindex",
}


def section_name(sid: int) -> str:
    return SECTION_NAMES.get(sid, f"feature[{sid - FEATURE_BASE}]")


def _align8(n: int) -> int:
    return (n + 7) & ~7


def fingerprint(data: bytes | memoryview) -> str:
    """Content identity of an image: hex SHA-256 over all its bytes."""
    return hashlib.sha256(data).hexdigest()


def pack(count: int, *columns, extra: int = 0, strings: list[str] | None = None) -> bytes:
    """A table section: the head words ``count`` and ``extra``, each column
    as u32, then, given strings, their offsets and UTF-8 blob."""
    parts = [np.asarray(c, dtype="<u4").tobytes() for c in ([count, extra], *columns)]
    if strings is not None:
        encoded = [s.encode("utf-8") for s in strings]
        parts += [np.asarray([0, *accumulate(map(len, encoded))], dtype="<u4").tobytes(), *encoded]
    return b"".join(parts)


def head(payload: memoryview) -> tuple[int, int]:
    """The head words (count, extra) of a table section."""
    count, extra = np.frombuffer(payload, dtype="<u4", count=2).tolist()
    return count, extra


def unpack(payload: memoryview, *lengths: int, strings: bool = False) -> tuple:
    """The columns of a table section, as read-only u32 views of the given
    lengths; then, with ``strings``, its ``count`` strings as a tuple; then
    the bytes left over.  Raises ValueError when a column runs past the
    end, string offsets decrease or run past it, or a string is not
    UTF-8."""
    out: list = []
    pos = 8
    for n in lengths:
        out.append(np.frombuffer(payload, dtype="<u4", count=n, offset=pos))
        pos += 4 * n
    if strings:
        count = head(payload)[0]
        offsets = np.frombuffer(payload, dtype="<u4", count=count + 1, offset=pos).tolist()
        pos += 4 * (count + 1)
        blob = bytes(payload[pos:])
        if offsets != sorted(offsets) or offsets[-1] > len(blob):
            raise ValueError("string offsets decrease or run past the end")
        out.append(tuple(blob[a:b].decode("utf-8") for a, b in zip(offsets, offsets[1:])))
        pos += offsets[-1]
    out.append(payload[pos:])
    return tuple(out)


def build_image(sections: list[tuple[int, bytes]]) -> bytes:
    """Assemble payloads into image bytes.  Section ids must be unique."""
    ids = [sid for sid, _ in sections]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate section id")
    ordered = sorted(sections, key=lambda s: s[0])
    count = len(ordered)
    offset = _align8(_HEADER.size + count * _DIRENT.size)
    entries = []
    for sid, payload in ordered:
        entries.append((sid, offset, len(payload), zlib.crc32(payload)))
        offset = _align8(offset + len(payload))
    out = bytearray(offset if ordered else _HEADER.size)
    _HEADER.pack_into(out, 0, MAGIC, FORMAT_VERSION, 0, count)
    pos = _HEADER.size
    for sid, off, length, crc in entries:
        _DIRENT.pack_into(out, pos, sid, 0, off, length, crc, 0)
        pos += _DIRENT.size
    for (sid, payload), (_, off, length, _crc) in zip(ordered, entries):
        out[off : off + length] = payload
    return bytes(out)


@dataclass(frozen=True, slots=True)
class SectionEntry:
    id: int
    offset: int
    length: int
    crc: int

    @property
    def name(self) -> str:
        return section_name(self.id)


def read_directory(data: bytes | memoryview) -> tuple[SectionEntry, ...]:
    """Parse and sanity-check the header and directory, without touching
    payload bytes.  Raises ImageError on any structural defect."""
    view = memoryview(data)
    if len(view) < _HEADER.size:
        raise ImageError("NOT_A_FABRIC_IMAGE", "file is shorter than the image header")
    magic, version, _flags, count = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise ImageError("NOT_A_FABRIC_IMAGE", "bad magic bytes")
    if version != FORMAT_VERSION:
        raise ImageError(
            "UNSUPPORTED_VERSION",
            f"image has format version {version}, this build reads version {FORMAT_VERSION}",
        )
    dir_end = _HEADER.size + count * _DIRENT.size
    if len(view) < dir_end:
        raise ImageError("TRUNCATED", "directory extends past end of file")
    entries = []
    prev_id = -1
    for i in range(count):
        sid, _res, offset, length, crc, _pad = _DIRENT.unpack_from(view, _HEADER.size + i * _DIRENT.size)
        if sid <= prev_id:
            raise ImageError("BAD_DIRECTORY", "section ids must be unique and ascending")
        prev_id = sid
        name = section_name(sid)
        if offset < dir_end or offset % 8:
            raise ImageError("BAD_DIRECTORY", f"section {name} has a bad offset", section=name)
        if offset + length > len(view):
            raise ImageError("TRUNCATED", f"section {name} extends past end of file", section=name)
        entries.append(SectionEntry(id=sid, offset=offset, length=length, crc=crc))
    return tuple(entries)


def _crc_ok(view: memoryview, e: SectionEntry) -> bool:
    return zlib.crc32(view[e.offset : e.offset + e.length]) == e.crc


def verify_sections(data: bytes | memoryview, entries: tuple[SectionEntry, ...]) -> None:
    """CRC-check every payload; raises on the first mismatch in directory
    order."""
    view = memoryview(data)
    for e in entries:
        if not _crc_ok(view, e):
            raise ImageError("SECTION_CRC", f"section {e.name} fails its CRC check", section=e.name)


@dataclass(frozen=True, slots=True)
class ImageCheck:
    """Outcome of a non-raising integrity scan (the ``verify`` API)."""

    ok: bool
    version: int | None
    problems: tuple[str, ...]
    sections: tuple[tuple[str, int, bool], ...]  # (name, length, crc_ok)


def check_image(data: bytes | memoryview) -> ImageCheck:
    """Scan an image and report every problem instead of raising."""
    try:
        entries = read_directory(data)
    except ImageError as exc:
        return ImageCheck(ok=False, version=None, problems=(f"{exc.code}: {exc}",), sections=())
    view = memoryview(data)
    problems: list[str] = []
    rows: list[tuple[str, int, bool]] = []
    for e in entries:
        good = _crc_ok(view, e)
        rows.append((e.name, e.length, good))
        if not good:
            problems.append(f"SECTION_CRC: section {e.name} fails its CRC check")
    return ImageCheck(
        ok=not problems,
        version=FORMAT_VERSION,
        problems=tuple(problems),
        sections=tuple(rows),
    )
