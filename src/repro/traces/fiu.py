"""FIU SRCMap-style trace format: parsing and writing.

The paper's traces (Koller & Rangaswami, FAST 2010) are plain-text block
traces with one request per line::

    <timestamp> <pid> <process> <lba> <size> <op> <major> <minor> <md5>

where ``lba``/``size`` are in 512-byte sectors, ``op`` is ``W`` or ``R``
and ``md5`` is the hex digest of each 4KB chunk's content.  This module
converts such files to the simulator's page-granular
:class:`~repro.sim.request.IORequest` stream (interning digests as dense
``value_id`` integers) and can write generated traces back out in the same
format, so the whole pipeline also runs on real FIU data when available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, TextIO

from ..sim.request import IORequest, OpType

__all__ = [
    "SECTOR_SIZE",
    "SECTORS_PER_PAGE",
    "FIUFormatError",
    "RawFIURecord",
    "parse_fiu_line",
    "read_fiu",
    "iter_fiu_requests",
    "format_fiu_line",
    "write_fiu",
]

SECTOR_SIZE = 512
PAGE_SIZE = 4096
SECTORS_PER_PAGE = PAGE_SIZE // SECTOR_SIZE


class FIUFormatError(ValueError):
    """A malformed FIU trace line."""


@dataclass(frozen=True)
class RawFIURecord:
    """One line of an FIU trace, faithfully."""

    timestamp: float
    pid: int
    process: str
    lba: int          # in 512B sectors
    size: int         # in 512B sectors
    op: OpType
    major: int
    minor: int
    md5: str          # hex digest of the 4KB content

    @property
    def lpn(self) -> int:
        """4KB logical page number the first sector falls into."""
        return self.lba // SECTORS_PER_PAGE


def parse_fiu_line(line: str, lineno: int = 0) -> RawFIURecord:
    """Parse one trace line; raises :class:`FIUFormatError` with context."""
    fields = line.split()
    if len(fields) != 9:
        raise FIUFormatError(
            f"line {lineno}: expected 9 fields, got {len(fields)}"
        )
    try:
        op = OpType(fields[5].upper())
    except ValueError:
        raise FIUFormatError(
            f"line {lineno}: op must be W or R, got {fields[5]!r}"
        ) from None
    try:
        return RawFIURecord(
            timestamp=float(fields[0]),
            pid=int(fields[1]),
            process=fields[2],
            lba=int(fields[3]),
            size=int(fields[4]),
            op=op,
            major=int(fields[6]),
            minor=int(fields[7]),
            md5=fields[8].lower(),
        )
    except ValueError as exc:
        raise FIUFormatError(f"line {lineno}: {exc}") from None


def read_fiu(stream: TextIO) -> Iterator[RawFIURecord]:
    """Yield raw records, skipping blank and ``#`` comment lines."""
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_fiu_line(stripped, lineno)


def iter_fiu_requests(
    stream: TextIO, timestamp_unit_us: float = 1.0
) -> Iterator[IORequest]:
    """Convert an FIU trace to page-granular simulator requests.

    MD5 digests are interned to dense integer value ids in first-seen
    order.  Requests larger than one page are split into per-page requests
    sharing the digest (the FIU traces themselves are 4KB-per-line, so the
    split is a robustness measure for other sources).
    """
    intern: Dict[str, int] = {}
    for record in read_fiu(stream):
        value_id = intern.setdefault(record.md5, len(intern))
        pages = max(1, -(-record.size // SECTORS_PER_PAGE))
        for offset in range(pages):
            yield IORequest(
                record.timestamp * timestamp_unit_us, record.op,
                record.lpn + offset, value_id,
            )


def format_fiu_line(request: IORequest, pid: int = 0, process: str = "repro") -> str:
    """Render one request as a valid FIU trace line.

    The synthetic value id is rendered as a 32-hex-digit pseudo-MD5 (its
    fingerprint digest), which round-trips through
    :func:`iter_fiu_requests` to the same value identity.
    """
    md5 = request.fingerprint.digest.hex()
    return (
        f"{request.arrival_us:.3f} {pid} {process} "
        f"{request.lpn * SECTORS_PER_PAGE} {SECTORS_PER_PAGE} "
        f"{request.op.value} 0 0 {md5}"
    )


def write_fiu(stream: TextIO, requests: Iterable[IORequest]) -> int:
    """Write a trace file; returns the number of lines written."""
    count = 0
    for request in requests:
        stream.write(format_fiu_line(request))
        stream.write("\n")
        count += 1
    return count
