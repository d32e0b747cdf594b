"""Content-addressed on-disk cache of enumerated balls with length tables.

One file per ball, named by the sha256 of its own bytes, plus a JSON
manifest mapping (marked-structure hash, radius) to file ids.  The binary
layout (all integers little-endian, varints as in :mod:`.encoding`):

    offset  size  field
    0       8     magic ``WDIMBAL1``
    8       4     format version (u32) = 1
    12      32    sha256 of the marked structure's spec string (raw)
    44      8     radius numerator (u64)
    52      8     radius denominator (u64)
    60      8     element count (u64)
    68      32    sha256 of the body (raw)
    100     ...   body

    body = count x (uvarint byte length || canonical element encoding)
           then count x (uvarint word length)

Encodings are stored in strictly increasing byte order; element i's word
length is the i-th entry of the trailing table.  Writes go through a
temporary file and an atomic rename, so a crash never leaves a torn file
under a content id.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .encoding import EncodingError, read_uvarint, write_uvarint
from .errors import IntegrityError
from .groups import max_length_below

MAGIC = b"WDIMBAL1"
FORMAT_VERSION = 1
HEADER = struct.Struct("<8sI32sQQQ32s")

@dataclass(frozen=True)
class BallRecord:
    """One stored ball: sorted canonical encodings plus parallel word lengths."""

    spec_hash: str
    radius: Fraction
    encodings: tuple[bytes, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.spec_hash) != 64 or any(c not in "0123456789abcdef" for c in self.spec_hash):
            raise ValueError(f"spec hash must be 64 hex chars, got {self.spec_hash!r}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if len(self.encodings) != len(self.lengths):
            raise ValueError("length table does not match the element list")
        cutoff = max_length_below(self.radius)
        for prev, cur in zip(self.encodings, self.encodings[1:]):
            if cur <= prev:
                raise ValueError("encodings must be strictly increasing")
        for l in self.lengths:
            if not 0 <= l <= cutoff:
                raise ValueError(f"word length {l} outside the open ball of radius {self.radius}")

    @property
    def count(self) -> int:
        return len(self.encodings)

    def to_bytes(self) -> bytes:
        # a uvarint below 0x80 is its one byte
        body = bytearray()
        for enc in self.encodings:
            if len(enc) < 0x80:
                body.append(len(enc))
            else:
                write_uvarint(body, len(enc))
            body += enc
        if max(self.lengths, default=0) < 0x80:
            body += bytes(self.lengths)
        else:
            for l in self.lengths:
                write_uvarint(body, l)
        body_bytes = bytes(body)
        header = HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            bytes.fromhex(self.spec_hash),
            self.radius.numerator,
            self.radius.denominator,
            self.count,
            hashlib.sha256(body_bytes).digest(),
        )
        return header + body_bytes

    @property
    def content_id(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BallRecord":
        if len(data) < HEADER.size:
            raise IntegrityError(f"ball file truncated: {len(data)} bytes")
        magic, version, spec_raw, num, den, count, body_sha = HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise IntegrityError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise IntegrityError(f"unsupported ball format version {version}")
        if den == 0:
            raise IntegrityError("radius denominator is zero")
        body = data[HEADER.size :]
        if hashlib.sha256(body).digest() != body_sha:
            raise IntegrityError("body checksum mismatch")
        # a byte below 0x80 is a whole uvarint; any other goes to read_uvarint
        pos, end = 0, len(body)
        encodings = []
        try:
            for _ in range(count):
                if pos < end and body[pos] < 0x80:
                    size, pos = body[pos], pos + 1
                else:
                    size, pos = read_uvarint(body, pos)
                if pos + size > end:
                    raise IntegrityError("element encoding runs past the body")
                encodings.append(bytes(body[pos : pos + size]))
                pos += size
            table = body[pos : pos + count]
            if len(table) == count and table.isascii():
                lengths, pos = list(table), pos + count
            else:
                lengths = []
                for _ in range(count):
                    l, pos = read_uvarint(body, pos)
                    lengths.append(l)
        except EncodingError as exc:
            raise IntegrityError(f"corrupt varint in ball body: {exc}") from exc
        if pos != len(body):
            raise IntegrityError(f"{len(body) - pos} trailing bytes in ball body")
        try:
            return cls(spec_raw.hex(), Fraction(num, den), tuple(encodings), tuple(lengths))
        except ValueError as exc:
            raise IntegrityError(f"ball record invariant violated: {exc}") from exc

    def filter_to(self, radius: Fraction) -> "BallRecord":
        """Restrict to the open ball of a smaller (or equal) radius."""
        if radius > self.radius:
            raise ValueError(f"cannot widen a radius-{self.radius} ball to {radius}")
        cutoff = max_length_below(radius)
        keep = [l <= cutoff for l in self.lengths]
        return BallRecord(
            self.spec_hash,
            radius,
            tuple(itertools.compress(self.encodings, keep)),
            tuple(itertools.compress(self.lengths, keep)),
        )


class BallStore:
    """Directory-backed ball cache; safe for concurrent readers.

    ``load`` returns the largest stored ball of radius >= the request for the
    same marked structure, filtered down, so repeated experiments at smaller
    radii never re-enumerate.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.directory / "manifest.json"

    def _read_manifest(self) -> list[dict]:
        if not self._manifest_path.exists():
            return []
        try:
            data = json.loads(self._manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise IntegrityError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or data.get("version") != 1:
            raise IntegrityError("manifest has an unsupported layout")
        return list(data.get("balls", []))

    def _write_manifest(self, entries: list[dict]) -> None:
        payload = json.dumps({"version": 1, "balls": entries}, indent=0, sort_keys=True)
        tmp = self._manifest_path.with_suffix(".json.tmp")
        tmp.write_text(payload)
        os.replace(tmp, self._manifest_path)

    def save(self, record: BallRecord) -> str:
        data = record.to_bytes()
        content_id = hashlib.sha256(data).hexdigest()
        path = self.directory / f"{content_id}.ball"
        if path.exists():
            if path.read_bytes() != data:
                raise IntegrityError(
                    f"cache file {path.name} does not match its content id"
                )
        else:
            tmp = path.with_suffix(".ball.tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        entries = self._read_manifest()
        if not any(e.get("id") == content_id for e in entries):
            entries.append(
                {
                    "id": content_id,
                    "spec_hash": record.spec_hash,
                    "radius_num": record.radius.numerator,
                    "radius_den": record.radius.denominator,
                    "count": record.count,
                }
            )
            entries.sort(key=lambda e: e["id"])
            self._write_manifest(entries)
        return content_id

    def load(self, spec_hash: str, radius: Fraction) -> BallRecord | None:
        best: dict | None = None
        best_radius: Fraction | None = None
        for entry in self._read_manifest():
            if entry.get("spec_hash") != spec_hash:
                continue
            have = Fraction(entry["radius_num"], entry["radius_den"])
            if have < radius:
                continue
            if best_radius is None or have > best_radius:
                best, best_radius = entry, have
        if best is None:
            return None
        path = self.directory / f"{best['id']}.ball"
        if not path.exists():
            raise IntegrityError(f"manifest names missing cache file {path.name}")
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != best["id"]:
            raise IntegrityError(f"cache file {path.name} fails its content hash")
        record = BallRecord.from_bytes(data)
        if record.spec_hash != spec_hash:
            raise IntegrityError(
                f"cache file {path.name} stores a different marked structure"
            )
        return record.filter_to(radius)

