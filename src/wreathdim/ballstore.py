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

import itertools
import json
import operator
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from .encoding import EncodingError, read_uvarint, write_uvarint
from .errors import IntegrityError
from .groups import max_length_below

MAGIC = b"WDIMBAL1"
FORMAT_VERSION = 1
HEADER = struct.Struct("<8sI32sQQQ32s")


def _is_hex64(value: Any) -> bool:
    return isinstance(value, str) and len(value) == 64 and all(c in "0123456789abcdef" for c in value)


def _is_count(value: Any, least: int) -> bool:
    return type(value) is int and value >= least


#: Each manifest entry's required fields, with the check each value must pass.
_ENTRY_FIELDS = {
    "id": _is_hex64,
    "spec_hash": _is_hex64,
    "radius_num": lambda v: _is_count(v, 1),
    "radius_den": lambda v: _is_count(v, 1),
    "count": lambda v: _is_count(v, 0),
}


def _sha256(data: bytes):
    """sha256 of ``data``; OpenSSL is mapped only once the store hashes."""
    import hashlib

    return hashlib.sha256(data)


@dataclass(frozen=True)
class BallRecord:
    """One stored ball: sorted canonical encodings plus parallel word lengths."""

    spec_hash: str
    radius: Fraction
    encodings: tuple[bytes, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _is_hex64(self.spec_hash):
            raise ValueError(f"spec hash must be 64 hex chars, got {self.spec_hash!r}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if len(self.encodings) != len(self.lengths):
            raise ValueError("length table does not match the element list")
        cutoff = max_length_below(self.radius)
        if not all(map(operator.lt, self.encodings, itertools.islice(self.encodings, 1, None))):
            raise ValueError("encodings must be strictly increasing")
        if self.lengths and not 0 <= min(self.lengths) <= max(self.lengths) <= cutoff:
            l = next(l for l in self.lengths if not 0 <= l <= cutoff)
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
            _sha256(body_bytes).digest(),
        )
        return header + body_bytes

    @property
    def content_id(self) -> str:
        return _sha256(self.to_bytes()).hexdigest()

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
        body = bytes(data[HEADER.size :])
        if _sha256(body).digest() != body_sha:
            raise IntegrityError("body checksum mismatch")
        # a byte below 0x80 is a whole uvarint; any other goes to read_uvarint
        pos, end = 0, len(body)
        encodings = []
        append = encodings.append
        try:
            for _ in range(count):
                if pos < end and body[pos] < 0x80:
                    stop = pos + 1 + body[pos]
                    pos += 1
                else:
                    size, pos = read_uvarint(body, pos)
                    stop = pos + size
                if stop > end:
                    raise IntegrityError("element encoding runs past the body")
                append(body[pos:stop])
                pos = stop
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
        """Restrict to the open ball of a smaller (or equal) radius.

        At the record's own radius this is the record itself: it is frozen
        and was validated when built.
        """
        if radius > self.radius:
            raise ValueError(f"cannot widen a radius-{self.radius} ball to {radius}")
        if radius == self.radius:
            return self
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
    radii never re-enumerate.  Every load re-reads the manifest and the file
    and checks the file's sha256 against its content id.  ``ball(ctx, r,
    store=...)`` loads through ``_load_table``, which holds the last table it
    decoded (at most one, dropped with the store) and serves a later request
    for the same file at a radius no larger by filtering that table, without
    parsing or decoding the file again.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.directory / "manifest.json"
        # (content id, spec hash, radius, elements, lengths) of the last decoded table
        self._held: tuple[str, str, Fraction, tuple, tuple[int, ...]] | None = None

    def _read_manifest(self) -> list[dict]:
        if not self._manifest_path.exists():
            return []
        try:
            data = json.loads(self._manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise IntegrityError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or data.get("version") != 1:
            raise IntegrityError("manifest has an unsupported layout")
        entries = data.get("balls")
        if not isinstance(entries, list):
            raise IntegrityError("manifest field balls is not a list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise IntegrityError(f"manifest entry {i} is not an object")
            for key, valid in _ENTRY_FIELDS.items():
                if key not in entry:
                    raise IntegrityError(f"manifest entry {i} has no {key}")
                if not valid(entry[key]):
                    raise IntegrityError(f"manifest entry {i} has a bad {key}: {entry[key]!r}")
        return entries

    def _write_manifest(self, entries: list[dict]) -> None:
        payload = json.dumps({"version": 1, "balls": entries}, sort_keys=True)
        tmp = self._manifest_path.with_suffix(".json.tmp")
        tmp.write_text(payload)
        os.replace(tmp, self._manifest_path)

    def save(self, record: BallRecord) -> str:
        data = record.to_bytes()
        content_id = _sha256(data).hexdigest()
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
        if not any(e["id"] == content_id for e in entries):
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

    def _read_ball(self, spec_hash: str, radius: Fraction) -> tuple[str, bytes] | None:
        """(content id, bytes) of the largest stored ball of radius >= ``radius``.

        The bytes hash to the content id, and the file's header agrees with
        its manifest entry on spec hash, radius and count.
        """
        best: dict | None = None
        best_radius: Fraction | None = None
        for entry in self._read_manifest():
            if entry["spec_hash"] != spec_hash:
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
        if _sha256(data).hexdigest() != best["id"]:
            raise IntegrityError(f"cache file {path.name} fails its content hash")
        if len(data) < HEADER.size:
            raise IntegrityError(f"ball file truncated: {len(data)} bytes")
        _, _, spec_raw, num, den, count, _ = HEADER.unpack_from(data, 0)
        for field, got, want in (
            ("spec hash", spec_raw.hex(), spec_hash),
            ("radius", f"{num}/{den}", f"{best_radius.numerator}/{best_radius.denominator}"),
            ("count", count, best["count"]),
        ):
            if got != want:
                raise IntegrityError(
                    f"cache file {path.name} has {field} {got}, its manifest entry {want}"
                )
        return best["id"], data

    def load(self, spec_hash: str, radius: Fraction) -> BallRecord | None:
        found = self._read_ball(spec_hash, radius)
        if found is None:
            return None
        return BallRecord.from_bytes(found[1]).filter_to(radius)

    def _load_table(self, ctx: Any, radius: Fraction) -> tuple[tuple, tuple[int, ...]] | None:
        """The stored ball of radius ``radius`` as (elements, lengths), or None.

        The file is read and verified as ``load`` does.  If it is the file of
        the held table and ``radius`` is at most the held radius, the held
        table is filtered down; otherwise the held table is dropped first, so
        that it never lives alongside the next decode, and the file's record
        is parsed, filtered to ``radius``, decoded by ``ctx.decode_many`` and
        held.
        """
        spec_hash = ctx.spec_hash
        found = self._read_ball(spec_hash, radius)
        if found is None:
            return None
        content_id, data = found
        held = self._held
        if held is not None and held[:2] == (content_id, spec_hash) and radius <= held[2]:
            elements, lengths = held[3:]
            cutoff = max_length_below(radius)
            keep = [l <= cutoff for l in lengths]
            return tuple(itertools.compress(elements, keep)), tuple(itertools.compress(lengths, keep))
        self._held = held = None
        record = BallRecord.from_bytes(data).filter_to(radius)
        del data, found  # the file's bytes are freed before the decode, as after load()
        elements = tuple(ctx.decode_many(record.encodings))
        self._held = (content_id, spec_hash, radius, elements, record.lengths)
        return elements, record.lengths
