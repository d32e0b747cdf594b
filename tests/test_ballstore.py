"""Content-addressed ball cache: record format, integrity, and store round trips."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from wreathdim import (
    BallRecord,
    BallStore,
    IntegrityError,
    ball,
)
from wreathdim.ballstore import FORMAT_VERSION, HEADER, MAGIC
from wreathdim.encoding import encode_uvarint


def make_record(ctx, radius):
    table = ball(ctx, radius)
    return BallRecord(
        ctx.spec_hash,
        Fraction(radius),
        tuple(ctx.encode(g) for g in table.elements),
        tuple(table.lengths[g] for g in table.elements),
    )


# -- record validation ----------------------------------------------------------


def test_record_requires_hex_spec_hash(z):
    rec = make_record(z, 4)
    with pytest.raises(ValueError, match="hex"):
        BallRecord("zz", rec.radius, rec.encodings, rec.lengths)


def test_record_requires_sorted_encodings(z):
    rec = make_record(z, 4)
    with pytest.raises(ValueError, match="increasing"):
        BallRecord(rec.spec_hash, rec.radius, rec.encodings[::-1], rec.lengths)


def test_record_rejects_lengths_outside_radius(z):
    rec = make_record(z, 4)
    with pytest.raises(ValueError):
        BallRecord(rec.spec_hash, rec.radius, rec.encodings, (9,) * rec.count)


def test_record_rejects_count_mismatch(z):
    rec = make_record(z, 4)
    with pytest.raises(ValueError):
        BallRecord(rec.spec_hash, rec.radius, rec.encodings, rec.lengths[:-1])


# -- binary format ----------------------------------------------------------------


def test_record_bytes_round_trip(z, f2):
    for ctx in (z, f2):
        rec = make_record(ctx, 3)
        back = BallRecord.from_bytes(rec.to_bytes())
        assert back == rec
        assert back.content_id == rec.content_id


def test_record_bytes_start_with_magic_and_version(z):
    raw = make_record(z, 3).to_bytes()
    assert raw[:8] == MAGIC
    assert int.from_bytes(raw[8:12], "little") == FORMAT_VERSION


def test_from_bytes_rejects_bad_magic(z):
    raw = make_record(z, 3).to_bytes()
    with pytest.raises(IntegrityError, match="magic"):
        BallRecord.from_bytes(b"XXXXXXXX" + raw[8:])


def test_from_bytes_rejects_flipped_body_bit(z):
    raw = bytearray(make_record(z, 3).to_bytes())
    raw[-1] ^= 1
    with pytest.raises(IntegrityError):
        BallRecord.from_bytes(bytes(raw))


def test_from_bytes_rejects_trailing_bytes(z):
    raw = make_record(z, 3).to_bytes()
    with pytest.raises(IntegrityError):
        BallRecord.from_bytes(raw + b"\x00")


def _ball_file(record, body):
    """A ball file with ``record``'s header fields around ``body``, checksums correct."""
    header = HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        bytes.fromhex(record.spec_hash),
        record.radius.numerator,
        record.radius.denominator,
        record.count,
        hashlib.sha256(body).digest(),
    )
    return header + body


def test_record_bytes_round_trip_through_multi_byte_varints():
    long = b"\x02" * 130
    rec = BallRecord("ab" * 32, Fraction(200), (b"\x01", long, b"\x03"), (0, 150, 199))
    raw = rec.to_bytes()
    sizes = b"\x01\x01" + encode_uvarint(130) + long + b"\x01\x03"
    assert raw == _ball_file(rec, sizes + b"\x00" + encode_uvarint(150) + encode_uvarint(199))
    assert len(encode_uvarint(130)) == len(encode_uvarint(150)) == 2
    assert BallRecord.from_bytes(raw) == rec


def test_from_bytes_rejects_non_minimal_and_truncated_varints(z):
    rec = BallRecord(z.spec_hash, Fraction(3), (z.encode(0),), (0,))
    assert rec.to_bytes() == _ball_file(rec, b"\x01\x00\x00")
    # the size 1 and the length 0 each written in two bytes
    for body in (b"\x81\x00\x00\x00", b"\x01\x00\x80\x00"):
        with pytest.raises(IntegrityError, match="non-minimal"):
            BallRecord.from_bytes(_ball_file(rec, body))
    for body in (b"", b"\x01\x00"):
        with pytest.raises(IntegrityError, match="truncated"):
            BallRecord.from_bytes(_ball_file(rec, body))


def test_ball_file_bytes_are_frozen(lamplighter):
    # the content id of ball(L2, 6)'s record: any change to the file bytes changes it
    rec = make_record(lamplighter, 6)
    assert rec.count == 84
    assert rec.content_id == "ef055cdc6f674bfebc2c511689338e1f19a1abb78ab2ef533c89163be6b67e8e"


def test_filter_to_smaller_radius(z):
    rec = make_record(z, 4)
    small = rec.filter_to(Fraction(3))
    assert small.radius == Fraction(3)
    assert small.count == 5
    assert max(small.lengths) <= 2


def test_filter_to_cannot_widen(z):
    rec = make_record(z, 4)
    with pytest.raises(ValueError):
        rec.filter_to(Fraction(6))


# -- store ------------------------------------------------------------------------


def test_store_save_load_round_trip(z, tmp_path):
    store = BallStore(tmp_path)
    rec = make_record(z, 4)
    content_id = store.save(rec)
    assert (tmp_path / f"{content_id}.ball").exists()
    assert store.load(z.spec_hash, Fraction(4)) == rec


def test_store_save_is_idempotent(z, tmp_path):
    store = BallStore(tmp_path)
    rec = make_record(z, 4)
    assert store.save(rec) == store.save(rec)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["balls"]) == 1


def test_store_load_filters_down_from_larger_record(z, tmp_path):
    store = BallStore(tmp_path)
    store.save(make_record(z, 5))
    got = store.load(z.spec_hash, Fraction(3))
    assert got is not None
    assert got.radius == Fraction(3)
    assert got == make_record(z, 3)


def test_store_load_misses(z, f2, tmp_path):
    store = BallStore(tmp_path)
    store.save(make_record(z, 4))
    assert store.load("0" * 64, Fraction(2)) is None
    assert store.load(f2.spec_hash, Fraction(2)) is None
    assert store.load(z.spec_hash, Fraction(9)) is None


def test_store_detects_tampered_file(z, tmp_path):
    store = BallStore(tmp_path)
    rec = make_record(z, 4)
    content_id = store.save(rec)
    path = tmp_path / f"{content_id}.ball"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError):
        store.load(z.spec_hash, Fraction(4))


def test_ball_uses_store_between_calls(z, tmp_path):
    store = BallStore(tmp_path)
    first = ball(z, 4, store=store)
    assert store.load(z.spec_hash, Fraction(4)) is not None
    second = ball(z, 4, store=store)
    assert second.elements == first.elements
    assert second.lengths == first.lengths


def test_stored_ball_matches_fresh_search(lamplighter, tmp_path):
    store = BallStore(tmp_path)
    ball(lamplighter, 5, store=store)
    cached = ball(lamplighter, 4, store=store)
    fresh = ball(lamplighter, 4)
    assert cached.elements == fresh.elements
    assert all(cached.lengths[g] == fresh.lengths[g] for g in fresh.elements)

