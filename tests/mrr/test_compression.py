"""The compressed chunk-log encoding: QRCL v2 (columnar delta-varint + zlib).

The v2 header's ``FLAG_ZLIB`` bit says whether the column body is deflated.
Writers always set it; the decoder honours either setting, so the
``use_zlib=False`` cases below rebuild a writer's stream with the body
inflated and the bit cleared.
"""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError
from repro.mrr.chunk import ChunkEntry, Reason
from repro.mrr.logfmt import (
    FLAG_ZLIB,
    MAGIC,
    VERSION_V2,
    decode_chunks,
    encode_chunks,
)

_HEADER = struct.Struct("<4sBBHI")


def make_log(threads=3, per_thread=50, with_load_hash=False):
    # drained in timestamp order, so stream order is the sorted order
    entries = []
    ts = 0
    for index in range(threads * per_thread):
        ts += 1 + (index % 3)
        entries.append(ChunkEntry(
            rthread=1 + index % threads,
            timestamp=ts,
            icount=100 + index % 7,
            memops=0,
            rsw=index % 2,
            reason=Reason.ALL[index % len(Reason.ALL)],
            load_hash=(ts * 0x9E3779B1) & 0xFFFFFFFF if with_load_hash
            else None,
        ))
    return entries


def compress(entries, use_zlib=True, with_load_hash=False):
    blob = encode_chunks(entries, with_load_hash=with_load_hash,
                         version=VERSION_V2)
    if use_zlib:
        return blob
    magic, version, flags, reserved, count = _HEADER.unpack_from(blob, 0)
    return (_HEADER.pack(magic, version, flags & ~FLAG_ZLIB, reserved, count)
            + zlib.decompress(blob[_HEADER.size:]))


def by_sort_key(entries):
    return sorted(entries, key=lambda e: e.sort_key)


def test_round_trip_equals_sorted_original():
    entries = make_log()
    decoded = decode_chunks(compress(entries))
    assert decoded == entries == by_sort_key(entries)


def test_round_trip_without_zlib():
    entries = make_log()
    blob = compress(entries, use_zlib=False)
    assert len(blob) > len(compress(entries))
    assert decode_chunks(blob) == by_sort_key(entries)


def test_compression_beats_raw_format():
    entries = make_log(threads=4, per_thread=200)
    raw = len(encode_chunks(entries))
    compressed = len(compress(entries))
    assert compressed < raw / 3


def test_empty_log():
    assert decode_chunks(compress([])) == []


def test_bad_magic_rejected():
    blob = compress(make_log())
    with pytest.raises(LogFormatError, match="bad magic"):
        decode_chunks(b"XXXX" + blob[len(MAGIC):])


def test_out_of_order_stream_entries_handled():
    # CBUF drain order can interleave a migrating thread's entries, so a
    # per-thread timestamp delta may be negative; the zigzag delta column
    # must carry it and keep stream order.
    entries = [
        ChunkEntry(1, 10, 1, 0, 0, Reason.RAW),
        ChunkEntry(1, 5, 1, 0, 0, Reason.EXIT),
    ]
    decoded = decode_chunks(compress(entries))
    assert [entry.timestamp for entry in decoded] == [10, 5]
    assert decoded == entries


def test_large_values_round_trip():
    entries = [ChunkEntry(1, 2**31, 2**30, 1000, 60_000, Reason.SIZE)]
    assert decode_chunks(compress(entries)) == entries


# -- robustness: truncation and corruption must surface as LogFormatError ----

def test_truncated_header_raises_logformat_not_indexerror():
    with pytest.raises(LogFormatError):
        decode_chunks(compress([])[:4])


@pytest.mark.parametrize("use_zlib", [True, False])
def test_every_truncation_offset_raises_logformat(use_zlib):
    blob = compress(make_log(threads=2, per_thread=6), use_zlib=use_zlib)
    for cut in range(len(blob)):
        with pytest.raises(LogFormatError):
            decode_chunks(blob[:cut])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), use_zlib=st.booleans())
def test_corrupted_byte_never_escapes_logformat(data, use_zlib):
    # Flipping any single byte of a valid blob must either still decode
    # (the corruption landed in a value) or raise LogFormatError — never a
    # raw IndexError/zlib.error/ValueError.
    blob = bytearray(compress(make_log(threads=2, per_thread=4),
                              use_zlib=use_zlib))
    position = data.draw(st.integers(0, len(blob) - 1))
    replacement = data.draw(
        st.integers(0, 255).filter(lambda b: b != blob[position]))
    blob[position] = replacement
    try:
        decode_chunks(bytes(blob))
    except LogFormatError:
        pass


# -- v2 stream with the debug load-hash column -------------------------------
# The same checks on a stream that also carries the seventh (load-hash)
# column, and the header's version negotiation on the decode side.

def test_v2_round_trip_equals_sorted_original():
    entries = make_log(with_load_hash=True)
    decoded = decode_chunks(compress(entries, with_load_hash=True))
    assert decoded == by_sort_key(entries)
    assert decoded[0].load_hash == entries[0].load_hash is not None


@pytest.mark.parametrize("use_zlib", [True, False])
def test_v2_round_trip_both_zlib_modes(use_zlib):
    entries = make_log(threads=2, per_thread=8, with_load_hash=True)
    blob = compress(entries, use_zlib=use_zlib, with_load_hash=True)
    assert decode_chunks(blob) == by_sort_key(entries)


def test_v2_empty_log():
    assert decode_chunks(compress([], with_load_hash=True)) == []


def test_v2_unknown_version_rejected():
    blob = bytearray(compress(make_log(threads=2, per_thread=2)))
    blob[len(MAGIC)] = 3  # header version byte
    with pytest.raises(LogFormatError, match="version 3"):
        decode_chunks(bytes(blob))


@pytest.mark.parametrize("use_zlib", [True, False])
def test_v2_every_truncation_offset_raises_logformat(use_zlib):
    blob = compress(make_log(threads=2, per_thread=6, with_load_hash=True),
                    use_zlib=use_zlib, with_load_hash=True)
    for cut in range(len(blob)):
        with pytest.raises(LogFormatError):
            decode_chunks(blob[:cut])
