"""The QRCK checkpoint section: page-sparse encoding, digests, corruption."""

import hashlib
import struct
import zlib

import pytest

from repro.errors import LogFormatError
from repro.mrr.logfmt import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_PAGE,
    CheckpointRecord,
    decode_checkpoints,
    encode_checkpoints,
)


PAGE = CHECKPOINT_PAGE


def record(position, payload):
    return CheckpointRecord.for_payload(position, payload)


def chained(size, seed=b"seed"):
    """``size`` sha256-chained (incompressible) bytes."""
    out = bytearray()
    while len(out) < size:
        seed = hashlib.sha256(seed).digest()
        out += seed
    return bytes(out[:size])


def section(body, raw_len, trailer=b""):
    """A hand-built one-record section around a raw record body. The
    digest is right for the all-zero ``raw_len``-byte payload every body
    here describes, so only the check under test can reject it."""
    stored = zlib.compress(body) + trailer
    digest = hashlib.sha256(bytes(raw_len)).digest()
    return struct.pack("<4sBBHI", CHECKPOINT_MAGIC, 2, 0, 0, 1) + \
        struct.pack("<I32s", len(stored), digest) + stored


def body(raw_len, indices, head=None):
    head = raw_len % PAGE if head is None else head
    return (struct.pack("<III", 1, raw_len, len(indices))
            + struct.pack(f"<{len(indices)}I", *indices)
            + bytes(head + len(indices) * PAGE))


def test_hand_built_section_decodes():
    # the well-formed baseline the corruption tests below start from
    raw_len = 3 * PAGE + 10
    assert decode_checkpoints(section(body(raw_len, [0, 2]), raw_len)) == \
        [record(1, bytes(raw_len))]


def test_for_payload_computes_sha256():
    rec = record(5, b"hello")
    assert rec.digest == hashlib.sha256(b"hello").hexdigest()


def test_empty_section_round_trips():
    assert decode_checkpoints(encode_checkpoints([])) == []


def test_round_trip_preserves_records():
    records = [record(10, b"a" * 100), record(20, b"a" * 90 + b"b" * 10),
               record(30, b"c" * 120)]
    assert decode_checkpoints(encode_checkpoints(records)) == records


def test_encode_sorts_by_position():
    records = [record(30, b"x"), record(10, b"y"), record(20, b"z")]
    decoded = decode_checkpoints(encode_checkpoints(records))
    assert [r.position for r in decoded] == [10, 20, 30]


def test_delta_encoding_shrinks_similar_payloads():
    # 64 KiB of sha256-chained bytes: incompressible on its own, so any
    # saving on the second record must come from the XOR delta
    blocks, seed = [], b"seed"
    for _ in range(2048):
        seed = hashlib.sha256(seed).digest()
        blocks.append(seed)
    base = b"".join(blocks)
    nearly = base[:-1] + b"\x00"
    single = len(encode_checkpoints([record(1, base)]))
    double = len(encode_checkpoints([record(1, base), record(2, nearly)]))
    # the second (delta) record should cost almost nothing on top
    assert double - single < single / 10


def test_round_trip_with_length_drift():
    # payload lengths grow and shrink across records, through an empty
    # payload, one under a page, and exact page multiples
    image = chained(6 * PAGE)
    payloads = [b"h" * 30 + image, b"hh" * 40 + image, b"", b"tiny" * 10,
                image[:PAGE], b"h" * 3000 + image, b"x" * 5 + image,
                image[:2 * PAGE], b"\x00" * (3 * PAGE + 7)]
    records = [record(i, p) for i, p in enumerate(payloads)]
    assert decode_checkpoints(encode_checkpoints(records)) == records


def test_pages_align_to_the_tail():
    # a header that grows by one byte must not shift the image's pages:
    # the second record stores its head and the one page that changed
    image = chained(8 * PAGE)
    changed = image[:3 * PAGE] + b"!" + image[3 * PAGE + 1:]
    first = len(encode_checkpoints([record(1, b"a" * 50 + image)]))
    both = len(encode_checkpoints([record(1, b"a" * 50 + image),
                                   record(2, b"a" * 51 + changed)]))
    assert PAGE < both - first < 2 * PAGE


def test_untouched_record_costs_well_under_a_page():
    image = chained(16 * PAGE)
    one = len(encode_checkpoints([record(1, b"{}" + image)]))
    two = len(encode_checkpoints([record(1, b"{}" + image),
                                  record(2, b"{}" + image)]))
    assert two - one < PAGE // 16


def test_first_record_skips_zero_pages():
    # the first record diffs against an all-zero payload
    payload = bytes(256 * PAGE) + b"end"
    assert len(encode_checkpoints([record(1, payload)])) < PAGE // 16


def test_v1_section_rejected():
    blob = struct.pack("<4sBBHI", CHECKPOINT_MAGIC, 1, 0, 0, 1) + \
        struct.pack("<IIIB32s", 1, 1, 9, 0, bytes(32)) + zlib.compress(b"x")
    with pytest.raises(LogFormatError, match="version 1"):
        decode_checkpoints(blob)


def test_truncated_header_rejected():
    with pytest.raises(LogFormatError):
        decode_checkpoints(b"QRC")


def test_bad_magic_rejected():
    blob = bytearray(encode_checkpoints([record(1, b"x")]))
    blob[:4] = b"NOPE"
    with pytest.raises(LogFormatError):
        decode_checkpoints(bytes(blob))


def test_truncated_payload_rejected():
    blob = encode_checkpoints([record(1, b"x" * 500)])
    with pytest.raises(LogFormatError):
        decode_checkpoints(blob[:-3])


def test_trailing_bytes_rejected():
    blob = encode_checkpoints([record(1, b"x")])
    with pytest.raises(LogFormatError):
        decode_checkpoints(blob + b"junk")


def test_corrupt_payload_fails_digest_check():
    blob = bytearray(encode_checkpoints([record(1, b"w" * 1000)]))
    # flip a bit inside the stored digest so the payload no longer matches
    header = struct.calcsize("<4sBBHI")
    digest_offset = header + struct.calcsize("<IIIB")
    blob[digest_offset] ^= 0xFF
    with pytest.raises(LogFormatError, match="digest mismatch"):
        decode_checkpoints(bytes(blob))


def test_page_count_beyond_payload_rejected():
    blob = section(struct.pack("<III", 1, PAGE, 2) + bytes(8 + 2 * PAGE),
                   PAGE)
    with pytest.raises(LogFormatError,
                       match="record 0 at byte 12: 2 changed pages"):
        decode_checkpoints(blob)


@pytest.mark.parametrize("indices", [(1, 1), (2, 1), (0, 3)])
def test_bad_page_indices_rejected(indices):
    # repeated, decreasing, and past the payload's last page
    raw_len = 3 * PAGE + 10
    with pytest.raises(LogFormatError, match="page indices"):
        decode_checkpoints(section(body(raw_len, indices), raw_len))


@pytest.mark.parametrize("head", [9, 11])
def test_head_must_match_raw_length(head):
    # a head one byte shorter or longer than raw_len % PAGE leaves the
    # body one byte off the length the header implies
    raw_len = PAGE + 10
    with pytest.raises(LogFormatError, match="truncated|bytes it declares"):
        decode_checkpoints(section(body(raw_len, [0], head), raw_len))


def test_trailing_bytes_inside_record_rejected():
    with pytest.raises(LogFormatError, match="bytes it declares"):
        decode_checkpoints(section(body(10, []), 10, trailer=b"zz"))


def test_oversized_body_rejected():
    raw_len = PAGE + 10
    with pytest.raises(LogFormatError, match="bytes it declares"):
        decode_checkpoints(section(body(raw_len, [0]) + b"\x00", raw_len))


def test_corrupt_zlib_stream_rejected():
    blob = bytearray(encode_checkpoints([record(1, b"q" * 100)]))
    blob[12 + 36 + 2] ^= 0xFF  # inside the deflate data
    with pytest.raises(LogFormatError, match="record 0 at byte 12"):
        decode_checkpoints(bytes(blob))


def test_errors_name_the_failing_record():
    blob = encode_checkpoints([record(1, b"a" * 100), record(2, b"b" * 100)])
    with pytest.raises(LogFormatError, match="record 1 at byte"):
        decode_checkpoints(blob[:-2])
