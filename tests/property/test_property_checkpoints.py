"""Corruption properties of the QRCK checkpoint section: a damaged section
either fails with ``LogFormatError`` or decodes to exactly what was
encoded, never anything else."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError
from repro.mrr.logfmt import (
    CHECKPOINT_PAGE,
    CheckpointRecord,
    decode_checkpoints,
    encode_checkpoints,
)

writes = st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)),
                  max_size=4)


@st.composite
def checkpoint_records(draw):
    """3-4 records whose payloads are a drifting header in front of a
    small evolving memory image, with one payload shorter than a page."""
    count = draw(st.integers(3, 4))
    image = bytearray(draw(st.integers(1, 3)) * CHECKPOINT_PAGE)
    short = draw(st.integers(0, count - 1))
    positions = sorted(draw(st.sets(st.integers(0, 2**32 - 1),
                                    min_size=count, max_size=count)))
    records = []
    for index, position in enumerate(positions):
        for offset, value in draw(writes):
            image[offset % len(image)] = value
        if index == short:
            payload = draw(st.binary(max_size=CHECKPOINT_PAGE - 1))
        else:
            payload = draw(st.binary(max_size=40)) + bytes(image)
        records.append(CheckpointRecord.for_payload(position, payload))
    return records


def decode_or_reject(blob):
    try:
        return decode_checkpoints(blob)
    except LogFormatError:
        return None


@given(records=checkpoint_records())
@settings(max_examples=20, deadline=None)
def test_every_truncation_rejected(records):
    blob = encode_checkpoints(records)
    assert decode_checkpoints(blob) == records
    for cut in range(len(blob)):
        assert decode_or_reject(blob[:cut]) is None, cut


@given(records=checkpoint_records())
@settings(max_examples=20, deadline=None)
def test_every_bit_flip_rejected_or_harmless(records):
    blob = bytearray(encode_checkpoints(records))
    for bit in range(len(blob) * 8):
        blob[bit // 8] ^= 1 << (bit % 8)
        decoded = decode_or_reject(bytes(blob))
        blob[bit // 8] ^= 1 << (bit % 8)
        assert decoded is None or decoded == records, bit
