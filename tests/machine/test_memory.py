import hashlib

import pytest

from repro.errors import MemoryAccessError
from repro.machine.memory import PhysicalMemory


def test_words_little_endian():
    mem = PhysicalMemory(64)
    mem.write_word(0, 0x11223344)
    assert mem.read(0, 4) == b"\x44\x33\x22\x11"
    assert mem.read_word(0) == 0x11223344


def test_word_value_masked():
    mem = PhysicalMemory(64)
    mem.write_word(0, -1)
    assert mem.read_word(0) == 0xFFFFFFFF


def test_bytes():
    mem = PhysicalMemory(64)
    mem.write_byte(5, 0x1FF)
    assert mem.read_byte(5) == 0xFF


def test_misaligned_word_access_faults():
    mem = PhysicalMemory(64)
    with pytest.raises(MemoryAccessError):
        mem.read_word(2)
    with pytest.raises(MemoryAccessError):
        mem.write_word(6, 1)


def test_out_of_range_faults():
    mem = PhysicalMemory(64)
    with pytest.raises(MemoryAccessError):
        mem.read_word(64)
    with pytest.raises(MemoryAccessError):
        mem.write_byte(64, 1)
    with pytest.raises(MemoryAccessError):
        mem.read(60, 8)


def test_negative_address_faults():
    mem = PhysicalMemory(64)
    with pytest.raises(MemoryAccessError):
        mem.read_byte(-1)


def test_zero_size_rejected():
    with pytest.raises(MemoryAccessError):
        PhysicalMemory(0)


def test_load_blob_and_range_read():
    mem = PhysicalMemory(64)
    mem.load_blob(8, b"abcd")
    assert mem.read(8, 4) == b"abcd"


def test_digest_changes_with_content():
    mem = PhysicalMemory(64)
    before = mem.digest()
    mem.write_byte(0, 1)
    assert mem.digest() != before


def test_digest_is_sha256_of_snapshot():
    # the digest hashes the live buffer without copying it first; the
    # value must stay the SHA-256 of the full image
    mem = PhysicalMemory(4096)
    mem.load_blob(100, b"quickrec")
    mem.write_byte(4095, 0xFF)
    assert mem.digest() == hashlib.sha256(mem.snapshot()).hexdigest()


def test_digest_range_isolates_area():
    mem = PhysicalMemory(64)
    base = mem.digest_range(0, 32)
    mem.write_byte(40, 9)
    assert mem.digest_range(0, 32) == base


def test_snapshot_is_copy():
    mem = PhysicalMemory(16)
    snap = mem.snapshot()
    mem.write_byte(0, 7)
    assert snap[0] == 0
