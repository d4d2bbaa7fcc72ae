"""Binary encoding of chunk log entries and checkpoint sections.

Two stream versions share the ``QRCL`` magic; :func:`decode_chunks`
negotiates by the header's version byte.

**v1** mirrors the prototype's packed 128-bit entry::

    byte 0      rthread        (u8)
    byte 1      reason code    (u8)
    bytes 2-3   RSW            (u16)
    bytes 4-7   timestamp      (u32)
    bytes 8-11  icount         (u32)
    bytes 12-15 memops         (u32)

A stream is a 12-byte header (magic ``QRCL``, version, flags, count)
followed by the entries. When the debug load-hash flag is set, each entry
carries an extra 8 bytes.

**v2** is columnar: each field is stored as its own varint column in
stream order, with ``timestamp``/``icount``/``memops`` zigzag-delta
encoded against the previous entry of the *same* rthread (all three are
near-monotone per thread, so deltas stay small), and the body zlib
compressed. Entry order — including the CBUF drain interleaving — is
preserved exactly, so the v2 round trip is entry-identical to v1's.

The checkpoint section (magic ``QRCK``) carries periodic snapshots of the
deterministic replay-visible machine state, keyed by chunk-schedule
position. Payloads are opaque at this layer (see
:mod:`repro.replay.checkpoint` for their contents) except for one fact:
they end in the fixed-size memory image. The section cuts each payload
into 4 KiB pages aligned to its tail and stores only the pages that
differ from the previous payload (the first against an all-zero one),
plus the short head in front of the first whole page, in one zlib stream
per record. Every record carries the SHA-256 of its *raw* payload,
verified on decode, which is also the seam digest parallel replay
validates against.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import LogFormatError
from .chunk import ChunkEntry, Reason
from .varint import read_varint, unzigzag, write_varint, zigzag

MAGIC = b"QRCL"
VERSION = 1
VERSION_V2 = 2
VERSIONS = (VERSION, VERSION_V2)
ENTRY_BYTES = 16
_HEADER = struct.Struct("<4sBBHI")
_ENTRY = struct.Struct("<BBHIII")
_HASH = struct.Struct("<Q")

FLAG_LOAD_HASH = 0x01
#: v2 header flag: body is a zlib stream.
FLAG_ZLIB = 0x02


def _check_entry(entry: ChunkEntry) -> None:
    if entry.rthread > 0xFF:
        raise LogFormatError(f"rthread {entry.rthread} exceeds u8")
    if entry.rsw > 0xFFFF:
        raise LogFormatError(f"rsw {entry.rsw} exceeds u16")


def encode_chunks(entries: Sequence[ChunkEntry],
                  with_load_hash: bool = False,
                  version: int = VERSION) -> bytes:
    """Serialize entries to the packed (v1) or columnar (v2) format."""
    if version == VERSION:
        return _encode_chunks_v1(entries, with_load_hash)
    if version == VERSION_V2:
        return _encode_chunks_v2(entries, with_load_hash)
    raise LogFormatError(f"unknown chunk stream version {version}")


def _encode_chunks_v1(entries: Sequence[ChunkEntry],
                      with_load_hash: bool) -> bytes:
    flags = FLAG_LOAD_HASH if with_load_hash else 0
    out = bytearray(_HEADER.pack(MAGIC, VERSION, flags, 0, len(entries)))
    for entry in entries:
        _check_entry(entry)
        out += _ENTRY.pack(entry.rthread, Reason.CODES[entry.reason],
                           entry.rsw, entry.timestamp & 0xFFFFFFFF,
                           entry.icount, entry.memops)
        if with_load_hash:
            out += _HASH.pack(entry.load_hash or 0)
    return bytes(out)


def _encode_chunks_v2(entries: Sequence[ChunkEntry],
                      with_load_hash: bool) -> bytes:
    flags = FLAG_ZLIB | (FLAG_LOAD_HASH if with_load_hash else 0)
    columns = [bytearray() for _ in range(7)]
    (col_rthread, col_reason, col_rsw, col_ts, col_icount, col_memops,
     col_hash) = columns
    prev: dict[int, tuple[int, int, int]] = {}
    for entry in entries:
        _check_entry(entry)
        timestamp = entry.timestamp & 0xFFFFFFFF
        prev_ts, prev_ic, prev_mo = prev.get(entry.rthread, (0, 0, 0))
        col_rthread += write_varint(entry.rthread)
        col_reason += write_varint(Reason.CODES[entry.reason])
        col_rsw += write_varint(entry.rsw)
        col_ts += write_varint(zigzag(timestamp - prev_ts))
        col_icount += write_varint(zigzag(entry.icount - prev_ic))
        col_memops += write_varint(zigzag(entry.memops - prev_mo))
        prev[entry.rthread] = (timestamp, entry.icount, entry.memops)
        if with_load_hash:
            col_hash += write_varint(entry.load_hash or 0)
    compressor = zlib.compressobj(6)
    body = bytearray()
    for column in columns:
        body += compressor.compress(bytes(column))
    body += compressor.flush()
    return _HEADER.pack(MAGIC, VERSION_V2, flags, 0,
                        len(entries)) + bytes(body)


def decode_chunks(blob: bytes) -> list[ChunkEntry]:
    """Parse either stream version back into entries (in stream order)."""
    if len(blob) < _HEADER.size:
        raise LogFormatError("chunk stream truncated before header")
    magic, version, flags, _reserved, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise LogFormatError(f"bad magic {magic!r}")
    if version == VERSION:
        return _decode_chunks_v1(blob, flags, count)
    if version == VERSION_V2:
        return _decode_chunks_v2(blob, flags, count)
    raise LogFormatError(f"unsupported chunk stream version {version}")


def _decode_chunks_v1(blob: bytes, flags: int, count: int) -> list[ChunkEntry]:
    with_hash = bool(flags & FLAG_LOAD_HASH)
    stride = ENTRY_BYTES + (_HASH.size if with_hash else 0)
    expected = _HEADER.size + count * stride
    if len(blob) != expected:
        raise LogFormatError(f"chunk stream length {len(blob)} != expected {expected}")
    entries: list[ChunkEntry] = []
    offset = _HEADER.size
    for _ in range(count):
        rthread, reason_code, rsw, timestamp, icount, memops = \
            _ENTRY.unpack_from(blob, offset)
        offset += ENTRY_BYTES
        load_hash = None
        if with_hash:
            (load_hash,) = _HASH.unpack_from(blob, offset)
            offset += _HASH.size
        reason = Reason.NAMES.get(reason_code)
        if reason is None:
            raise LogFormatError(f"unknown reason code {reason_code}")
        entries.append(ChunkEntry(rthread, timestamp, icount, memops, rsw,
                                  reason, load_hash))
    return entries


def _decode_chunks_v2(blob: bytes, flags: int, count: int) -> list[ChunkEntry]:
    with_hash = bool(flags & FLAG_LOAD_HASH)
    body = blob[_HEADER.size:]
    if flags & FLAG_ZLIB:
        decompressor = zlib.decompressobj()
        try:
            body = decompressor.decompress(body)
            body += decompressor.flush()
        except zlib.error as exc:
            raise LogFormatError(f"corrupt chunk stream body: {exc}") from exc
        if not decompressor.eof:
            raise LogFormatError("truncated chunk stream body")
        if decompressor.unused_data:
            raise LogFormatError("trailing bytes after chunk stream body")

    offset = 0

    def column(n=count, what="chunk stream"):
        nonlocal offset
        values = []
        for _ in range(n):
            value, offset = read_varint(body, offset, what=what)
            values.append(value)
        return values

    rthreads = column()
    reason_codes = column()
    rsws = column()
    ts_deltas = column()
    icount_deltas = column()
    memops_deltas = column()
    hashes = column() if with_hash else None
    if offset != len(body):
        raise LogFormatError("trailing bytes in chunk stream")

    entries: list[ChunkEntry] = []
    prev: dict[int, tuple[int, int, int]] = {}
    for i in range(count):
        reason = Reason.NAMES.get(reason_codes[i])
        if reason is None:
            raise LogFormatError(f"unknown reason code {reason_codes[i]}")
        rthread = rthreads[i]
        prev_ts, prev_ic, prev_mo = prev.get(rthread, (0, 0, 0))
        timestamp = prev_ts + unzigzag(ts_deltas[i])
        icount = prev_ic + unzigzag(icount_deltas[i])
        memops = prev_mo + unzigzag(memops_deltas[i])
        if timestamp < 0 or icount < 0 or memops < 0:
            raise LogFormatError("negative field in chunk stream")
        prev[rthread] = (timestamp, icount, memops)
        entries.append(ChunkEntry(rthread, timestamp, icount, memops,
                                  rsws[i], reason,
                                  hashes[i] if with_hash else None))
    return entries


# -- checkpoint section -------------------------------------------------------

CHECKPOINT_MAGIC = b"QRCK"
CHECKPOINT_VERSION = 2
#: Payloads are compared and stored in pages of this size, aligned to the
#: payload's tail so they line up with the memory image's pages.
CHECKPOINT_PAGE = 4096
_CKPT_HEADER = struct.Struct("<4sBBHI")
_CKPT_RECORD = struct.Struct("<I32s")  # stored length, digest
_CKPT_BODY = struct.Struct("<III")  # position, raw length, changed pages


@dataclass(frozen=True)
class CheckpointRecord:
    """One embedded checkpoint: raw replay-state payload at a schedule
    position, plus the payload's SHA-256 (the seam digest)."""

    position: int
    digest: str
    payload: bytes
    #: True once ``payload`` is known to hash to ``digest``. Not an
    #: ``__init__`` field, so ``dataclasses.replace`` starts unverified.
    digest_verified: bool = field(default=False, init=False, repr=False,
                                  compare=False)

    @classmethod
    def for_payload(cls, position: int, payload: bytes) -> "CheckpointRecord":
        return cls(position=position, payload=payload,
                   digest=hashlib.sha256(payload).hexdigest())._verified()

    def _verified(self) -> "CheckpointRecord":
        object.__setattr__(self, "digest_verified", True)
        return self

    def digest_matches(self) -> bool:
        """Whether ``payload`` hashes to ``digest``, hashing at most once
        per record."""
        if not self.digest_verified \
                and hashlib.sha256(self.payload).hexdigest() == self.digest:
            self._verified()
        return self.digest_verified


def _realign(previous: bytes, length: int) -> bytes:
    """``previous`` cut or zero-padded at the front to ``length`` bytes.
    Payloads end in the fixed-size memory image, so tail alignment keeps
    its pages in place when the header in front of it changes length."""
    if len(previous) >= length:
        return previous[len(previous) - length:]
    return bytes(length - len(previous)) + previous


def encode_checkpoints(records: Sequence[CheckpointRecord]) -> bytes:
    """Serialize checkpoint records (sorted by position) to the
    page-sparse section."""
    ordered = sorted(records, key=lambda record: record.position)
    out = bytearray(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                      0, 0, len(ordered)))
    previous = b""
    for record in ordered:
        payload = record.payload
        head = len(payload) % CHECKPOINT_PAGE
        base = _realign(previous, len(payload))
        # bytes slices compare with memcmp; memoryview slices would
        # compare element by element, an order of magnitude slower
        starts = range(head, len(payload), CHECKPOINT_PAGE)
        changed = [index for index, start in enumerate(starts)
                   if payload[start:start + CHECKPOINT_PAGE]
                   != base[start:start + CHECKPOINT_PAGE]]
        body = [_CKPT_BODY.pack(record.position, len(payload), len(changed)),
                struct.pack(f"<{len(changed)}I", *changed), payload[:head]]
        body += (payload[starts[index]:starts[index] + CHECKPOINT_PAGE]
                 for index in changed)
        stored = zlib.compress(b"".join(body), 6)
        out += _CKPT_RECORD.pack(len(stored), bytes.fromhex(record.digest))
        out += stored
        previous = payload
    return bytes(out)


def _inflate(inflater, data: bytes, size: int, where: str) -> bytes:
    """At most ``size`` more bytes of a record body: ``max_length`` bounds
    what a corrupt stream can make the decoder allocate."""
    try:
        return inflater.decompress(data, size) if size else b""
    except zlib.error as exc:
        raise LogFormatError(f"{where}: corrupt record body: {exc}") from exc


def _decode_record(stored: bytes, previous: bytes,
                   where: str) -> tuple[int, bytes]:
    """One record body -> (position, payload patched onto ``previous``)."""
    inflater = zlib.decompressobj()
    fixed = _inflate(inflater, stored, _CKPT_BODY.size, where)
    if len(fixed) != _CKPT_BODY.size:
        raise LogFormatError(f"{where}: record body truncated")
    position, raw_len, count = _CKPT_BODY.unpack(fixed)
    head, pages = raw_len % CHECKPOINT_PAGE, raw_len // CHECKPOINT_PAGE
    if count > pages:
        raise LogFormatError(
            f"{where}: {count} changed pages in a {pages}-page payload")
    size = 4 * count + head + count * CHECKPOINT_PAGE
    rest = _inflate(inflater, inflater.unconsumed_tail, size, where)
    # the stream must end exactly here, its checksum verified
    if len(rest) != size or _inflate(inflater, inflater.unconsumed_tail, 1,
                                     where) \
            or not inflater.eof or inflater.unused_data:
        raise LogFormatError(f"{where}: record body is not the "
                             f"{_CKPT_BODY.size + size} bytes it declares")
    indices = struct.unpack_from(f"<{count}I", rest)
    if any(a >= b for a, b in zip(indices, indices[1:])) \
            or (indices and indices[-1] >= pages):
        raise LogFormatError(
            f"{where}: page indices not strictly increasing below {pages}")
    image = bytearray(_realign(previous, raw_len))
    view = memoryview(rest)
    cursor = 4 * count + head
    image[:head] = view[4 * count:cursor]
    for index in indices:
        start = head + index * CHECKPOINT_PAGE
        image[start:start + CHECKPOINT_PAGE] = \
            view[cursor:cursor + CHECKPOINT_PAGE]
        cursor += CHECKPOINT_PAGE
    return position, bytes(image)


def decode_checkpoints(blob: bytes) -> list[CheckpointRecord]:
    """Parse a checkpoint section; verifies every payload digest."""
    if len(blob) < _CKPT_HEADER.size:
        raise LogFormatError("checkpoint section truncated before header")
    magic, version, _flags, _reserved, count = _CKPT_HEADER.unpack_from(blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise LogFormatError(f"bad checkpoint section magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise LogFormatError(f"unsupported checkpoint section version {version}")
    records: list[CheckpointRecord] = []
    offset = _CKPT_HEADER.size
    previous = b""
    for index in range(count):
        where = f"checkpoint record {index} at byte {offset}"
        if offset + _CKPT_RECORD.size > len(blob):
            raise LogFormatError(f"{where}: truncated in record header")
        stored_len, digest_bytes = _CKPT_RECORD.unpack_from(blob, offset)
        offset += _CKPT_RECORD.size
        if offset + stored_len > len(blob):
            raise LogFormatError(f"{where}: truncated in record body")
        position, payload = _decode_record(
            blob[offset:offset + stored_len], previous, where)
        offset += stored_len
        digest = digest_bytes.hex()
        if hashlib.sha256(payload).hexdigest() != digest:
            raise LogFormatError(
                f"{where}: checkpoint digest mismatch at position {position}")
        records.append(CheckpointRecord(position=position, digest=digest,
                                        payload=payload)._verified())
        previous = payload
    if offset != len(blob):
        raise LogFormatError(
            f"checkpoint section has {len(blob) - offset} trailing bytes")
    return records
