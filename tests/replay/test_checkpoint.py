"""Replay-state checkpoints: capture/restore fidelity, embedding, seek."""

import pytest

from repro import session, workloads
from repro.capo.recording import Recording
from repro.errors import LogFormatError, ReproError
from repro.mrr.logfmt import CheckpointRecord
from repro.replay.checkpoint import (
    build_checkpoints,
    capture_state,
    decode_state,
    encode_state,
    replayer_at,
    restore_replayer,
    state_digest,
    state_matches,
)
from repro.replay.replayer import Replayer


@pytest.fixture(scope="module")
def recording():
    # fft spawns threads, writes an output file and has syscalls and
    # pending stores in flight — the richest state to checkpoint.
    program, inputs = workloads.build("fft", scale=1)
    rec = session.record(program, seed=7, input_files=inputs).recording
    rec.checkpoints = build_checkpoints(rec, every=20)
    return rec


@pytest.fixture(scope="module")
def serial_result(recording):
    return Replayer(recording).run()


def test_build_positions_are_interior_multiples(recording):
    positions = [r.position for r in recording.checkpoints]
    assert positions == sorted(positions)
    assert all(p % 20 == 0 for p in positions)
    assert 0 not in positions
    assert len(recording.chunks) not in positions


def test_state_encoding_round_trips(recording):
    record = recording.checkpoints[0]
    state = decode_state(record.payload)
    assert encode_state(state) == record.payload
    assert state_digest(state) == record.digest
    assert state.position == record.position


def test_restore_then_capture_is_identity(recording):
    """The core fidelity property: restoring a checkpoint and immediately
    re-capturing must reproduce the exact payload bytes."""
    for record in recording.checkpoints:
        replayer = restore_replayer(recording, decode_state(record.payload))
        assert replayer.position == record.position
        assert state_digest(capture_state(replayer)) == record.digest


def test_capture_matches_serial_replay_state(recording):
    """A serially-stepped replayer and a restored one digest identically."""
    target = recording.checkpoints[1].position
    stepped = Replayer(recording)
    while stepped.position < target:
        stepped.step_chunk()
    assert state_digest(capture_state(stepped)) == \
        recording.checkpoints[1].digest


def test_resume_from_checkpoint_matches_serial(recording, serial_result):
    record = recording.checkpoints[-1]
    replayer = restore_replayer(recording, decode_state(record.payload))
    result = replayer.run()
    assert result.final_memory_digest == serial_result.final_memory_digest
    assert result.outputs == serial_result.outputs
    assert result.exit_codes == serial_result.exit_codes
    assert result.stats.as_dict() == serial_result.stats.as_dict()
    assert result.digest() == serial_result.digest()


def test_replayer_at_seeks_to_any_position(recording):
    total = len(recording.chunks)
    for position in (0, 1, 19, 20, 21, total // 2, total):
        replayer = replayer_at(recording, position)
        assert replayer.position == position


def test_replayer_at_uses_nearest_checkpoint(recording):
    # seeking to 45 should restore the checkpoint at 40 and step 5 chunks,
    # so the replayer's thread states match a 45-chunk serial replay
    seeked = replayer_at(recording, 45)
    stepped = Replayer(recording)
    while stepped.position < 45:
        stepped.step_chunk()
    assert state_digest(capture_state(seeked)) == \
        state_digest(capture_state(stepped))


def test_replayer_at_bounds(recording):
    with pytest.raises(ReproError):
        replayer_at(recording, -1)
    with pytest.raises(ReproError):
        replayer_at(recording, len(recording.chunks) + 1)


def test_build_rejects_nonpositive_interval(recording):
    with pytest.raises(ReproError):
        build_checkpoints(recording, 0)


def test_decode_state_rejects_garbage():
    with pytest.raises(LogFormatError):
        decode_state(b"")
    with pytest.raises(LogFormatError):
        decode_state(b"\xff\xff\xff\xff")


def _with_header(recording, record, edit):
    """``recording`` with ``record``'s header changed by ``edit`` and the
    payload re-digested, so only the replay-state layer can object."""
    import dataclasses
    state = decode_state(record.payload)
    header = {**state.header, "threads": dict(state.header["threads"])}
    edit(header)
    crafted = CheckpointRecord.for_payload(
        record.position,
        encode_state(dataclasses.replace(state, header=header)))
    return Recording(config=recording.config, program=recording.program,
                     chunks=recording.chunks, events=recording.events,
                     metadata=recording.metadata,
                     checkpoints=[crafted if r is record else r
                                  for r in recording.checkpoints])


def _drop_engine(header):
    key = min(header["threads"], key=int)
    header["threads"][key] = {
        field: value for field, value in header["threads"][key].items()
        if field != "engine"}


@pytest.mark.parametrize("edit", [
    lambda header: header.pop("threads"),
    _drop_engine,
    lambda header: header.update(stats=[1, 2]),
    lambda header: header["stats"].update(bogus=1),
], ids=["no-threads", "no-engine", "stats-not-a-dict", "unknown-stat"])
def test_malformed_header_is_a_typed_error(recording, edit):
    record = recording.checkpoints[1]
    crafted = _with_header(recording, record, edit)
    with pytest.raises(LogFormatError, match=f"position {record.position}"):
        replayer_at(crafted, record.position + 1)


def test_decoded_memory_is_a_view_of_the_payload(recording):
    record = recording.checkpoints[0]
    memory = decode_state(record.payload).memory
    assert isinstance(memory, memoryview)
    assert memory.obj is record.payload


def test_state_matches_is_byte_equality(recording):
    record = recording.checkpoints[0]
    replayer = restore_replayer(recording, decode_state(record.payload))
    assert state_matches(replayer, record.payload)
    flipped = bytearray(record.payload)
    flipped[-1] ^= 1
    assert not state_matches(replayer, bytes(flipped))
    assert not state_matches(replayer, record.payload + b"\x00")
    other = recording.checkpoints[1].payload
    assert not state_matches(replayer, other)


def test_digest_binding_is_checked_once_and_not_inherited(recording):
    import dataclasses
    record = recording.checkpoints[0]
    assert record.digest_verified  # built by for_payload
    copied = dataclasses.replace(record)
    assert not copied.digest_verified  # must be re-hashed
    assert copied == record
    assert copied.digest_matches() and copied.digest_verified
    forged = dataclasses.replace(record, digest="0" * 64)
    assert not forged.digest_matches()
    assert not forged.digest_verified


def test_checkpoints_survive_save_load(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    assert (directory / "checkpoints.bin").exists()
    loaded = Recording.load(directory)
    assert loaded.checkpoints == recording.checkpoints
    # the section decoder hashed every payload already
    assert all(record.digest_verified for record in loaded.checkpoints)


def test_checkpoint_count_mismatch_detected(recording, tmp_path):
    import json
    directory = recording.save(tmp_path / "rec")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["checkpoint_count"] += 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    loaded = Recording.load(directory)
    with pytest.raises(LogFormatError):
        _ = loaded.checkpoints


def test_recordings_without_checkpoints_still_load(tmp_path):
    """Backward compatibility: pre-checkpoint bundles have no
    checkpoints.bin and no manifest key; both must read as empty."""
    program, inputs = workloads.build("counter", threads=2)
    rec = session.record(program, seed=3, input_files=inputs).recording
    directory = rec.save(tmp_path / "rec")
    assert not (directory / "checkpoints.bin").exists()
    import json
    manifest = json.loads((directory / "manifest.json").read_text())
    del manifest["checkpoint_count"]
    (directory / "manifest.json").write_text(json.dumps(manifest))
    loaded = Recording.load(directory)
    assert loaded.checkpoints == []
    result = session.replay_recording(loaded)
    assert result.final_memory_digest == rec.metadata["final_memory_digest"]


def test_checkpointed_replay_with_signals_and_multiproc():
    """Checkpoint/restore across the trickiest state: signal contexts and
    a background (unrecorded) process sharing the machine."""
    program, inputs = workloads.build("prodcons", scale=1)
    outcome = session.record(program, seed=11, input_files=inputs)
    rec = outcome.recording
    rec.checkpoints = build_checkpoints(rec, every=15)
    serial = Replayer(rec).run()
    for record in rec.checkpoints:
        replayer = restore_replayer(rec, decode_state(record.payload))
        assert state_digest(capture_state(replayer)) == record.digest
    resumed = restore_replayer(
        rec, decode_state(rec.checkpoints[0].payload)).run()
    assert resumed.digest() == serial.digest()
