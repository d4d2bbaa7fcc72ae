import json
import re

import pytest

from repro import session, workloads
from repro.capo.recording import Recording
from repro.errors import LogFormatError
from repro.mrr.logfmt import CheckpointRecord, encode_chunks


@pytest.fixture(scope="module")
def recording():
    program, inputs = workloads.build("counter", threads=2)
    return session.record(program, seed=3, input_files=inputs).recording


def test_save_load_round_trip(recording, tmp_path):
    recording.save(tmp_path / "rec")
    loaded = Recording.load(tmp_path / "rec")
    assert loaded.chunks == recording.chunks
    assert loaded.events == recording.events
    assert loaded.config == recording.config
    assert loaded.program.instructions == recording.program.instructions
    assert loaded.metadata == json.loads(json.dumps(recording.metadata))


def test_saved_layout(recording, tmp_path):
    # exactly one section per kind of trace data, whichever way the bundle
    # is (re-)saved; checkpoints.bin only while checkpoints exist
    sections = {"manifest.json", "program.json", "input.bin", "chunks.bin"}

    def names(directory):
        return {path.name for path in directory.iterdir()}

    directory = recording.save(tmp_path / "rec")
    assert names(directory) == sections
    checkpointed = recording.replace(
        checkpoints=[CheckpointRecord.for_payload(0, b"state")])
    checkpointed.save(directory)
    assert names(directory) == sections | {"checkpoints.bin"}
    recording.save(directory)
    assert names(directory) == sections
    assert Recording.load(directory).chunks == recording.chunks


def test_compressed_chunk_fallback(recording, tmp_path):
    # readers negotiate the chunk stream version from its header, not from
    # the manifest: a v1 bundle whose chunks.bin holds the compressed (v2)
    # encoding of the same log still loads it, in stream order
    directory = recording.save(tmp_path / "rec")
    (directory / "chunks.bin").write_bytes(
        encode_chunks(recording.chunks, version=2))
    loaded = Recording.load(directory)
    assert loaded.chunks == recording.chunks


def test_load_missing_directory(tmp_path):
    with pytest.raises(LogFormatError):
        Recording.load(tmp_path / "nope")


def test_load_rejects_foreign_manifest(tmp_path):
    directory = tmp_path / "rec"
    directory.mkdir()
    (directory / "manifest.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(LogFormatError):
        Recording.load(directory)


def test_manifest_count_mismatch_detected(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["chunk_count"] += 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    # sections decode lazily, so the mismatch surfaces at first access
    loaded = Recording.load(directory)
    with pytest.raises(LogFormatError):
        _ = loaded.chunks


def test_event_count_mismatch_detected(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["event_count"] += 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    loaded = Recording.load(directory)
    with pytest.raises(LogFormatError):
        _ = loaded.events


def test_sections_load_lazily(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    loaded = Recording.load(directory)
    assert loaded.sections_loaded == {"chunks": False, "events": False,
                                      "checkpoints": False}
    # metadata-only surfaces force nothing
    assert loaded.metadata == recording.metadata
    assert loaded.config == recording.config
    assert loaded.sections_loaded["chunks"] is False
    _ = loaded.events
    assert loaded.sections_loaded == {"chunks": False, "events": True,
                                      "checkpoints": False}
    _ = loaded.chunks
    assert loaded.sections_loaded["chunks"] is True


def test_metadata_access_needs_no_chunk_log(recording, tmp_path):
    """Regression: stats/inspect paths that only read the manifest must
    not decode (or even require) the chunk payloads."""
    directory = recording.save(tmp_path / "rec")
    (directory / "chunks.bin").unlink()
    loaded = Recording.load(directory)
    assert loaded.metadata["final_memory_digest"]
    assert loaded.program.instructions == recording.program.instructions
    with pytest.raises(LogFormatError):
        _ = loaded.chunks  # the missing section errors only when forced


def test_in_memory_recording_sections_are_eager(recording):
    assert recording.sections_loaded == {"chunks": True, "events": True,
                                         "checkpoints": True}


def test_size_helpers(recording):
    assert recording.chunk_log_bytes() > 0
    assert recording.input_log_bytes() > 0
    assert recording.total_log_bytes() == (recording.chunk_log_bytes()
                                           + recording.input_log_bytes())
    assert recording.chunk_log_bytes(version=2) < recording.chunk_log_bytes()


def test_thread_slicing(recording):
    rthreads = recording.rthreads()
    assert rthreads == [1, 2]
    total = sum(len(recording.chunks_of(rt)) for rt in rthreads)
    assert total == len(recording.chunks)
    for rt in rthreads:
        assert all(event.rthread == rt for event in recording.events_of(rt))


def test_replay_of_loaded_recording(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    loaded = Recording.load(directory)
    result = session.replay_recording(loaded)
    assert result.final_memory_digest == recording.metadata["final_memory_digest"]


# -- versioned serialization -------------------------------------------------

@pytest.fixture(scope="module")
def recording_v2():
    import dataclasses

    from repro.config import CapoConfig, SimConfig

    program, inputs = workloads.build("counter", threads=2)
    config = dataclasses.replace(
        SimConfig(), capo=CapoConfig(log_version=2))
    return session.record(program, seed=3, input_files=inputs,
                          config=config).recording


def test_v2_save_load_round_trip(recording_v2, recording, tmp_path):
    recording_v2.save(tmp_path / "rec2")
    loaded = Recording.load(tmp_path / "rec2")
    assert loaded.chunks == recording_v2.chunks
    assert loaded.events == recording_v2.events
    # same run as the v1 fixture (same seed): decoding v2 must agree with
    # what the v1 bundle carries
    assert loaded.chunks == recording.chunks
    assert loaded.events == recording.events


def test_v2_compressed_fallback_load(recording_v2, tmp_path):
    # a v2 bundle's one chunk section is the compressed stream; without it
    # the chunk log fails with the format error, with no other section to
    # fall back to
    directory = recording_v2.save(tmp_path / "fb2")
    blob = (directory / "chunks.bin").read_bytes()
    assert blob[4] == 2  # header version byte
    assert len(blob) < len(encode_chunks(recording_v2.chunks, version=1))
    assert Recording.load(directory).chunks == recording_v2.chunks
    (directory / "chunks.bin").unlink()
    loaded = Recording.load(directory)
    assert loaded.metadata == recording_v2.metadata
    with pytest.raises(LogFormatError, match=re.escape(str(directory))):
        loaded.chunks


def test_v2_manifest_records_versions(recording_v2, recording, tmp_path):
    recording.save(tmp_path / "m1")
    recording_v2.save(tmp_path / "m2")
    m1 = json.loads((tmp_path / "m1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "m2" / "manifest.json").read_text())
    assert m1["log_version"] == 1
    assert m2["log_version"] == 2


def test_v2_bundle_is_smaller(recording_v2, recording, tmp_path):
    d1 = recording.save(tmp_path / "s1")
    d2 = recording_v2.save(tmp_path / "s2")
    v1_bytes = (d1 / "chunks.bin").stat().st_size \
        + (d1 / "input.bin").stat().st_size
    v2_bytes = (d2 / "chunks.bin").stat().st_size \
        + (d2 / "input.bin").stat().st_size
    assert v2_bytes < v1_bytes


def test_size_helpers_take_version_overrides(recording):
    assert recording.chunk_log_bytes(version=2) < \
        recording.chunk_log_bytes(version=1)
    assert recording.input_log_bytes(version=2) <= \
        recording.input_log_bytes(version=1)
    # no argument follows the bundle's config (v1 for this fixture)
    assert recording.chunk_log_bytes() == recording.chunk_log_bytes(version=1)


# -- lifecycle regressions ----------------------------------------------------
# Pruned bundles must fail with the format error contract, and re-saving
# over an existing bundle must not leave stale section files behind.


def test_load_missing_program_image_is_log_format_error(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    (directory / "program.json").unlink()
    with pytest.raises(LogFormatError, match="no program image"):
        Recording.load(directory)


def test_load_missing_input_log_is_log_format_error(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    (directory / "input.bin").unlink()
    loaded = Recording.load(directory)  # sections are lazy: load succeeds
    with pytest.raises(LogFormatError, match="no input log"):
        loaded.events
    # the error names the bundle so the user knows *which* one is pruned
    with pytest.raises(LogFormatError, match=str(directory)):
        loaded.events


def test_resave_removes_stale_checkpoint_section(recording, tmp_path):
    import copy

    rec = copy.copy(recording)
    rec.checkpoints = [CheckpointRecord.for_payload(0, b"state")]
    directory = rec.save(tmp_path / "rec")
    assert (directory / "checkpoints.bin").exists()

    rec.checkpoints = []
    rec.save(directory)
    assert not (directory / "checkpoints.bin").exists()
    loaded = Recording.load(directory)
    assert loaded.checkpoints == []


def test_resave_removes_stale_compressed_chunks(recording, recording_v2,
                                               tmp_path):
    # re-saving a v1 recording over a v2 bundle replaces the compressed
    # chunk section and the manifest's sizes with the v1 ones
    directory = recording_v2.save(tmp_path / "rec")
    recording.save(directory)
    blob = (directory / "chunks.bin").read_bytes()
    assert blob[4] == 1  # header version byte
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["log_version"] == 1
    assert manifest["chunk_log_bytes"] == len(blob) == \
        recording.chunk_log_bytes(version=1)
    assert {path.name for path in directory.iterdir()} == {
        "manifest.json", "program.json", "input.bin", "chunks.bin"}
    assert Recording.load(directory).chunks == recording.chunks


# -- malformed manifest / program image ---------------------------------------
# Every parse failure is a LogFormatError naming the bundle file, never a
# raw JSON, Unicode or constructor exception.


#: ``capo`` config keys an older bundle's manifest may still carry.
RETIRED_CAPO_KEYS = ("compress_chunk_log", "chunk_log_version", "input_log_version")


@pytest.mark.parametrize("key", RETIRED_CAPO_KEYS)
def test_load_rejects_retired_config_key(recording, tmp_path, key):
    directory = recording.save(tmp_path / "rec")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["config"]["capo"][key] = 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(LogFormatError, match=key) as info:
        Recording.load(directory)
    assert str(directory / "manifest.json") in str(info.value)


def test_load_rejects_truncated_manifest(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    text = (directory / "manifest.json").read_text()
    (directory / "manifest.json").write_text(text[:len(text) // 2])
    with pytest.raises(LogFormatError,
                       match=re.escape(str(directory / "manifest.json"))):
        Recording.load(directory)


def test_load_rejects_non_utf8_program_image(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    (directory / "program.json").write_bytes(b'{"name": "\xff\xfe"}')
    with pytest.raises(LogFormatError,
                       match=re.escape(str(directory / "program.json"))):
        Recording.load(directory)


@pytest.mark.parametrize("manifest", [
    "[]",
    '{"format": "quickrec-recording"}',
    '{"format": "quickrec-recording", "config": {"machine": 7}}',
], ids=["not-an-object", "no-config", "bad-config-section"])
def test_load_rejects_misshapen_manifest(tmp_path, manifest):
    directory = tmp_path / "rec"
    directory.mkdir()
    (directory / "manifest.json").write_text(manifest)
    with pytest.raises(LogFormatError, match=re.escape(str(directory))):
        Recording.load(directory)
