"""Parallel interval replay: partitioning, seam verification, identity."""

import dataclasses
import hashlib
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro import session, workloads
from repro.capo.recording import Recording
from repro.errors import ReplayDivergenceError, ReproError
from repro.mrr.logfmt import CheckpointRecord
from repro.replay.checkpoint import build_checkpoints
from repro.replay import checkpoint, parallel
from repro.replay.parallel import plan_intervals, plan_runs, replay_parallel
from repro.replay.replayer import Replayer


@pytest.fixture(scope="module")
def recording():
    program, inputs = workloads.build("fft", scale=1)
    rec = session.record(program, seed=7, input_files=inputs).recording
    rec.checkpoints = build_checkpoints(rec, every=20)
    return rec


@pytest.fixture(scope="module")
def serial_digest(recording):
    return Replayer(recording).run().digest()


def test_plan_intervals_covers_schedule_exactly(recording):
    intervals = plan_intervals(recording)
    assert intervals[0].start == 0
    assert intervals[-1].end == len(recording.chunks)
    assert intervals[-1].expected_digest is None
    for left, right in zip(intervals, intervals[1:]):
        assert left.end == right.start
        assert left.expected_digest is not None


def test_plan_intervals_without_checkpoints_is_one_interval():
    program, inputs = workloads.build("counter", threads=2)
    rec = session.record(program, seed=3, input_files=inputs).recording
    intervals = plan_intervals(rec)
    assert len(intervals) == 1
    assert (intervals[0].start, intervals[0].end) == (0, len(rec.chunks))


def test_serial_interval_path_matches_plain_replay(recording, serial_digest):
    result, report = replay_parallel(recording=recording, jobs=1)
    assert result.digest() == serial_digest
    assert report.jobs == 1
    assert report.seams_verified == len(report.intervals) - 1
    assert sum(o.units for o in report.intervals) == result.stats.units


def test_pool_replay_matches_serial(recording, serial_digest):
    result, report = replay_parallel(recording=recording, jobs=4)
    assert result.digest() == serial_digest
    assert report.jobs > 1
    assert report.seams_verified == len(report.intervals) - 1


def test_jobs_capped_to_interval_count(recording):
    _result, report = replay_parallel(recording=recording, jobs=64)
    assert report.jobs <= len(report.intervals)


def test_no_checkpoints_degrades_to_serial(serial_digest):
    program, inputs = workloads.build("fft", scale=1)
    rec = session.record(program, seed=7, input_files=inputs).recording
    result, report = replay_parallel(recording=rec, jobs=4)
    assert result.digest() == serial_digest
    assert len(report.intervals) == 1
    assert report.seams_verified == 0


def test_replay_from_saved_bundle(recording, serial_digest, tmp_path):
    directory = recording.save(tmp_path / "rec")
    result, _report = replay_parallel(directory=directory, jobs=2)
    assert result.digest() == serial_digest


def test_session_replay_recording_jobs(recording, serial_digest):
    result = session.replay_recording(recording, jobs=3)
    assert result.digest() == serial_digest


def test_tampered_seam_digest_detected(recording):
    """Corrupting a checkpoint's recorded digest must fail the seam check,
    not silently stitch a wrong result."""
    tampered = [
        dataclasses.replace(record, digest="0" * 64)
        if index == 1 else record
        for index, record in enumerate(recording.checkpoints)]
    broken = Recording(config=recording.config, program=recording.program,
                       chunks=recording.chunks, events=recording.events,
                       metadata=recording.metadata, checkpoints=tampered)
    with pytest.raises(ReplayDivergenceError, match="seam"):
        replay_parallel(recording=broken, jobs=1)


def test_tampered_checkpoint_payload_detected(recording):
    """Corrupting a checkpoint's memory image (with a recomputed digest,
    so the log layer accepts it) must be caught at the next seam, never
    stitched into a wrong result."""
    import struct
    victim = recording.checkpoints[1]
    # flip the byte at physical address 0: no program touches it, so the
    # corruption survives to the next seam where the digest must differ
    (header_len,) = struct.unpack_from("<I", victim.payload, 0)
    memory_start = 4 + header_len
    corrupt = bytearray(victim.payload)
    corrupt[memory_start] ^= 0xFF
    tampered = [
        CheckpointRecord.for_payload(victim.position, bytes(corrupt))
        if index == 1 else record
        for index, record in enumerate(recording.checkpoints)]
    broken = Recording(config=recording.config, program=recording.program,
                       chunks=recording.chunks, events=recording.events,
                       metadata=recording.metadata, checkpoints=tampered)
    with pytest.raises(ReplayDivergenceError, match="seam"):
        replay_parallel(recording=broken, jobs=1)


def test_missing_source_rejected():
    with pytest.raises(ReproError):
        replay_parallel()


def test_report_speedup_bound(recording, monkeypatch):
    _result, serial = replay_parallel(recording=recording, jobs=1)
    assert serial.speedup_bound == 1.0  # one run: no parallelism at all
    largest = max(o.units for o in serial.intervals)
    critical_path = sum(o.units for o in serial.intervals) / largest
    assert critical_path > 2

    # 64 jobs ask for more runs than there are intervals: the report
    # counts the runs actually made, and the bound never exceeds them
    # nor the host's CPUs.
    _result, report = replay_parallel(recording=recording, jobs=64)
    assert report.jobs == len(report.intervals) < 64
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    assert report.speedup_bound == 2.0
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert report.speedup_bound == 1.0
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
    assert report.speedup_bound == pytest.approx(critical_path)


@settings(max_examples=40, deadline=None)
@given(jobs=st.integers(min_value=1, max_value=12), data=st.data())
def test_runs_are_contiguous_ordered_and_at_most_jobs(recording, jobs, data):
    kept = data.draw(st.lists(st.sampled_from(recording.checkpoints),
                              unique_by=lambda record: record.position))
    rec = Recording(config=recording.config, program=recording.program,
                    chunks=recording.chunks, events=recording.events,
                    metadata=recording.metadata, checkpoints=kept)
    intervals = plan_intervals(rec)
    runs = plan_runs(rec, intervals, jobs)
    assert 1 <= len(runs) <= jobs
    assert all(runs)
    assert runs[0][0].start == 0
    assert [iv for run in runs for iv in run] == intervals


def _counting(monkeypatch, module, name, counter):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        with counter.get_lock():
            counter.value += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_single_run_restores_nothing_and_hashes_no_full_state(
        recording, serial_digest, monkeypatch):
    """jobs=1 steps straight through every seam: no checkpoint restore,
    and no SHA-256 over a whole state (header plus memory image) — the
    only full-memory hash left is the result's own digest."""
    restores = multiprocessing.Value("i", 0)
    _counting(monkeypatch, checkpoint, "restore_replayer", restores)
    memory_bytes = recording.config.machine.memory_bytes
    full_state_hashes = []
    real_sha256 = hashlib.sha256

    def sha256(data=b"", **kwargs):
        if len(data) > memory_bytes:
            full_state_hashes.append(len(data))
        return real_sha256(data, **kwargs)
    monkeypatch.setattr(hashlib, "sha256", sha256)
    result, report = replay_parallel(recording=recording, jobs=1)
    assert result.digest() == serial_digest
    assert restores.value == 0 and report.restores == 0
    assert full_state_hashes == []
    assert report.seams_verified == len(report.intervals) - 1


def test_pool_restores_once_per_run_after_the_first(recording, monkeypatch):
    # a shared counter: forked workers increment the parent's copy
    restores = multiprocessing.Value("i", 0)
    _counting(monkeypatch, checkpoint, "restore_replayer", restores)
    _result, report = replay_parallel(recording=recording, jobs=3)
    runs = plan_runs(recording, plan_intervals(recording), 3)
    assert report.jobs == len(runs) > 1
    assert report.restores == len(runs) - 1
    if multiprocessing.get_start_method() == "fork":
        assert restores.value == len(runs) - 1
    starts = {run[0].index for run in runs[1:]}
    assert [o.restored for o in report.intervals] == \
        [o.index in starts for o in report.intervals]


def test_tampered_payload_inside_run_zero_caught_at_its_seam(recording):
    """Run 0 never restores, so a corrupt payload at one of its seams is
    never loaded — the seam's byte comparison alone must catch it."""
    runs = plan_runs(recording, plan_intervals(recording), 2)
    assert len(runs[0]) >= 2
    position = runs[0][0].end
    victim = recording.checkpoint_at(position)
    corrupt = bytearray(victim.payload)
    corrupt[-1] ^= 0xFF
    tampered = [
        CheckpointRecord.for_payload(position, bytes(corrupt))
        if record is victim else record
        for record in recording.checkpoints]
    broken = Recording(config=recording.config, program=recording.program,
                       chunks=recording.chunks, events=recording.events,
                       metadata=recording.metadata, checkpoints=tampered)
    with pytest.raises(ReplayDivergenceError,
                       match=f"seam mismatch at chunk {position}"):
        replay_parallel(recording=broken, jobs=2)
