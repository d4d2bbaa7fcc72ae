"""Parallel interval replay: fan a chunk schedule out over checkpoints.

The chunk schedule is split at embedded checkpoint boundaries into
intervals, and the intervals into at most ``jobs`` contiguous *runs*
balanced by instruction count. A run restores its first checkpoint once
(run 0 restores nothing) and steps through its intervals, checking at
every seam — this is what makes parallel replay self-validating — that
its state equals the recorded checkpoint byte for byte. A mismatch means
the stitched result would not be bit-identical to a serial replay, and
raises :class:`~repro.errors.ReplayDivergenceError`.

Because every checkpoint carries cumulative state (write segments, exit
codes, statistics), the last run's :class:`ReplayResult` *is* the whole
run's result: stitching is verification, not reassembly. ``--jobs 1`` and
``--jobs N`` therefore produce identical results by construction, and the
test suite enforces it bit-for-bit.

For ``jobs = N > 1`` the calling process replays run 0 itself while
``N - 1`` ``multiprocessing`` pool workers replay the rest. Under the
default ``fork`` start method they inherit the already-decoded recording
from the parent (no pickling, no re-reading); under ``spawn`` each worker
loads the bundle from disk, so a directory is required (an in-memory
recording is spilled to a temporary bundle automatically).
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from ..capo.recording import Recording
from ..errors import ReplayDivergenceError, ReproError
from ..telemetry import NULL_TELEMETRY, Telemetry
from .checkpoint import replayer_at, state_matches
from .replayer import ReplayResult
from .schedule import build_schedule


@dataclass(frozen=True)
class Interval:
    """One independently replayable slice of the chunk schedule."""

    index: int
    start: int
    end: int
    #: Recorded digest of the checkpoint at ``end`` (None for the final
    #: interval — its end state is the replay result itself).
    expected_digest: str | None


@dataclass(frozen=True)
class IntervalOutcome:
    index: int
    start: int
    end: int
    units: int
    wall_s: float
    #: True when this interval began its run by restoring its checkpoint.
    restored: bool


@dataclass
class ParallelReplayReport:
    """How a parallel replay went: per-interval work and seam checks."""

    jobs: int
    intervals: list[IntervalOutcome]
    seams_verified: int
    wall_s: float

    @property
    def restores(self) -> int:
        return sum(o.restored for o in self.intervals)

    @property
    def speedup_bound(self) -> float:
        """Max parallel speedup this replay could reach: the partition's
        critical path (total units over the largest interval's units),
        capped by the job count and by the host's CPU count."""
        largest = max((o.units for o in self.intervals), default=0)
        total = sum(o.units for o in self.intervals)
        critical_path = total / largest if largest else 1.0
        return float(min(critical_path, self.jobs, os.cpu_count() or 1))


def plan_intervals(recording: Recording) -> list[Interval]:
    """Split the schedule at embedded checkpoint positions."""
    total = len(recording.chunks)
    records = sorted((r for r in recording.checkpoints
                      if 0 < r.position < total),
                     key=lambda record: record.position)
    bounds = [0] + [r.position for r in records] + [total]
    digests = {r.position: r.digest for r in records}
    intervals = []
    for index, (start, end) in enumerate(zip(bounds, bounds[1:])):
        intervals.append(Interval(index=index, start=start, end=end,
                                  expected_digest=digests.get(end)))
    return intervals


def plan_runs(recording: Recording, intervals: list[Interval],
              jobs: int) -> list[list[Interval]]:
    """At most ``jobs`` contiguous runs of ``intervals``, cut where the
    running instruction count is nearest each ``k/jobs`` share."""
    if jobs <= 1 or len(intervals) <= 1:
        return [intervals]
    icounts = [0, *accumulate(chunk.icount for chunk in
                              build_schedule(recording.chunks))]
    done = [icounts[interval.end] for interval in intervals]
    cuts = sorted({min(range(1, len(intervals)),
                       key=lambda b: abs(done[b - 1] - done[-1] * k / jobs))
                   for k in range(1, jobs)})
    return [intervals[a:b]
            for a, b in zip([0, *cuts], [*cuts, len(intervals)])]


def _replay_run(recording: Recording, run: list[Interval], is_last: bool,
                ) -> tuple[list[IntervalOutcome], ReplayResult | None]:
    """Replay one run: restore its first checkpoint (base state for run
    0), step through every interval, check each seam."""
    start_wall = time.perf_counter()
    restored = run[0].start > 0
    # the checkpoint at the run's start, or for run 0 the base state (a
    # flight window's embedded ring base, else a fresh replayer)
    replayer = replayer_at(recording, run[0].start)
    outcomes = []
    for interval in run:
        units_before = replayer.stats.units
        while replayer.position < interval.end:
            if replayer.step_chunk() is None:
                raise ReplayDivergenceError(
                    f"schedule ended at {replayer.position} inside interval "
                    f"[{interval.start}, {interval.end})")
        if interval.expected_digest is not None:
            seam = recording.checkpoint_at(interval.end)
            if not (seam is not None
                    and seam.digest == interval.expected_digest
                    and seam.digest_matches()
                    and state_matches(replayer, seam.payload)):
                raise ReplayDivergenceError(
                    f"seam mismatch at chunk {interval.end}: interval "
                    f"[{interval.start}, {interval.end}) does not reach "
                    f"the recorded checkpoint")
        now = time.perf_counter()
        outcomes.append(IntervalOutcome(
            index=interval.index, start=interval.start, end=interval.end,
            units=replayer.stats.units - units_before,
            wall_s=now - start_wall, restored=restored and interval is run[0]))
        start_wall = now
    return outcomes, replayer.result() if is_last else None


# Recording shared with fork-started pool workers (set just before the
# pool is created; children inherit the decoded sections copy-on-write).
_WORKER_RECORDING: Recording | None = None
_WORKER_DIRECTORY: str | None = None


def _pool_replay_run(spec: tuple):
    run, is_last = spec
    recording = _WORKER_RECORDING
    if recording is None:
        if _WORKER_DIRECTORY is None:
            raise ReproError("parallel replay worker has no recording source")
        recording = Recording.load(_WORKER_DIRECTORY)
    return _replay_run(recording, run, is_last)


def replay_parallel(recording: Recording | None = None,
                    directory: str | Path | None = None,
                    jobs: int = 1,
                    telemetry: Telemetry | None = None,
                    ) -> tuple[ReplayResult, ParallelReplayReport]:
    """Replay ``recording`` across its checkpoint intervals.

    ``jobs <= 1`` (or a checkpoint-free recording, or a daemonic caller
    that cannot fork workers) is a single in-process run: it restores
    nothing and still checks every seam.
    """
    if recording is None:
        if directory is None:
            raise ReproError("replay_parallel needs a recording or directory")
        recording = Recording.load(directory)
    telemetry = telemetry or NULL_TELEMETRY
    intervals = plan_intervals(recording)
    if multiprocessing.current_process().daemon:
        jobs = 1  # pool workers cannot have children
    runs = plan_runs(recording, intervals, jobs)

    start_wall = time.perf_counter()
    if len(runs) == 1:
        raw = [_replay_run(recording, runs[0], True)]
    else:
        raw = _fan_out(recording, directory, runs)
    outcomes = [outcome for run_outcomes, _ in raw
                for outcome in run_outcomes]
    result = raw[-1][1]
    report = ParallelReplayReport(
        jobs=len(runs), intervals=outcomes,
        seams_verified=len(intervals) - 1,
        wall_s=time.perf_counter() - start_wall)
    if telemetry.enabled:
        metrics = telemetry.metrics
        metrics.gauge("replay.parallel_jobs").set(report.jobs)
        metrics.gauge("replay.parallel_intervals").set(len(outcomes))
        metrics.gauge("replay.parallel_seams_verified").set(
            report.seams_verified)
        metrics.gauge("replay.parallel_wall_us").set(
            round(report.wall_s * 1e6))
    return result, report


def _fan_out(recording: Recording, directory: str | Path | None,
             runs: list[list[Interval]]) -> list:
    """Replay runs 1.. over a pool of ``len(runs) - 1`` workers while the
    caller replays run 0, which needs no restore."""
    global _WORKER_RECORDING, _WORKER_DIRECTORY
    fork = multiprocessing.get_start_method(allow_none=False) == "fork"
    tmp = None
    try:
        if not fork and directory is None:
            tmp = tempfile.TemporaryDirectory(prefix="qr-parallel-")
            recording.save(tmp.name)
            directory = tmp.name
        _WORKER_RECORDING = recording if fork else None
        _WORKER_DIRECTORY = str(directory) if directory is not None else None
        specs = [(run, index == len(runs) - 1)
                 for index, run in enumerate(runs) if index]
        with multiprocessing.Pool(processes=len(specs)) as pool:
            rest = pool.map_async(_pool_replay_run, specs, chunksize=1)
            first = _replay_run(recording, runs[0], False)
            return [first, *rest.get()]
    finally:
        _WORKER_RECORDING = None
        _WORKER_DIRECTORY = None
        if tmp is not None:
            tmp.cleanup()
