"""Workload mixes and the record -> save -> load -> replay -> analyze pipeline.

One *iteration* runs every stage on every program of a workload's mix, in
order. It times each stage on the host clock, and times the host-speed
kernel (:mod:`hostspeed`) right before and after it. Every stage of every
program is one *operation*. An operation fails if it raises or if its
check fails. Checks run outside the timed region:

- ``record``: :func:`repro.perf.bench.digest_of` equals the first
  iteration's (and, at the end, the modelled full-stack run's);
- ``checkpoint``: one checkpoint per interval seam was embedded;
- ``save``: every section file has the first iteration's size;
- ``load``: the decoded sections equal the in-memory recording's;
- ``replay``: ``session.verify`` passes against the recorded end state,
  and the digest equals the first iteration's (and, at the end, a replay
  of the in-memory recording);
- ``replay_par``: the parallel digest equals the serial one and every
  seam was verified;
- ``analyze``: the race and HB summary equals the first iteration's and
  the HB graph has no anomalies.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import session, workloads
from repro.capo.recording import Recording
from repro.forensics.races import analyze_recording
from repro.mrr.chunk import Reason
from repro.perf.bench import digest_of
from repro.perf.overhead import measure_overhead
from repro.replay.parallel import replay_parallel

from hostspeed import reference_kernel_s


@dataclass(frozen=True)
class Mix:
    """A workload: a fixed program mix on the default 4-core snooping
    machine. ``bundle_checkpoints`` embeds the checkpoints in the saved
    bundle; otherwise the checkpoint and parallel stages run on a clone
    and the bundle stays checkpoint-free."""

    programs: tuple[tuple[str, int], ...]
    bundle_checkpoints: bool


MIXES: dict[str, Mix] = {
    # Long chunks: per-unit engine work, withheld-store resolution,
    # checkpoint capture and the checkpoint codec dominate.
    "splash": Mix((("fft", 2), ("lu", 1), ("radix", 1)), True),
    # Short chunks: recorder, signatures, order log and chunk codec.
    "contended": Mix((("pingpong", 8), ("locks", 2)), False),
    # Many input events: kernel, RSM input logging and the input codec.
    "syscall": Mix((("iobound", 8), ("sigping", 8)), False),
}

#: Checkpoint intervals per recording (15 embedded checkpoints).
CHECKPOINT_INTERVALS = 16

#: Worker processes for the parallel replay stage.
JOBS = min(2, os.cpu_count() or 1)

STAGES = ("record", "checkpoint", "save", "load", "replay", "replay_par",
          "analyze")

#: The paper's full-stack software overhead (QuickRec abstract), shown
#: beside the modelled figure; it is the paper's number, not an error
#: bound on the model.
PAPER_FULL_OVERHEAD_PCT = 13.0


def build_mix(mix: Mix) -> list[tuple[str, Any, dict]]:
    return [(name, *workloads.build(name, scale=scale))
            for name, scale in mix.programs]


def checkpoint_every(chunks: int) -> int:
    return max(1, -(-chunks // CHECKPOINT_INTERVALS))


def bundle_sizes(directory: Path) -> dict[str, int]:
    return {entry.name: entry.stat().st_size
            for entry in sorted(directory.iterdir())}


class StageFailed(Exception):
    """A stage's check failed."""


@dataclass
class Iteration:
    """One pass of the pipeline over the mix."""

    #: Stage times per program: {program: {stage: seconds}}.
    program_s: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Reference-kernel time around each stage: {program: {stage: s}}.
    kernel_s: dict[str, dict[str, float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Per program: outcomes and sizes the metrics are derived from.
    facts: dict[str, dict] = field(default_factory=dict)
    #: Per-stage tracer deltas (traced iterations only).
    deltas: dict[str, dict] = field(default_factory=dict)

    def record(self, program: str, stage: str, seconds: float,
               kernel: float) -> None:
        self.program_s.setdefault(program, {})[stage] = seconds
        self.kernel_s.setdefault(program, {})[stage] = kernel


class Pipeline:
    """Runs iterations of one mix at one seed and checks every stage.

    ``expected`` holds what the first iteration produced per program; all
    later iterations (traced or not) must reproduce it exactly.
    """

    def __init__(self, mix: Mix, seed: int, workdir: Path):
        self.mix = mix
        self.seed = seed
        self.workdir = workdir
        self.programs = build_mix(mix)
        self.expected: dict[str, dict] = {}
        self.tracer = None

    # -- one iteration -------------------------------------------------------

    def iterate(self, index: int, tracer=None) -> Iteration:
        self.tracer = tracer
        it = Iteration()
        for name, program, inputs in self.programs:
            if tracer is None:
                self._run_program(it, index, name, program, inputs)
                continue
            # The parent span of this program's stage spans; all of them
            # share the trace id.
            with tracer.span(f"program:{name}", _trace_id(name, self.seed,
                                                          index)):
                self._run_program(it, index, name, program, inputs)
        return it

    def _timed(self, it: Iteration, stage: str, program: str, trace_id: str,
               fn):
        """Time ``fn`` as ``stage`` of ``program``; traced iterations also
        record a span and accumulate the stage's tracer deltas."""
        # A full collection first resets the collector's allocation
        # counts, so the collections a stage triggers fall at the same
        # points in every iteration and are charged to the stage whose
        # allocations caused them, not to whichever stage came next.
        gc.collect()
        tracer = self.tracer
        before = reference_kernel_s()
        if tracer is None:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            it.record(program, stage, elapsed,
                      (before + reference_kernel_s()) / 2)
            return result
        snap = tracer.snapshot()
        with tracer.span(f"{stage}:{program}", trace_id):
            tracer.on = True
            try:
                start = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - start
            finally:
                tracer.on = False
        it.record(program, stage, elapsed,
                  (before + reference_kernel_s()) / 2)
        totals = it.deltas.setdefault(stage, {})
        for key, (calls, incl, self_s) in tracer.delta(
                snap, tracer.snapshot()).items():
            c0, i0, s0 = totals.get(key, (0, 0.0, 0.0))
            totals[key] = (c0 + calls, i0 + incl, s0 + self_s)
        return result

    def _run_program(self, it: Iteration, index: int, name: str, program,
                     inputs: dict) -> None:
        trace_id = _trace_id(name, self.seed, index)
        expect = self.expected.setdefault(name, {})
        live: dict[str, Any] = {}
        bundle = self.workdir / f"{name}-{index}"
        stages = STAGES + (("interval_probe",) if self.tracer else ())
        done = 0
        try:
            for stage in stages:
                it.attempted += 1
                check = self._stage(it, stage, name, program, inputs,
                                    trace_id, bundle, live, expect)
                if check is not None:
                    raise StageFailed(check)
                done += 1
        except Exception as exc:  # a failed operation, counted and reported
            # The stages after a failed one cannot run: count them too.
            it.attempted += len(stages) - done - 1
            it.failed += len(stages) - done
            it.failures.append(f"{name}: {stages[done]}: "
                               f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(bundle, ignore_errors=True)
        it.facts[name] = _summarize(live)

    def _stage(self, it, stage, name, program, inputs, trace_id, bundle,
               live, expect) -> str | None:
        """Run one timed stage and return a failure message, or None when
        its check passes. ``live`` carries this program's stage outputs
        to the later stages."""
        def timed(fn):
            return self._timed(it, stage, name, trace_id, fn)

        if stage == "record":
            outcome = timed(lambda: session.record(
                program, seed=self.seed, input_files=inputs))
            live["outcome"] = outcome
            return _same(expect, "record_digest", digest_of(outcome))
        outcome = live["outcome"]
        recording = outcome.recording
        if stage == "checkpoint":
            target = recording if self.mix.bundle_checkpoints \
                else recording.replace()
            every = checkpoint_every(len(recording.chunks))
            timed(lambda: session.add_checkpoints(target, every))
            live["par_source"] = target
            want = (len(recording.chunks) - 1) // every
            if len(target.checkpoints) != want:
                return f"{len(target.checkpoints)} checkpoints, want {want}"
            return None
        if stage == "save":
            timed(lambda: recording.save(bundle))
            live["sizes"] = bundle_sizes(bundle)
            return _same(expect, "sizes", live["sizes"])
        if stage == "load":
            def load():
                loaded = Recording.load(bundle)
                # first access of every lazy section
                loaded.chunks, loaded.events, loaded.checkpoints
                return loaded
            loaded = timed(load)
            live["loaded"] = loaded
            if loaded.chunks != recording.chunks \
                    or loaded.events != recording.events \
                    or loaded.checkpoints != recording.checkpoints:
                return "loaded sections differ from the recording"
            return None
        if stage == "replay":
            replayed = timed(lambda: session.replay_recording(live["loaded"]))
            live["replayed"] = replayed
            report = session.verify(outcome, replayed)
            if not report.ok:
                return f"replay does not match the recording: {report}"
            return _same(expect, "replay_digest", replayed.digest())
        if stage == "replay_par":
            source = live["par_source"]
            if self.mix.bundle_checkpoints:
                source = live["loaded"]
            # Spawned workers (non-fork hosts) reload the bundle, which
            # holds the checkpoints only when the mix embeds them.
            directory = bundle if self.mix.bundle_checkpoints else None
            result, report = timed(lambda: replay_parallel(
                recording=source, directory=directory, jobs=JOBS))
            live["par"] = report
            if result.digest() != live["replayed"].digest():
                return "parallel replay digest differs from serial"
            if report.seams_verified != len(report.intervals) - 1:
                return (f"{report.seams_verified} seams verified of "
                        f"{len(report.intervals) - 1}")
            return None
        if stage == "analyze":
            report, graph = timed(lambda: analyze_recording(live["loaded"]))
            summary = {"races": len(report.races),
                       "accesses": report.stats["accesses"],
                       "hb_nodes": len(graph),
                       "hb_edges": sum(graph.edge_counts().values())}
            live["analysis"] = summary
            live["graph_edges"] = graph.edge_counts()
            if graph.anomalies:
                return f"HB anomalies: {graph.anomalies[:3]}"
            return _same(expect, "analysis", summary)
        if stage == "interval_probe":
            # Traced runs only: the same intervals walked in-process, so
            # the per-interval fixed costs (restore, validate, seam
            # digests) that forked workers cannot report are traced.
            result, _report = timed(lambda: replay_parallel(
                recording=live["par_source"], jobs=1))
            if result.digest() != live["replayed"].digest():
                return "in-process interval replay digest differs"
            return None
        raise AssertionError(stage)

    # -- the modelled axis and end-of-run checks -----------------------------

    def model(self) -> tuple[dict[str, dict], int, list[str]]:
        """Modelled (simulated) figures per program, from
        ``measure_overhead`` (native, hardware-only and full-stack runs),
        plus the end-of-run checks against the first iteration: two
        operations per program. Returns (per-program figures, failed
        operations, failure messages)."""
        figures: dict[str, dict] = {}
        failed = 0
        failures: list[str] = []
        for name, program, inputs in self.programs:
            expect = self.expected.get(name, {})
            try:
                result = measure_overhead(program, seed=self.seed,
                                          input_files=inputs, name=name)
                in_memory = session.replay_recording(result.full.recording)
            except Exception as exc:  # counted as a failed operation
                failed += 2
                failures.append(f"{name}: model: {type(exc).__name__}: {exc}")
                continue
            if digest_of(result.full) != expect.get("record_digest"):
                failed += 1
                failures.append(f"{name}: model: full-stack digest differs "
                                "from the timed recordings")
            if in_memory.digest() != expect.get("replay_digest"):
                failed += 1
                failures.append(f"{name}: replay_mem: loaded-bundle replay "
                                "differs from the in-memory replay")
            stats = result.full.rsm_stats or {}
            figures[name] = {
                "native_cycles": result.native.total_cycles,
                "hw_pct": 100.0 * result.hw_overhead,
                "full_pct": 100.0 * result.full_overhead,
                **{key: stats.get(key, 0) for key in (
                    "cycles_interpose", "cycles_input_log",
                    "cycles_cbuf_drain", "cycles_ctx_flush")},
            }
        return figures, failed, failures

    def determinism_digest(self) -> str:
        acc = hashlib.sha256()
        for name in sorted(self.expected):
            expect = self.expected[name]
            acc.update(name.encode())
            acc.update(str(expect.get("record_digest")).encode())
            acc.update(str(expect.get("replay_digest")).encode())
            acc.update(repr(sorted(expect.get("analysis", {}).items()))
                       .encode())
        return acc.hexdigest()


def _trace_id(program: str, seed: int, index: int) -> str:
    return f"{program}/seed{seed}/iter{index}"


def _same(expect: dict, key: str, value) -> str | None:
    """First iteration sets ``expect[key]``; later ones must match it."""
    if key not in expect:
        expect[key] = value
        return None
    if expect[key] != value:
        return f"{key} differs from the first iteration"
    return None


def _summarize(live: dict) -> dict[str, Any]:
    """The plain numbers the metrics need from one program's chain, so the
    heavy objects (recordings, checkpoints) are released after it."""
    facts: dict[str, Any] = {"sizes": live.get("sizes", {})}
    outcome = live.get("outcome")
    if outcome is not None:
        machine = outcome.machine_stats
        caches = [core["cache"] for core in machine["cores"]]
        chunks = outcome.recording.chunks
        facts.update(
            instructions=outcome.instructions,
            units=outcome.units,
            chunks=len(chunks),
            events=len(outcome.recording.events),
            terminations={reason: sum(1 for c in chunks if c.reason == reason)
                          for reason in Reason.ALL},
            cache_hits=sum(c["read_hits"] + c["write_hits"] for c in caches),
            cache_accesses=sum(c["read_hits"] + c["write_hits"]
                               + c["read_misses"] + c["write_misses"]
                               for c in caches),
            bus={key: machine["bus"][key] for key in (
                "transactions", "notifies_sent", "notifies_saved")},
            kernel={key: outcome.kernel_stats[key] for key in (
                "syscalls", "signals_delivered", "context_switches")},
        )
    if "par_source" in live:
        facts["checkpoints"] = len(live["par_source"].checkpoints)
    if "replayed" in live:
        facts["replay_chunks"] = live["replayed"].stats.chunks
    if "par" in live:
        intervals = live["par"].intervals
        facts["par"] = {
            "intervals": len(intervals),
            "interval_max_s": max(o.wall_s for o in intervals),
            "units": sum(o.units for o in intervals),
            "largest_units": max(o.units for o in intervals),
        }
    if "analysis" in live:
        facts["analysis"] = live["analysis"]
    return facts


# -- metrics ----------------------------------------------------------------

def sim_metrics(it: Iteration, figures: dict[str, dict]) -> dict[str, float]:
    """The deterministic end-to-end figures of one iteration plus the
    modelled overheads (mean over the mix's programs)."""
    facts = it.facts.values()
    instructions = sum(f["instructions"] for f in facts)
    log_bytes = sum(f["sizes"]["chunks.bin"] + f["sizes"]["input.bin"]
                    for f in facts)
    return {
        "bundle_bytes": sum(sum(f["sizes"].values()) for f in facts),
        "log_bytes_per_kinstr": 1000.0 * log_bytes / instructions,
        "overhead_hw_pct": statistics.mean(
            fig["hw_pct"] for fig in figures.values()),
        "overhead_full_pct": statistics.mean(
            fig["full_pct"] for fig in figures.values()),
    }
