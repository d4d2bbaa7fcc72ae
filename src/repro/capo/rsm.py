"""The Replay Sphere Manager.

The RSM is Capo3's kernel-side core: it owns the recorders, the chunk
buffers and the logs, and it is invoked by the kernel at every crossing.
Two modes:

- ``hw``   — the MRR runs and chunk entries are buffered/drained, but no
  input logging and no software cycle charges. This is the "recording
  hardware only" configuration of the paper's overhead figure: its cost is
  just the CBUF entry traffic.
- ``full`` — the complete Capo3 stack: input logging (with per-event and
  per-byte charges), CBUF drain interrupts, syscall interposition and
  context-switch flush costs. This is the configuration whose overhead the
  paper reports at ~13% on average.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimConfig
from ..errors import RecordingError
from ..machine.machine import Core, Machine
from ..mrr.chunk import ChunkEntry, Reason
from ..mrr.recorder import MemoryRaceRecorder
from ..telemetry import get_logger
from .chunk_buffer import ChunkBuffer
from .events import (
    EV_EXIT,
    EV_NONDET,
    EV_SIGNAL,
    EV_SIGRETURN,
    EV_SYSCALL,
    KINDS,
    InputEvent,
)
from .sphere import ReplaySphere

MODE_HW = "hw"
MODE_FULL = "full"
MODES = (MODE_HW, MODE_FULL)

logger = get_logger("capo.rsm")


@dataclass
class RSMStats:
    chunks: int = 0
    input_events: int = 0
    input_payload_bytes: int = 0
    #: Payload bytes whose content was already in the recording's pool
    #: (copy avoidance: stored once, referenced again).
    input_payload_dedup_bytes: int = 0
    #: Batched-logging buffer drains (0 on the per-event path).
    input_batch_flushes: int = 0
    cbuf_drains: int = 0
    cycles_interpose: int = 0
    cycles_input_log: int = 0
    cycles_cbuf_drain: int = 0
    cycles_ctx_flush: int = 0
    cycles_cbuf_write: int = 0

    @property
    def cycles_software(self) -> int:
        return (self.cycles_interpose + self.cycles_input_log
                + self.cycles_cbuf_drain + self.cycles_ctx_flush)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["cycles_software"] = self.cycles_software
        return out


class ReplaySphereManager:
    """Wires the MRRs into the machine and the kernel."""

    def __init__(self, machine: Machine, config: SimConfig, mode: str = MODE_FULL):
        if mode not in MODES:
            raise RecordingError(f"unknown recording mode {mode!r}")
        self.machine = machine
        self.config = config
        self.mode = mode
        self.sphere = ReplaySphere()
        self.chunk_log: list[ChunkEntry] = []
        self.events: list[InputEvent] = []
        # Bounded-retention mode: when a FlightRing is attached (see
        # attach_flight), the ring becomes the retention authority —
        # chunks and events flow into it instead of the unbounded
        # chunk_log/events lists. Execution, logging *content* and every
        # cycle charge are identical either way.
        self.flight = None
        self.stats = RSMStats()
        self.telemetry = machine.telemetry
        # Hoisted enablement flag: the interposition paths run per kernel
        # event, so they read a plain attribute rather than chasing the
        # telemetry object (zero-cost-when-disabled contract).
        self._tm_on = self.telemetry.enabled
        self._seq = 0
        # rr-style batched input logging: events stage in per-thread
        # buffers of ``input_batch_events`` entries and drain at
        # chunk/kernel boundaries (and finalize), amortizing the per-event
        # interposition charge across each batch. 0 = per-event path.
        self._batch_size = config.capo.input_batch_events
        self._batched = self._batch_size > 0
        self._event_buffers: dict[int, list[InputEvent]] = {}
        # Copy avoidance: content-keyed pool of copy payloads. Identical
        # syscall buffers are stored once and shared by every event that
        # carries them (and, in batched mode, re-copies are charged at the
        # cheaper duplicate rate).
        self._payload_pool: dict[bytes, bytes] = {}
        self._cbufs: list[ChunkBuffer] = []
        self.recorders: list[MemoryRaceRecorder] = []
        for core in machine.cores:
            cbuf = ChunkBuffer(config.mrr.cbuf_entries,
                               self._make_drain_handler(core))
            self._cbufs.append(cbuf)
            recorder = MemoryRaceRecorder(config.mrr, core,
                                          self._make_sink(core, cbuf),
                                          telemetry=machine.telemetry)
            self.recorders.append(recorder)
            machine.attach_recorder(core.core_id, recorder)
        if self._tm_on:
            metrics = self.telemetry.metrics
            self._tm_drains = metrics.counter("capo.cbuf_drains")
            self._tm_batch = metrics.histogram("capo.cbuf_batch_entries")
            self._tm_events = metrics.counter("capo.input_events")
            self._tm_payload = metrics.counter("capo.input_payload_bytes")
            self._tm_threads = metrics.counter("capo.sphere_threads")
            self._tm_flushes = metrics.counter("capo.input_batch_flushes")
            self._tm_dedup = metrics.counter("capo.input_payload_dedup_bytes")
            # Pre-created per-kind counters: the logging hot path indexes
            # this dict instead of paying a registry lookup (and an f-string
            # format) per event.
            self._tm_kind = {kind: metrics.counter(f"capo.input_events.{kind}")
                             for kind in KINDS}

    # -- wiring ---------------------------------------------------------------

    def attach_flight(self, ring) -> None:
        """Switch to bounded retention through ``ring``
        (:class:`~repro.flight.ring.FlightRing`). Must be attached before
        the run starts."""
        self.flight = ring

    def _make_sink(self, core: Core, cbuf: ChunkBuffer):
        cost = self.machine.cost

        def sink(entry: ChunkEntry) -> None:
            self.sphere.note_chunk(entry.rthread)
            self.stats.chunks += 1
            core.cycles += cost.cbuf_entry_write
            self.stats.cycles_cbuf_write += cost.cbuf_entry_write
            if self.flight is not None:
                # Sink calls happen at termination under the fabric's
                # serialized order clock, so ring arrivals are already in
                # global schedule order (the CBUF drain below is not).
                self.flight.push_chunk(entry)
            cbuf.append(entry)

        return sink

    def _make_drain_handler(self, core: Core):
        cost = self.machine.cost

        def on_drain(batch: list[ChunkEntry]) -> None:
            if self.flight is None:
                self.chunk_log.extend(batch)
            self.stats.cbuf_drains += 1
            if self.mode == MODE_FULL:
                charge = (cost.cbuf_drain_interrupt
                          + cost.cbuf_drain_per_entry * len(batch))
                core.cycles += charge
                self.stats.cycles_cbuf_drain += charge
                if self._batched:
                    # The drain interrupt already runs RSM code: piggyback
                    # the staged input events of every thread (a chunk
                    # boundary is a batch boundary).
                    for rthread in list(self._event_buffers):
                        self._flush_events(rthread, core)
            if self._tm_on:
                self._tm_drains.inc()
                self._tm_batch.observe(len(batch))
                self.telemetry.tracer.instant(
                    "cbuf.drain", cat="capo", tid=core.core_id,
                    args={"entries": len(batch),
                          "log_chunks": len(self.chunk_log)})

        return on_drain

    # -- thread lifecycle ---------------------------------------------------------

    def thread_started(self, task) -> None:
        self.sphere.register(task.rthread)
        if self._tm_on:
            self._tm_threads.inc()
            self.telemetry.tracer.instant(
                "sphere.thread_started", cat="capo", tid=task.rthread)
            self.telemetry.tracer.thread_name(
                task.rthread, f"rthread {task.rthread}")

    # -- kernel crossings ------------------------------------------------------------

    def on_kernel_entry(self, core: Core, task, reason: str) -> None:
        core.recorder.terminate(reason)
        if self.mode != MODE_FULL:
            return
        cost = self.machine.cost
        if reason in (Reason.SYSCALL, Reason.EXIT):
            core.cycles += cost.rsm_syscall_interpose
            self.stats.cycles_interpose += cost.rsm_syscall_interpose
        elif reason == Reason.NONDET:
            core.cycles += cost.rsm_nondet_interpose
            self.stats.cycles_interpose += cost.rsm_nondet_interpose

    def on_dispatch(self, core: Core, task) -> None:
        core.recorder.set_thread(task.rthread)

    def on_undispatch(self, core: Core, task) -> None:
        core.recorder.clear_thread()
        if self.mode == MODE_FULL:
            cost = self.machine.cost
            core.cycles += cost.context_switch_flush
            self.stats.cycles_ctx_flush += cost.context_switch_flush
            if self._batched:
                # Kernel boundary: the departing thread's staged events
                # drain with the context-switch flush.
                self._flush_events(task.rthread, core)

    # -- input logging -----------------------------------------------------------------

    def _flush_events(self, rthread: int, core: Core | None) -> None:
        """Drain one thread's staged events into the log (batched mode)."""
        buffer = self._event_buffers.get(rthread)
        if not buffer:
            return
        if self.flight is None:
            self.events.extend(buffer)
        drained = len(buffer)
        buffer.clear()
        charge = self.machine.cost.input_log_flush
        if core is not None:
            core.cycles += charge
        self.stats.cycles_input_log += charge
        self.stats.input_batch_flushes += 1
        if self._tm_on:
            self._tm_flushes.inc()
            self.telemetry.tracer.instant(
                "input.flush", cat="capo", tid=rthread,
                args={"events": drained})

    def _log(self, event: InputEvent, core: Core | None,
             fresh_payload_bytes: int | None = None) -> None:
        if self.mode != MODE_FULL:
            return
        payload_bytes = event.payload_bytes
        fresh = payload_bytes if fresh_payload_bytes is None \
            else fresh_payload_bytes
        stats = self.stats
        stats.input_events += 1
        stats.input_payload_bytes += payload_bytes
        stats.input_payload_dedup_bytes += payload_bytes - fresh
        if self.flight is not None:
            # Tap before batching: _log is called in kernel seq order,
            # batch flushes are not, and a window event must reach the
            # ring before the chunk needing it could ever be evicted.
            self.flight.push_event(event)
        cost = self.machine.cost
        if self._batched:
            # Stage into the per-thread buffer; the interposition charge is
            # amortized by _flush_events. Copy avoidance: only content not
            # already pooled pays the full per-byte copy-out.
            buffer = self._event_buffers.get(event.rthread)
            if buffer is None:
                buffer = self._event_buffers[event.rthread] = []
            buffer.append(event)
            charge = (cost.input_log_event_batched
                      + cost.input_log_per_byte * fresh
                      + cost.input_log_dup_per_byte * (payload_bytes - fresh))
            full = len(buffer) >= self._batch_size
        else:
            if self.flight is None:
                self.events.append(event)
            charge = (cost.input_log_event
                      + cost.input_log_per_byte * payload_bytes)
            full = False
        if core is not None:
            core.cycles += charge
        stats.cycles_input_log += charge
        if self._tm_on:
            self._tm_events.inc()
            self._tm_payload.inc(payload_bytes)
            self._tm_dedup.inc(payload_bytes - fresh)
            self._tm_kind[event.kind].inc()
            self.telemetry.tracer.instant(
                f"input:{event.kind}", cat="capo", tid=event.rthread,
                args={"seq": event.seq, "chunk_seq": event.chunk_seq,
                      "payload_bytes": payload_bytes})
        if full:
            self._flush_events(event.rthread, core)

    def _event(self, task, kind: str, **fields) -> InputEvent:
        self._seq += 1
        return InputEvent(rthread=task.rthread, seq=self._seq,
                          chunk_seq=self.sphere.chunk_count(task.rthread),
                          kind=kind, **fields)

    def _core_of(self, task) -> Core | None:
        if task.core_id is None:
            return None
        return self.machine.cores[task.core_id]

    def _intern_copies(self, copies) -> tuple[tuple, int]:
        """Dedup copy payloads through the content-keyed pool.

        Returns the interned copies and the number of payload bytes whose
        content was *not* already pooled (the bytes that actually have to
        be copied into the log)."""
        if not copies:
            return (), 0
        pool = self._payload_pool
        fresh = 0
        out = []
        for addr, data in copies:
            pooled = pool.get(data)
            if pooled is None:
                pool[data] = pooled = data
                fresh += len(data)
            out.append((addr, pooled))
        return tuple(out), fresh

    def log_syscall(self, task, sysno: int, retval: int,
                    copies: tuple[tuple[int, bytes], ...]) -> None:
        copies, fresh = self._intern_copies(tuple(copies))
        event = self._event(task, EV_SYSCALL, sysno=sysno, value=retval,
                            copies=copies)
        self._log(event, self._core_of(task), fresh_payload_bytes=fresh)

    def log_nondet(self, task, kind: str, value: int) -> None:
        event = self._event(task, EV_NONDET, nondet_kind=kind, value=value)
        self._log(event, self._core_of(task))

    def log_signal(self, task, signo: int) -> None:
        event = self._event(task, EV_SIGNAL, value=signo)
        self._log(event, self._core_of(task))

    def log_sigreturn(self, task) -> None:
        event = self._event(task, EV_SIGRETURN)
        self._log(event, self._core_of(task))

    def log_exit(self, task, code: int) -> None:
        event = self._event(task, EV_EXIT, value=code)
        self._log(event, self._core_of(task))

    # -- finish ---------------------------------------------------------------------------

    def finalize(self) -> None:
        """Flush every CBUF and staged event buffer (end of recording)."""
        for cbuf in self._cbufs:
            cbuf.drain()
        if self._batched:
            for rthread in list(self._event_buffers):
                self._flush_events(rthread, None)
            # Buffers drain at different boundaries per thread, so the
            # global log is flush-ordered; restore the canonical kernel
            # sequence order (seq is globally unique and assigned in
            # append order, so this is exactly the per-event path's log).
            self.events.sort(key=lambda event: event.seq)
        logger.debug(
            "finalized sphere: %d chunks, %d input events, %d payload "
            "bytes, %d CBUF drains, %d software cycles",
            self.stats.chunks, self.stats.input_events,
            self.stats.input_payload_bytes, self.stats.cbuf_drains,
            self.stats.cycles_software)
        if self._tm_on:
            self.telemetry.tracer.instant(
                "rsm.finalize", cat="capo",
                args={"chunks": self.stats.chunks,
                      "input_events": self.stats.input_events})
