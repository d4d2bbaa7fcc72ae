"""A3 — TSO handling ablation: RSW logging vs drain-on-termination.

QuickRec logs the reordered-store window instead of stalling chunk
termination until the store buffer drains. This bench records the same
workloads in both modes and reports the measurable structural differences:

- RSW mode leaves stores in flight across boundaries (nonzero RSW field);
- DRAIN mode empties the buffer at every *self-initiated* termination —
  but a snoop-cut victim sits inside the requester's coherence
  transaction, where issuing its own drain transactions is not
  implementable, so conflict-cut chunks fall back to RSW logging anyway.
  That asymmetry IS the finding: on conflict-dominated workloads (water)
  the two modes converge, and a pure stall-until-drained design cannot
  exist — which is why QuickRec logs the window. On size-cut-dominated
  workloads (barnes with a small chunk cap) DRAIN visibly eliminates
  pending stores.

What the functional simulator additionally does not model is DRAIN's
latency cost: the terminating core stalls on the full drain. See
EXPERIMENTS.md.
"""

from repro import session
from repro.analysis.chunks import rsw_stats
from repro.analysis.report import render_table
from repro.config import (
    MachineConfig,
    MRRConfig,
    SimConfig,
    StoreBufferConfig,
    TsoMode,
)
from repro.mrr.chunk import Reason

from conftest import BenchSuite, publish

_SB = StoreBufferConfig(entries=12, drain_period=12)
# water: conflict-cut dominated; barnes (small chunk cap): size-cut
# dominated, where DRAIN actually gets to drain.
NAMES = ("barnes", "water")


def _config(mode: str) -> SimConfig:
    return SimConfig(machine=MachineConfig(store_buffer=_SB),
                     mrr=MRRConfig(tso_mode=mode,
                                   max_chunk_instructions=256))


def test_a3_tso_mode(benchmark, suite: BenchSuite):
    def measure():
        out = {}
        for name in NAMES:
            for mode in (TsoMode.RSW, TsoMode.DRAIN):
                out[(name, mode)] = suite.record(name, config=_config(mode))
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for (name, mode), outcome in sorted(results.items()):
        chunks = outcome.recording.chunks
        stats = rsw_stats(chunks)
        rows.append((name, mode, len(chunks),
                     100 * stats.fraction_nonzero,
                     outcome.machine_stats["bus"]["transactions"],
                     outcome.recording.chunk_log_bytes(version=2)))
    table = render_table(
        ("workload", "tso mode", "chunks", "RSW>0 %", "bus txns",
         "log bytes (comp)"),
        rows, title="A3: RSW logging vs drain-on-termination")
    publish("a3_tso_mode", table)

    for name in NAMES:
        rsw_run = results[(name, TsoMode.RSW)]
        drain_run = results[(name, TsoMode.DRAIN)]
        # drain mode empties the SB at self-initiated cuts; only snoop-cut
        # (conflict) chunks may still carry pending stores
        for chunk in drain_run.recording.chunks:
            if chunk.rsw:
                assert chunk.reason in Reason.CONFLICTS
        assert any(chunk.rsw > 0 for chunk in rsw_run.recording.chunks)
        drain_nonzero = sum(1 for c in drain_run.recording.chunks if c.rsw)
        rsw_nonzero = sum(1 for c in rsw_run.recording.chunks if c.rsw)
        assert drain_nonzero <= rsw_nonzero
        # user-visible execution is identical in both modes
        assert rsw_run.outputs == drain_run.outputs
        assert rsw_run.exit_codes == drain_run.exit_codes
        # and both recordings replay faithfully
        for run in (rsw_run, drain_run):
            replayed = session.replay_recording(run.recording)
            assert session.verify(run, replayed).ok

    # where size cuts dominate (barnes + small cap), DRAIN visibly drains
    barnes_rsw = results[("barnes", TsoMode.RSW)].recording.chunks
    barnes_drain = results[("barnes", TsoMode.DRAIN)].recording.chunks
    assert (sum(1 for c in barnes_drain if c.rsw)
            < sum(1 for c in barnes_rsw if c.rsw))
