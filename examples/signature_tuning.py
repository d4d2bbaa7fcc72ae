#!/usr/bin/env python3
"""Tune the MRR's Bloom signatures and watch chunks change shape.

Sweeps signature width on a large-footprint workload (ocean) with a long
scheduling quantum so chunks are free to grow: narrow signatures saturate
and alias (false conflicts), cutting chunks early and inflating the chunk
log; every configuration still replays exactly, because Bloom filters
never false-negative.

Run:  python examples/signature_tuning.py
"""

from repro import session, workloads
from repro.analysis.chunks import chunk_size_stats, termination_breakdown
from repro.analysis.report import render_table
from repro.config import KernelConfig, MRRConfig, SimConfig
from repro.mrr.chunk import Reason


def main() -> None:
    program, inputs = workloads.build("ocean", scale=3)
    rows = []
    for bits in (32, 64, 128, 256, 512, 1024):
        config = SimConfig(
            mrr=MRRConfig(signature_bits=bits),
            kernel=KernelConfig(quantum_instructions=20_000),
        )
        outcome, _replayed, report = session.record_and_replay(
            program, seed=3, config=config, input_files=inputs)
        assert report.ok, f"{bits}-bit run failed to replay!"
        recording = outcome.recording
        stats = chunk_size_stats(recording.chunks)
        breakdown = termination_breakdown(recording.chunks)
        conflicts = sum(breakdown.get(r, 0.0) for r in Reason.CONFLICTS)
        rows.append((bits, stats.count, stats.mean,
                     100 * conflicts,
                     100 * breakdown.get(Reason.SATURATION, 0.0),
                     recording.chunk_log_bytes(version=2)))
        print(f"  {bits:>5}-bit signatures: {stats.count} chunks, "
              f"replay verified")

    print()
    print(render_table(
        ("sig bits", "chunks", "mean chunk", "conflict cut %",
         "saturation cut %", "log bytes"),
        rows, title="Bloom signature width vs chunking (ocean)"))
    print("\nnarrow filters alias and saturate -> more, smaller chunks and "
          "a bigger log; correctness is unaffected because a Bloom filter "
          "only ever errs toward extra terminations.")


if __name__ == "__main__":
    main()
