"""F3 — log generation rates.

Bytes per kilo-instruction for the chunk (memory) log — raw (QRCL v1, the
packed 128-bit entry) and compressed (QRCL v2, columnar delta-varint +
zlib) — and the input log, plus aggregate MB/s at the QuickIA core
frequency.

Paper shape: memory-log generation is "insignificant" (a few bytes per
kilo-instruction, far below memory bandwidth); the input log dominates for
I/O-heavy workloads.
"""

from repro.analysis.logs import log_rates
from repro.analysis.report import render_table

from conftest import MICROS, SPLASH, BenchSuite, publish


def test_f3_log_rates(benchmark, suite: BenchSuite):
    def measure():
        return [log_rates(suite.record(name), name=name)
                for name in SPLASH + MICROS]

    rates = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for rate in rates:
        rows.append((
            rate.name,
            rate.chunk_entries,
            rate.chunk_bytes_per_kiloinstruction,
            rate.chunk_compressed_per_kiloinstruction,
            rate.input_bytes_per_kiloinstruction,
            rate.mbytes_per_second(),
        ))
    table = render_table(
        ("workload", "chunks", "chunk B/ki", "compressed B/ki",
         "input B/ki", "MB/s @60MHz"),
        rows, title="F3: log generation rate")
    publish("f3_lograte", table)

    for rate in rates:
        # compression must always win, by a wide margin
        assert rate.chunk_bytes_v2 < rate.chunk_bytes_raw / 3
    # compute-dominated workloads carry the paper's "insignificant" claim:
    # well under one byte of memory log per instruction
    for name in ("barnes", "ocean", "fft", "lu", "raytrace"):
        rate = next(r for r in rates if r.name == name)
        assert rate.chunk_bytes_per_kiloinstruction < 200, name
        assert rate.chunk_compressed_per_kiloinstruction < 30, name
    iobound = next(rate for rate in rates if rate.name == "iobound")
    barnes = next(rate for rate in rates if rate.name == "barnes")
    assert iobound.input_bytes_per_kiloinstruction > \
        barnes.input_bytes_per_kiloinstruction
