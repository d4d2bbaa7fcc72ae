"""T4 — log bandwidth: v1 (row-packed) vs v2 (columnar) codecs.

The rr lineage of the v2 formats: columnar delta-varint fields, a
content-keyed pool for duplicate copy payloads, streaming zlib. This
bench measures the size of the *same* recording serialized both ways —
the compression ratio is the whole argument for the format — plus the
size and throughput of the page-sparse checkpoint section on a
checkpointed ``fft`` recording.
"""

import time

from repro.analysis.logs import log_rates
from repro.analysis.report import render_table
from repro.mrr.logfmt import decode_checkpoints, encode_checkpoints
from repro.session import add_checkpoints

from conftest import MICROS, SPLASH, BenchSuite, publish


def test_t4_log_bandwidth(benchmark, suite: BenchSuite):
    def measure():
        return [log_rates(suite.record(name), name=name)
                for name in SPLASH + MICROS]

    rates = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for rate in rates:
        rows.append((
            rate.name,
            rate.chunk_bytes_raw,
            rate.chunk_bytes_v2,
            f"{rate.chunk_compression_ratio:.1f}x",
            rate.input_bytes,
            rate.input_bytes_v2,
            f"{rate.input_compression_ratio:.1f}x",
        ))
    table = render_table(
        ("workload", "chunk v1 B", "chunk v2 B", "ratio",
         "input v1 B", "input v2 B", "ratio"),
        rows, title="T4: log bytes, v1 (row-packed) vs v2 (columnar)")
    publish("t4_logbandwidth", table)
    for rate in rates:
        assert rate.chunk_bytes_v2 <= rate.chunk_bytes_raw
        assert rate.input_bytes_v2 <= rate.input_bytes


def test_t4_checkpoint_codec(benchmark, suite: BenchSuite):
    # 16 checkpoint intervals, as in the repository benchmark's splash mix
    recording = suite.record("fft").recording.replace()
    add_checkpoints(recording, max(1, -(-len(recording.chunks) // 16)))
    records = recording.checkpoints
    raw = sum(len(record.payload) for record in records)

    blob = benchmark(lambda: encode_checkpoints(records))
    start = time.perf_counter()
    encode_checkpoints(records)
    encode_s = time.perf_counter() - start
    start = time.perf_counter()
    decoded = decode_checkpoints(blob)
    decode_s = time.perf_counter() - start
    assert decoded == records

    table = render_table(
        ("workload", "checkpoints", "raw MB", "section B", "ratio",
         "encode MB/s", "decode MB/s"),
        [("fft", len(records), f"{raw / 1e6:.1f}", len(blob),
          f"{raw / len(blob):.0f}x", f"{raw / encode_s / 1e6:.0f}",
          f"{raw / decode_s / 1e6:.0f}")],
        title="T4: checkpoint section (QRCK v2, page-sparse)")
    publish("t4_checkpoints", table)
