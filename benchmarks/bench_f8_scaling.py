"""F8 — thread-count scaling.

Full-stack overhead and chunk production across thread counts, for one
sharing-heavy and one compute-heavy workload, at every machine size named
by ``REPRO_BENCH_F8_CORES`` (default ``8,16,32,64`` — the many-core
scaling ladder; trim the list for a quick run).

Paper shape: recording overhead stays roughly flat with thread count,
while chunk (and thus log) production grows with communication.
"""

import os

from repro.analysis.report import render_table
from repro.config import MachineConfig, SimConfig

from conftest import BenchSuite, publish

CORE_COUNTS = tuple(
    int(cores) for cores in
    os.environ.get("REPRO_BENCH_F8_CORES", "8,16,32,64").split(","))
NAMES = ("water", "barnes")


def chunk_rate_per_kilo_instruction(chunks: int, instructions: int) -> float:
    """Chunks produced per thousand recorded instructions: the log
    production rate the ladder tracks."""
    return 1000.0 * chunks / instructions if instructions else 0.0


def machine_config(cores: int) -> SimConfig:
    return SimConfig(machine=MachineConfig(num_cores=cores))


def thread_points(cores: int) -> tuple[int, ...]:
    """Powers of two from 1 up to the core count."""
    points = []
    threads = 1
    while threads <= cores:
        points.append(threads)
        threads *= 2
    return tuple(points)


def test_f8_thread_scaling(benchmark, suite: BenchSuite):
    def measure():
        out = {}
        for cores in CORE_COUNTS:
            config = machine_config(cores)
            for name in NAMES:
                for threads in thread_points(cores):
                    out[(name, cores, threads)] = suite.overhead(
                        name, threads=threads, config=config)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for (name, cores, threads), result in sorted(results.items()):
        recording = result.full.recording
        rows.append((name, cores, threads, result.native.instructions,
                     100 * result.full_overhead, len(recording.chunks),
                     chunk_rate_per_kilo_instruction(
                         len(recording.chunks), result.full.instructions)))
    table = render_table(
        ("workload", "cores", "threads", "instructions", "full ovh %",
         "chunks", "chunks/ki"),
        rows, title="F8: scaling with thread count "
                    f"(cores: {', '.join(map(str, CORE_COUNTS))})")
    publish("f8_scaling", table)

    def chunk_rate(result):
        return chunk_rate_per_kilo_instruction(
            len(result.full.recording.chunks), result.full.instructions)

    for cores in CORE_COUNTS:
        top = thread_points(cores)[-1]
        for name in NAMES:
            single = results[(name, cores, 1)]
            most = results[(name, cores, top)]
            # communication (chunk production) grows with threads
            assert chunk_rate(most) > chunk_rate(single)
            # overhead stays in the same regime rather than exploding —
            # calibrated at the original 8-thread point; past it chunk
            # production (and with it recording cost) legitimately grows
            # with communication
            eight = results[(name, cores, min(8, top))]
            assert eight.full_overhead < 6 * max(single.full_overhead, 0.02)
