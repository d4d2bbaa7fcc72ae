"""The repository benchmark: the record -> save -> load -> replay -> analyze
pipeline, stage by stage, on three workload mixes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload splash --seed 0 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
pipeline untraced and then traced, and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details (per
iteration stage times, digests, failures, spans) are written under
``.perfbench/`` in the repository root. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import REFERENCE_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fresh-interpreter set-up measurements per run (median reported).
SETUP_REPEATS = 7

#: Minimum iterations per timed loop. Untraced runs report medians of at
#: least three; a traced run checks that its counts repeat whenever its
#: budget allows a second traced iteration.
MIN_ITERATIONS = 3
MIN_TRACED = 1

#: Share of ``--seconds`` a traced run spends on untraced iterations.
TRACE_UNTRACED_SHARE = 0.4

E2E_UNITS = {
    "setup_s": "s", "record_s": "s", "checkpoint_s": "s", "save_s": "s",
    "load_s": "s", "replay_s": "s", "replay_par_s": "s", "analyze_s": "s",
    "pipeline_s": "s", "peak_rss_mb": "MiB", "bundle_bytes": "B",
    "log_bytes_per_kinstr": "B/ki", "overhead_hw_pct": "%",
    "overhead_full_pct": "%",
}

#: Per-layer metrics computed from one function's inclusive traced time:
#: metric -> function keys (``module:qualname``) summed.
FUNCTION_TIMES = {
    "machine.decode.build_s": ["repro.machine.decode:decoded_program"],
    "mrr.chunk_encode_s": ["repro.mrr.logfmt:encode_chunks",
                           "repro.mrr.compression:compress_chunks"],
    "mrr.chunk_decode_s": ["repro.mrr.logfmt:decode_chunks",
                           "repro.mrr.compression:decompress_chunks"],
    "mrr.ckpt_encode_s": ["repro.mrr.logfmt:encode_checkpoints"],
    "mrr.ckpt_decode_s": ["repro.mrr.logfmt:decode_checkpoints"],
    "capo.input_encode_s": ["repro.capo.input_log:encode_events"],
    "capo.input_decode_s": ["repro.capo.input_log:decode_events"],
    "replay.schedule.validate_s": ["repro.replay.schedule:validate_schedule"],
    "replay.ckpt.capture_s": ["repro.replay.checkpoint:capture_state"],
    "replay.ckpt.digest_s": ["repro.replay.checkpoint:state_digest",
                             "repro.mrr.logfmt:CheckpointRecord.for_payload"],
    "forensics.detect_s": ["repro.forensics.races:detect_races"],
    "forensics.hb_build_s": ["repro.forensics.hb:build_hb_graph"],
}

#: Measured on the in-process interval walk (traced runs only).
PROBE_TIMES = {
    "replay.ckpt.restore_s": ["repro.replay.checkpoint:decode_state",
                              "repro.replay.checkpoint:restore_replayer"],
    "replay.par.fixed_s": ["repro.replay.checkpoint:decode_state",
                           "repro.replay.checkpoint:restore_replayer",
                           "repro.replay.checkpoint:base_replayer",
                           "repro.replay.checkpoint:capture_state",
                           "repro.replay.checkpoint:state_digest"],
}

RESOLVE_KEY = "repro.replay.pending:WithheldStores.resolve"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="interleaving seed passed to session.record")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pipeline  # noqa: E402  (needs SRC on the path)
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in pipeline.MIXES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(pipeline.MIXES)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT))
    # Anything the program spills to a temporary directory stays in the
    # checkout too.
    tempfile.tempdir = str(workdir)
    try:
        result = run(args, pipeline, workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        for child in multiprocessing.active_children():
            child.join()
    print(json.dumps(result))
    return 0


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, in reference seconds like the
    stage times, and their build parts (wall seconds)."""
    totals, builds = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
            capture_output=True, text=True, check=True, timeout=120)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        totals.append((probe["import_s"] + probe["build_s"])
                      * REFERENCE_KERNEL_S / probe["kernel_s"])
        builds.append(probe["build_s"])
    return totals, builds


def timed_loop(pipe, budget: float, minimum: int, tracer=None,
               first_index: int = 0) -> list:
    """Iterate until the next iteration would overrun ``budget`` seconds,
    and at least ``minimum`` times."""
    iterations, walls = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        began = time.perf_counter()
        iterations.append(pipe.iterate(first_index + len(iterations), tracer))
        walls.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(iterations) >= minimum \
                and elapsed + statistics.median(walls) > budget:
            return iterations


def run(args, pipeline, workdir: Path) -> dict:
    setup_totals, setup_builds = measure_setup(args.workload)
    pipe = pipeline.Pipeline(pipeline.MIXES[args.workload], args.seed,
                             workdir)
    tracer = None
    if args.trace:
        untraced = timed_loop(pipe, args.seconds * TRACE_UNTRACED_SHARE, 1)
        from layertrace import Tracer
        tracer = Tracer(observers={RESOLVE_KEY: _observe_resolve})
        tracer.install(also=(pipeline,))
        try:
            traced = timed_loop(
                pipe, args.seconds * (1 - TRACE_UNTRACED_SHARE), MIN_TRACED,
                tracer, first_index=len(untraced))
        finally:
            tracer.uninstall()
    else:
        untraced = timed_loop(pipe, args.seconds, MIN_ITERATIONS)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figures, model_failed, model_failures = pipe.model()

    iterations = untraced + traced
    attempted = sum(it.attempted for it in iterations) \
        + 2 * len(pipe.programs)
    failed = sum(it.failed for it in iterations) + model_failed
    failures = [f for it in iterations for f in it.failures] + model_failures

    e2e = end_to_end(pipeline, untraced, figures, setup_totals, peak_rss_mb)
    layers = {}
    if args.trace:
        layers, count_failure = per_layer(pipeline, untraced, traced, figures,
                                          setup_builds, tracer)
        attempted += len(traced) > 1
        if count_failure:
            failed += 1
            failures.append(count_failure)

    digest = pipe.determinism_digest()
    report(args, pipeline, e2e, layers, figures, digest, failures,
           len(untraced), len(traced))
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "programs": [list(p) for p in pipeline.MIXES[args.workload].programs],
        "determinism_digest": digest,
        "expected": pipe.expected,
        "iterations": [{"traced": i >= len(untraced),
                        "program_s": it.program_s,
                        "kernel_s": it.kernel_s,
                        "failures": it.failures}
                       for i, it in enumerate(iterations)],
        "setup_s": setup_totals,
        "model": figures,
        "paper_full_overhead_pct": pipeline.PAPER_FULL_OVERHEAD_PCT,
        "end_to_end": e2e,
        "wall_medians": stage_times(pipeline, untraced, scaled=False),
        "wall_fastest": stage_times(pipeline, untraced, min, scaled=False),
        "per_layer": layers, "failures": failures,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(details, indent=1, default=str))
    if tracer is not None:
        tracer.dump(OUT / f"trace-{stem}.json",
                    {"workload": args.workload, "seed": args.seed})
    metrics = e2e if not args.trace else layers
    units = E2E_UNITS if not args.trace else {}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }


def _observe_resolve(counters: dict, args: tuple, result) -> None:
    """Withheld-store lookups: FIFO length scanned, and conflicts (each a
    full drain of the FIFO, i.e. a replay-side pipeline stall)."""
    counters["pending.scanned"] = counters.get("pending.scanned", 0) \
        + len(args[0])
    if result[0] == "conflict":
        counters["pending.stalls"] = counters.get("pending.stalls", 0) + 1


def stage_times(pipeline, iterations, pick=statistics.median,
                scaled: bool = True) -> dict[str, float]:
    """Per stage: each program's ``pick`` over iterations, summed over the
    mix. ``scaled`` samples are wall time in reference seconds: multiplied
    by the reference kernel's nominal time over its time measured around
    the stage. ``pipeline_s`` is the sum of the stages."""
    def sample(it, program, stage):
        seconds = it.program_s[program][stage]
        if scaled:
            seconds *= REFERENCE_KERNEL_S / it.kernel_s[program][stage]
        return seconds

    programs = sorted({p for it in iterations for p in it.program_s})
    out = {}
    for stage in pipeline.STAGES:
        out[f"{stage}_s"] = sum(
            pick([sample(it, p, stage) for it in iterations
                  if stage in it.program_s.get(p, {})] or [0.0])
            for p in programs)
    out["pipeline_s"] = sum(out.values())
    return out


def end_to_end(pipeline, untraced, figures, setup_totals, peak_rss_mb):
    e2e = {"setup_s": statistics.median(setup_totals)}
    e2e.update(stage_times(pipeline, untraced))
    e2e["peak_rss_mb"] = peak_rss_mb
    e2e.update(pipeline.sim_metrics(untraced[0], figures))
    return e2e


def per_layer(pipeline, untraced, traced, figures, setup_builds, tracer):
    """Per-layer metrics of a traced run; returns (metrics, a failure
    message if the traced counts did not repeat across iterations)."""
    median = statistics.median

    def combined(it) -> dict:
        total: dict = {}
        for stage in pipeline.STAGES:
            for key, (calls, incl, self_s) in it.deltas.get(stage, {}).items():
                c0, i0, s0 = total.get(key, (0, 0.0, 0.0))
                total[key] = (c0 + calls, i0 + incl, s0 + self_s)
        return total

    def incl(delta, keys):
        return sum(delta.get(key, (0, 0.0, 0.0))[1] for key in keys)

    deltas = [combined(it) for it in traced]
    probes = [it.deltas.get("interval_probe", {}) for it in traced]
    by_layer = [tracer.layers_of(d) for d in deltas]
    counts = [{key: value[0] for key, value in d.items()} for d in deltas]
    count_failure = None
    if any(c != counts[0] for c in counts[1:]):
        count_failure = "trace: per-function call counts differ between " \
                        "traced iterations"

    facts = list(traced[0].facts.values())

    def total(key, sub=None):
        if sub is None:
            return sum(f.get(key, 0) for f in facts)
        return sum(f.get(key, {}).get(sub, 0) for f in facts)

    units = total("units")
    chunks = total("chunks")
    cache_accesses = total("cache_accesses")
    notifies_sent = total("bus", "notifies_sent")
    m: dict[str, float] = {"isa.build_s": median(setup_builds)}
    for layer in sorted(by_layer[0]):
        m[f"{layer}.calls"] = by_layer[0][layer]["calls"]
        m[f"{layer}.self_s"] = median(b[layer]["self_s"] for b in by_layer)
    m.update({
        "machine.units": units,
        "machine.cache.hit_ratio":
            total("cache_hits") / cache_accesses if cache_accesses else 0.0,
        "machine.bus.transactions": total("bus", "transactions"),
        "machine.bus.notifies_sent": notifies_sent,
        "machine.bus.notify_saved_ratio":
            total("bus", "notifies_saved") / notifies_sent
            if notifies_sent else 0.0,
        "mrr.chunks": chunks,
        "mrr.units_per_chunk": units / chunks if chunks else 0.0,
    })
    from repro.mrr.chunk import Reason
    for reason in Reason.ALL:
        m[f"mrr.terminations.{reason}"] = total("terminations", reason)
    m.update({
        "mrr.chunk_bytes": sum(f["sizes"].get("chunks.bin", 0) for f in facts),
        "mrr.chunk_qrz_bytes": sum(f["sizes"].get("chunks.qrz", 0)
                                   for f in facts),
        "mrr.ckpt_bytes": sum(f["sizes"].get("checkpoints.bin", 0)
                              for f in facts),
        "kernel.syscalls": total("kernel", "syscalls"),
        "kernel.signals": total("kernel", "signals_delivered"),
        "kernel.context_switches": total("kernel", "context_switches"),
        "capo.input_events": total("events"),
        "capo.input_bytes": sum(f["sizes"].get("input.bin", 0)
                                for f in facts),
    })
    for component in ("interpose", "input_log", "cbuf_drain", "ctx_flush"):
        m[f"capo.cycles_{component}"] = sum(
            fig[f"cycles_{component}"] for fig in figures.values())
    m.update({
        "replay.chunks": total("replay_chunks"),
        "replay.pending.resolves": deltas[0].get(RESOLVE_KEY, (0,))[0],
        "replay.pending.scanned":
            deltas[0].get("counter:pending.scanned", (0,))[0],
        "replay.pending.stalls":
            deltas[0].get("counter:pending.stalls", (0,))[0],
        "replay.ckpt.count": total("checkpoints"),
        "replay.par.intervals": total("par", "intervals"),
        "replay.par.interval_max_s": median(
            max(f.get("par", {}).get("interval_max_s", 0.0)
                for f in it.facts.values()) for it in traced),
    })
    for name, keys in FUNCTION_TIMES.items():
        m[name] = median(incl(d, keys) for d in deltas)
    for name, keys in PROBE_TIMES.items():
        m[name] = median(incl(d, keys) for d in probes)
    plain = stage_times(pipeline, untraced)
    largest = total("par", "largest_units")
    m.update({
        "replay.par.speedup": plain["replay_s"] / plain["replay_par_s"],
        "replay.par.speedup_bound":
            total("par", "units") / largest if largest else 1.0,
        "forensics.accesses": total("analysis", "accesses"),
        "forensics.hb_edges": total("analysis", "hb_edges"),
        "forensics.races": total("analysis", "races"),
        "trace.overhead_s": stage_times(pipeline, traced)["pipeline_s"]
        - plain["pipeline_s"],
    })
    return m, count_failure


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("ratio") or name.endswith("speedup") \
            or name.endswith("speedup_bound") or name.endswith("per_chunk"):
        return "ratio"
    if ".cycles_" in name:
        return "cycles"
    return "count"


def report(args, pipeline, e2e, layers, figures, digest, failures,
           n_untraced, n_traced) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{n_untraced} untraced + {n_traced} traced iterations")
    print(f"  determinism digest {digest}")
    for name, value in e2e.items():
        print(f"  {name:24s} {value:14.6g} {E2E_UNITS[name]}")
    print(f"  paper's full-stack overhead {pipeline.PAPER_FULL_OVERHEAD_PCT}% "
          f"(the paper's figure; the model is not validated against "
          f"hardware)")
    for name, fig in figures.items():
        print(f"    {name:10s} hw {fig['hw_pct']:7.3f}%  "
              f"full {fig['full_pct']:8.3f}%")
    for name, value in layers.items():
        print(f"  {name:32s} {value:14.6g} {layer_unit(name)}")
    for failure in failures:
        print(f"  FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
