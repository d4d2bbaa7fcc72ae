"""The differential campaign: lattice checks, parallel determinism,
fault injection end-to-end."""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG
from repro.soak import (
    BASELINE,
    SoakOptions,
    matrix_variants,
    outcome_digest,
    run_campaign,
    run_seed,
)
from repro.soak import differential
from repro.soak.differential import outcome_fingerprint, run_variant
from repro.telemetry import Telemetry
from repro.workloads.fuzz import generate_case


def test_variant_apply_overrides_and_keeps_the_rest():
    variant = [v for v in matrix_variants() if v.name == "sb-deep"][0]
    config = variant.apply(DEFAULT_CONFIG)
    assert config.machine.store_buffer.entries == 16
    assert config.machine.store_buffer.drain_period == 33
    assert config.kernel == DEFAULT_CONFIG.kernel
    assert config.mrr == DEFAULT_CONFIG.mrr


def test_directory_variants_in_the_lattice():
    from repro.soak.variants import variant_by_name

    directory = variant_by_name("directory")
    assert directory.bit_identical
    assert directory.apply(DEFAULT_CONFIG).machine.coherence == "directory"
    checkpointed = variant_by_name("directory-checkpointed")
    assert checkpointed.bit_identical
    assert checkpointed.checkpoint_every > 0
    assert checkpointed.apply(DEFAULT_CONFIG).machine.coherence == "directory"
    # None override keeps the case's fabric
    assert BASELINE.apply(DEFAULT_CONFIG).machine.coherence == "snoop"
    with pytest.raises(KeyError):
        variant_by_name("token-coherence")


def test_variant_apply_is_pure():
    for variant in matrix_variants():
        variant.apply(DEFAULT_CONFIG)
    assert DEFAULT_CONFIG == dataclasses.replace(DEFAULT_CONFIG)


def test_bit_identical_variants_share_the_baseline_digest():
    shape_variant_diverged = False
    for seed in (11, 12, 13):
        case = generate_case(seed)
        base, report = run_variant(case, BASELINE)
        assert report.ok
        expected = outcome_digest(base)
        base_fingerprint = outcome_fingerprint(base)
        for variant in matrix_variants():
            outcome, report = run_variant(case, variant)
            assert report.ok, f"{variant.name}: {report.summary()}"
            if variant.bit_identical:
                fingerprint = outcome_fingerprint(outcome)
                differing = [key for key in fingerprint
                             if fingerprint[key] != base_fingerprint[key]
                             and key not in variant.identical_except]
                assert not differing, \
                    f"seed {seed}: {variant.name} differs in {differing}"
            elif outcome_digest(outcome) != expected:
                shape_variant_diverged = True
    # Shape-changing variants only self-verify; a tiny program may happen
    # to execute identically, but across seeds they must not be vacuous.
    assert shape_variant_diverged


def test_run_seed_passes_clean_seeds():
    verdict = run_seed(3, SoakOptions(matrix=True))
    assert verdict.ok
    assert verdict.failures == []
    assert verdict.shrunk is None


def test_campaign_serial_and_parallel_verdicts_identical():
    options = SoakOptions(matrix=True)
    serial = run_campaign(6, base_seed=60, jobs=1, options=options)
    parallel = run_campaign(6, base_seed=60, jobs=2, options=options)
    assert serial.ok and parallel.ok
    assert ([(v.seed, v.ok, v.failures) for v in serial.verdicts]
            == [(v.seed, v.ok, v.failures) for v in parallel.verdicts])


def test_campaign_counts_and_order():
    report = run_campaign(4, base_seed=20, jobs=1)
    assert report.runs == 4
    assert [v.seed for v in report.verdicts] == [20, 21, 22, 23]


def test_injected_divergence_is_caught_and_shrunk_small():
    options = SoakOptions(matrix=True, shrink=True, inject="decode-cache")
    verdict = run_seed(42, options)
    assert not verdict.ok
    kinds = {f.kind for f in verdict.failures}
    assert "divergence" in kinds
    [failure] = [f for f in verdict.failures if f.kind == "divergence"]
    assert failure.variant == "decode-off"
    assert verdict.shrunk is not None
    assert verdict.shrunk.ops_after <= 6
    # the minimized case must still fail under the same options
    from repro.soak import run_case
    assert run_case(verdict.shrunk.case, options)


def test_injection_requires_known_fault():
    with pytest.raises(ValueError):
        SoakOptions(inject="warp-drive")


def test_campaign_telemetry_counters():
    telemetry = Telemetry(enabled=True)
    report = run_campaign(2, base_seed=5, jobs=1,
                          options=SoakOptions(matrix=False),
                          telemetry=telemetry)
    assert report.ok
    snapshot = telemetry.snapshot()
    assert snapshot["soak.seeds"] == 2
    assert "soak.failed_seeds" not in snapshot


def test_log_variants_fold_into_capo_config():
    log_v2 = [v for v in matrix_variants() if v.name == "log-v2"][0]
    batched = [v for v in matrix_variants() if v.name == "log-batched"][0]
    cfg = log_v2.apply(DEFAULT_CONFIG)
    assert cfg.capo.log_version == 2
    assert cfg.capo.input_batch_events == 0
    cfg = batched.apply(DEFAULT_CONFIG)
    assert cfg.capo.input_batch_events == 64
    assert cfg.capo.log_version == 1
    assert batched.identical_except == ("cycles",)
    assert batched.bit_identical and log_v2.bit_identical


def test_roundtrip_check_covers_every_log_version(monkeypatch):
    case = generate_case(3)
    outcome, _report = run_variant(case, BASELINE)
    recording = outcome.recording
    assert differential._roundtrip_failures(recording, "baseline") == []

    # a codec that loses an event must be caught in every format version
    real = differential.decode_events
    monkeypatch.setattr(differential, "decode_events",
                        lambda blob: real(blob)[:-1])
    failures = differential._roundtrip_failures(recording, "baseline")
    assert [f.detail for f in failures] == [
        "events v1: entries changed across the round trip",
        "events v2: entries changed across the round trip"]


def _checkpointed_counter():
    from repro import session, workloads

    program, inputs = workloads.build("counter", threads=2)
    outcome = session.record(program, seed=3, input_files=inputs)
    session.add_checkpoints(outcome.recording, 8)
    return outcome.recording, session.replay_recording(outcome.recording)


def _with_state(recording, record, state):
    from repro.capo.recording import Recording
    from repro.mrr.logfmt import CheckpointRecord
    from repro.replay.checkpoint import encode_state

    crafted = CheckpointRecord.for_payload(record.position,
                                           encode_state(state))
    return Recording(
        config=recording.config, program=recording.program,
        chunks=recording.chunks, events=recording.events,
        metadata=recording.metadata,
        checkpoints=[crafted if r is record else r
                     for r in recording.checkpoints])


def test_check_restores_catches_state_that_restore_drops():
    """Header state that restore ignores (here an extra top-level key)
    does not encode back to the checkpoint's own payload."""
    from repro.errors import ReplayDivergenceError
    from repro.replay.checkpoint import decode_state

    rec, result = _checkpointed_counter()
    differential.check_restores(rec, result)
    victim = rec.checkpoints[0]
    state = decode_state(victim.payload)
    extra = dataclasses.replace(state, header={**state.header, "extra": 1})
    with pytest.raises(ReplayDivergenceError,
                       match=f"chunk {victim.position} does not restore"):
        differential.check_restores(_with_state(rec, victim, extra), result)


def test_check_restores_resumes_from_every_checkpoint():
    """A checkpoint that round-trips through restore but holds the wrong
    state (a flipped memory byte) is caught once replay resumes from it
    and reaches the next checkpoint — a round trip alone cannot see it."""
    from repro.errors import ReplayDivergenceError
    from repro.replay.checkpoint import decode_state, restore_replayer, \
        state_matches

    rec, result = _checkpointed_counter()
    assert len(rec.checkpoints) >= 2
    victim = rec.checkpoints[0]
    state = decode_state(victim.payload)
    memory = bytearray(state.memory)
    memory[-1] ^= 0xFF
    flipped = dataclasses.replace(state, memory=bytes(memory))
    crafted = _with_state(rec, victim, flipped)
    restored = crafted.checkpoints[0]
    assert state_matches(restore_replayer(crafted, flipped),
                         restored.payload)
    with pytest.raises(ReplayDivergenceError,
                       match=f"resumed from the checkpoint at chunk "
                             f"{victim.position}"):
        differential.check_restores(crafted, result)
