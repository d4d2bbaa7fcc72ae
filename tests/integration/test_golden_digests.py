"""Golden determinism digests: recording, replay and both coherence fabrics.

Every value below was produced by the simulator and must never move. The
record digest (``repro.perf.bench.digest_of``: final memory image, packed
chunk log, cycle and unit counts) changes only if recording stops being
bit-identical to what it was; the replay digest changes only if replay
stops reproducing the same outcome. Either is a behaviour change, never a
host effect, so a mismatch is a failure. A deliberate behaviour change
must re-pin these values and say why in CHANGES.md.

The runs mirror the repository's long-standing reference set: seven
workloads at scale 2, seed 2, on the default configuration, each replayed
serially after embedding ``len(chunks) // 16`` checkpoints and again in
parallel over those checkpoints (which must give the same digest); and the
sharing-heavy ``pingpong`` micro at one thread per core on 4-64 cores
under the snooping bus and the directory.
"""

import dataclasses
import functools

import pytest

from repro import session, workloads
from repro.config import COHERENCE_MODELS, DEFAULT_CONFIG
from repro.perf.bench import digest_of
from repro.replay.checkpoint import build_checkpoints

SCALE = 2
SEED = 2
CHECKPOINT_INTERVALS = 16
PARALLEL_JOBS = 4

#: workload -> (units, cycles, chunks, record digest, replay digest)
GOLDEN = {
    "counter": (
        14516, 159926, 2291,
        "64ab2417a7cbca6ba88566af4974f4f3373f1add1786eda4c3c754e68fcb4af3",
        "5909794cf677941af44e96fd50e4763b487c5cb00180c7114d6be1ebb6a6cc15"),
    "pingpong": (
        22598, 254820, 5049,
        "fe43eaa7ff6d4bf01b3c723ec17504cde35c0eee11c70db1746f971c52d2b71f",
        "c8ccf61d8f3b168537b7b7aa18b98e8574ebfe07d1975fff1b7726909123b244"),
    "locks": (
        30500, 313890, 6360,
        "66585f1cee579dce88e754e98500563dc4915438172d8cd43a3393738b0afc2e",
        "2278b8dcace73db419ef609b944028a4bbd3953c42d0ebd890e64dee4e3dac91"),
    "prodcons": (
        29227, 269857, 4411,
        "1f28d699249dd1a35cfc36c9f4a974910365e537173c87425bf2ab9cbd42feed",
        "ba9f14c4517df51787c986b331c975e91fe952c325eb5be910f55ba5521d5d01"),
    "fft": (
        52603, 94579, 183,
        "f05d207253d9364ccf1f5a1bb84170a930c80ec43e99510adce0d2291d79083a",
        "203a099e94a4001b2ce1ef407a0ae2d06075b9c8d4bedce091f38c9c32ee19e5"),
    "lu": (
        80326, 137502, 596,
        "4db0f9371bd54d09d97477f1aa3dc5808367fce9824df7f3327d6722cf31ace5",
        "80bdc500130c7325bf1733eb119039d6a0bfc4feca66a644c9741a411ab74ec7"),
    "radix": (
        79654, 267031, 2255,
        "d438f632c277f4df467121ba8be009f6d06b1b397fb4b7eb1e44b88b8cf1a986",
        "7cea82e38b3533765237293d555b145f82f8fc1e67881743748cfb9134cd907b"),
}

SCALING_WORKLOAD = "pingpong"
SCALING_SCALE = 1

#: cores -> record digest, shared by both fabrics (bit-identity).
SCALING_GOLDEN = {
    4: "3c330c16e5b8f0bff76d913580098b654d94b28f0f0dd47fc56fd068b3dc3fd9",
    8: "6dd5d9592fd43f186b72d8e2760a93f512a4dae8722645c30a829f27e78ca51b",
    16: "6e3a976df59358ef976a3940b6562473d0d5bd56570dc45ae3ff9ee2d00fd95f",
    32: "b6820b6fb0e7ac7634eefb7a199b03056eac91c173b6e096d56174a720211c76",
    64: "4c7afff1b03de0b31e8d3375ce60ee9479eef9445a5c689c6f8e03fbc7c0c6d7",
}

#: At 64 cores the directory must save more than this many broadcast
#: notifies per notify it sends: O(sharers) notify work beating broadcast.
SAVED_RATIO_MIN = 2.0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_record_and_replay_digests(name):
    units, cycles, chunks, record_digest, replay_digest = GOLDEN[name]
    program, inputs = workloads.build(name, scale=SCALE)
    outcome = session.record(program, seed=SEED, input_files=inputs)
    recording = outcome.recording
    assert (outcome.units, outcome.total_cycles, len(recording.chunks)) \
        == (units, cycles, chunks)
    assert digest_of(outcome) == record_digest

    every = max(1, len(recording.chunks) // CHECKPOINT_INTERVALS)
    recording.checkpoints = build_checkpoints(recording, every)
    assert session.replay_recording(recording).digest() == replay_digest
    # interval replay over the same checkpoints, in pool workers
    assert session.replay_recording(
        recording, jobs=PARALLEL_JOBS).digest() == replay_digest


@functools.cache
def _scaling_run(cores: int) -> dict:
    """Record the scaling workload on ``cores`` cores under each fabric:
    fabric -> (record digest, bus statistics)."""
    program, inputs = workloads.build(SCALING_WORKLOAD, threads=cores,
                                      scale=SCALING_SCALE)
    runs = {}
    for coherence in COHERENCE_MODELS:
        config = dataclasses.replace(
            DEFAULT_CONFIG, machine=dataclasses.replace(
                DEFAULT_CONFIG.machine, num_cores=cores,
                coherence=coherence))
        outcome = session.record(program, seed=SEED, config=config,
                                 input_files=inputs)
        runs[coherence] = (digest_of(outcome), outcome.machine_stats["bus"])
    return runs


@pytest.mark.parametrize("cores", sorted(SCALING_GOLDEN))
def test_scaling_ladder_is_bit_identical_across_fabrics(cores):
    runs = _scaling_run(cores)
    snoop_digest, snoop = runs["snoop"]
    directory_digest, directory = runs["directory"]
    assert snoop_digest == directory_digest == SCALING_GOLDEN[cores]
    assert snoop["broadcast_snoops"] == directory["broadcast_snoops"]
    assert snoop["notifies_saved"] == 0
    assert directory["notifies_saved"] > 0


def test_scaling_directory_saved_ratio_at_64_cores():
    _digest, directory = _scaling_run(64)["directory"]
    saved_ratio = directory["notifies_saved"] / directory["notifies_sent"]
    assert saved_ratio > SAVED_RATIO_MIN
