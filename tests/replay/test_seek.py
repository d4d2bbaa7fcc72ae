"""Checkpointed backward seeks (reverse time travel)."""

import pytest

from repro import session, workloads
from repro.errors import ReproError
from repro.replay.checkpoint import capture_state, replayer_at, state_digest
from repro.replay.inspect import ReplayInspector


@pytest.fixture(scope="module")
def recorded():
    program, inputs = workloads.build("counter", threads=2)
    return session.record(program, seed=4, input_files=inputs)


def test_checkpoints_created_at_interval(recorded):
    inspector = ReplayInspector(recorded.recording, checkpoint_every=40)
    inspector.run_to_index(130)
    assert inspector.checkpoints == [40, 80, 120]


def test_no_checkpoints_by_default(recorded):
    inspector = ReplayInspector(recorded.recording)
    inspector.run_to_index(100)
    assert inspector.checkpoints == []


def test_backward_seek_restores_identical_state(recorded):
    inspector = ReplayInspector(recorded.recording, checkpoint_every=25)
    values = {}
    for target in (10, 60, 140, 200):
        inspector.seek(target)
        values[target] = (inspector.read_word("counter"),
                          inspector.thread_view(1).regs)
    # travel backwards and forwards; every revisit must agree
    for target in (140, 10, 200, 60, 10):
        inspector.seek(target)
        assert (inspector.read_word("counter"),
                inspector.thread_view(1).regs) == values[target]
        assert inspector.position == target


def test_seek_backwards_without_checkpoints_replays_from_scratch(recorded):
    inspector = ReplayInspector(recorded.recording)
    inspector.run_to_index(150)
    value = inspector.read_word("counter")
    inspector.seek(80)
    assert inspector.position == 80
    inspector.seek(150)
    assert inspector.read_word("counter") == value


def test_seek_to_zero(recorded):
    inspector = ReplayInspector(recorded.recording, checkpoint_every=30)
    inspector.run_to_index(90)
    inspector.seek(0)
    assert inspector.position == 0
    assert inspector.read_word("counter") == 0


def test_seek_bounds_checked(recorded):
    inspector = ReplayInspector(recorded.recording)
    with pytest.raises(ReproError):
        inspector.seek(-1)
    with pytest.raises(ReproError):
        inspector.seek(inspector.total_chunks + 1)


def test_negative_checkpoint_interval_rejected(recorded):
    with pytest.raises(ReproError):
        ReplayInspector(recorded.recording, checkpoint_every=-5)


def test_full_run_after_seeking_still_verifies(recorded):
    inspector = ReplayInspector(recorded.recording, checkpoint_every=50)
    inspector.run_to_index(inspector.total_chunks // 2)
    inspector.seek(10)
    result = inspector.run_to_end()
    assert session.verify(recorded, result).ok


def test_checkpoint_isolation(recorded):
    """Mutating state after a checkpoint must not corrupt the snapshot."""
    inspector = ReplayInspector(recorded.recording, checkpoint_every=50)
    inspector.run_to_index(50)
    at_50 = inspector.read_word("counter")
    inspector.run_to_index(400)   # plenty of mutation past the checkpoint
    inspector.seek(50)
    assert inspector.read_word("counter") == at_50


@pytest.mark.parametrize("embedded_every", [0, 70])
def test_backward_seek_state_matches_replayer_at(embedded_every):
    """A seek lands on the exact replay state ``replayer_at`` reaches,
    whether it restores the inspector's own checkpoints or the
    recording's embedded ones."""
    program, inputs = workloads.build("counter", threads=2)
    recording = session.record(program, seed=4,
                               input_files=inputs).recording
    if embedded_every:
        session.add_checkpoints(recording, embedded_every)
    inspector = ReplayInspector(recording, checkpoint_every=25)
    inspector.run_to_index(300)
    for target in (160, 60, 145, 0, 230):
        inspector.seek(target)
        assert inspector.position == target
        assert state_digest(capture_state(inspector._replayer)) == \
            state_digest(capture_state(replayer_at(recording, target)))
