import pytest

from repro import session, workloads
from repro.analysis.logs import input_bytes_by_kind, log_rates


@pytest.fixture(scope="module")
def outcome():
    program, inputs = workloads.build("iobound", threads=2)
    return session.record(program, seed=1, input_files=inputs)


def test_log_rates_fields(outcome):
    rates = log_rates(outcome)
    assert rates.instructions == outcome.instructions
    assert rates.chunk_entries == len(outcome.recording.chunks)
    assert rates.chunk_bytes_raw > rates.chunk_bytes_v2
    assert rates.total_bytes == rates.chunk_bytes_raw + rates.input_bytes


def test_per_kiloinstruction_rates_consistent(outcome):
    rates = log_rates(outcome)
    expected = 1000 * rates.chunk_bytes_raw / rates.instructions
    assert rates.chunk_bytes_per_kiloinstruction == pytest.approx(expected)
    assert rates.input_bytes_per_kiloinstruction > 0  # iobound is read-heavy


def test_mbytes_per_second_positive(outcome):
    rates = log_rates(outcome)
    assert rates.mbytes_per_second() > 0
    # doubling frequency doubles bandwidth
    assert rates.mbytes_per_second(core_hz=120_000_000) == pytest.approx(
        2 * rates.mbytes_per_second(core_hz=60_000_000))


def test_log_rates_requires_recording():
    program, _ = workloads.build("counter", threads=2)
    native = session.simulate(program)
    with pytest.raises(ValueError):
        log_rates(native)


def test_input_bytes_by_kind_dominated_by_syscalls(outcome):
    by_kind = input_bytes_by_kind(outcome.recording)
    assert by_kind["syscall"] > by_kind.get("exit", 0)


def test_as_dict(outcome):
    row = log_rates(outcome).as_dict()
    assert row["name"] == "iobound"
    assert row["chunk_entries"] > 0
