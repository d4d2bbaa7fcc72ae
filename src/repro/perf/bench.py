"""The determinism digest of a record run.

``tests/integration/test_golden_digests.py`` pins it for a reference set
of workloads, and the repository benchmark (``perfbench/``) checks every
timed recording against it.
"""

from __future__ import annotations

import hashlib


def digest_of(outcome) -> str:
    """Determinism digest of a record run: memory image, chunk log, cycle
    and unit counts. Bit-identical runs — and only those — share it."""
    from ..mrr.logfmt import encode_chunks

    h = hashlib.sha256()
    h.update(outcome.final_memory_digest.encode())
    h.update(encode_chunks(outcome.recording.chunks))
    h.update(str(outcome.total_cycles).encode())
    h.update(str(outcome.units).encode())
    return h.hexdigest()
