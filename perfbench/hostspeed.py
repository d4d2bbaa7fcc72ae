"""Host speed, measured by a fixed piece of Python work.

The benchmark's host alternates between a fast state and states up to
twice as slow, for tens of seconds at a time (README.md, "Host noise").
Timing this kernel right before and after a stage tells how fast the host
was running Python during it. Stage times are reported scaled to
:data:`REFERENCE_KERNEL_S`, so a slow phase of the host does not read as a
slower program.
"""

import time

#: The reference kernel's time on the host these numbers were first taken
#: on, in its fast state (see README.md, "Host noise"). Stage times are
#: scaled to it.
REFERENCE_KERNEL_S = 0.0035


def reference_kernel_s() -> float:
    """Seconds for a fixed piece of interpreter work that uses no repro
    code (best of three). Its working set fits in the first-level cache,
    so it measures how fast the host runs Python right now, not how warm
    the caches are after a stage."""
    best = float("inf")
    for _ in range(3):
        table: dict[int, int] = {}
        acc = 0
        start = time.perf_counter()
        for i in range(20000):
            table[i & 255] = acc
            acc = (acc + i * 7 + table.get((i >> 3) & 255, 0)) & 0xFFFF
        best = min(best, time.perf_counter() - start)
    return best
