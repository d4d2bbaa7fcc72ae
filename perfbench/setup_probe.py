"""One set-up measurement, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src-dir> <workload>

Imports the ``repro`` modules the pipeline uses, builds the workload's
programs and input files, and prints ``{"import_s": .., "build_s": ..,
"kernel_s": ..}`` as one JSON line; ``kernel_s`` is the host-speed kernel
timed before and after (mean). ``run.py`` starts it several times and
reports the median as ``setup_s``.
"""

import json
import sys
import time

from hostspeed import reference_kernel_s

kernel_before = reference_kernel_s()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pipeline  # noqa: E402  (imports every repro module the stages use)

imported = time.perf_counter()
pipeline.build_mix(pipeline.MIXES[sys.argv[2]])
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": built - imported,
                  "kernel_s": (kernel_before + reference_kernel_s()) / 2}))
