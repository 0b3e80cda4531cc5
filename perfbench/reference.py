"""Fixed reference computations that gauge how fast the host runs now.

The shared host's speed for one process changes by up to 2x: from one
process to the next and over minutes.  A pass scales its times by
`NOMINAL_S` over the mean of `measure()` at marks taken in the same process
through the workload, so that the reported seconds are those of a host on
which one reference chunk takes `NOMINAL_S`.  The reference is benchmark
code only, so a change to coxdunkl cannot move it.

The "python" kernel is an integer loop: for the pure-Python workloads it
tracked the slowdowns better than Fraction, dict or memory-latency kernels
did, and it allocates nothing, so it leaves `ru_maxrss` alone.  The "numpy"
kernel does what the Monte Carlo estimators do, on small blocks.
"""

import statistics
import time

#: seconds one chunk of either kernel takes on the host the reported times
#: are scaled to
NOMINAL_S = 0.030
CHUNKS = 3


def _python_chunk():
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return s


def _numpy_chunk():
    import numpy as np

    # blocks small enough to come from the heap, not from fresh mappings,
    # so that the first marks of a process are not slowed by page faults
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 6))
    s = 0.0
    for _ in range(180):
        s += float(np.log(np.abs(rng.standard_normal((2_000, 4)) @ m)).sum())
    return s


KERNELS = {"python": _python_chunk, "numpy": _numpy_chunk}


def measure(kernel="python"):
    """Median time of one chunk of `kernel`, in s, over `CHUNKS` chunks."""
    chunk = KERNELS[kernel]
    times = []
    for _ in range(CHUNKS):
        t = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
