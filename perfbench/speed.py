"""The host speed probe: fixed pure-Python work that never touches ohb.

The host this benchmark was tuned on gives a process anywhere from full
speed to under half of it, in states that last seconds to minutes.  The
probe's time, taken right around the work it is set against, says how
slow the host is at that moment; the bounded time metrics are divided by
it.  It needs only the standard library, so the set-up child processes
run it too, before `import ohb`.
"""

import time

# About what one probe takes at full speed on the 2-core Xeon VM
# (Python 3.11) that BENCHMARK.json's figures come from.
NOMINAL_S = 0.0055


def speed_probe():
    """Seconds one fixed round of integer and dict work takes now."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(60000):
        acc = (acc * 31 + i) & 0xFFFFF
        if i & 3 == 0:
            table[acc & 255] = i
    return time.perf_counter() - start


def slowdown(*probes):
    """How many times slower than nominal the host ran the given probes."""
    return sum(probes) / len(probes) / NOMINAL_S
