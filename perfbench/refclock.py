"""Call timing in reference seconds.

On a shared host the CPU clock changes under the benchmark: on a 2-vCPU
Intel Xeon host at 2.1 GHz, the same pure-Python call ran up to twice as
fast for stretches of 1-30 s, on both cores at once.  Wall-clock medians of
one run then depend on when the run happened more than on the code.

So while calls are timed, a background thread times a fixed pure-Python
kernel (bit loops over masks, small dicts, tuples, lists, strings and
fractions, like the package's own code) every PERIOD_S.  Each stretch of a
call between two kernel runs is rescaled by REF_KERNEL_S over the kernel
time there (a running median of three runs), and the kernel runs
themselves, which held the interpreter lock, are left out: the result is
the time the call would take on a machine where the kernel takes
REF_KERNEL_S.  The kernel is the benchmark's own code, so a change to the
package moves these times as it would move wall time on a steady machine.
Raw wall times, without the kernel runs, are kept alongside.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
from fractions import Fraction
from time import perf_counter

# kernel time on the host above in its usual (slower) clock state
REF_KERNEL_S = 1.6e-3
PERIOD_S = 0.075
_MASK60 = (1 << 60) - 1
_MASK64 = (1 << 64) - 1


def kernel() -> int:
    # bit loops over vertex masks and dict buckets, like the oracle
    incident = [(0x9E3779B97F4A7C15 * (v + 1)) & _MASK60 for v in range(40)]
    index: dict[int, list] = {}
    cur = 0
    for i in range(1, 120):
        cur ^= incident[(i & -i).bit_length() % 40]
        cover = 0
        for v in range(40):
            if cur & incident[v]:
                cover |= 1 << v
        index.setdefault(cover & 0xFFF, []).append(cur)
    # small tuples, lists, strings and dicts, like rows, checks and requests
    x = 0x9E3779B97F4A7C15
    table: dict[int, tuple] = {}
    rows = []
    for i in range(800):
        x = (x * 0xBF58476D1CE4E5B9 + i) & _MASK64
        table[x & 255] = (i, str(i))
        rows.append([i, x >> 60])
    text = " ".join(f"{i} {i * 7 % 13}" for i in range(60))
    # exact rationals, like the identity grid
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(i, i + 1)
    return len(index) + len(table) + len(rows) + len(text.split()) + f.denominator % 7


class RefClock:
    """Times calls made inside a `with` block against the kernel thread.

    With `waits=True` the calls wait outside the interpreter (on a
    subprocess), so the kernel runs alongside them and is not subtracted."""

    def __init__(self, waits: bool = False) -> None:
        self._waits = waits
        self._calls: list[tuple[float, float]] = []
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="refclock", daemon=True)

    def _sample(self) -> None:
        while True:
            # a collection started by the kernel's allocations would sweep the
            # timed calls' garbage on the kernel's clock
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = perf_counter()
                kernel()
                t1 = perf_counter()
            finally:
                if enabled:
                    gc.enable()
            self._samples.append((t0, t1))
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "RefClock":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def call(self, fn, *args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self._calls.append((t0, perf_counter()))
        return result

    def elapsed(self) -> float:
        """Wall time spent in calls, kernel runs included."""
        return sum(e - s for s, e in self._calls)

    def durations(self) -> tuple[list[float], list[float]]:
        """Raw and reference duration of every call, in call order."""
        starts = [a for a, _ in self._samples]
        ends = [b for _, b in self._samples]
        runs = [b - a for a, b in self._samples]
        speed = [statistics.median(runs[max(i - 1, 0):i + 2]) for i in range(len(runs))]
        raw, ref = [], []
        for s, e in self._calls:
            # sample i governs the stretch from its start to the next one's
            i = max(bisect.bisect_right(starts, s) - 1, 0)
            t = s
            net = scaled = 0.0
            while t < e:
                stop = min(e, starts[i + 1]) if i + 1 < len(starts) else e
                busy = 0.0 if self._waits else max(0.0, min(ends[i], stop) - max(starts[i], t))
                net += stop - t - busy
                scaled += (stop - t - busy) * REF_KERNEL_S / speed[i]
                t = stop
                i += 1
            raw.append(net)
            ref.append(scaled)
        return raw, ref
