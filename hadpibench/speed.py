"""Host speed, measured with a fixed reference kernel.

A shared virtual machine does not run at one speed: as the host's other
load comes and goes, everything in the guest, hadpi and the interpreter
alike, runs up to about 1.8x faster or slower for seconds to minutes at
a time.  The benchmark therefore times this kernel, which does not call
hadpi, every ~0.1 s, and reports each time rescaled to the speed at
which the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / kernel time around the measurement

On the 2-core x86 host the benchmark was defined on, dividing by the
kernel's time cut the spread of hadpi operations' times over a minute
from 17-21% to 3-5%.
"""

from __future__ import annotations

import time

# the kernel's time in the usual state of that host; in its fast phases
# the kernel took 0.8 ms
REFERENCE_S = 1.3e-3


def kernel() -> list[int]:
    """Row operations on a 16x16 state of ~200-bit integers, in the style
    of hadpi's exact synthesis but frozen here: sum and difference of two
    rows, the other rows rescaled, then common factors of two stripped pass
    by pass.  Changes to hadpi do not change its time."""
    n = 16
    aa = [((i * 2654435761 + j * 40503) % 1000003) << 190 for i in range(n) for j in range(n)]
    bb = [((i * 97 + j * 89) % 10007) << 180 for i in range(n) for j in range(n)]
    for step in range(6):
        r1, r2 = (step % n) * n, ((step * 5 + 3) % n) * n
        for i in range(n):
            base = i * n
            if base != r1 and base != r2:
                for t in range(base, base + n):
                    aa[t], bb[t] = 2 * bb[t], aa[t]
        for t in range(n):
            sa, sb = aa[r1 + t] + aa[r2 + t], bb[r1 + t] + bb[r2 + t]
            da, db = aa[r1 + t] - aa[r2 + t], bb[r1 + t] - bb[r2 + t]
            aa[r1 + t], bb[r1 + t], aa[r2 + t], bb[r2 + t] = sa, sb, da, db
        for _ in range(3):
            if any(a & 1 for a in aa):
                break
            aa, bb = list(bb), [a >> 1 for a in aa]
    return aa


class Speed:
    """Kernel timings taken during a run (seconds, least of three each)."""

    EVERY_S = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self._last = time.perf_counter()
        return best

    def stale(self) -> bool:
        return time.perf_counter() - self._last > self.EVERY_S
