"""A fixed reference kernel that tracks the speed of the host.

On a shared host the speed of a core drifts by tens of percent over
seconds to minutes, which would swamp any change in the program. The
benchmark runs this kernel in short bursts between operations and before
and after every set-up. It then scales each timing by how fast the kernel
ran around it, relative to a nominal burst time. A drift slows the kernel
and the program alike, so it cancels; a change in the program does not
touch the kernel, so it shows in full.

The kernel mixes the two kinds of work srampuf does: interpreter-bound calls
on small arrays (the key path, file formats) and passes over large arrays
(sampling, stability marks).
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

NOMINAL_BURST_S = 0.006     # scaled timings read as if a burst took exactly this long
BURST_INTERVAL_S = 0.1      # at most one burst per interval between operations
_SMALL_LOOPS = 400
_LARGE_PASSES = 30
_WARMUP_FRACTION = 10       # untimed warm-up of 1/10 of the kernel before each burst


class Speedometer:
    """Times reference bursts and turns raw timings into nominal-speed ones."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.integers(0, 2, 128, dtype=np.uint8)
        self._other = self._small.copy()
        self._other[5] ^= 1
        self._large = rng.random(120_000)
        self._mids: list[float] = []
        self._durations: list[float] = []
        self._last = float("-inf")

    def _kernel(self, small_loops: int, large_passes: int) -> int:
        acc = 0
        for i in range(small_loops):
            acc += int(np.count_nonzero(self._small != self._other))
            acc += hashlib.sha256(self._small.tobytes()).digest()[0]
            acc += len(",".join(str(j) for j in range(i % 8, 24)))
        for _ in range(large_passes):
            acc += int(np.packbits(self._large < 0.5).sum())
        return acc

    def burst(self) -> None:
        # The warm-up brings the kernel's data back into cache, so that the
        # timed part does not depend on how much cache the last operation used.
        self._kernel(_SMALL_LOOPS // _WARMUP_FRACTION, _LARGE_PASSES // _WARMUP_FRACTION)
        start = perf_counter()
        self._kernel(_SMALL_LOOPS, _LARGE_PASSES)
        end = perf_counter()
        self._mids.append((start + end) / 2)
        self._durations.append(end - start)
        self._last = end

    def maybe_burst(self) -> None:
        if perf_counter() - self._last >= BURST_INTERVAL_S:
            self.burst()

    def scale(self, at_s) -> np.ndarray:
        """Factor that takes a timing made at perf_counter time ``at_s`` to
        nominal speed: nominal burst time over the burst time interpolated
        between the bursts around it."""
        local = np.interp(np.asarray(at_s, dtype=float), self._mids, self._durations)
        return NOMINAL_BURST_S / local

    def mean_burst_s(self) -> float:
        return float(np.mean(self._durations)) if self._durations else 0.0
