"""Machine-speed normalisation of the timed phase.

The benchmark runs on a few cores of a shared host, and the speed of one
core drifts with what the other tenants do. On a 2-vCPU virtual machine the
same 1.3-s ``normal_lattice`` + ``class_report`` call took from 0.86 to
1.87 s within four minutes, with CPU time equal to wall time, and the medians
of 40-s windows still spread by about 19% (IQR over median). No run short
enough for the time limit averages that out.

So while the timed phase runs, a wall-clock timer interrupts it every
``INTERVAL_S`` and runs a fixed reference loop that does not touch the
library. The timed phase becomes segments of work between reference loops.
Each segment's wall time is rescaled by the reference loop's time at the
reference speed (``REF_LOOP_S``) over the mean time of the two reference
loops around that segment, and ``wall_ref_s`` is the sum: the phase's wall
time at the reference speed. A change to the library moves it as it moves
the raw wall time; a change in the host's speed moves the reference loop too
and cancels out. The raw wall time (the segments, without the reference
loops) is reported beside it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1  # wall time from one reference loop to the next
REF_LOOP_S = 0.011  # the reference loop's time at the reference speed

_RNG = np.random.default_rng(12345)
_MASKS = [int.from_bytes(_RNG.bytes(27), "little") for _ in range(96)]
_ROWS = _RNG.integers(0, 10, size=(1000, 10)).astype(np.int32)
_PICK = _RNG.integers(0, 1000, size=64)
_ROW_INDEX = {_ROWS[i].tobytes(): i for i in range(1000)}


def reference_loop() -> int:
    """A fixed mix of the interpreter work the library does: small integers
    in dicts and sets, 216-bit subgroup masks, and gathers on small int32
    tables mapped back to row indices through a bytes-keyed dict."""
    table: dict[int, int] = {}
    seen = set()
    x = 1
    for _ in range(10000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) | (1 << (x & 63))
        seen.add(x & 0xFFFF)
    joins = 0
    for a in _MASKS:
        for b in _MASKS:
            if a & b == a or a & b == b:
                continue
            joins += (a | b).bit_count() > 120
    found = 0
    for k in range(150):
        rows = _ROWS[_PICK][:, _ROWS[k]]
        for row in rows[:6]:
            found += _ROW_INDEX.get(row.tobytes(), 0)
    return len(table) + len(seen) + joins + found


class SpeedMeter:
    """Times a phase in segments separated by timer-driven reference loops.

    ``begin()`` and ``end()`` bracket the phase. ``paused_s`` is the time
    spent in reference loops so far, for callers that time parts of the
    phase themselves. With ``enabled`` false (the traced run) no reference
    loop runs and ``wall_ref_s`` equals ``wall_s``.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.segments: list[float] = []
        self.loops: list[float] = []
        self.paused_s = 0.0
        self._mark = 0.0
        self._busy = False
        self._previous = None

    def _reference(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self._mark = time.perf_counter()
        self.loops.append(self._mark - start)
        self.paused_s += self._mark - start

    def _tick(self, *_signal) -> None:
        if self._busy:  # a tick that lands inside a reference loop
            return
        self._busy = True
        self.segments.append(time.perf_counter() - self._mark)
        self._reference()
        self._busy = False

    def begin(self) -> None:
        if not self.enabled:
            self._mark = time.perf_counter()
            return
        self._reference()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def end(self) -> None:
        if not self.enabled:
            self.segments.append(time.perf_counter() - self._mark)
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    @property
    def wall_s(self) -> float:
        return sum(self.segments)

    @property
    def wall_ref_s(self) -> float:
        if not self.enabled:
            return self.wall_s
        # segment i runs between reference loops i and i + 1; the speed
        # changes within a second, so only those two loops set its speed
        return sum(
            seg * REF_LOOP_S / ((self.loops[i] + self.loops[i + 1]) / 2)
            for i, seg in enumerate(self.segments)
        )
