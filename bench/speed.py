"""Program time at a fixed reference speed, on a VM whose speed drifts.

The speed of a shared VM drifts by up to 60% from one second to the next,
in CPU time as much as in wall time, so raw times measure the neighbours as
much as the program.  `Meter` samples the speed while the program runs: a
SIGALRM every `EVERY_S` interrupts it and times a fixed probe (pure-Python
`Fraction` arithmetic, the program's own kind of work).  Each stretch of
program time is scaled by `REF_S` over the probe that starts it, so
`Meter.scaled` is the program's time at the speed at which the probe takes
`REF_S`.  Probe time is counted in neither `raw` nor `scaled`.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REF_S = 0.0025  # the probe's time at the reference speed
EVERY_S = 0.2  # program time between two probes
_clock = time.perf_counter


def _kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i) * Fraction(i, i + 1)
    return total


class Meter:
    """A clock of program time at the reference speed.

    Inside `with meter:`, a probe runs on entry and then on a SIGALRM every
    `EVERY_S`; the program time after a probe is scaled by `REF_S` over that
    probe's time.  One meter may be entered several times; its totals
    accumulate.
    """

    def __init__(self) -> None:
        self.raw = 0.0  # program time up to the last probe or exit
        self.scaled = 0.0
        self.probes: list[float] = []
        self._factor = 1.0  # REF_S over the last probe
        self._mark: float | None = None  # end of the last probe while running
        self._previous = None

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._advance()
        signal.signal(signal.SIGALRM, self._previous)

    def read(self) -> tuple[float, float]:
        """Program time so far, raw and scaled."""
        while True:
            probes, mark = len(self.probes), self._mark
            raw, scaled = self.raw, self.scaled
            if mark is not None:
                now = _clock()
                raw, scaled = raw + now - mark, scaled + (now - mark) * self._factor
            if len(self.probes) == probes:  # no probe ran meanwhile
                return raw, scaled

    def _advance(self) -> None:
        """Count the program time since the mark, and stop the clock."""
        mark, self._mark = self._mark, None
        if mark is not None:
            now = _clock()
            self.raw += now - mark
            self.scaled += (now - mark) * self._factor

    def _probe(self) -> None:
        started = _clock()
        _kernel()
        ended = _clock()
        self.probes.append(ended - started)
        self._factor = REF_S / (ended - started)
        self._mark = ended  # last: the clock runs again

    def _tick(self, *_) -> None:
        if self._mark is None:  # a late signal, or one during a probe
            return
        self._advance()
        self._probe()
