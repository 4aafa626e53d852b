"""Host speed, measured by a probe interleaved with the program.

The benchmark runs on a few cores of a shared host whose speed drifts with
what other tenants run: the same pass can take half as long again a few
minutes later.  Wall time alone then measures the host as much as the
program.  So each pass times, between the program's verbs, a fixed unit of
pure-Python work that uses nothing of the program (the *probe*), and the
benchmark reports each timing scaled to a nominal host speed:

    scaled seconds = wall seconds * NOMINAL_PROBE_S / mean probe time

where the mean is over the probes of the same pass.  The mean, not the
median: when the host alternates between fast and slow spells, the program
pays the average of the two, and so does the mean probe.  A scaled second is
the wall second the work would take on a host that runs the probe in
``NOMINAL_PROBE_S``.  Wall-clock values are printed next to the scaled ones.

A probe runs only while the program waits between verbs, so it is never
inside a timed segment.  Its work is what the program's is made of —
building small dicts and tuples, formatting and hashing strings, dict
lookups — because work of another kind follows the host's drift with
another slope.  Each timed unit follows a short untimed warm-up, so what
the program left in the caches does not change what a probe costs, and the
garbage collector is off while a probe runs, so the program's heap does not
either.
"""

from __future__ import annotations

import gc
import statistics
import time

#: About what the probe takes on an idle host of the machine the baseline
#: in README.md was measured on.  A constant, so scaled times compare across
#: runs and commits.
NOMINAL_PROBE_S = 1.0e-3
#: Probe units taken at the ends of a pass and after a verb of at least
#: LONG_VERB_S, where one probe would stand for a long stretch of time.
BRACKET_UNITS = 10
LONG_VERB_S = 0.1


def probe_unit(count: int = 1500) -> int:
    """The reference work: build *count* small records, index and look them up."""
    rows = [{"key": i, "name": str(i), "pair": (i, "x")} for i in range(count)]
    index = {row["name"]: row for row in rows}
    return sum(index[str(i)]["key"] for i in range(0, count, 3))


class HostProbe:
    """The probe times of one pass, or of one block of set-ups."""

    def __init__(self) -> None:
        self.times: list[float] = []
        #: Wall seconds spent probing, warm-ups included.
        self.spent = 0.0

    def sample(self, units: int = 1) -> None:
        began = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(units):
                probe_unit(150)
                start = time.perf_counter()
                probe_unit()
                self.times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - began

    def now(self) -> float:
        """``time.perf_counter`` less the time spent probing: the program's clock."""
        return time.perf_counter() - self.spent

    def after(self, seconds: float) -> None:
        """Probe after a verb that took *seconds*: more units after a long one."""
        self.sample(BRACKET_UNITS if seconds >= LONG_VERB_S else 1)

    def scale(self) -> float:
        """Factor from wall seconds to seconds at the nominal host speed."""
        return NOMINAL_PROBE_S / statistics.fmean(self.times)
