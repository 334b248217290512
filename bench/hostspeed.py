"""Host-speed sampling for the hombox benchmark's timed workers.

The benchmark runs on a shared host whose speed drifts by 10-30% over
seconds to minutes (a fixed pure-Python loop, timed back to back for six
minutes on the 2-vCPU sizing host, moved by that much; steal time stayed at
zero, so the slowdown is in the CPU the process is given).  One job of a
listed workload is 15-35 s long, so a run holds one job and a median over
jobs cannot average the drift out.

So a worker samples the host's speed while it works.  `Sampler.start()`
arms a SIGALRM timer; every INTERVAL_S the handler runs `probe`, a fixed
~6 ms reference loop, in the worker's own thread and records how long it
took.  `Sampler.ref_seconds(sections)` then turns the wall time of some
timed sections into reference-host seconds: the wall time minus the probes
that ran inside the sections, times REF_PROBE_S over the mean probe time in
them.  That is about the time the sections would have taken on the sizing
host.  A change to hombox moves it as it moves wall time; a drift of the
host moves the probe and the work together and cancels.

The probe allocates, sorts and groups tuples, the kind of work hombox does.
A probe with a working set of a few MB (dict lookups at scattered keys)
tracked the work worse: over 5 runs per workload its reference times
spread 0.055-0.15 (IQR/median), against 0.036-0.077 for this one, and it
added 11 MB to matching_K6_4's peak RSS.  The probe runs with the cyclic
collector off, so a collection hombox's heap has earned does not land
inside a probe.
"""

import gc
import signal
from time import perf_counter

INTERVAL_S = 0.25
# About the mean probe time inside a theorem_K5_3 phase on the sizing host.
REF_PROBE_S = 0.0065
# About the mean probe time right after setting up, in a fresh process.
REF_SETUP_PROBE_S = 0.005
# Sections with fewer probes than this are scaled by all of the worker's
# probes instead of their own.
MIN_PROBES = 3


def probe():
    rows = [((i * 7919) % 10007, i % 97, i) for i in range(6000)]
    rows.sort()
    groups = {}
    for a, b, c in rows:
        groups.setdefault((a % 503, b), []).append(c)
    return len(groups)


def time_probe():
    """One probe, with the cyclic collector off; returns (start, seconds)."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        probe()
        return t, perf_counter() - t
    finally:
        if was_on:
            gc.enable()


class Sampler:
    def __init__(self):
        self.probes = []

    def _tick(self, signum, frame):
        self.probes.append(time_probe())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def add(self, count):
        """Run `count` probes now, for sections too short to hold any."""
        self.probes.extend(time_probe() for _ in range(count))

    def ref_seconds(self, sections, ref=REF_PROBE_S):
        """Reference-host seconds of the (start, end) perf_counter
        sections, probes inside them excluded; `ref` is the probe time
        that stands for the reference host."""
        inside = [d for t, d in self.probes
                  if any(a <= t < b for a, b in sections)]
        wall = sum(b - a for a, b in sections) - sum(inside)
        scale = inside if len(inside) >= MIN_PROBES else [
            d for _, d in self.probes]
        return wall * ref * len(scale) / sum(scale)
