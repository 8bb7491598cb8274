"""In-process speed probe: the yardstick that scales the benchmark's times.

The host this benchmark was built on changes speed by up to a factor of two
over seconds and minutes, because other tenants share its caches and memory
bandwidth.  The engine's CPU time moves with its wall time, so neither can be
compared across runs made minutes apart.  The probe measures that speed
inside each worker, on the same core and at the same moments as the engine:
a timer signal runs a fixed unit of Python work every ``PERIOD_S`` seconds
and records how long it took.

A unit is part interpreter work (tuples, a dict, integer arithmetic) and,
for about three quarters of its time, random reads through a 60,000-tuple
list: a working set of a few MB that misses the core's own caches, as the
engine's memo lookups do.  Contention slows the engine more than plain
interpreter work and less than cache-missing reads; of the mixes tried on
that host, this one tracked the engine best.

``reference_s(probes, t0, t1)`` takes the probes' own time out of an
interval and multiplies the rest by the mean of ``REF_S / duration`` over
the probes taken inside it.  The result is in reference seconds: the time
the same work takes while one unit takes ``REF_S``.  The probe costs about
3% of every worker on top; its data (``footprint_mb``) is subtracted from
the worker's peak RSS, and ``spent_s()`` lets a caller take its time out of
shorter intervals.

The probe code is part of the benchmark, never of the engine, so a change to
the engine moves the engine's times and not the yardstick.
"""

from __future__ import annotations

import random
import resource
import signal
import time

PERIOD_S = 0.05
REF_S = 1.5e-3
CHASE_LEN = 60_000
CHASE_READS = 3_500

_probes: list = []
_spent = [0.0]
_chain: list = []
_reads: list = []
_footprint_kb = 0


def _unit() -> int:
    table = {}
    pair = (0, 1, 2)
    acc = 0
    for i in range(700):
        key = (i % 211, pair[i % 3])
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
    chain = _chain
    for j in _reads:
        acc += chain[j][1]
    return acc


def _tick(signum, frame) -> None:
    t0 = time.perf_counter()
    _unit()
    dt = time.perf_counter() - t0
    _probes.append((time.clock_gettime(time.CLOCK_MONOTONIC), dt))
    _spent[0] += dt


def start() -> None:
    """Build the probe's data and start the timer."""
    global _footprint_kb
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rng = random.Random(20)
    _chain[:] = [(i, i + 1) for i in range(CHASE_LEN)]
    _reads[:] = [rng.randrange(CHASE_LEN) for _ in range(CHASE_READS)]
    _footprint_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> list:
    """Stop the timer; returns the probes as [stamp, duration] pairs."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    return [list(p) for p in _probes]


def spent_s() -> float:
    """Seconds the probe has taken so far."""
    return _spent[0]


def footprint_mb() -> float:
    return _footprint_kb / 1024.0


def reference_s(probes, t0: float, t1: float) -> float:
    """The interval [t0, t1] (CLOCK_MONOTONIC stamps) in reference seconds.

    The probes stamped inside it are taken out of it, and the rest is
    multiplied by the mean of REF_S / duration over them.  An interval
    without probes (far shorter than a second) is left unscaled.
    """
    inside = [dt for stamp, dt in probes if t0 <= stamp <= t1]
    if not inside:
        return t1 - t0
    speed = sum(REF_S / dt for dt in inside) / len(inside)
    return (t1 - t0 - sum(inside)) * speed
