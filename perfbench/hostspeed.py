"""Host speed, read by a short fixed pure-Python probe, and times scaled by it.

The benchmark runs on a shared host that slows this machine's vCPUs by up to
2x (at times more), switching between full and about half speed several
times a second, for stretches of the run that change from minute to minute.
CPU time slows exactly as wall time does.  A raw wall time therefore says as
much about the neighbours as about the program.  The probe does the kind of
work arquiver does (tuples, dict lookups, small-int arithmetic) and is slowed
alike: timed next to a sweep orientation over a minute, the ratio of the two
spread 0.08 where each alone spread 0.46.

Every measured process probes the host every ``PERIOD_S`` of its user CPU
time from a ``SIGVTALRM`` handler (``start_sampling``); the parent probes
just before spawning a child and just after it exits.  The timer counts CPU
time, not wall time, so that it never fires while the process is blocked in
a system call: CPython 3.11 silently drops the rest of a pipe write that a
signal interrupts (seen on the cli's 86 kB ``build --format json`` output
when the reader fell behind).  While the process runs, CPU time passes at
the rate of wall time however slow the host is.

``scaled`` turns an interval into seconds at reference speed: its wall time
less the probes run inside it, times ``REFERENCE_S`` times the mean of
1/probe time over the probes in and around it.  Reference speed is the speed at which the probe takes
``REFERENCE_S``, close to the fastest wall times of a 2-vCPU x86-64 host
with CPython 3.11.  A change to the program moves a scaled time as it moves
the wall time; a change of host speed moves the probe with it and cancels.
"""

from __future__ import annotations

import json
import signal
import sys
import time

PROBE_STEPS = 2000
PERIOD_S = 0.02
# the probe's time at the fastest: the 1st percentile of 5000 probes in a row
# on a 2-vCPU host with CPython 3.11
REFERENCE_S = 0.00057
REPORT_MARK = "perfbench-probes "

Probe = tuple[float, float]  # (perf_counter at its start, seconds it took)


def _probe_loop(steps: int) -> int:
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(steps):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(key) * (i ^ 5)
    return total + len(table)


def probe() -> Probe:
    start = time.perf_counter()
    _probe_loop(PROBE_STEPS)
    return start, time.perf_counter() - start


class Sampler:
    """Probes taken every ``PERIOD_S`` of user CPU time in this process.

    ``on_probe``, if set, is called with each probe's duration; the span
    tracer uses it to keep probe time out of the self time of the span the
    probe interrupted.
    """

    def __init__(self) -> None:
        self.probes: list[Probe] = []
        self.on_probe = None

    def _on_alarm(self, signum, frame) -> None:
        taken = probe()
        self.probes.append(taken)
        if self.on_probe is not None:
            self.on_probe(taken[1])


SAMPLER: Sampler | None = None


def start_sampling() -> Sampler:
    """Start probing this process periodically (once; later calls return the
    running sampler)."""
    global SAMPLER
    if SAMPLER is None:
        SAMPLER = Sampler()
        signal.signal(signal.SIGVTALRM, SAMPLER._on_alarm)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)
    return SAMPLER


def probes_now() -> list[Probe]:
    """This process's probes so far, and one taken now."""
    return [*start_sampling().probes, probe()]


def report_at_exit() -> None:
    """Write this process's probes as the last stderr line, for the parent."""
    signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    sys.stderr.write("\n" + REPORT_MARK + json.dumps(SAMPLER.probes if SAMPLER else []) + "\n")
    sys.stderr.flush()


def child_probes(stderr: str) -> tuple[list[Probe], str]:
    """Split a child's stderr into its probes and the rest of the text."""
    head, mark, tail = stderr.rpartition(REPORT_MARK)
    if not mark:
        return [], stderr
    return [tuple(p) for p in json.loads(tail)], head


def busy(start: float, end: float, probes: list[Probe]) -> float:
    """Wall seconds in ``[start, end]`` less the probes run inside it."""
    return end - start - sum(d for s, d in probes if start <= s < end)


def scaled(start: float, end: float, probes: list[Probe]) -> float:
    """Seconds of work in ``[start, end]`` at reference speed.

    ``probes`` must be sorted by start and hold at least one probe.  The host
    speed is read from the probes that start within ``PERIOD_S`` of the
    interval; an interval with none there takes the nearest one.
    """
    near = [d for s, d in probes if start - PERIOD_S <= s <= end + PERIOD_S]
    if not near:
        near = [min(probes, key=lambda p: min(abs(p[0] - start), abs(p[0] - end)))[1]]
    rate = sum(1 / d for d in near) / len(near)
    return busy(start, end, probes) * REFERENCE_S * rate
