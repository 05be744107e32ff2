"""Host-speed probe, timed between the phases of a timed section.

On a small shared host the speed of one vCPU moves by 30% or more
within a second and stays slow for tens of seconds at a time, with
the two vCPUs moving independently; a median over a run cannot remove
that.  So the benchmark times each phase of its timed work (an import,
one system's run, the tables), runs a fixed pure-Python probe on the
same CPU right after it, and scales the phase by the probes on either
side of it::

    adjusted = phase_s * nominal_s / ((probe_before + probe_after) / 2)

``adjusted`` is the time the phase would have taken on a host where the
probe takes ``nominal_s``.  Probe time is never part of a phase.  The
probe mixes the operations the program spends its time on: string
formatting, dict updates, regex searches and list appends.

The kernel's cost of a file operation on the same host moves by several
times over minutes, and no probe tracked it closely enough (see
``probe.why`` in ``plan.json``).  A section that spends much of its time
in the kernel is therefore measured ``user_only``: its adjusted time is
scaled by the section's share of user CPU time in its wall time, so
kernel time and waits are left out.
"""

from __future__ import annotations

import os
import re
import resource
import time
from typing import List, Optional, Sequence

_PATTERN = re.compile(r"(error|fail\w*|panic)\s+(\d+)")
_TEXTS = [
    "kernel: ciod: failed to read message prefix on control stream 17",
    "sshd[2212]: Accepted publickey for root from 10.0.0.4 port 5120",
    "pbs_mom: task_check, cannot tm_reply to 401.ladmin1 task 1",
    "kernel: EXT3-fs error 28 (device sda5): ext3_find_entry",
]


def probe(loops: int) -> float:
    """Seconds the fixed CPU probe loop takes now, on this CPU."""
    t0 = time.perf_counter()
    counts = {}
    found = []
    texts = _TEXTS
    search = _PATTERN.search
    for i in range(loops):
        text = texts[i & 3]
        key = "%s:%d" % (text[:6], i & 255)
        counts[key] = counts.get(key, 0) + 1
        match = search(text)
        if match is not None:
            found.append(match.group(2))
    return time.perf_counter() - t0


def cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


def pin(cpu_set: Sequence[int]) -> None:
    os.sched_setaffinity(0, set(cpu_set))


def probe_on(cpu_set: Sequence[int], loops: int) -> float:
    """Mean CPU probe time over each CPU of ``cpu_set``, probing each
    alone (this process's affinity is restored afterwards)."""
    before = os.sched_getaffinity(0)
    total = 0.0
    try:
        for cpu in cpu_set:
            pin([cpu])
            total += probe(loops)
    finally:
        os.sched_setaffinity(0, before)
    return total / len(cpu_set)


def _user_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class Laps:
    """Consecutive timed phases, each followed by a probe.

    ``lap()`` closes the running phase, probes, and starts the next
    phase; ``raw_s`` and ``adjusted_s`` sum the closed phases.  The
    first phase starts at ``t0`` (a ``time.monotonic()`` reading) and is
    scaled by the probe after it alone; with ``t0=None`` a probe runs
    first and the first phase starts after it.  ``cpu_set`` names the
    CPUs whose mean speed the phases depend on (``None``: probe wherever
    this process runs).  ``settings`` is the plan's ``probe`` entry.
    """

    def __init__(self, settings: dict, t0: Optional[float] = None,
                 cpu_set: Optional[Sequence[int]] = None,
                 user_only: bool = False):
        self.settings = settings
        self.cpu_set = list(cpu_set) if cpu_set else None
        self.user_only = user_only
        #: ``(phase_s, probe before or None, probe after)``
        self.phases: List[tuple] = []
        self.last_probe = None if t0 is not None else self._probe()
        self.t0 = t0 if t0 is not None else time.monotonic()
        self.user0 = 0.0 if t0 is not None else _user_s()
        self.user_s = 0.0

    def _probe(self) -> float:
        loops = self.settings["loops"]
        if self.cpu_set is None:
            return probe(loops)
        return probe_on(self.cpu_set, loops)

    def lap(self) -> None:
        phase = time.monotonic() - self.t0
        user = _user_s()
        after = self._probe()
        self.phases.append((phase, self.last_probe, after))
        self.user_s += user - self.user0
        self.last_probe = after
        self.t0 = time.monotonic()
        self.user0 = _user_s()

    @property
    def raw_s(self) -> float:
        return sum(phase for phase, _b, _a in self.phases)

    @property
    def adjusted_s(self) -> float:
        nominal = self.settings["nominal_s"]
        adjusted = sum(adjust(phase, before, after, nominal)
                       for phase, before, after in self.phases)
        if self.user_only:
            adjusted *= min(self.user_s / self.raw_s, 1.0)
        return adjusted


def adjust(phase_s: float, before: Optional[float], after: float,
           nominal_s: float) -> float:
    """``phase_s`` scaled to a host where the CPU probe takes
    ``nominal_s``, from the probes before (if any) and after the phase."""
    probe_s = after if before is None else (before + after) / 2.0
    return phase_s * nominal_s / probe_s
