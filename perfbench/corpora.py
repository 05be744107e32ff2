"""Seeded benchmark inputs built from the calibrated generators.

Every workload runs the five machines' corpora the way ``repro study``
builds them: each system generated at the run scale, BG/L at 100x.  The
same ``(seed, scale)`` always yields the same records, lines and files.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

#: The five machines, in the order ``repro study`` runs them.
SYSTEMS = ("bgl", "liberty", "redstorm", "spirit", "thunderbird")


def system_scale(system: str, scale: float) -> float:
    """BG/L logs ~100x fewer messages; ``repro study`` scales it up."""
    return scale * (100 if system == "bgl" else 1)


def log_year(system: str) -> int:
    """The year a native-format log of ``system`` starts in (BSD syslog
    lines carry none; the reader needs it to rebuild timestamps)."""
    from repro.systems.specs import get_log_spec

    return int(get_log_spec(system).start_date[:4])


def generate(system: str, scale: float, seed: int) -> list:
    """One machine's calibrated corpus as a record list."""
    from repro.simulation.generator import generate_log

    return list(
        generate_log(system, scale=system_scale(system, scale), seed=seed).records
    )


def generate_all(scale: float, seed: int) -> Dict[str, list]:
    return {system: generate(system, scale, seed) for system in SYSTEMS}


def write_files(directory: str, scale: float, seed: int) -> Dict[str, str]:
    """Write the five corpora as native-format log files, flushed to
    disk as an operator's log files long have been (pending writeback
    would otherwise stall the timed section's own file operations)."""
    from repro.logio.writer import write_log
    from repro.simulation.generator import generate_log

    os.makedirs(directory, exist_ok=True)
    paths = {}
    for system in SYSTEMS:
        path = os.path.join(directory, f"{system}.log")
        generated = generate_log(
            system, scale=system_scale(system, scale), seed=seed
        )
        write_log(generated.records, path, system)
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())
        paths[system] = path
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return paths


def interleaved_lines(scale: float, seed: int) -> List[Tuple[str, str]]:
    """All five corpora as native-format lines, ``(system, line)`` pairs.

    The five streams are interleaved by relative position, so a replay
    feeds every machine its share of the load throughout, each in its
    own log order.
    """
    from repro.logio.writer import render_lines

    keyed = []
    for system in SYSTEMS:
        records = generate(system, scale, seed)
        n = len(records)
        for i, line in enumerate(render_lines(records, system)):
            keyed.append(((i + 0.5) / n, system, line))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [(system, line) for _pos, system, line in keyed]
