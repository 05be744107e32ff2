"""Failure-incident planning: when failures happen, where, how loudly.

The unit of planning is the **incident** — one underlying failure that the
filter should reduce to a single alert.  A category's incidents come from
its calibration (:mod:`repro.simulation.calibration`); this module decides
their start times, participating sources, and burst multiplicities, encoding
the paper's distributional findings:

* multiplicities are heavy-tailed ("sometimes millions of times",
  Section 3.2) — a Zipf-weighted split of the category's raw count;
* hot sources concentrate damage (Spirit's ``sn373``);
* correlated categories share incident times (Figure 3, Figure 4);
* job-correlated categories fire on communication-intensive jobs' node
  sets (the SMP clock bug, Section 4);
* per-system clustering groups incidents into bursts of related failures
  (cascades), shaping the filtered interarrival histograms of Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .calibration import PROFILES, CategoryCalibration, SystemScenario
from .cluster import Cluster, NodeRole
from .opcontext import ContextTimeline
from .workload import Job, communication_intensive


@dataclass(frozen=True)
class Incident:
    """One planned failure: a burst of ``multiplicity`` alerts of one
    category, starting at ``start``, spread over ``sources``."""

    category: str
    start: float
    multiplicity: int
    sources: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        if not self.sources:
            raise ValueError("an incident needs at least one source")


def capped_split(
    rng,
    total: int,
    parts: int,
    cap: int,
    exponent: float = 1.4,
) -> List[int]:
    """A Zipf-shaped split where no part exceeds ``cap``.

    Overflow above the cap is redistributed to under-cap parts, preserving
    the exact total.  Used for categories with a documented per-incident
    limit (the PBS bug's 74-repeat cap).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if total > parts * cap:
        raise ValueError(f"cannot fit {total} into {parts} parts of <= {cap}")
    counts = zipf_split(rng, total, parts, exponent)
    overflow = 0
    for i, value in enumerate(counts):
        if value > cap:
            overflow += value - cap
            counts[i] = cap
    while overflow > 0:
        room = [i for i, value in enumerate(counts) if value < cap]
        picks = rng.integers(0, len(room), size=overflow)
        for pick in picks:
            i = room[int(pick)]
            if counts[i] < cap:
                counts[i] += 1
                overflow -= 1
    return counts


def zipf_split(rng, total: int, parts: int, exponent: float = 1.4) -> List[int]:
    """Split ``total`` into ``parts`` positive integers with a Zipf shape.

    The heaviest incident gets the lion's share, matching the paper's
    storms (one six-day Spirit incident held 56.8 M of 172.8 M alerts).
    Parts are shuffled so rank does not correlate with planning order.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < parts:
        raise ValueError(f"cannot split {total} into {parts} positive parts")
    weights = 1.0 / np.arange(1, parts + 1, dtype=float) ** exponent
    weights /= weights.sum()
    remainder = total - parts
    extra = rng.multinomial(remainder, weights) if remainder > 0 else np.zeros(parts, int)
    counts = (1 + extra).tolist()
    rng.shuffle(counts)
    return [int(c) for c in counts]


class IncidentPlanner:
    """Plans all incidents for one system scenario."""

    def __init__(
        self,
        scenario: SystemScenario,
        cluster: Cluster,
        rng: np.random.Generator,
        jobs: Sequence[Job] = (),
        timeline: Optional[ContextTimeline] = None,
    ):
        self.scenario = scenario
        self.cluster = cluster
        self.rng = rng
        self.jobs = list(jobs)
        self.timeline = timeline
        self._cluster_centers = self._make_cluster_centers()
        self._downtime_intervals = (
            [
                (t0, t1)
                for t0, t1, state, _ in timeline.intervals()
                if state.is_downtime
            ]
            if timeline is not None
            else []
        )

    def _make_cluster_centers(self) -> np.ndarray:
        """Shared burst centers for cascade-style incident grouping."""
        if self.scenario.clustering <= 0:
            return np.empty(0)
        total_incidents = sum(cat.filtered for cat in self.scenario.categories)
        n_centers = max(2, total_incidents // 4)
        span = self.scenario.end_epoch - self.scenario.start_epoch
        centers = self.scenario.start_epoch + self.rng.random(n_centers) * span
        return np.sort(centers)

    def _profile_window(self, cat: CategoryCalibration) -> Tuple[float, float]:
        f0, f1 = PROFILES[cat.profile]
        span = self.scenario.end_epoch - self.scenario.start_epoch
        return (
            self.scenario.start_epoch + f0 * span,
            self.scenario.start_epoch + f1 * span,
        )

    def _free_times(self, cat: CategoryCalibration, count: int) -> np.ndarray:
        """Incident start times for an uncorrelated category."""
        t0, t1 = self._profile_window(cat)
        times = t0 + self.rng.random(count) * (t1 - t0)
        if self.scenario.clustering > 0 and len(self._cluster_centers):
            snap = self.rng.random(count) < self.scenario.clustering
            idx = self.rng.integers(0, len(self._cluster_centers), size=count)
            offsets = np.abs(
                self.rng.normal(0.0, self.scenario.cluster_span, size=count)
            )
            times = np.where(snap, self._cluster_centers[idx] + offsets, times)
        if cat.downtime_affinity > 0 and self._downtime_intervals:
            for i in range(count):
                if self.rng.random() < cat.downtime_affinity:
                    lo, hi = self._downtime_intervals[
                        int(self.rng.integers(0, len(self._downtime_intervals)))
                    ]
                    times[i] = lo + self.rng.random() * (hi - lo)
        return np.clip(times, t0, t1 - 1.0)

    def _correlated_times(
        self, base: Sequence[Incident], count: int, mean_lag: float = 45.0
    ) -> Tuple[np.ndarray, List[Tuple[str, ...]]]:
        """Start times and sources shadowing another category's incidents."""
        picks = self.rng.integers(0, len(base), size=count)
        lags = 2.0 + self.rng.exponential(mean_lag, size=count)
        chosen = [base[i] for i in picks.tolist()]
        times = np.array([inc.start for inc in chosen]) + lags
        sources = [inc.sources for inc in chosen]
        return times, sources

    def _job_times(self, count: int) -> Tuple[np.ndarray, List[Tuple[str, ...]]]:
        """Incident times inside communication-intensive jobs (CPU bug)."""
        # The clock bug needs a *set* of nodes under communication load:
        # single-node jobs have no network traffic to trigger it.
        multi_node = [job for job in self.jobs if len(job.nodes) >= 2]
        hot_jobs = communication_intensive(multi_node)
        if not hot_jobs:
            hot_jobs = multi_node or self.jobs
        if not hot_jobs:
            raise ValueError("job-correlated category requires a workload")
        picks = self.rng.integers(0, len(hot_jobs), size=count)
        times = []
        sources: List[Tuple[str, ...]] = []
        for i in picks.tolist():
            job = hot_jobs[i]
            times.append(job.start + self.rng.random() * job.duration)
            width = min(len(job.nodes), max(2, int(self.rng.integers(2, 9))))
            chosen = self.rng.choice(len(job.nodes), size=width, replace=False)
            sources.append(tuple([job.nodes[j].name for j in chosen.tolist()]))
        return np.array(times), sources

    def _sample_sources(self, cat: CategoryCalibration) -> Tuple[str, ...]:
        """Sources for one incident of an uncorrelated category."""
        spread = max(1, int(self.rng.integers(1, cat.spread + 1)))
        roles: Tuple[NodeRole, ...] = ()
        if self.scenario.system == "redstorm" and cat.category in (
            "BUS_PAR", "ADDR_ERR", "CMD_ABORT", "DSK_FAIL",
        ):
            roles = (NodeRole.CONTROLLER,)
        nodes = self.cluster.sample_nodes(self.rng, spread, roles=roles)
        return tuple(node.name for node in nodes)

    def plan_category(
        self,
        cat: CategoryCalibration,
        planned: Dict[str, List[Incident]],
        scale: float,
        incident_scale: float,
    ) -> List[Incident]:
        count = cat.incidents(incident_scale)
        raw_total = cat.scaled_raw(scale, incident_scale)

        sources_by_incident: Optional[List[Tuple[str, ...]]] = None
        if cat.job_correlated and self.jobs:
            times, sources_by_incident = self._job_times(count)
        elif cat.correlate_with is not None and planned.get(cat.correlate_with):
            times, sources_by_incident = self._correlated_times(
                planned[cat.correlate_with], count
            )
        else:
            times = self._free_times(cat, count)

        if cat.max_multiplicity is not None:
            multiplicities = capped_split(
                self.rng, raw_total, count, cat.max_multiplicity
            )
        else:
            multiplicities = zipf_split(self.rng, raw_total, count)

        # Hot-source concentration: a designated node owns a fixed share of
        # the raw volume across a fixed share of the incidents.
        hot_incidents = 0
        if cat.hot_source and cat.hot_raw_fraction > 0:
            hot_incidents = max(1, round(count * cat.hot_incident_fraction))
            hot_raw = round(raw_total * cat.hot_raw_fraction)
            hot_raw = max(hot_incidents, hot_raw)
            cold_raw = raw_total - hot_raw
            cold_count = count - hot_incidents
            if cold_count > 0 and cold_raw >= cold_count:
                multiplicities = (
                    zipf_split(self.rng, hot_raw, hot_incidents)
                    + zipf_split(self.rng, cold_raw, cold_count)
                )

        incidents: List[Incident] = []
        for i in range(count):
            if i < hot_incidents and cat.hot_source:
                # Hot-source concentration wins over inherited placement:
                # Spirit's sn373 dominated BOTH disk categories even though
                # their incidents were correlated (Section 3.3.1).
                sources = (cat.hot_source,)
            elif sources_by_incident is not None:
                sources = sources_by_incident[i]
            else:
                sources = self._sample_sources(cat)
            incidents.append(
                Incident(
                    category=cat.category,
                    start=float(times[i]),
                    multiplicity=multiplicities[i],
                    sources=sources,
                )
            )
        incidents.sort(key=lambda inc: inc.start)
        return incidents

    def plan(self, scale: float = 1.0, incident_scale: float = 1.0) -> List[Incident]:
        """Plan every category; correlation targets are planned first."""
        planned: Dict[str, List[Incident]] = {}
        ordered = sorted(
            self.scenario.categories,
            key=lambda cat: 0 if cat.correlate_with is None else 1,
        )
        for cat in ordered:
            planned[cat.category] = self.plan_category(
                cat, planned, scale, incident_scale
            )
        everything = [inc for incs in planned.values() for inc in incs]
        everything.sort(key=lambda inc: inc.start)
        return everything
