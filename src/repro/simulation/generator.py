"""Top-level synthetic log generators, one per supercomputer.

:class:`LogGenerator` assembles the whole substrate for one machine —
cluster, workload, operational-context timeline, incident plan, background
traffic, collection with corruption — and yields the merged, time-ordered
:class:`~repro.logmodel.record.LogRecord` stream an analyst would read off
the machine's logging server.

Scaling: ``scale`` multiplies message *volumes* (background counts and
alert burst multiplicities); ``incident_scale`` multiplies the number of
distinct failures.  The defaults reproduce the paper's Table 4 shape at
whatever volume fits the caller's budget: filtered counts track
``incident_scale`` while raw counts track ``scale``.

Determinism: everything derives from one ``numpy.random.SeedSequence``, so
a (system, scale, seed) triple always yields the identical log.  The record
stream fixes its draw order:

* background slices are drawn in slice order, each as times, then sources
  (``choice``), then templates (``integers``);
* incident bodies are drawn in incident order, before any gap;
* burst gaps are drawn one per record popped from the burst heap (a
  burst's last record included), in pop order;
* records are ordered by quantized timestamp; a tie goes to the background
  before any burst, to the lower slice index within the background, and to
  the lower incident index among bursts — within one slice or burst, to
  the earlier record.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.categories import CategoryDef
from ..core.rules import get_ruleset
from ..logmodel.record import Channel, LogRecord
from ..systems.specs import get_system
from .background import pool_for
from .calibration import SystemScenario, get_scenario
from .cluster import Cluster
from .collector import Collector
from .corruptor import Corruptor
from .failures import Incident, IncidentPlanner
from .opcontext import ContextTimeline, synthesize_timeline
from .workload import Job, WorkloadModel

#: Channels whose on-disk format has one-second timestamp granularity.
_SECOND_GRANULARITY = (
    Channel.SYSLOG_UDP,
    Channel.SYSLOG_LOCAL,
    Channel.DDN,
    Channel.RAS_TCP,
)


def _quantize(timestamp: float, channel: Channel) -> float:
    """Apply the channel's timestamp granularity (Section 3.1: microseconds
    on BG/L, one second for typical syslogs)."""
    if channel in _SECOND_GRANULARITY:
        return float(int(timestamp))
    return round(timestamp, 6)


#: Records per slice per background merge window (bounds the merge's
#: working memory), and standard-exponential gaps drawn per refill.
_WINDOW = 512
_GAP_CHUNK = 1024


@dataclass
class _BackgroundSlice:
    """One drawn background slice: quantized times plus index columns."""

    times: np.ndarray
    node_idx: np.ndarray
    template_idx: np.ndarray
    pool: Sequence[Tuple[str, str]]
    names: Sequence[str]
    severity: Optional[str]
    channel: Channel

    def records(self, system: str, start: int, end: int) -> List[LogRecord]:
        """The slice's records ``[start, end)``, in position order."""
        pool, names = self.pool, self.names
        severity, channel = self.severity, self.channel
        ras = channel is Channel.RAS_TCP
        out = []
        for t, n, k in zip(
            self.times[start:end].tolist(),
            self.node_idx[start:end].tolist(),
            self.template_idx[start:end].tolist(),
        ):
            facility, body = pool[k]
            source = names[n]
            if ras:
                body = f"src:::{source} svc:::{source} {body}"
            out.append(
                LogRecord(t, source, facility, body, system, severity, channel)
            )
        return out


def _merge(
    background: Iterator[LogRecord], bursts: Iterator[LogRecord]
) -> Iterator[LogRecord]:
    """Two time-ordered streams as one; the background wins ties."""
    burst = next(bursts, None)
    for record in background:
        while burst is not None and burst.timestamp < record.timestamp:
            yield burst
            burst = next(bursts, None)
        yield record
    if burst is not None:
        yield burst
        yield from bursts


@dataclass
class GeneratedLog:
    """A generated log plus the ground truth behind it."""

    system: str
    scenario: SystemScenario
    cluster: Cluster
    timeline: ContextTimeline
    jobs: List[Job]
    incidents: List[Incident]
    records: Iterator[LogRecord]


class LogGenerator:
    """Builds the substrate for one machine and streams its log.

    Parameters
    ----------
    system:
        Short machine name (``"bgl"``, ``"thunderbird"``, ``"redstorm"``,
        ``"spirit"``, ``"liberty"``).
    scale:
        Volume multiplier applied to the paper's message counts.
    seed:
        Master seed; all randomness derives from it.
    incident_scale:
        Multiplier on distinct-failure counts (default 1.0 keeps the
        paper's filtered counts).
    max_nodes:
        Cap on simulated cluster size (memory guard for BG/L's 65536).
    corruption:
        Override the scenario's corruption rate (``None`` keeps it).
    background_scale:
        Separate volume multiplier for non-alert traffic (defaults to
        ``scale``).  Lets an experiment run alert bursts at full paper
        multiplicities without paying for hundreds of millions of chaff
        messages.
    """

    def __init__(
        self,
        system: str,
        scale: float = 1e-4,
        seed: int = 2007,
        incident_scale: float = 1.0,
        max_nodes: int = 2048,
        corruption: Optional[float] = None,
        background_scale: Optional[float] = None,
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if incident_scale <= 0:
            raise ValueError("incident_scale must be positive")
        if background_scale is not None and background_scale < 0:
            raise ValueError("background_scale must be non-negative")
        self.system = system
        self.spec = get_system(system)
        self.scenario = get_scenario(system)
        self.ruleset = get_ruleset(system)
        self.scale = scale
        self.background_scale = scale if background_scale is None else background_scale
        self.incident_scale = incident_scale
        self.corruption = (
            self.scenario.corruption_rate if corruption is None else corruption
        )
        system_tag = sum(system.encode())  # stable across processes, unlike hash()
        self._seed_seq = np.random.SeedSequence(entropy=(seed, system_tag))
        children = self._seed_seq.spawn(6)
        self._rng_plan = np.random.default_rng(children[0])
        self._rng_background = np.random.default_rng(children[1])
        self._rng_bodies = np.random.default_rng(children[2])
        self._rng_corrupt = np.random.default_rng(children[3])
        self._rng_jobs = np.random.default_rng(children[4])
        self._rng_context = np.random.default_rng(children[5])
        self.cluster = Cluster(self.spec, max_nodes=max_nodes)
        self._categories: Dict[str, CategoryDef] = {
            cat.name: cat for cat in self.ruleset
        }

    # -- substrate pieces ---------------------------------------------------

    def build_jobs(self) -> List[Job]:
        """The workload trace (needed by job-correlated categories)."""
        needs_jobs = any(cat.job_correlated for cat in self.scenario.categories)
        if not needs_jobs:
            return []
        model = WorkloadModel(self.cluster)
        return model.generate_list(
            self._rng_jobs, self.scenario.start_epoch, self.scenario.end_epoch
        )

    def build_timeline(self) -> ContextTimeline:
        """Ground-truth operational context for the observation window."""
        return synthesize_timeline(
            self._rng_context, self.scenario.start_epoch, self.scenario.end_epoch
        )

    def build_incidents(
        self,
        jobs: Sequence[Job],
        timeline: Optional[ContextTimeline] = None,
    ) -> List[Incident]:
        planner = IncidentPlanner(
            self.scenario, self.cluster, self._rng_plan, jobs,
            timeline=timeline,
        )
        return planner.plan(scale=self.scale, incident_scale=self.incident_scale)

    # -- record streams -----------------------------------------------------

    def _burst_records(self, incidents: Sequence[Incident]) -> Iterator[LogRecord]:
        """Every incident's alert burst, merged time-ordered in one heap.

        Gaps within a burst are exponential with a mean chosen so the burst
        stays within the filter threshold chain (every gap < 5 s), which is
        what makes redundant reporting collapsible; gap means shrink for
        huge bursts (the Spirit storm logged tens of messages per second).
        One body per incident: redundant reports repeat the SAME message
        (same job id, same address) — that is what makes them redundant.

        The heap holds ``(quantized time, incident index)``; draws follow
        the module's determinism contract (bodies first, then one gap per
        record popped).
        """
        rng = self._rng_bodies
        system = self.system
        cats = [self._categories[inc.category] for inc in incidents]
        bodies = [cat.make_body(rng) for cat in cats]
        gap_means = [
            min(1.2, max(0.08, 600.0 / inc.multiplicity)) for inc in incidents
        ]
        times = [inc.start for inc in incidents]
        emitted = [0] * len(incidents)
        heap = [
            (_quantize(t, cat.channel), i)
            for i, (t, cat) in enumerate(zip(times, cats))
        ]
        heapq.heapify(heap)
        gaps: List[float] = []
        next_gap = 0
        while heap:
            stamp, i = heap[0]
            inc = incidents[i]
            cat = cats[i]
            k = emitted[i]
            source = inc.sources[k % len(inc.sources)]
            body = bodies[i]
            if cat.channel is Channel.RAS_TCP:
                body = f"src:::{source} svc:::{source} {body}"
            yield LogRecord(
                stamp, source, cat.facility, body, system, cat.severity,
                cat.channel,
            )
            if next_gap == len(gaps):
                gaps = rng.standard_exponential(_GAP_CHUNK).tolist()
                next_gap = 0
            gap = gap_means[i] * gaps[next_gap]
            next_gap += 1
            k += 1
            if k == inc.multiplicity:
                heapq.heappop(heap)
                continue
            emitted[i] = k
            times[i] += min(4.0, max(0.05, gap))
            heapq.heapreplace(heap, (_quantize(times[i], cat.channel), i))

    def _background_slices(self) -> List[_BackgroundSlice]:
        """Draw every background slice, in slice order.

        Each slice draws its times, then its sources (``choice``), then
        its templates (``integers``); an empty slice draws nothing.  The
        times are quantized in place.
        """
        rng = self._rng_background
        nodes, weights = zip(*self.cluster.chattiness())
        names = [node.name for node in nodes]
        probabilities = np.asarray(weights, dtype=float)
        probabilities /= probabilities.sum()
        slices = []
        for spec in self.scenario.background:
            n = round(spec.count * self.background_scale)
            if n <= 0:
                continue
            times = self._background_times(rng, n)
            pool = pool_for(self.system, spec.severity, spec.channel)
            node_idx = rng.choice(len(nodes), size=n, p=probabilities)
            template_idx = rng.integers(0, len(pool), size=n)
            if spec.channel in _SECOND_GRANULARITY:
                np.floor(times, out=times)  # == int() for positive epochs
            else:
                for lo in range(0, n, _WINDOW):
                    chunk = times[lo:lo + _WINDOW]
                    chunk[:] = [round(t, 6) for t in chunk.tolist()]
            slices.append(
                _BackgroundSlice(
                    times, node_idx, template_idx, pool, names,
                    spec.severity, spec.channel,
                )
            )
        return slices

    def _background_records(self) -> Iterator[LogRecord]:
        """All non-alert traffic, merged across severity/channel slices.

        Order is by quantized timestamp; ties go to the lower slice index,
        then the earlier position — a stable sort of the slices' records.
        The merge works in bounded windows.  The cut is the first record,
        in that order, just past the next ``_WINDOW`` records of some
        slice; every record ordered before it is a prefix of the merge, at
        most ``_WINDOW`` per slice, and is sorted and emitted together.
        """
        slices = self._background_slices()
        keys = [piece.times for piece in slices]
        pos = [0] * len(slices)
        while any(p < len(k) for p, k in zip(pos, keys)):
            cut, cut_slice = min(
                (
                    (float(k[p + _WINDOW]), s)
                    for s, (p, k) in enumerate(zip(pos, keys))
                    if p + _WINDOW < len(k)
                ),
                default=(math.inf, len(keys)),
            )
            spans = []
            for s, (p, k) in enumerate(zip(pos, keys)):
                # A tie at the cut belongs to the window up to the cut's slice.
                side = "right" if s <= cut_slice else "left"
                end = p + int(np.searchsorted(k[p:p + _WINDOW], cut, side))
                if end > p:
                    spans.append((s, p, end))
            window: List[LogRecord] = []
            for s, p, end in spans:
                window.extend(slices[s].records(self.system, p, end))
                pos[s] = end
            if len(spans) > 1:
                order = np.argsort(
                    np.concatenate([keys[s][p:end] for s, p, end in spans]),
                    kind="stable",
                )
                window = [window[i] for i in order.tolist()]
            yield from window

    def _background_times(self, rng, n: int) -> np.ndarray:
        """Sorted arrival times honoring the piecewise rate profile.

        Liberty's profile encodes the Figure 2(a) evolution shifts: the
        per-segment expected share is multiplier x segment length, so a
        step in the multiplier is a step in messages/hour.
        """
        t0, t1 = self.scenario.start_epoch, self.scenario.end_epoch
        profile = list(self.scenario.rate_profile)
        boundaries = [t0 + frac * (t1 - t0) for frac, _ in profile] + [t1]
        segment_weights = np.array(
            [
                profile[i][1] * (boundaries[i + 1] - boundaries[i])
                for i in range(len(profile))
            ]
        )
        segment_weights /= segment_weights.sum()
        counts = rng.multinomial(n, segment_weights)
        chunks = []
        for i, count in enumerate(counts):
            if count == 0:
                continue
            chunk = boundaries[i] + rng.random(count) * (
                boundaries[i + 1] - boundaries[i]
            )
            chunk.sort()
            chunks.append(chunk)
        if not chunks:
            return np.empty(0)
        return np.concatenate(chunks)

    # -- assembly -----------------------------------------------------------

    def generate(self) -> GeneratedLog:
        """Build everything and return the stream plus ground truth."""
        jobs = self.build_jobs()
        timeline = self.build_timeline()
        incidents = self.build_incidents(jobs, timeline)
        corruptor = (
            Corruptor(self._rng_corrupt, rate=self.corruption)
            if self.corruption > 0
            else None
        )
        collector = Collector(self.spec.log_server, corruptor=corruptor)
        records = collector.collect(
            _merge(self._background_records(), self._burst_records(incidents))
        )
        return GeneratedLog(
            system=self.system,
            scenario=self.scenario,
            cluster=self.cluster,
            timeline=timeline,
            jobs=jobs,
            incidents=incidents,
            records=records,
        )

    def records(self) -> Iterator[LogRecord]:
        """Just the record stream (convenience)."""
        return self.generate().records


def generate_log(
    system: str,
    scale: float = 1e-4,
    seed: int = 2007,
    incident_scale: float = 1.0,
    **kwargs,
) -> GeneratedLog:
    """One-call generation: substrate plus record stream for a machine."""
    return LogGenerator(
        system, scale=scale, seed=seed, incident_scale=incident_scale, **kwargs
    ).generate()


def generate_all(
    scale: float = 1e-4, seed: int = 2007, **kwargs
) -> Dict[str, GeneratedLog]:
    """Generate all five machines' logs (lazily; streams unconsumed)."""
    from ..systems.specs import SYSTEMS

    return {
        name: generate_log(name, scale=scale, seed=seed, **kwargs)
        for name in SYSTEMS
    }
