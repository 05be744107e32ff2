"""Severity-vs-expert-tag evaluation (the paper's Tables 5 and 6).

The paper cross-tabulates the severity field against its expert alert
tags to show severity is an unreliable detector: "if we had used the
severity field instead of the expert rules to tag alerts on BG/L, tagging
any message with a severity of FATAL or FAILURE as an alert, we would have
a false negative rate of 0% but a false positive rate of 59.34%"
(Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.severity import SeverityTaggerConfig
from ..core.tagging import Tagger
from ..logmodel.record import LogRecord


@dataclass
class SeverityCrossTab:
    """Per-severity message and alert counts — one of Tables 5/6.

    ``messages[label]`` counts all messages carrying that severity;
    ``alerts[label]`` counts the subset the expert rules tag as alerts.
    ``label`` is the severity string, or ``"(none)"`` for records without
    the field (the state of affairs on three of the five machines).
    """

    messages: Dict[str, int] = field(default_factory=dict)
    alerts: Dict[str, int] = field(default_factory=dict)

    NONE_LABEL = "(none)"

    def add(self, record: LogRecord, is_alert: bool) -> None:
        label = record.severity if record.severity is not None else self.NONE_LABEL
        self.messages[label] = self.messages.get(label, 0) + 1
        if is_alert:
            self.alerts[label] = self.alerts.get(label, 0) + 1

    def add_batch(
        self, records: Sequence[LogRecord], alert_indices: Iterable[int]
    ) -> None:
        """Batch form of :meth:`add`: every record counts as a message;
        the records at ``alert_indices`` also count as alerts.  A plain
        dict loop: the tab's dicts grow in the same first-occurrence key
        order the per-record form produces, and a one-record batch costs
        about what :meth:`add` does."""
        none_label = self.NONE_LABEL
        messages = self.messages
        for record in records:
            label = record.severity
            if label is None:
                label = none_label
            messages[label] = messages.get(label, 0) + 1
        alerts = self.alerts
        for i in alert_indices:
            label = records[i].severity
            if label is None:
                label = none_label
            alerts[label] = alerts.get(label, 0) + 1

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def total_alerts(self) -> int:
        return sum(self.alerts.values())

    def rows(self, order: Sequence[str]) -> List[Tuple[str, int, float, int, float]]:
        """(label, messages, msg %, alerts, alert %) rows in a fixed order,
        matching the layout of Tables 5 and 6.

        Percentages are over the listed labels only: Table 6 covers just
        the severity-bearing syslog paths, so Red Storm's severity-less
        RAS-path records must not inflate the denominators.
        """
        total_m = sum(self.messages.get(label, 0) for label in order) or 1
        total_a = sum(self.alerts.get(label, 0) for label in order) or 1
        out = []
        for label in order:
            m = self.messages.get(label, 0)
            a = self.alerts.get(label, 0)
            out.append((label, m, 100.0 * m / total_m, a, 100.0 * a / total_a))
        return out


def severity_cross_tab(
    records: Iterable[LogRecord],
    tagger: Tagger,
) -> SeverityCrossTab:
    """Build the severity/alert cross-tabulation in one pass."""
    tab = SeverityCrossTab()
    for record in records:
        tab.add(record, tagger.match(record) is not None)
    return tab


@dataclass(frozen=True)
class DetectorScore:
    """Confusion counts of a severity-based detector vs expert tags."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def false_positive_rate(self) -> float:
        """Fraction of severity-flagged messages that are not alerts —
        the 59.34 % number in Section 3.2 uses this definition (1 -
        precision), not FP over all negatives."""
        flagged = self.true_positives + self.false_positives
        return self.false_positives / flagged if flagged else 0.0

    @property
    def false_negative_rate(self) -> float:
        """Fraction of expert alerts the detector misses."""
        actual = self.true_positives + self.false_negatives
        return self.false_negatives / actual if actual else 0.0

    @property
    def precision(self) -> float:
        return 1.0 - self.false_positive_rate

    @property
    def recall(self) -> float:
        return 1.0 - self.false_negative_rate


def score_severity_detector(
    records: Iterable[LogRecord],
    tagger: Tagger,
    config: Optional[SeverityTaggerConfig] = None,
) -> DetectorScore:
    """Score a severity-based detector against the expert ruleset.

    With the default config (FATAL/FAILURE on BG/L) this reproduces the
    paper's 0 % FN / 59.34 % FP evaluation.
    """
    config = config or SeverityTaggerConfig.bgl_fatal_failure()
    tp = fp = tn = fn = 0
    for record in records:
        flagged = (
            record.severity is not None
            and record.severity in config.alert_labels
        )
        actual = tagger.match(record) is not None
        if flagged and actual:
            tp += 1
        elif flagged:
            fp += 1
        elif actual:
            fn += 1
        else:
            tn += 1
    return DetectorScore(tp, fp, tn, fn)
