"""Contention reports produced by LASERDETECT.

At application exit (and at periodic checks), the detector reports, for
each source line above the rate threshold, the HITM rate plus the number
of true- and false-sharing events attributed to that line, and a
classification of the contention type.  The classification is
conservative: a line whose TS/FS event counts are too small or too mixed
is reported as UNKNOWN — the linear_regression situation, where low data
address accuracy on write-write HITM records leaves the line model
without a conclusive signal (Table 2).
"""

import enum
from typing import List, Optional

from repro.isa.program import SourceLocation

__all__ = ["ContentionClass", "LineReport", "ContentionReport"]

#: Minimum sharing events before a TS/FS verdict is attempted.
MIN_CLASSIFY_EVENTS = 6

#: Required dominance ratio between the majority and minority class.
CLASSIFY_DOMINANCE = 1.8

#: Minimum total false-sharing events (across candidate lines) before
#: LASERREPAIR is invoked: the repair trigger must not fire on lines
#: whose sharing evidence is pure noise.
MIN_REPAIR_FS_EVIDENCE = 3

#: Minimum fraction of a line's records that must have produced a
#: sharing event for a verdict.  Write-only lines feed the line model
#: mostly garbage data addresses (Figure 3: ~10% address accuracy for
#: store-triggered records), so they rarely reach MIN_CLASSIFY_EVENTS —
#: which is why LASER reports linear_regression's contention type as
#: unknown "due to low data address accuracy" (Table 2).  Kept at 0:
#: the sparsity effect alone reproduces the paper's verdicts.
CLASSIFY_CONFIDENCE_FRACTION = 0.0


class ContentionClass(enum.Enum):
    TRUE_SHARING = "TS"
    FALSE_SHARING = "FS"
    UNKNOWN = "unknown"


def classify_counts(ts_events: int, fs_events: int,
                    record_count: int = 0) -> ContentionClass:
    """Derive a contention verdict from per-line TS/FS event counts."""
    total = ts_events + fs_events
    needed = max(
        MIN_CLASSIFY_EVENTS,
        int(CLASSIFY_CONFIDENCE_FRACTION * record_count),
    )
    if total < needed:
        return ContentionClass.UNKNOWN
    if ts_events >= CLASSIFY_DOMINANCE * fs_events:
        return ContentionClass.TRUE_SHARING
    if fs_events >= CLASSIFY_DOMINANCE * ts_events:
        return ContentionClass.FALSE_SHARING
    return ContentionClass.UNKNOWN


class LineReport:
    """One reported source line."""

    __slots__ = ("location", "record_count", "hitm_rate", "ts_events",
                 "fs_events", "contention_class")

    def __init__(self, location: SourceLocation, record_count: int,
                 hitm_rate: float, ts_events: int, fs_events: int):
        self.location = location
        self.record_count = record_count
        self.hitm_rate = hitm_rate
        self.ts_events = ts_events
        self.fs_events = fs_events
        self.contention_class = classify_counts(ts_events, fs_events,
                                                record_count)

    def __repr__(self):
        return "<LineReport %s rate=%.0f/s TS=%d FS=%d -> %s>" % (
            self.location,
            self.hitm_rate,
            self.ts_events,
            self.fs_events,
            self.contention_class.value,
        )


class ContentionReport:
    """The detector's output for one run."""

    def __init__(self, lines: List[LineReport], duration_cycles: int,
                 sample_after_value: int, rate_threshold: float):
        self.lines = lines
        self.duration_cycles = duration_cycles
        self.sample_after_value = sample_after_value
        self.rate_threshold = rate_threshold

    def reported_locations(self) -> List[SourceLocation]:
        return [line.location for line in self.lines]

    def line_for(self, location: SourceLocation) -> Optional[LineReport]:
        for line in self.lines:
            if line.location == location:
                return line
        return None

    def false_sharing_lines(self, min_rate: float = 0.0) -> List[LineReport]:
        """Reported lines classified as false sharing above ``min_rate``."""
        return [
            line
            for line in self.lines
            if line.contention_class is ContentionClass.FALSE_SHARING
            and line.hitm_rate >= min_rate
        ]

    def repair_candidates(self, min_total_hitm_rate: float) -> List[LineReport]:
        """Lines to hand to LASERREPAIR, if their combined rate merits it.

        Section 4.4: the detector "periodically checks the HITM event
        rate, triggering LASERREPAIR if the rate of false sharing events
        exceeds a given threshold."  Candidate lines are the reported
        lines not dominated by true-sharing evidence (repairing true
        sharing is fruitless, Section 7.1); an UNKNOWN verdict does not
        block repair — that is how linear_regression, whose type the
        detector cannot pin down, still gets repaired automatically.
        Returns [] unless the candidates' combined HITM rate reaches
        ``min_total_hitm_rate``.
        """
        candidates = [
            line
            for line in self.lines
            if line.contention_class is not ContentionClass.TRUE_SHARING
            and line.fs_events >= line.ts_events
        ]
        total_rate = sum(line.hitm_rate for line in candidates)
        total_fs = sum(line.fs_events for line in candidates)
        total_ts = sum(line.ts_events for line in candidates)
        if total_rate < min_total_hitm_rate:
            return []
        if total_fs < MIN_REPAIR_FS_EVIDENCE or 1.5 * total_fs < total_ts:
            return []
        return candidates

    def render(self) -> str:
        """Human-readable report, the tool's console output."""
        if not self.lines:
            return "no contention above %.0f HITMs/sec" % self.rate_threshold
        rows = ["%-28s %10s %8s %8s %8s" % ("location", "HITM/s", "TS", "FS", "class")]
        for line in self.lines:
            rows.append(
                "%-28s %10.0f %8d %8d %8s"
                % (
                    str(line.location),
                    line.hitm_rate,
                    line.ts_events,
                    line.fs_events,
                    line.contention_class.value,
                )
            )
        return "\n".join(rows)
