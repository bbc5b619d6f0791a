"""Source-line aggregation and rate thresholding (Section 4.2).

The detector "builds a map from PC to the number of HITM records
received for that PC (regardless of data address), and reports the rate
at which HITM events occur for each source code line."  Lines below the
rate threshold are filtered at *report* time, so the threshold can be
adjusted offline without rerunning the program.

The aggregator counts *records*; to express the result as a HITM-event
rate it multiplies by the sample-after value (each record stands for SAV
events).  Records sampled while the overload controller held the SAV
above base (:mod:`repro.control`) arrive with a ``weight`` — the SAV
multiplier — and count as that many base-SAV records, so throttling
thins the record stream without biasing the rates cut from it.
"""

from typing import Dict, List, Optional

from repro._constants import CYCLES_PER_SECOND
from repro.isa.program import Program, SourceLocation

__all__ = ["LineStats", "LineAggregator", "MIN_WINDOW_RECORDS"]

#: Minimum records a line must receive within one peak-rate window for
#: that window to update its peak rate (suppresses one-shot bursts such
#: as startup hand-off scans).
MIN_WINDOW_RECORDS = 6

#: Peak-rate windows span several detection check intervals: a line must
#: sustain its rate across a window this long, not just spike inside one
#: 50K-cycle check, before its peak rate is remembered.
PEAK_WINDOW_CYCLES = 150_000


class LineStats:
    """Accumulated HITM information for one source line."""

    __slots__ = ("location", "record_count", "pcs", "peak_window_rate",
                 "_window_start_count")

    def __init__(self, location: SourceLocation):
        self.location = location
        self.record_count = 0
        self.pcs: Dict[int, int] = {}
        #: Highest rate observed over any detection window.  A line that
        #: was hot before LASERREPAIR eliminated its contention must not
        #: vanish from the report just because the whole-run average got
        #: diluted by the repaired phase.
        self.peak_window_rate = 0.0
        self._window_start_count = 0

    def add(self, pc: int, weight: int = 1) -> None:
        self.record_count += weight
        self.pcs[pc] = self.pcs.get(pc, 0) + weight

    def cumulative_rate(self, duration_cycles: int,
                        sample_after_value: int) -> float:
        if duration_cycles <= 0:
            return 0.0
        events = self.record_count * sample_after_value
        return events * CYCLES_PER_SECOND / duration_cycles

    def hitm_rate(self, duration_cycles: int, sample_after_value: int) -> float:
        """Estimated HITM events/sec: max of cumulative and peak window."""
        return max(
            self.cumulative_rate(duration_cycles, sample_after_value),
            self.peak_window_rate,
        )

    def roll_window(self, window_cycles: int, sample_after_value: int) -> None:
        if window_cycles <= 0:
            return
        delta = self.record_count - self._window_start_count
        self._window_start_count = self.record_count
        if delta < MIN_WINDOW_RECORDS:
            # A couple of records in one window is burst noise, not a
            # sustained rate.
            return
        rate = delta * sample_after_value * CYCLES_PER_SECOND / window_cycles
        self.peak_window_rate = max(self.peak_window_rate, rate)


class LineAggregator:
    """PC -> source line aggregation over the program's debug info."""

    def __init__(self, program: Program, sample_after_value: int):
        self.program = program
        self.sample_after_value = sample_after_value
        self._lines: Dict[SourceLocation, LineStats] = {}
        self.unresolved_pcs = 0
        self._window_cycles_accumulated = 0

    def add_record_pc(self, pc: int,
                      weight: int = 1) -> Optional[SourceLocation]:
        """Attribute one record to the source line its PC maps to."""
        loc = self.program.location_of_pc(pc)
        if loc is None:
            self.unresolved_pcs += 1
            return None
        stats = self._lines.get(loc)
        if stats is None:
            stats = LineStats(loc)
            self._lines[loc] = stats
        stats.add(pc, weight)
        return loc

    def roll_window(self, window_cycles: int) -> None:
        """Account a detection check; closes a peak window when enough
        cycles have accumulated."""
        self._window_cycles_accumulated += window_cycles
        if self._window_cycles_accumulated < PEAK_WINDOW_CYCLES:
            return
        for stats in self._lines.values():
            stats.roll_window(
                self._window_cycles_accumulated, self.sample_after_value
            )
        self._window_cycles_accumulated = 0

    def state_dict(self) -> dict:
        """JSON-serializable snapshot (checkpoint payload)."""
        return {
            "unresolved_pcs": self.unresolved_pcs,
            "window_cycles_accumulated": self._window_cycles_accumulated,
            "lines": [
                {
                    "file": stats.location.file,
                    "line": stats.location.line,
                    "record_count": stats.record_count,
                    "pcs": sorted(stats.pcs.items()),
                    "peak_window_rate": stats.peak_window_rate,
                    "window_start_count": stats._window_start_count,
                }
                for stats in sorted(
                    self._lines.values(),
                    key=lambda s: (s.location.file, s.location.line),
                )
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.unresolved_pcs = state["unresolved_pcs"]
        self._window_cycles_accumulated = state["window_cycles_accumulated"]
        self._lines = {}
        for entry in state["lines"]:
            loc = SourceLocation(entry["file"], entry["line"])
            stats = LineStats(loc)
            stats.record_count = entry["record_count"]
            stats.pcs = {pc: count for pc, count in entry["pcs"]}
            stats.peak_window_rate = entry["peak_window_rate"]
            stats._window_start_count = entry["window_start_count"]
            self._lines[loc] = stats

    def lines_above_threshold(self, duration_cycles: int,
                              rate_threshold: float) -> List[LineStats]:
        """Source lines whose HITM rate meets the threshold, hottest first."""
        hot = [
            stats
            for stats in self._lines.values()
            if stats.hitm_rate(duration_cycles, self.sample_after_value)
            >= rate_threshold
        ]
        hot.sort(key=lambda s: -s.record_count)
        return hot

    def stats_for(self, loc: SourceLocation) -> Optional[LineStats]:
        return self._lines.get(loc)
