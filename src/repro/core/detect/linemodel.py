"""The cache line model: classifying true vs. false sharing (Section 4.3).

Each tracked cache line records the type (read or write) and byte
positions (a bitmap) of its *previous* access (Figure 5).  When a new
access arrives:

* if the byte ranges overlap and at least one access is a write ->
  **true sharing**;
* if they are disjoint and at least one access is a write ->
  **false sharing**;
* read-read pairs are not contention.

Each sharing event is counted against the PC of the incoming access.
Lines live in a hash table so only the few contended lines cost memory.
"""

import enum
from typing import Dict, Optional, Tuple

from repro._constants import CACHE_LINE_SIZE

__all__ = ["SharingType", "CacheLineModel"]


class SharingType(enum.Enum):
    TRUE_SHARING = "TS"
    FALSE_SHARING = "FS"
    NONE = "none"


class _LineInfo:
    """Previous-access record for one cache line (Figure 5).

    ``ts_events``/``fs_events`` accumulate the line's own classification
    history so reports (and the static-vs-dynamic comparison) can work
    at cache-line granularity, not just per source line.
    """

    __slots__ = ("bitmap", "was_write", "ts_events", "fs_events")

    def __init__(self, bitmap: int, was_write: bool):
        self.bitmap = bitmap
        self.was_write = was_write
        self.ts_events = 0
        self.fs_events = 0


def _access_bitmap(addr: int, size: int) -> Tuple[int, int, int]:
    """(line_index, bitmap, clipped_size) for an access.

    Accesses straddling the line end are clipped to the first line, as
    the model tracks one line per record.
    """
    line = addr // CACHE_LINE_SIZE
    offset = addr % CACHE_LINE_SIZE
    span = min(size, CACHE_LINE_SIZE - offset)
    bitmap = ((1 << span) - 1) << offset
    return line, bitmap, span


class CacheLineModel:
    """Byte-granular last-access tracking with TS/FS classification."""

    def __init__(self):
        self._lines: Dict[int, _LineInfo] = {}
        self.ts_events = 0
        self.fs_events = 0

    def observe(self, addr: int, size: int, is_write: bool) -> SharingType:
        """Feed one decoded access; returns the sharing type it triggered."""
        line, bitmap, _span = _access_bitmap(addr, size)
        info = self._lines.get(line)
        if info is None:
            self._lines[line] = _LineInfo(bitmap, is_write)
            return SharingType.NONE
        overlap = info.bitmap & bitmap
        any_write = is_write or info.was_write
        info.bitmap = bitmap
        info.was_write = is_write
        if not any_write:
            return SharingType.NONE
        if overlap:
            self.ts_events += 1
            info.ts_events += 1
            return SharingType.TRUE_SHARING
        self.fs_events += 1
        info.fs_events += 1
        return SharingType.FALSE_SHARING

    def state_dict(self) -> dict:
        """JSON-serializable snapshot (checkpoint payload)."""
        return {
            "ts_events": self.ts_events,
            "fs_events": self.fs_events,
            "lines": [
                [line, info.bitmap, 1 if info.was_write else 0,
                 info.ts_events, info.fs_events]
                for line, info in sorted(self._lines.items())
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.ts_events = state["ts_events"]
        self.fs_events = state["fs_events"]
        self._lines = {}
        for line, bitmap, was_write, ts_events, fs_events in state["lines"]:
            info = _LineInfo(bitmap, bool(was_write))
            info.ts_events = ts_events
            info.fs_events = fs_events
            self._lines[line] = info

    def previous_access(self, addr: int) -> Optional[Tuple[int, bool]]:
        """(bitmap, was_write) of the tracked line, for introspection."""
        info = self._lines.get(addr // CACHE_LINE_SIZE)
        if info is None:
            return None
        return info.bitmap, info.was_write

    @property
    def tracked_lines(self) -> int:
        return len(self._lines)

    def line_events(self, line: int) -> Tuple[int, int]:
        """(ts_events, fs_events) observed on one cache line."""
        info = self._lines.get(line)
        if info is None:
            return 0, 0
        return info.ts_events, info.fs_events

    def contended_lines(
        self, kind: Optional[SharingType] = None, min_events: int = 1
    ) -> Dict[int, Tuple[int, int]]:
        """Cache lines with >= ``min_events`` sharing events observed.

        Maps line index -> (ts_events, fs_events).  With ``kind`` set,
        the threshold applies to that event class only — the ground
        truth the static predictor is scored against.
        """
        out: Dict[int, Tuple[int, int]] = {}
        for line, info in self._lines.items():
            if kind is SharingType.TRUE_SHARING:
                relevant = info.ts_events
            elif kind is SharingType.FALSE_SHARING:
                relevant = info.fs_events
            else:
                relevant = info.ts_events + info.fs_events
            if relevant >= min_events:
                out[line] = (info.ts_events, info.fs_events)
        return out
