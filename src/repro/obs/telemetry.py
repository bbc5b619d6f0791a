"""The per-run telemetry bundle exposed on ``LaserRunResult.telemetry``.

Two views of one run:

* ``windows`` — a typed time series: one :class:`WindowStats` per
  detector check interval, carrying the window's HITM rate, record
  flow, component cycle shares and repair state.  This is the
  time-dimension the ad-hoc end-of-run counters never had: *when* the
  detector triggered repair, how the HITM rate evolved, where cycles
  went.  ``totals()`` sums the additive fields over the run.
* ``tracer`` — the structured event stream (see :mod:`repro.obs.trace`).

``render_timeline`` is the operator view: an ASCII phase timeline used
by ``python -m repro.obs`` and the quickstart example.
"""

import json
from typing import Dict, List, Optional

from repro._constants import CYCLES_PER_SECOND
from repro.obs.trace import NULL_TRACER, EventTracer

__all__ = ["WindowStats", "RunTelemetry"]

_WINDOW_FIELDS = (
    "index",
    "start_cycle",
    "end_cycle",
    "stalled",
    "repair_state",
    "hitm_events",
    "hitm_rate",
    "records_seen",
    "records_admitted",
    "records_dropped",
    "detector_cycles",
    "driver_cycles",
    "ssb_flushes",
    "ssb_htm_aborts",
)

#: Overload-control extras (``repro.control``).  Optional at
#: construction and serialized only when ``control_mode`` is set, so
#: the windows-JSONL byte stream of a controller-off run is unchanged
#: from the pre-control pin.
_CONTROL_FIELDS = (
    "records_offered",
    "records_shed",
    "outbox_pending",
    "detect_latency",
    "control_mode",
    "sav",
    "admit_budget",
)

_CONTROL_DEFAULTS = {
    "records_offered": 0,
    "records_shed": 0,
    "outbox_pending": 0,
    "detect_latency": 0,
    "control_mode": None,
    "sav": 0,
    "admit_budget": None,
}


class WindowStats:
    """Deltas observed across one detector check interval."""

    __slots__ = _WINDOW_FIELDS + _CONTROL_FIELDS

    def __init__(self, **fields):
        for name in _WINDOW_FIELDS:
            setattr(self, name, fields.pop(name))
        for name in _CONTROL_FIELDS:
            setattr(self, name, fields.pop(name, _CONTROL_DEFAULTS[name]))
        if fields:
            raise TypeError("unknown WindowStats fields: %s" % sorted(fields))

    @property
    def duration_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def drop_rate(self) -> float:
        """Driver outbox drops per simulated second, this window.

        The cumulative ``records_dropped`` count says a run lost
        records; the per-window rate says *when* — which is what the
        overload controller (and an operator reading the timeline)
        actually acts on.
        """
        if self.duration_cycles <= 0:
            return 0.0
        return self.records_dropped * CYCLES_PER_SECOND / self.duration_cycles

    def as_dict(self) -> Dict:
        out = {name: getattr(self, name) for name in _WINDOW_FIELDS}
        if self.control_mode is not None:
            for name in _CONTROL_FIELDS:
                out[name] = getattr(self, name)
        return out

    def __repr__(self):
        return "<WindowStats #%d [%d,%d) hitm/s=%.0f %s%s>" % (
            self.index, self.start_cycle, self.end_cycle, self.hitm_rate,
            self.repair_state, " STALLED" if self.stalled else "",
        )


#: Glyphs for the timeline's state column.
_STATE_GLYPHS = {
    "idle": " ",
    "attached": "R",
    "rolled_back": "X",
}

#: Glyphs for the timeline's control-mode column.
_CONTROL_GLYPHS = {
    "nominal": "-",
    "throttled": "T",
    "shedding": "S",
    "passthrough": "P",
}


class RunTelemetry:
    """Tracer + windowed time series for one run."""

    def __init__(self, tracer: Optional[EventTracer] = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.windows: List[WindowStats] = []

    # ------------------------------------------------------------------
    # Recording (called by the LASER loop at each check interval)
    # ------------------------------------------------------------------

    def close_window(self, window: WindowStats) -> None:
        """Append one closed window."""
        self.windows.append(window)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    @property
    def window_count(self) -> int:
        return len(self.windows)

    def series(self, field: str) -> List:
        """The per-window time series of one :class:`WindowStats` field."""
        if field not in _WINDOW_FIELDS and field not in _CONTROL_FIELDS:
            raise KeyError(
                "unknown window field %r (have: %s)"
                % (field, ", ".join(_WINDOW_FIELDS + _CONTROL_FIELDS))
            )
        return [getattr(w, field) for w in self.windows]

    def totals(self) -> Dict:
        """Whole-run sums of the additive window fields."""
        additive = ("hitm_events", "records_seen", "records_admitted",
                    "records_dropped", "detector_cycles", "driver_cycles",
                    "ssb_flushes", "ssb_htm_aborts", "records_offered",
                    "records_shed")
        return {name: sum(self.series(name)) for name in additive}

    def windows_jsonl(self) -> str:
        """Canonical per-window serialization (byte-stable per seed)."""
        return "".join(
            json.dumps(w.as_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
            for w in self.windows
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_timeline(self, width: int = 32) -> str:
        """ASCII phase timeline: one row per detection window.

        The bar scales to the run's peak window HITM rate; the state
        column marks repair attached (``R``), rolled back (``X``) and
        detector stalls (``S``); ``drop/s`` is the per-window outbox
        drop rate.  Runs with the overload controller engaged grow a
        mode column (``-``/``T``/``S``/``P`` for nominal, throttled,
        shedding, passthrough) plus the per-window shed count.
        """
        if not self.windows:
            return "(no detection windows recorded)"
        controlled = any(w.control_mode is not None for w in self.windows)
        peak = max(w.hitm_rate for w in self.windows) or 1.0
        header = (
            "win  kcycles         hitm/s  %-*s  recs  drop  drop/s st"
            % (width, "rate (peak %.0f/s)" % peak)
        )
        if controlled:
            header += "  mode  shed"
        rows = [header]
        for w in self.windows:
            bar = "#" * int(round(width * w.hitm_rate / peak))
            state = "S" if w.stalled else _STATE_GLYPHS.get(w.repair_state, "?")
            span = "%d-%d" % (w.start_cycle // 1000, w.end_cycle // 1000)
            row = (
                "%3d  %-13s %8.0f  %-*s %5d %5d %7.0f  %s"
                % (
                    w.index, span, w.hitm_rate, width, bar,
                    w.records_seen, w.records_dropped, w.drop_rate, state,
                )
            )
            if controlled:
                row += "     %s %5d" % (
                    _CONTROL_GLYPHS.get(w.control_mode, " "),
                    w.records_shed,
                )
            rows.append(row)
        return "\n".join(rows)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def window_counter_events(self) -> List[Dict]:
        """Per-window Chrome counter tracks (HITM rate, record flow)."""
        events = []
        for w in self.windows:
            events.append({
                "name": "hitm_rate", "ph": "C", "ts": w.end_cycle,
                "pid": 3, "tid": 0,
                "args": {"hitm_per_s": round(w.hitm_rate, 3)},
            })
            events.append({
                "name": "record_flow", "ph": "C", "ts": w.end_cycle,
                "pid": 3, "tid": 0,
                "args": {"seen": w.records_seen, "dropped": w.records_dropped},
            })
        return events

    def to_chrome_trace(self) -> Dict:
        """Trace events plus the windowed counter tracks, one document."""
        return self.tracer.to_chrome_trace(
            extra_events=self.window_counter_events()
        )

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    def __repr__(self):
        return "<RunTelemetry %d windows, %d events%s>" % (
            len(self.windows), len(self.tracer),
            "" if self.tracer.enabled else " (tracing off)",
        )


def hitm_rate(events: int, cycles: int) -> float:
    """HITM events per simulated second over a cycle span."""
    if cycles <= 0:
        return 0.0
    return events * CYCLES_PER_SECOND / cycles
