"""Windowed run telemetry, as a service.

Closes one :class:`~repro.obs.telemetry.WindowStats` window per check
interval — deltas against a high-water-mark marker — onto the run's
``telemetry.windows``.  At exit it closes one catch-up window when the
final drain added progress beyond the last recorded window (stalled
finishes, exit backlogs).

The marker is a *high-water mark*: a detector restore can legitimately
regress pipeline totals (cold start from a compacted journal after
every checkpoint generation proved corrupt), so deltas clamp at zero
and the marker never moves backwards — replay then only counts
progress past the totals already reported.
"""

from repro._constants import CYCLES_PER_SECOND
from repro.core.services.base import Service
from repro.core.services.context import ssb_totals
from repro.obs.telemetry import WindowStats

__all__ = ["TelemetryService"]


class TelemetryService(Service):
    """Window stats + timeline markers for one run."""

    name = "telemetry"

    _MARKER_KEYS = ("hitm", "seen", "admitted", "dropped", "detector",
                    "driver", "flushes", "aborts", "offered", "shed")

    def __init__(self):
        self._marker = None

    def on_start(self, ctx) -> None:
        # Totals as of the last recorded window, so each window stores
        # deltas (see _record_window).
        self._marker = {key: 0 for key in self._MARKER_KEYS}
        self._marker["cycle"] = 0

    def on_poll(self, ctx) -> None:
        """Close the interval's window (even on the final interval)."""
        self._record_window(
            ctx,
            stalled=ctx.st.stalled or not ctx.detector_up,
            repair_state=ctx.runtime.repair_state,
        )

    def on_exit(self, ctx) -> None:
        """Catch-up window: whatever the final drain added beyond the
        last recorded window (stalled finishes, exit backlogs)."""
        st = ctx.st
        if ctx.health.records_pending_at_exit or st.stalled or ctx.was_down:
            self._record_window(
                ctx,
                stalled=st.stalled or ctx.was_down,
                repair_state=ctx.runtime.repair_state,
            )

    def health(self, ctx) -> None:
        """Tracer ring-buffer pressure: events evicted oldest-first.

        A capacity-sizing signal (info field), not degradation — the
        run behaves identically however full the ring gets.
        """
        ctx.health.trace_events_dropped = ctx.tracer.events_dropped

    def _record_window(self, ctx, stalled: bool,
                       repair_state: str) -> None:
        """Close one telemetry window: deltas since the marker."""
        marker = self._marker
        telemetry, machine = ctx.telemetry, ctx.machine
        pipeline, driver = ctx.pipeline, ctx.driver
        end = machine.cycle
        flushes, aborts = ssb_totals(ctx)
        totals = {
            "hitm": ctx.pmu.total_hitm_count,
            "seen": pipeline.stats.records_seen,
            "admitted": pipeline.stats.records_admitted,
            "dropped": driver.records_dropped,
            "detector": pipeline.stats.detector_cycles,
            "driver": driver.driver_cycles,
            "flushes": flushes,
            "aborts": aborts,
            "offered": ctx.pmu.records_generated,
            "shed": driver.records_shed,
        }
        deltas = {
            key: max(0, totals[key] - marker[key]) for key in totals
        }
        start = marker["cycle"]
        duration = end - start
        rate = (
            deltas["hitm"] * CYCLES_PER_SECOND / duration
            if duration > 0 else 0.0
        )
        window = WindowStats(
            index=len(telemetry.windows),
            start_cycle=start,
            end_cycle=end,
            stalled=stalled,
            repair_state=repair_state,
            hitm_events=deltas["hitm"],
            hitm_rate=rate,
            records_seen=deltas["seen"],
            records_admitted=deltas["admitted"],
            records_dropped=deltas["dropped"],
            detector_cycles=deltas["detector"],
            driver_cycles=deltas["driver"],
            ssb_flushes=deltas["flushes"],
            ssb_htm_aborts=deltas["aborts"],
            # Overload-control extras.  ``control_mode`` stays None on
            # controller-off runs, which keeps them out of the window's
            # serialized form (byte-identity with the pre-control pin).
            records_offered=deltas["offered"],
            records_shed=deltas["shed"],
            outbox_pending=driver.pending_records,
            detect_latency=ctx.poll_lag_cycles,
            control_mode=ctx.control_mode,
            sav=ctx.pmu.sample_after_value,
            admit_budget=driver.admission_budget,
        )
        for key in totals:
            marker[key] = max(totals[key], marker[key])
        marker["cycle"] = end
        telemetry.close_window(window)
