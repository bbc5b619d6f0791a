"""Crash recovery as a service: supervision, checkpoints, degrade.

Owns the :class:`~repro.resilience.runtime.ResilienceRuntime` wiring of
one run: it services crash faults and due restarts at each interval
boundary (``on_poll``, before the driver's poll slice), drives the
checkpoint cadence (``on_check_interval``, after repair so an
attach-time checkpoint keeps its historical order), computes the
exit-time ``was_down`` verdict, and rebuilds a restarted detector —
checkpoint fan-out, attachment reconciliation, journal replay.

Every run has the runtime.  On a run with no crash fault the service
only saves a checkpoint per check interval, which charges no simulated
cycles.
"""

from repro.core.services.base import Service
from repro.resilience import DegradeMode
from repro.resilience.journal import batch_sort_key

__all__ = ["ResilienceService"]


class ResilienceService(Service):
    """Supervisor + crash sites + checkpoint cadence + replay."""

    name = "resilience"

    # ------------------------------------------------------------------
    # Interval-boundary supervision (runs before the driver poll)
    # ------------------------------------------------------------------

    def on_poll(self, ctx) -> None:
        """Service crash faults and due restarts; set ``ctx.recovery``.

        ``ctx.recovery`` is True when the upcoming poll must take its
        batch from the journal because the driver's volatile buffers no
        longer hold the full picture.
        """
        supervisor = ctx.runtime.supervisor
        interval, cycle = ctx.interval, ctx.cycle
        recovery = False
        if supervisor["driver"].running:
            if ctx.injector.fires("driver.crash"):
                ctx.driver.crash_reset()
                if supervisor.crash("driver", interval, cycle):
                    # A kernel module reload is synchronous: the driver
                    # is back before the next delivery.  The wiped
                    # volatile records were journaled at delivery, so
                    # this interval's poll heals from the WAL.
                    supervisor.restart("driver", interval, cycle)
                    recovery = True
                elif self.breaker_tripped(ctx, "driver"):
                    recovery = True  # rearmed immediately; heal from WAL
                else:
                    ctx.driver.halted = True
        if supervisor.due("detector", interval):
            supervisor.restart("detector", interval, cycle)
            self.restore_detector(ctx)
            recovery = True
        ctx.recovery = recovery

    def detector_crashed(self, ctx) -> None:
        """The detector process died; schedule its restart (or degrade)."""
        if not ctx.runtime.supervisor.crash("detector", ctx.interval,
                                            ctx.cycle):
            self.breaker_tripped(ctx, "detector")

    def breaker_tripped(self, ctx, name: str) -> bool:
        """Walk the degrade ladder after a circuit-breaker trip.

        Returns True if the component was handed a fresh budget and is
        running again (drivers come back immediately — they are
        stateless beyond their volatiles; the detector restarts through
        the normal restore path next interval).
        """
        runtime = ctx.runtime
        mode = runtime.degrade(ctx.interval, ctx.cycle)
        if mode == DegradeMode.DETECTION_ONLY:
            immediate = name == "driver"
            runtime.supervisor.rearm(
                name, ctx.interval, ctx.cycle,
                max_attempts=ctx.config.max_component_restarts,
                immediate=immediate,
            )
            return immediate
        # PASSTHROUGH: the component stays halted; monitoring stands
        # down and the final report is recovered offline from the WAL.
        return False

    # ------------------------------------------------------------------
    # Checkpoint cadence (runs after the repair service's evaluation)
    # ------------------------------------------------------------------

    def on_check_interval(self, ctx) -> None:
        self.save_checkpoint(ctx)

    def save_checkpoint(self, ctx) -> None:
        """Assemble per-service contributions, save, compact the WAL."""
        runtime = ctx.runtime
        runtime.checkpoints.save(ctx.scheduler.checkpoint_state(ctx),
                                 ctx.cycle)
        # Compaction: entries at or below the *oldest retained*
        # checkpoint's watermark can never be replayed again, even if
        # restore falls back a generation.
        runtime.journal.truncate_through(
            runtime.checkpoints.min_retained("acked_seq")
        )

    def on_checkpoint_save(self, ctx, state: dict) -> None:
        state["acked_seq"] = ctx.runtime.journal.acked_seq

    # ------------------------------------------------------------------
    # Restart / restore / replay
    # ------------------------------------------------------------------

    def restore_detector(self, ctx) -> None:
        """Rebuild a restarted detector: checkpoint, reconcile, replay."""
        runtime = ctx.runtime
        state = runtime.checkpoints.load(ctx.cycle)
        # Fan the payload out: detection loads (or cold-starts) the
        # pipeline and loop state, repair reconciles attachment against
        # the runtime's durable authority.
        ctx.scheduler.restore_state(ctx, state)
        # Replay the acked suffix in live order: each marked batch is
        # one pre-crash poll, re-sorted exactly as read_records merged
        # it and rolled through the same window boundary.  The unacked
        # tail is left for the caller's recovery poll.
        start = state["acked_seq"] if state is not None else 0
        batches, tail = runtime.journal.batches_after(start)
        replayed = 0
        for entries, poll_cycle in batches:
            batch = sorted(entries, key=batch_sort_key)
            ctx.pipeline.process(batch)
            ctx.pipeline.roll_window(poll_cycle - ctx.st.window_start,
                                     cycle=poll_cycle)
            ctx.st.window_start = poll_cycle
            replayed += len(batch)
        runtime.count_replayed(replayed)
        if ctx.tracer.enabled:
            ctx.tracer.emit("resil.replay", ctx.cycle, from_seq=start,
                            batches=len(batches), records=replayed,
                            tail=len(tail))

    # ------------------------------------------------------------------
    # Exit and health
    # ------------------------------------------------------------------

    def on_exit(self, ctx) -> None:
        """Record whether the detector was down when the app exited."""
        ctx.was_down = not ctx.runtime.supervisor["detector"].running

    def health(self, ctx) -> None:
        runtime, health = ctx.runtime, ctx.health
        supervisor = runtime.supervisor
        health.detector_crashes = supervisor["detector"].crashes
        health.detector_crash_restarts = supervisor["detector"].restarts
        health.driver_crashes = supervisor["driver"].crashes
        health.driver_crash_restarts = supervisor["driver"].restarts
        health.breaker_trips = sum(
            component.breaker_trips
            for component in supervisor.components
        )
        health.records_replayed = runtime.records_replayed
        health.records_deduped = runtime.records_deduped
        health.checkpoints_written = runtime.checkpoints.written
        health.checkpoints_restored = runtime.checkpoints.restored
        health.checkpoints_corrupt = runtime.checkpoints.corrupt_detected
