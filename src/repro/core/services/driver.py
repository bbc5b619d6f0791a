"""The detector's driver-facing poll slice, as a service.

At every check interval the detector's periodic poll forces a drain of
partially filled per-core PEBS buffers (otherwise records would sit
until the 64-record buffer-full interrupt, blinding the online repair
trigger on short phases).  This service owns that read boundary and
everything that can go wrong at it:

* a stalled detector (``detector.stall``) skips its poll; the bounded
  driver outbox absorbs the backlog and the next healthy poll resyncs;
* a crashed detector (``detector.crash``) — pre-poll or post-read,
  before the ack — is routed to the resilience service, and the
  journal recovers the unacked batch on restart;
* a healthy poll hands its drained batch to the detection service via
  ``ctx.poll_records``.

At exit it surfaces the records still sitting in the driver (never
seen by the *online* detector) before the final drain folds them into
the offline report, and it owns the driver-boundary health counters.
"""

from repro.core.services.base import Service
from repro.errors import DetectorStall

__all__ = ["DriverPollService"]


class DriverPollService(Service):
    """PEBS drain + journal boundary of the detector's poll."""

    name = "driver_poll"

    def __init__(self, resilience):
        #: The resilience service; crash faults at the read boundary
        #: are routed to it (restart scheduling, degrade ladder).
        self._resilience = resilience

    def on_poll(self, ctx) -> None:
        if not ctx.detector_up:
            return
        health, st, injector = ctx.health, ctx.st, ctx.injector
        if injector.fires("detector.crash"):
            # Pre-poll crash: the detector dies before its read; the
            # whole batch waits in the journal for the restart.
            self._resilience.detector_crashed(ctx)
            return
        if ctx.transport is not None and ctx.transport.blocks_poll(ctx):
            # Fleet transport partition (``shard.partition``): the
            # detector is healthy but its read returns nothing — the
            # backlog queues client-side (buffers + outbox) and the
            # next healed poll delivers it late.  Never taken on the
            # single-run path (no transport attached).
            return
        try:
            if injector.fires("detector.stall"):
                raise DetectorStall(
                    "detector missed poll at cycle %d" % ctx.cycle
                )
            if st.stalled:
                st.stalled = False
                health.detector_restarts += 1
                ctx.tracer.emit("detector.resync", ctx.cycle,
                                backlog=ctx.driver.pending_records)
            records = ctx.driver.flush_batch()
            if records:
                # Detection latency: age of the batch's oldest record
                # (flush_batch returns timestamp order).  The overload
                # controller reads this as its lag signal.
                ctx.poll_lag_cycles = ctx.cycle - records[0].cycle
            if injector.fires("detector.crash"):
                # Post-read, pre-ack crash: the read batch is discarded
                # unacknowledged; it stays below no mark, so replay
                # recovers it and the driver's re-delivery is
                # deduplicated.
                self._resilience.detector_crashed(ctx)
            else:
                ctx.poll_records = records
        except DetectorStall:
            health.detector_stalls += 1
            st.stalled = True
            ctx.tracer.emit("detector.stall", ctx.cycle,
                            backlog=ctx.driver.pending_records)

    def on_exit(self, ctx) -> None:
        """Surface the exit backlog before the final drain claims it."""
        ctx.health.records_pending_at_exit = ctx.driver.pending_records

    def health(self, ctx) -> None:
        ctx.health.records_dropped = ctx.driver.records_dropped
        ctx.health.records_lost = ctx.injector.fired["pebs.record_drop"]
        ctx.health.records_corrupted = ctx.injector.fired["pebs.record_corrupt"]
        ctx.health.records_shed = ctx.driver.records_shed
        if ctx.transport is not None:
            ctx.health.transport_partitions = ctx.transport.partitions
            ctx.health.transport_records_delayed = (
                ctx.transport.records_delayed)
