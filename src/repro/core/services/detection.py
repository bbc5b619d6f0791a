"""The detection pipeline's run slice, as a service.

Consumes the batch the driver-poll service drained, feeds it through
the Section 4 pipeline (with journal dedup and ack), and rolls the
detection window at each successful poll.  It owns the pipeline's
share of the checkpoint payload — the pipeline state dict plus the
detector's loop-control state — and the final drain at application
exit, including the offline-recovery path when the detector was down
(or halted in passthrough) at exit: the journal is durable, so the
report is rebuilt the same way a restarted detector would build it —
checkpoint + replay, then the final drain.
"""

from operator import attrgetter

from repro.core.services.base import Service
from repro.resilience.journal import RecordJournal, batch_sort_key

__all__ = ["DetectionService"]

_seq = attrgetter("seq")


class DetectionService(Service):
    """Pipeline windows + threshold-relevant ingest for one run."""

    name = "detection"

    def __init__(self, resilience):
        #: The resilience service; offline exit recovery restores
        #: through it when the detector was down at application exit.
        self._resilience = resilience

    # ------------------------------------------------------------------
    # Poll slice
    # ------------------------------------------------------------------

    def on_poll(self, ctx) -> None:
        if ctx.poll_records is None:
            return  # stalled, crashed or down detector ingests nothing
        self._process_poll(ctx, ctx.poll_records, ctx.recovery)
        ctx.pipeline.roll_window(ctx.cycle - ctx.st.window_start,
                                 cycle=ctx.cycle)
        ctx.st.window_start = ctx.cycle
        ctx.polled = True

    @staticmethod
    def _emit_batch(ctx, batch) -> None:
        """Span-tracing provenance: one ``detect.batch`` per ingested
        batch, with the journal seq range of its records (every record
        is journaled at delivery, so the range starts at 1 or above).

        Gated behind ``config.trace_spans`` (off by default): any new
        default-on emission would change the trace stream's golden
        SHA-256 pin.
        """
        if not (ctx.config.trace_spans and ctx.tracer.enabled and batch):
            return
        ctx.tracer.emit("detect.batch", ctx.cycle, records=len(batch),
                        seq_lo=min(map(_seq, batch)),
                        seq_hi=max(map(_seq, batch)))

    @staticmethod
    def _process_poll(ctx, records, recovery: bool) -> None:
        """Process one poll's batch, with journal dedup and ack."""
        runtime, pipeline = ctx.runtime, ctx.pipeline
        journal = runtime.journal
        if recovery:
            # The journal is authoritative after a crash: the unacked
            # tail is a superset of whatever survived in the driver's
            # volatile buffers, so the driver's own delivery is counted
            # as duplicate and the difference as replayed.
            tail = journal.entries_after(journal.acked_seq)
            replayed = len(tail) - len(records)
            runtime.count_deduped(len(records))
            runtime.count_replayed(replayed)
            if replayed and ctx.tracer.enabled:
                ctx.tracer.emit("resil.replay", ctx.cycle,
                                from_seq=journal.acked_seq, records=replayed)
            batch = sorted(tail, key=batch_sort_key)
        else:
            batch, dups = RecordJournal.dedup(records, journal.acked_seq)
            runtime.count_deduped(dups)
        DetectionService._emit_batch(ctx, batch)
        pipeline.process(batch)
        if batch:
            journal.mark_batch(max(map(_seq, batch)), ctx.cycle)

    # ------------------------------------------------------------------
    # Checkpoint share: pipeline state + detector loop state
    # ------------------------------------------------------------------

    def on_checkpoint_save(self, ctx, state: dict) -> None:
        state["pipeline"] = ctx.pipeline.state_dict()
        state["loop"] = ctx.st.loop_state()

    def on_checkpoint_restore(self, ctx, state) -> None:
        if state is None:
            # Checkpoint-less cold start (first restart before any
            # checkpoint was written, or every generation corrupt):
            # empty pipeline, replay the journal from seq 0.
            ctx.pipeline.reset_state()
            ctx.st.reset_loop_state()
        else:
            ctx.pipeline.load_state_dict(state["pipeline"])
            ctx.st.load_loop_state(state["loop"])

    # ------------------------------------------------------------------
    # Exit: the final drain (offline recovery when the detector died)
    # ------------------------------------------------------------------

    def on_exit(self, ctx) -> None:
        runtime = ctx.runtime
        if ctx.was_down:
            # Offline recovery: the detector was down (or halted in
            # passthrough) when the application exited.  The journal
            # is durable, so the report is rebuilt the same way a
            # restarted detector would: checkpoint + replay, then the
            # final drain.
            ctx.tracer.emit(
                "resil.offline_recover", ctx.cycle,
                status=runtime.supervisor["detector"].status,
            )
            self._resilience.restore_detector(ctx)
            self._process_poll(ctx, ctx.driver.flush_batch(), True)
        else:
            fresh, dups = RecordJournal.dedup(
                ctx.driver.flush_batch(), runtime.journal.acked_seq
            )
            runtime.count_deduped(dups)
            self._emit_batch(ctx, fresh)
            ctx.pipeline.process(fresh)

    def health(self, ctx) -> None:
        ctx.health.undecodable_pcs = ctx.pipeline.stats.undecodable_pcs
