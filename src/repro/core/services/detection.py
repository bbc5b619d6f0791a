"""The detection pipeline's run slice, as a service.

Consumes the batch the driver-poll service drained, feeds it through
the Section 4 pipeline (with journal dedup/ack when resilience is on),
and rolls the detection window at each successful poll.  It owns the
pipeline's share of the checkpoint payload — the pipeline state dict
plus the detector's loop-control state — and the final drain at
application exit, including the offline-recovery path when the
detector was down (or halted in passthrough) at exit: the journal is
durable, so the report is rebuilt the same way a restarted detector
would build it — checkpoint + replay, then the final drain.
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
        batch, with the journal seq range when the run journals.

        Without a journal every record keeps ``seq == 0`` ("never
        journaled"), so the range is ``None``, not ``0..0``.  Gated
        behind ``config.trace_spans`` (off by default): any new
        default-on emission would change the trace stream's golden
        SHA-256 pin.
        """
        if not (ctx.config.trace_spans and ctx.tracer.enabled and batch):
            return
        if ctx.runtime is None:
            seq_lo = seq_hi = None
        else:
            seq_lo, seq_hi = min(map(_seq, batch)), max(map(_seq, batch))
        ctx.tracer.emit("detect.batch", ctx.cycle, records=len(batch),
                        seq_lo=seq_lo, seq_hi=seq_hi)

    @staticmethod
    def _process_poll(ctx, records, recovery: bool) -> None:
        """Process one poll's batch, with journal dedup/ack when enabled."""
        runtime, pipeline = ctx.runtime, ctx.pipeline
        if runtime is None:
            DetectionService._emit_batch(ctx, records)
            pipeline.process(records)
            return
        journal = runtime.journal
        if recovery:
            # The journal is authoritative after a crash: the unacked
            # tail is a superset of whatever survived in the driver's
            # volatile buffers, so the driver's own delivery is counted
            # as duplicate and the difference as replayed.
            tail = journal.entries_after(journal.acked_seq)
            runtime.count_deduped(len(records))
            runtime.count_replayed(len(tail) - len(records))
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
        if runtime is None:
            final = ctx.driver.flush_batch()
            self._emit_batch(ctx, final)
            ctx.pipeline.process(final)
            return
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
