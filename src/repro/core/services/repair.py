"""Online repair lifecycle, as a service.

Evaluated after each successful poll on a non-final interval
(``on_check_interval``): the Section 4.4 trigger cuts an interim
report, collects the contending PCs behind the hot FS lines, and asks
LASERREPAIR for a plan; a profitable plan attaches, a rejected or
failed evaluation backs off exponentially and is re-evaluated later —
contention character shifts at runtime, so "unprofitable now" is not
"unprofitable forever".  An attached repair is watched: if the
post-repair HITM rate shows the repair stopped paying off (or the SSB
is thrashing the HTM), the watchdog detaches the instrumentation,
restoring the original program.

Attachment is durable state.  Every attach and detach is recorded with
the resilience runtime, which holds the attached plan itself (the
authority a restore takes the plan back from), and checkpointed
immediately, so no restore from a stale generation can double-attach
or resurrect a rolled-back repair.
"""

from typing import Optional, Set

from repro._constants import CYCLES_PER_SECOND
from repro.core.repair.manager import RepairPlan
from repro.core.services.base import Service
from repro.core.services.context import ssb_abort_count, ssb_buffers
from repro.errors import RepairError

__all__ = ["RepairService"]

#: Detection windows the watchdog observes after an attach before
#: judging the repair (and again every this many windows after).
WATCHDOG_WINDOWS = 3
#: The repair keeps paying off only while the post-repair HITM rate
#: stays below this fraction of the rate at attach time...
WATCHDOG_RATE_RATIO = 0.5
#: ...and SSB HTM aborts per window stay below this rate (above it the
#: repair is thrashing the HTM).
WATCHDOG_ABORT_RATE = 4.0


class RepairService(Service):
    """Trigger / verify / attach / watchdog / backoff for one run."""

    name = "repair"

    def __init__(self, repairer, resilience):
        #: The LASERREPAIR mechanism (plan + attach/detach).
        self._repairer = repairer
        #: The resilience service (attach/detach-time checkpoints).
        self._resilience = resilience

    # ------------------------------------------------------------------
    # Interval evaluation
    # ------------------------------------------------------------------

    def on_check_interval(self, ctx) -> None:
        config, st, health = ctx.config, ctx.st, ctx.health
        if not config.repair_enabled:
            return
        runtime = ctx.runtime
        if runtime.attached is not None:
            self._watchdog(ctx)
            return
        if runtime.rolled_back:
            return  # one rollback ends repair attempts for the run
        if not runtime.repair_allowed:
            return  # degraded to detection-only: no new instrumentation
        if st.backoff_remaining > 0:
            st.backoff_remaining -= 1
            return
        try:
            if ctx.injector.fires("repair.error"):
                raise RepairError(
                    "injected repair analysis failure at cycle %d"
                    % ctx.cycle
                )
            plan = self._maybe_repair(ctx)
        except RepairError:
            health.repair_errors += 1
            st.backoff_remaining = st.repair_backoff.step()
            ctx.tracer.emit("repair.backoff", ctx.cycle,
                            reason="repair_error",
                            intervals=st.backoff_remaining)
            return
        st.plan = plan if plan is not None else st.plan
        if plan is not None and plan.profitable:
            self._attach(ctx, plan)
        elif plan is not None and plan.rejected_reason:
            # Re-evaluate later instead of bailing out permanently:
            # contention character shifts, and so does profitability.
            if plan.verifier_rejected:
                health.repair_verifier_rejections += 1
            else:
                health.repair_rejections += 1
            st.backoff_remaining = st.repair_backoff.step()
            ctx.tracer.emit("repair.backoff", ctx.cycle,
                            reason=plan.rejected_reason,
                            intervals=st.backoff_remaining)

    def _attach(self, ctx, plan) -> None:
        st, pmu = ctx.st, ctx.pmu
        self._repairer.attach(ctx.machine, plan)
        st.windows_since_attach = 0
        st.attach_rate = (
            pmu.total_hitm_count * CYCLES_PER_SECOND / ctx.cycle
            if ctx.cycle > 0 else 0.0
        )
        st.mark_cycle = ctx.cycle
        st.mark_hitm = pmu.total_hitm_count
        st.mark_aborts = ssb_abort_count(ctx.machine)
        # Attachment is durable state: record the plan and checkpoint
        # immediately, so a restore from any retained generation
        # reconciles correctly.
        ctx.runtime.note_attached(plan)
        self._resilience.save_checkpoint(ctx)

    def _watchdog(self, ctx) -> None:
        """Judge the attached repair every ``WATCHDOG_WINDOWS`` windows."""
        st, pmu = ctx.st, ctx.pmu
        st.windows_since_attach += 1
        if not (ctx.config.rollback_enabled
                and st.windows_since_attach % WATCHDOG_WINDOWS == 0):
            return
        elapsed = ctx.cycle - st.mark_cycle
        post_rate = (
            (pmu.total_hitm_count - st.mark_hitm)
            * CYCLES_PER_SECOND / elapsed
            if elapsed > 0 else 0.0
        )
        aborts = ssb_abort_count(ctx.machine)
        abort_rate = (aborts - st.mark_aborts) / WATCHDOG_WINDOWS
        paying = (post_rate < WATCHDOG_RATE_RATIO * st.attach_rate
                  and abort_rate < WATCHDOG_ABORT_RATE)
        ctx.tracer.emit(
            "repair.watchdog", ctx.cycle,
            post_rate=round(post_rate, 3),
            attach_rate=round(st.attach_rate, 3),
            abort_rate=round(abort_rate, 3),
            verdict="keep" if paying else "detach",
        )
        if not paying:
            runtime = ctx.runtime
            buffers = self._repairer.detach(ctx.machine, runtime.attached)
            ctx.health.rollbacks += 1
            # Detachment is durable state: record it (and the host-side
            # SSB stats) and checkpoint immediately so no restore
            # resurrects the attachment.
            runtime.note_detached(buffers)
            self._resilience.save_checkpoint(ctx)
        else:
            st.mark_cycle = ctx.cycle
            st.mark_hitm = pmu.total_hitm_count
            st.mark_aborts = aborts

    # ------------------------------------------------------------------
    # Repair trigger (Section 4.4)
    # ------------------------------------------------------------------

    def _maybe_repair(self, ctx) -> Optional[RepairPlan]:
        """Check FS rates; build a plan if they exceed the trigger."""
        config, pipeline, tracer = ctx.config, ctx.pipeline, ctx.tracer
        interim = pipeline.report(ctx.cycle, config.rate_threshold)
        fs_lines = interim.repair_candidates(
            min_total_hitm_rate=config.repair_trigger_rate
        )
        if not fs_lines:
            return None
        fs_lines = self._apply_race_gate(ctx, fs_lines)
        if not fs_lines:
            return None
        contending_pcs: Set[int] = set()
        for line in fs_lines:
            contending_pcs.update(
                pipeline.contending_pcs_for_line(line.location)
            )
        if not contending_pcs:
            return None
        if tracer.enabled:
            tracer.emit(
                "repair.trigger", ctx.cycle,
                lines=[str(line.location) for line in fs_lines],
                pcs=len(contending_pcs),
            )
        return self._repairer.plan(
            ctx.program, contending_pcs,
            tracer=tracer,
            cycle=ctx.cycle,
        )

    def _apply_race_gate(self, ctx, fs_lines):
        """Quarantine trigger lines the static certifier proved racy.

        An SSB rewrite of a genuinely racy line would serialize (and so
        *hide*) the race while the monitor is attached — a correctness
        bug masked by a performance tool.  With ``race_gate`` on, any
        repair candidate whose source location certifies RACE is
        refused; the refusal is surfaced in ``RunHealth`` and the
        tracer rather than silently dropped.
        """
        config, certificate = ctx.config, ctx.certificate
        if not config.race_gate or certificate is None:
            return fs_lines
        # Imported here: only race-gated runs load the certifier.
        from repro.static.race import LineVerdict

        quarantined = [
            line for line in fs_lines
            if certificate.gate_verdict_for_location(line.location)
            is LineVerdict.RACE
        ]
        if not quarantined:
            return fs_lines
        ctx.health.repairs_quarantined += len(quarantined)
        tracer = ctx.tracer
        if tracer.enabled:
            tracer.emit(
                "repair.quarantine", ctx.cycle,
                lines=[str(line.location) for line in quarantined],
            )
        kept = [line for line in fs_lines if line not in quarantined]
        return kept

    # ------------------------------------------------------------------
    # Restore reconciliation and health
    # ------------------------------------------------------------------

    def on_checkpoint_restore(self, ctx, state) -> None:
        """Take the attached plan back from the runtime's authority.

        The runtime — not the (possibly stale, possibly fallen-back)
        checkpoint — is the authority on what instrumentation is live
        in the machine; trusting an older generation here could
        double-attach or strand an SSB.
        """
        ctx.st.plan = ctx.runtime.attached

    def health(self, ctx) -> None:
        machine, health = ctx.machine, ctx.health
        health.htm_aborts = machine.htm.aborts
        health.injected_htm_aborts = ctx.injector.fired["htm.abort"]
        health.ssb_fallback_activations = sum(
            ssb.stats.fallback_activations for ssb in ssb_buffers(ctx)
        )
