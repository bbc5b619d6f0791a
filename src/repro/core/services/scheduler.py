"""The run kernel: a slim deterministic scheduler over the services.

The scheduler owns the machine's run slices and the order in which the
services see each lifecycle moment; the services own the behavior.
Ordering within a slice is a kernel contract (and a bit-identity
requirement — fault sites are consulted in slice order):

* **poll slice** (every interval boundary, including the final one):
  resilience (supervision, due restarts) → driver poll (drain, crash
  and stall sites) → detection (ingest + window roll) → repair (no-op)
  → telemetry (close the window) → control (read the closed window,
  actuate knobs for the next interval).
* **check-interval slice** (non-final interval, successful poll only):
  driver → detection (no-ops) → repair (trigger/watchdog/backoff) →
  resilience (checkpoint cadence — after repair, so an attach-time
  checkpoint keeps its historical position) → telemetry → control
  (no-ops).
* **exit slice**: resilience (``was_down`` verdict) → driver poll
  (exit-backlog accounting, *before* the final drain claims it) →
  detection (final drain / offline recovery) → repair (no-op) →
  telemetry (catch-up window) → control (no-op).

Checkpoint payloads are assembled by fanning ``on_checkpoint_save``
across the services (detection: pipeline + loop state; resilience:
journal watermark; control: ladder state, when enabled) and restored
by fanning ``on_checkpoint_restore`` (detection: load or cold-start;
repair: attachment reconciliation against the runtime's durable
authority; control: re-actuate the restored mode's knobs) — the
fan-out orders are fixed here too.

The machine slice length is ``ctx.poll_interval_cycles`` — the
*actuated* poll cadence, which starts at the configured check interval
and is the overload controller's second knob.

The kernel carries no host-cost hooks: perfbench's traced pass wraps
the service hooks from outside to time them, and
:func:`repro.obs.profile.count_bytecodes` counts their bytecodes.
"""

__all__ = ["Scheduler"]


class Scheduler:
    """Deterministic composition of the six run services."""

    def __init__(self, ctx, resilience, driver_poll, detection, repair,
                 telemetry, control=None):
        if control is None:
            # Imported lazily so the base kernel types never depend on
            # the control package at import time.
            from repro.core.services.control import ControlService
            control = ControlService()
        self.ctx = ctx
        self.resilience = resilience
        self.driver_poll = driver_poll
        self.detection = detection
        self.repair = repair
        self.telemetry = telemetry
        self.control = control
        #: Uniform registration order (start/health fan-outs).
        self.services = (resilience, driver_poll, detection, repair,
                         telemetry, control)
        self._poll_order = (resilience, driver_poll, detection, repair,
                            telemetry, control)
        self._check_order = (driver_poll, detection, repair, resilience,
                             telemetry, control)
        self._exit_order = (resilience, driver_poll, detection, repair,
                            telemetry, control)
        self._save_order = (detection, resilience, control)
        self._restore_order = (detection, repair, control)
        ctx.scheduler = self

    # ------------------------------------------------------------------
    # Checkpoint fan-outs (invoked by the resilience service)
    # ------------------------------------------------------------------

    def checkpoint_state(self, ctx) -> dict:
        """Assemble one checkpoint payload from service contributions."""
        state: dict = {}
        for service in self._save_order:
            service.on_checkpoint_save(ctx, state)
        return state

    def restore_state(self, ctx, state) -> None:
        """Fan a loaded payload (or ``None`` = cold start) back out."""
        for service in self._restore_order:
            service.on_checkpoint_restore(ctx, state)

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def _fan(self, order, hook):
        """Fan one lifecycle hook across ``order``."""
        ctx = self.ctx
        for service in order:
            getattr(service, hook)(ctx)

    def run(self, max_cycles: int):
        """Drive the machine to completion; returns the final report."""
        ctx = self.ctx
        config, machine = ctx.config, ctx.machine
        ctx.tracer.emit(
            "laser.run_begin", 0, program=ctx.program.name,
            sample_after_value=config.sample_after_value,
            check_interval=config.check_interval_cycles,
            repair_enabled=config.repair_enabled,
        )
        self._fan(self.services, "on_start")
        next_check = ctx.poll_interval_cycles
        while True:
            result = machine.run(until_cycle=next_check,
                                 max_cycles=max_cycles)
            ctx.begin_interval()
            self._fan(self._poll_order, "on_poll")
            if result.finished:
                break
            next_check = machine.cycle + ctx.poll_interval_cycles
            if not ctx.polled:
                continue  # a stalled, crashed or down detector evaluates nothing
            self._fan(self._check_order, "on_check_interval")
        self._fan(self._exit_order, "on_exit")
        report = ctx.pipeline.report(machine.cycle, config.rate_threshold)
        for service in self.services:
            service.health(ctx)
        # Whole-run fault accounting belongs to the kernel, not to any
        # one service.
        ctx.health.faults_injected = ctx.injector.total_fired
        ctx.tracer.emit(
            "laser.run_end", machine.cycle, cycles=machine.cycle,
            hitm_events=ctx.pmu.total_hitm_count,
            repaired=ctx.runtime.attached is not None,
            degraded=ctx.health.degraded,
        )
        return report
