"""Closed-loop overload control, as a service.

Mounts an :class:`~repro.control.controller.OverloadController` as the
sixth lifecycle service.  It runs *last* in the poll slice — after the
telemetry service has closed the interval's window — so the window it
reads is exactly the one the operator sees, and the knob settings it
writes take effect for the *next* interval:

* **signals in**: the just-closed :class:`WindowStats` (normalized
  record flow, outbox drops and backlog, detection latency);
* **knobs out**: the PMU's SAV (and matching record weight), the
  scheduler's poll cadence (``ctx.poll_interval_cycles``) and the
  driver's per-interval admission budget.

Whether or not the mode changed, every evaluation re-arms the driver's
admission meter for the coming interval — the budget is per interval,
and the driver has no clock of its own.

The ``control.stuck`` fault site freezes one evaluation: signals go
unread and knobs stay put, but the admission meter is still re-armed
(the *driver* enforces the budget; a wedged controller must not turn
an old budget into a one-interval-only throttle).

With ``config.control_enabled`` off (the default) every hook returns
immediately and contributes nothing to checkpoints, traces, metrics or
window serialization, keeping controller-off runs bit-identical to the
pre-control golden pins.
"""

from repro.control import ControlMode, ControlSignals, OverloadController
from repro.core.services.base import Service

__all__ = ["ControlService"]


class ControlService(Service):
    """The overload controller's mount point in the run kernel."""

    name = "control"

    def __init__(self):
        self.controller = None
        self._shed_mark = 0

    @staticmethod
    def _enabled(ctx) -> bool:
        return ctx.config.control_enabled

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_start(self, ctx) -> None:
        if not self._enabled(ctx):
            return
        config = ctx.config
        self.controller = OverloadController(
            base_sav=config.sample_after_value,
            base_interval_cycles=config.check_interval_cycles,
            budget_records=config.control_budget_records,
            escalate_after=config.control_escalate_after,
            recover_after=config.control_recover_after,
            passthrough_after=config.control_passthrough_after,
        )
        self._shed_mark = 0
        self._apply_knobs(ctx)

    def on_poll(self, ctx) -> None:
        if not self._enabled(ctx):
            return
        controller = self.controller
        if ctx.injector.fires("control.stuck"):
            controller.stuck_intervals += 1
            ctx.tracer.emit("control.stuck", ctx.cycle,
                            mode=controller.mode)
            # Knobs stay frozen, but the driver's per-interval meter
            # still re-arms: the budget is enforced by the driver, not
            # by the (currently wedged) controller.
            ctx.driver.set_admission(ctx.driver.admission_budget)
            self._note_shed(ctx)
            return
        # The telemetry service ran earlier in this same poll slice, so
        # windows[-1] is the interval that just closed.
        window = ctx.telemetry.windows[-1]
        signals = ControlSignals(
            records_offered=window.records_offered,
            sample_after_value=window.sav or controller.base_sav,
            duration_cycles=window.duration_cycles,
            records_dropped=window.records_dropped,
            outbox_pending=window.outbox_pending,
            detect_latency=window.detect_latency,
        )
        if controller.evaluate(signals):
            self._apply_knobs(ctx)
            ctx.tracer.emit(
                "control.mode", ctx.cycle, mode=controller.mode,
                flow=round(controller.normalized_flow(signals), 3),
                **controller.knobs().as_dict()
            )
        else:
            ctx.driver.set_admission(ctx.driver.admission_budget)
        self._note_shed(ctx)

    def on_checkpoint_save(self, ctx, state: dict) -> None:
        if self._enabled(ctx):
            state["control"] = self.controller.state_dict()

    def on_checkpoint_restore(self, ctx, state) -> None:
        if not self._enabled(ctx):
            return
        controller = self.controller
        # The tallies count control.mode and control.stuck events the
        # run has already emitted: a restore rolls the ladder back, not
        # them.
        tallies = controller.mode_changes, controller.stuck_intervals
        if state is None or "control" not in state:
            # Cold start (or a pre-control checkpoint generation).
            controller.reset()
        else:
            controller.load_state_dict(state["control"])
        controller.mode_changes, controller.stuck_intervals = tallies
        # Reapply: a crash may have died mid-shed, and the restored
        # mode must keep actuating the same knobs it did before.
        self._apply_knobs(ctx)

    def health(self, ctx) -> None:
        if not self._enabled(ctx):
            return
        controller, health = self.controller, ctx.health
        health.control_mode_changes = controller.mode_changes
        health.control_throttled_windows = (
            controller.residency[ControlMode.THROTTLED])
        health.control_shedding_windows = (
            controller.residency[ControlMode.SHEDDING])
        health.control_passthrough_windows = (
            controller.residency[ControlMode.PASSTHROUGH])
        health.control_sav_max_excess = controller.sav_max_excess
        health.control_poll_max_excess = controller.poll_max_excess
        health.control_stuck_intervals = controller.stuck_intervals

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------

    def _apply_knobs(self, ctx) -> None:
        """Write the current mode's knob settings into the components."""
        knobs = self.controller.knobs()
        ctx.pmu.sample_after_value = knobs.sample_after_value
        ctx.pmu.sample_weight = knobs.sample_weight
        ctx.poll_interval_cycles = knobs.poll_interval_cycles
        ctx.driver.set_admission(knobs.admission_budget)
        ctx.control_mode = self.controller.mode
        ctx.tracer.emit("control.knobs", ctx.cycle,
                        mode=self.controller.mode, **knobs.as_dict())

    def _note_shed(self, ctx) -> None:
        """Trace the interval's shed delta (the explicit accounting)."""
        shed = ctx.driver.records_shed
        if shed > self._shed_mark:
            ctx.tracer.emit("control.shed", ctx.cycle,
                            shed=shed - self._shed_mark, total=shed,
                            mode=self.controller.mode)
            self._shed_mark = shed
