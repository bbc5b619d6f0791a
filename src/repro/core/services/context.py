"""The shared state of one monitored run.

:class:`RunContext` is the single bag every service reads and writes:
the machine and its clock, the config, the fault plan (via its
injector), the tracer/telemetry bundle, the health tally, the wired
components (driver, PMU, pipeline, repairer and the resilience runtime,
which every run has) and the detector's loop state.  Per-interval
scratch (``recovery``, ``poll_records``, ``polled``) is reset by the
scheduler at each slice boundary.

:class:`DetectorState` is the detector process's in-memory loop state —
everything that dies with a detector crash and is rebuilt from the last
checkpoint plus journal replay.  Keeping it in one object keeps the
crash/restore boundary honest.  The repair-attachment flags
(``plan``/``repaired``/``rolled_back``) are *not* part of the
checkpointed loop state — the resilience runtime is the durable
authority on what instrumentation is live in the machine, and restore
reconciles against it (a checkpoint can legitimately be a generation
stale; trusting its attachment flags could double-attach).
"""

from typing import List

from repro.resilience import Backoff

__all__ = ["DetectorState", "RunContext", "ssb_buffers", "ssb_totals",
           "ssb_abort_count"]

#: After a rejected (or failed) repair evaluation, skip this many check
#: intervals before re-evaluating...
REPAIR_BACKOFF_INTERVALS = 2
#: ...doubling the skip on every further rejection, up to this cap.
REPAIR_BACKOFF_MAX = 32


class DetectorState:
    """The detector process's in-memory loop state."""

    __slots__ = ("plan", "repaired", "rolled_back", "stalled",
                 "window_start", "backoff_remaining", "repair_backoff",
                 "attach_rate", "windows_since_attach",
                 "mark_cycle", "mark_hitm", "mark_aborts")

    def __init__(self):
        self.plan = None
        self.repaired = False
        self.rolled_back = False
        self.repair_backoff = Backoff(REPAIR_BACKOFF_INTERVALS,
                                      REPAIR_BACKOFF_MAX)
        self.reset_loop_state()

    def reset_loop_state(self) -> None:
        """Cold-start values (a restart with no checkpoint to restore)."""
        self.stalled = False
        self.window_start = 0
        self.backoff_remaining = 0
        self.repair_backoff.reset()
        self.attach_rate = 0.0
        self.windows_since_attach = 0
        self.mark_cycle = 0
        self.mark_hitm = 0
        self.mark_aborts = 0

    def loop_state(self) -> dict:
        """Checkpoint payload for the loop-control state."""
        return {
            "window_start": self.window_start,
            "stalled": self.stalled,
            "backoff_remaining": self.backoff_remaining,
            "backoff_current": self.repair_backoff.current,
            "attach_rate": self.attach_rate,
            "windows_since_attach": self.windows_since_attach,
            "mark_cycle": self.mark_cycle,
            "mark_hitm": self.mark_hitm,
            "mark_aborts": self.mark_aborts,
        }

    def load_loop_state(self, loop: dict) -> None:
        self.window_start = loop["window_start"]
        self.stalled = loop["stalled"]
        self.backoff_remaining = loop["backoff_remaining"]
        self.repair_backoff.current = loop["backoff_current"]
        self.attach_rate = loop["attach_rate"]
        self.windows_since_attach = loop["windows_since_attach"]
        self.mark_cycle = loop["mark_cycle"]
        self.mark_hitm = loop["mark_hitm"]
        self.mark_aborts = loop["mark_aborts"]

    @property
    def repair_state(self) -> str:
        """The telemetry window's repair-phase label."""
        if self.repaired:
            return "attached"
        if self.rolled_back:
            return "rolled_back"
        return "idle"


class RunContext:
    """Everything the services of one run share."""

    __slots__ = ("config", "machine", "program", "injector", "tracer",
                 "telemetry", "health", "driver", "pmu", "pipeline",
                 "repairer", "runtime", "st", "scheduler",
                 "interval", "recovery", "poll_records", "polled",
                 "was_down", "poll_interval_cycles", "control_mode",
                 "poll_lag_cycles", "certificate", "transport")

    def __init__(self, config, machine, program, injector, tracer,
                 telemetry, health, driver, pmu, pipeline, repairer,
                 runtime, st, certificate=None, transport=None):
        self.config = config
        self.machine = machine
        self.program = program
        self.injector = injector
        self.tracer = tracer
        self.telemetry = telemetry
        self.health = health
        self.driver = driver
        self.pmu = pmu
        self.pipeline = pipeline
        self.repairer = repairer
        #: The static :class:`~repro.static.race.SharingCertificate`
        #: for this program, or ``None`` unless ``race_gate`` asked for
        #: one.
        self.certificate = certificate
        #: Crash-recovery runtime (``repro.resilience``): journal,
        #: checkpoints, supervisor and degrade ladder.
        self.runtime = runtime
        #: Client-to-shard record transport (``repro.fleet``), or
        #: ``None`` on every single-run path.  When attached, the
        #: driver-poll service consults it before each read — the
        #: ``shard.partition`` fault site lives there.
        self.transport = transport
        self.st = st
        #: Back-reference, set by the scheduler at composition time
        #: (services fan checkpoint save/restore out through it).
        self.scheduler = None
        self.interval = 0
        # Per-interval scratch; reset by the scheduler each slice.
        self.recovery = False
        self.poll_records = None
        self.polled = False
        # Exit-time scratch.
        self.was_down = False
        #: The scheduler's *actuated* poll cadence: starts at the
        #: configured check interval and is stretched/restored by the
        #: overload controller (``repro.control``).
        self.poll_interval_cycles = config.check_interval_cycles
        #: The overload ladder mode in effect (``None`` = controller
        #: off; the telemetry window serializes control extras only
        #: when this is set).
        self.control_mode = None
        #: Age, in cycles, of the oldest record in the last non-empty
        #: poll batch — the run's live detection-latency signal.
        self.poll_lag_cycles = 0

    # ------------------------------------------------------------------
    # Clock and component views
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """The run clock: the machine's current simulated cycle."""
        return self.machine.cycle

    @property
    def detector_up(self) -> bool:
        """Whether the supervised detector process is running."""
        return self.runtime.supervisor["detector"].running

    def begin_interval(self) -> None:
        """Reset the per-interval scratch at a slice boundary."""
        self.interval += 1
        self.recovery = False
        self.poll_records = None
        self.polled = False


# ----------------------------------------------------------------------
# SSB accounting shared by the repair and telemetry services
# ----------------------------------------------------------------------

def ssb_abort_count(machine) -> int:
    """HTM aborts across the SSBs currently attached to the machine."""
    return sum(
        core.ssb.stats.htm_aborts
        for core in machine.cores
        if core.ssb is not None
    )


def ssb_buffers(ctx) -> List:
    """The SSBs attached to the machine plus every detached one.

    The watchdog's rollback is the only detach, and it records each
    buffer it detaches in the resilience runtime's durable list, which
    outlives detector crashes (the machine no longer holds them).
    """
    attached = [core.ssb for core in ctx.machine.cores
                if core.ssb is not None]
    return attached + ctx.runtime.detached_buffers


def ssb_totals(ctx) -> tuple:
    """(flushes, htm_aborts) over attached *and* detached SSBs."""
    buffers = ssb_buffers(ctx)
    return (
        sum(ssb.stats.flushes for ssb in buffers),
        sum(ssb.stats.htm_aborts for ssb in buffers),
    )
