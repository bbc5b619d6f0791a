"""Per-run resilience bundle.

:class:`ResilienceRuntime` is what ``Laser.run_built`` actually holds:
the write-ahead journal, the checkpoint store, the supervisor with one
:class:`~repro.resilience.policy.RetryPolicy` per component (its
default 1 .. 8 check-interval backoff with no jitter, so a single run
draws no RNG for restarts; fleet shards keep their own seeded jitter),
and the degrade ladder the circuit breaker walks:

    NORMAL → DETECTION_ONLY → PASSTHROUGH

* **NORMAL** — full pipeline, repair allowed.
* **DETECTION_ONLY** — a component exhausted its restart budget once;
  repair is disabled (no more code patching from a flaky monitor) but
  detection continues, and the component gets one fresh budget.
* **PASSTHROUGH** — the budget was exhausted again; monitoring stands
  down entirely and the application runs unobserved.  The run is never
  aborted — the final report is recovered offline from the journal.

The runtime is also the *durable authority on repair attachment*.  A
checkpoint can be a generation stale; restoring one from before an
attach (or detach) and trusting it would double-attach or leak
instrumentation.  ``note_attached``/``note_detached`` record the truth
at the moment it changes, and restore reconciles against it.

Like tracing, the runtime observes and records but never charges
simulated cycles.
"""

from typing import List, Optional

from repro.obs.trace import NULL_TRACER
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.journal import RecordJournal
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import Supervisor

__all__ = ["DegradeMode", "ResilienceRuntime"]


class DegradeMode:
    """The circuit breaker's degrade ladder (json-serializable)."""

    NORMAL = "normal"
    DETECTION_ONLY = "detection_only"
    PASSTHROUGH = "passthrough"

    #: Ladder order, best to worst.
    LADDER = (NORMAL, DETECTION_ONLY, PASSTHROUGH)


class ResilienceRuntime:
    """Journal + checkpoints + supervisor + degrade state for one run."""

    COMPONENTS = ("driver", "detector")

    def __init__(self, config, injector=None, tracer=None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = RecordJournal()
        self.checkpoints = CheckpointStore(
            keep=2, injector=injector, tracer=self.tracer)
        self.supervisor = Supervisor(tracer=self.tracer)
        for name in self.COMPONENTS:
            self.supervisor.register(name, RetryPolicy(
                max_attempts=config.max_component_restarts))
        self.mode = DegradeMode.NORMAL
        self.records_replayed = 0
        self.records_deduped = 0
        #: Serialized state of the plan currently attached to the
        #: machine (``RepairPlan.attached_state()``), or None.  Updated
        #: at attach/detach time — authoritative over any checkpoint.
        self.attached_state: Optional[dict] = None
        #: True once a repair has been rolled back; like the attachment
        #: state, durable across detector crashes (one rollback ends
        #: repair attempts for the run).
        self.rolled_back = False
        #: Host-retained store buffers from detached plans; their stats
        #: must survive detector crashes (the machine no longer holds
        #: them once the plan detaches).
        self.detached_buffers: List = []

    # ------------------------------------------------------------------
    # Degrade ladder
    # ------------------------------------------------------------------

    @property
    def repair_allowed(self) -> bool:
        return self.mode == DegradeMode.NORMAL

    @property
    def monitoring_active(self) -> bool:
        return self.mode != DegradeMode.PASSTHROUGH

    def degrade(self, interval: int, cycle: int) -> str:
        """Step one rung down the ladder; returns the new mode."""
        ladder = DegradeMode.LADDER
        index = ladder.index(self.mode)
        if index < len(ladder) - 1:
            self.mode = ladder[index + 1]
            if self.tracer.enabled:
                self.tracer.emit("resil.degrade", cycle, mode=self.mode,
                                 interval=interval)
        return self.mode

    # ------------------------------------------------------------------
    # Repair-attachment authority
    # ------------------------------------------------------------------

    def note_attached(self, state: dict) -> None:
        self.attached_state = state

    def note_detached(self, buffers) -> None:
        self.attached_state = None
        self.rolled_back = True
        self.detached_buffers.extend(buffers)

    # ------------------------------------------------------------------
    # Replay accounting
    # ------------------------------------------------------------------

    def count_replayed(self, n: int) -> None:
        self.records_replayed += n

    def count_deduped(self, n: int) -> None:
        self.records_deduped += n

    def __repr__(self):
        return "<ResilienceRuntime mode=%s journal=%d acked=%d replayed=%d>" % (
            self.mode, len(self.journal), self.journal.acked_seq,
            self.records_replayed,
        )
