"""Crash recovery for the LASER monitoring pipeline.

The paper's deployment model (Section 6) splits LASER across a kernel
driver and a *separate userspace detector process*.  Separate processes
die separately: the detector can crash without taking the application
down, and an online monitor only earns its keep if losing the monitor
does not mean losing the run.  This package makes the pipeline
crash-recoverable:

* :mod:`repro.resilience.journal` — a write-ahead journal of
  sequence-numbered PEBS records, appended at the driver boundary, with
  acked-seqno batch marks so a restarted detector replays exactly the
  unprocessed suffix;
* :mod:`repro.resilience.checkpoint` — schema-versioned, CRC-guarded
  snapshots of detector and repair-manager state, with corrupt-snapshot
  detection falling back to the previous generation;
* :mod:`repro.resilience.policy` — the one shared exponential-backoff
  implementation (seeded jitter, attempt budget) used by both the
  repair re-evaluation backoff and supervisor restarts;
* :mod:`repro.resilience.supervisor` — heartbeat tracking, restart
  scheduling and the max-restart circuit breaker that degrades the
  system (detection-only, then passthrough) instead of aborting it;
* :mod:`repro.resilience.runtime` — the per-run bundle wiring the four
  into ``Laser.run_built``.

Every run carries the runtime: ``Laser.run_built`` builds it before
the driver, so the journal holds every record from the first delivery.
Like tracing, resilience observes and records but never charges
simulated cycles: on a run with no crash fault it only journals, beats
heartbeats and saves checkpoints.
"""

from repro.resilience.checkpoint import CHECKPOINT_SCHEMA, CheckpointStore, Snapshot
from repro.resilience.journal import RecordJournal
from repro.resilience.policy import Backoff, RetryPolicy
from repro.resilience.runtime import DegradeMode, ResilienceRuntime
from repro.resilience.supervisor import (
    ComponentStatus,
    SupervisedComponent,
    Supervisor,
)

__all__ = [
    "Backoff",
    "RetryPolicy",
    "RecordJournal",
    "CheckpointStore",
    "Snapshot",
    "CHECKPOINT_SCHEMA",
    "Supervisor",
    "SupervisedComponent",
    "ComponentStatus",
    "ResilienceRuntime",
    "DegradeMode",
]
