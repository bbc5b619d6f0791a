"""Unified run observability: event tracing, windowed telemetry, counts.

LASER's whole argument is deployability — an *online* monitor whose
overhead and decisions must be legible to operators.  This package is
the measurement layer that makes a run legible:

* :mod:`repro.obs.trace` — a ring-buffered structured event tracer with
  instrumentation points in the machine, the PMU/driver, the detection
  pipeline and the repair manager.  Near-zero cost when disabled (one
  attribute load and a branch per site), seed-deterministic when
  enabled, exportable as JSONL and as Chrome ``trace_event`` JSON so a
  run opens directly in Perfetto.
* :mod:`repro.obs.telemetry` — the per-run bundle: the tracer and the
  per-window time series exposed on ``LaserRunResult.telemetry``.
* :mod:`repro.obs.profile` — exact bytecode counts: runs a callable
  under the interpreter's instruction events, from outside the program,
  and charges each bytecode to the ``repro`` function that ran it
  (``python -m repro.obs profile``).  Host *time* per layer is
  perfbench's traced pass.
* :mod:`repro.obs.spans` — causal span tracing: promotes the flat
  trace events into flow trees (records → window → threshold → repair
  lifecycle) exported as Chrome trace_event flow arrows
  (``python -m repro.obs spans``).
* ``python -m repro.obs`` — runs any registered workload and prints a
  phase timeline plus a per-component cycle breakdown (a per-run
  Figure 12).
"""

# NOTE: this package is imported by the components it instruments
# (sim.machine, pebs, detect, repair), so the package init must stay
# dependency-light: trace/telemetry only.  ``repro.obs.spans`` and
# ``repro.obs.profile`` are imported explicitly where they are used.
from repro.obs.telemetry import RunTelemetry, WindowStats
from repro.obs.trace import NULL_TRACER, EventTracer, TraceEvent

__all__ = [
    "TraceEvent",
    "EventTracer",
    "NULL_TRACER",
    "WindowStats",
    "RunTelemetry",
]
