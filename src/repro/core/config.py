"""LASER system configuration.

Defaults follow the paper's evaluation setup (Section 7): SAV 19, a
detection rate threshold of 1K HITMs/sec, and online repair triggered
when a false-sharing line's HITM rate is high enough to merit it.

A knob lives here only if a caller sets it.  The fixed tunables of the
degradation and control machinery are constants at their one reader,
chosen so that a healthy run is bit-identical to a run without that
machinery:

* the driver's outbox bound is ``DRIVER_OUTBOX_CAPACITY`` in
  ``repro._constants`` (far above what a draining detector holds), and
  the SSB's HTM fallback threshold is ``HTM_ABORT_FALLBACK_THRESHOLD``
  beside it;
* the repair profitability floor is ``LaserRepair``'s default (4.0
  stores per flush), and every rewrite is verified;
* the repair re-evaluation backoff (2 .. 32 check intervals) is in
  ``repro.core.services.context``; it only changes *when* repair is
  re-evaluated, which is free in simulated cycles;
* the post-repair watchdog's window count and thresholds are in
  ``repro.core.services.repair``; it fires only when a repair
  demonstrably stopped paying off;
* a checkpoint is saved at every check interval, and supervisor
  restarts follow ``RetryPolicy``'s unjittered 1 .. 8 intervals;
* the overload controller's ratios, knob steps and SAV cap are in
  ``repro.control.controller``.
"""

__all__ = ["LaserConfig"]


class LaserConfig:
    """Tunables for one LASER deployment."""

    def __init__(
        self,
        sample_after_value: int = 19,
        rate_threshold: float = 1000.0,
        repair_trigger_rate: float = 4000.0,
        check_interval_cycles: int = 50_000,
        heap_shift: int = 64,
        detection_enabled: bool = True,
        repair_enabled: bool = True,
        seed: int = 0,
        rollback_enabled: bool = True,
        trace_enabled: bool = False,
        trace_capacity: int = 65_536,
        resilience_enabled: bool = True,
        max_component_restarts: int = 3,
        control_enabled: bool = False,
        control_budget_records: int = 128,
        control_escalate_after: int = 2,
        control_recover_after: int = 3,
        control_passthrough_after: int = 6,
        race_gate: bool = False,
        trace_spans: bool = False,
    ):
        if sample_after_value < 1:
            raise ValueError("SAV must be >= 1")
        if rate_threshold < 0 or repair_trigger_rate < 0:
            raise ValueError("thresholds must be non-negative")
        if trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if max_component_restarts < 0:
            raise ValueError("max_component_restarts must be >= 0")
        if control_budget_records < 1:
            raise ValueError("control_budget_records must be >= 1")
        if (control_escalate_after < 1 or control_recover_after < 1
                or control_passthrough_after < 1):
            raise ValueError("control streak thresholds must be >= 1")
        #: PEBS Sample-After Value; 19 is the paper's default (a prime,
        #: per the PEBS experience reports it cites).
        self.sample_after_value = sample_after_value
        #: Report threshold in HITM events per simulated second.
        self.rate_threshold = rate_threshold
        #: Combined HITM rate of FS-candidate lines that triggers repair.
        self.repair_trigger_rate = repair_trigger_rate
        #: How often the detector checks rates / considers repair.
        self.check_interval_cycles = check_interval_cycles
        #: Heap-base displacement caused by the detector forking the
        #: application (environment differences shift the initial brk).
        #: 64 bytes keeps cache-line alignment identical for ordinary
        #: allocations; workloads whose layout is environment-sensitive
        #: (lu_ncb's input buffer sizing) react to the nonzero shift —
        #: the mechanism behind lu_ncb's coincidental 30% speedup.
        self.heap_shift = heap_shift
        self.detection_enabled = detection_enabled
        self.repair_enabled = repair_enabled
        self.seed = seed
        #: Whether the post-repair watchdog may detach a repair that
        #: stopped paying off.
        self.rollback_enabled = rollback_enabled
        #: Structured event tracing (``repro.obs``).  Off by default:
        #: a disabled tracer costs one branch per instrumentation site
        #: and a traced run's *simulated* cycle counts are identical
        #: either way (tracing observes; it never charges cycles).
        self.trace_enabled = trace_enabled
        #: Ring-buffer bound on retained trace events; the tracer sheds
        #: oldest-first beyond this and counts ``events_dropped``.
        self.trace_capacity = trace_capacity
        #: Crash recovery (``repro.resilience``): write-ahead record
        #: journal, checkpoint/restore and supervised restarts.  On by
        #: default — like tracing, resilience observes and never charges
        #: simulated cycles, so a run with no crash faults is
        #: bit-identical either way.
        self.resilience_enabled = resilience_enabled
        #: Restart budget per component before the circuit breaker
        #: trips and the run degrades (detection-only, then passthrough).
        self.max_component_restarts = max_component_restarts
        #: Closed-loop overload control (``repro.control``).  Off by
        #: default: a disabled controller touches no knob and a run is
        #: bit-identical to one without the control machinery at all.
        self.control_enabled = control_enabled
        #: Record admission the controller defends, per *base* check
        #: interval.  Also the reference point for the controller's
        #: overload and recovery thresholds.
        self.control_budget_records = control_budget_records
        #: Consecutive overloaded intervals before escalating one rung.
        self.control_escalate_after = control_escalate_after
        #: Consecutive calm intervals before de-escalating one rung.
        self.control_recover_after = control_recover_after
        #: Higher bar for the final SHEDDING -> PASSTHROUGH rung
        #: (parking the monitor is a last resort).
        self.control_passthrough_after = control_passthrough_after
        #: Consult the static sharing certificate (``repro.static.race``)
        #: before attaching a repair: source lines certified RACE are
        #: quarantined (repair refused, counted in
        #: ``RunHealth.repairs_quarantined``) because SSB-rewriting a
        #: racy line would mask a correctness bug.  Off by default so
        #: default runs stay bit-identical to the golden pins.
        self.race_gate = race_gate
        #: Causal span events (``repro.obs.spans``): emit the extra
        #: ``detect.batch`` trace events that let the span builder link
        #: record batches to the windows and repairs they caused.  Off
        #: by default because any extra emission changes the trace
        #: stream's SHA-256 golden pin.
        self.trace_spans = trace_spans

    def replace(self, **kwargs) -> "LaserConfig":
        """Return a copy with some fields overridden."""
        return LaserConfig(**{**vars(self), **kwargs})
