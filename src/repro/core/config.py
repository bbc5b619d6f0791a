"""LASER system configuration.

Defaults follow the paper's evaluation setup (Section 7): SAV 19, a
detection rate threshold of 1K HITMs/sec, and online repair triggered
when a false-sharing line's HITM rate is high enough to merit it.

The degradation knobs (backoff, watchdog, outbox bound) default to
values under which a healthy run is bit-identical to a run without the
degradation machinery: the outbox bound is far above what a draining
detector accumulates, the backoff only changes *when* repair is
re-evaluated (re-evaluation is free in simulated cycles), and the
watchdog only fires when a repair demonstrably stopped paying off.
"""

from repro._constants import DRIVER_OUTBOX_CAPACITY, HTM_ABORT_FALLBACK_THRESHOLD

__all__ = ["LaserConfig"]


class LaserConfig:
    """Tunables for one LASER deployment."""

    def __init__(
        self,
        sample_after_value: int = 19,
        rate_threshold: float = 1000.0,
        repair_trigger_rate: float = 4000.0,
        check_interval_cycles: int = 50_000,
        min_stores_per_flush: float = 4.0,
        heap_shift: int = 64,
        detection_enabled: bool = True,
        repair_enabled: bool = True,
        seed: int = 0,
        outbox_capacity: int = DRIVER_OUTBOX_CAPACITY,
        repair_backoff_intervals: int = 2,
        repair_backoff_max: int = 32,
        rollback_enabled: bool = True,
        watchdog_windows: int = 3,
        watchdog_rate_ratio: float = 0.5,
        watchdog_abort_rate: float = 4.0,
        htm_abort_fallback_threshold: int = HTM_ABORT_FALLBACK_THRESHOLD,
        verify_repairs: bool = True,
        trace_enabled: bool = False,
        trace_capacity: int = 65_536,
        resilience_enabled: bool = True,
        checkpoint_every_windows: int = 1,
        restart_backoff_intervals: int = 1,
        restart_backoff_max: int = 8,
        restart_jitter: float = 0.0,
        max_component_restarts: int = 3,
        control_enabled: bool = False,
        control_budget_records: int = 128,
        control_overload_ratio: float = 1.0,
        control_recover_ratio: float = 0.5,
        control_escalate_after: int = 2,
        control_recover_after: int = 3,
        control_passthrough_after: int = 6,
        control_sav_step: int = 2,
        control_poll_step: int = 2,
        control_max_sav: int = 512,
        race_gate: bool = False,
        static_prefilter: bool = False,
        profile_enabled: bool = False,
        trace_spans: bool = False,
    ):
        if sample_after_value < 1:
            raise ValueError("SAV must be >= 1")
        if rate_threshold < 0 or repair_trigger_rate < 0:
            raise ValueError("thresholds must be non-negative")
        if outbox_capacity < 1:
            raise ValueError("outbox capacity must be >= 1")
        if repair_backoff_intervals < 1 or repair_backoff_max < 1:
            raise ValueError("backoff intervals must be >= 1")
        if watchdog_windows < 1:
            raise ValueError("watchdog_windows must be >= 1")
        if not 0.0 <= watchdog_rate_ratio <= 1.0:
            raise ValueError("watchdog_rate_ratio must be in [0, 1]")
        if htm_abort_fallback_threshold < 1:
            raise ValueError("htm_abort_fallback_threshold must be >= 1")
        if trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if checkpoint_every_windows < 1:
            raise ValueError("checkpoint_every_windows must be >= 1")
        if restart_backoff_intervals < 1 or restart_backoff_max < 1:
            raise ValueError("restart backoff intervals must be >= 1")
        if restart_jitter < 0.0:
            raise ValueError("restart_jitter must be >= 0")
        if max_component_restarts < 0:
            raise ValueError("max_component_restarts must be >= 0")
        if control_budget_records < 1:
            raise ValueError("control_budget_records must be >= 1")
        if control_overload_ratio <= 0.0 or control_recover_ratio <= 0.0:
            raise ValueError("control ratios must be > 0")
        if control_recover_ratio >= control_overload_ratio:
            raise ValueError(
                "control_recover_ratio must be < control_overload_ratio "
                "(the gap is the hysteresis band)"
            )
        if (control_escalate_after < 1 or control_recover_after < 1
                or control_passthrough_after < 1):
            raise ValueError("control streak thresholds must be >= 1")
        if control_sav_step < 2 or control_poll_step < 2:
            raise ValueError("control knob steps must be >= 2")
        if control_max_sav < sample_after_value:
            raise ValueError("control_max_sav must be >= sample_after_value")
        #: PEBS Sample-After Value; 19 is the paper's default (a prime,
        #: per the PEBS experience reports it cites).
        self.sample_after_value = sample_after_value
        #: Report threshold in HITM events per simulated second.
        self.rate_threshold = rate_threshold
        #: Combined HITM rate of FS-candidate lines that triggers repair.
        self.repair_trigger_rate = repair_trigger_rate
        #: How often the detector checks rates / considers repair.
        self.check_interval_cycles = check_interval_cycles
        #: Repair profitability floor (Section 5.4).
        self.min_stores_per_flush = min_stores_per_flush
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
        #: Bound on the driver's detector-facing outbox; overflow drops
        #: records (with accounting) instead of growing without limit.
        self.outbox_capacity = outbox_capacity
        #: After a rejected (or failed) repair evaluation, skip this
        #: many check intervals before re-evaluating...
        self.repair_backoff_intervals = repair_backoff_intervals
        #: ...doubling the skip on every further rejection, up to this
        #: cap (exponential backoff; replaces the old permanent bail).
        self.repair_backoff_max = repair_backoff_max
        #: Whether the post-repair watchdog may detach a repair that
        #: stopped paying off.
        self.rollback_enabled = rollback_enabled
        #: Detection windows the watchdog observes after an attach
        #: before judging the repair.
        self.watchdog_windows = watchdog_windows
        #: The repair is judged worthwhile only if the post-repair HITM
        #: rate fell below this fraction of the rate at attach time.
        self.watchdog_rate_ratio = watchdog_rate_ratio
        #: SSB HTM aborts per watchdog window above which the repair is
        #: judged to be thrashing the HTM.
        self.watchdog_abort_rate = watchdog_abort_rate
        #: Consecutive HTM aborts before an SSB abandons transactional
        #: flushes for per-store writeback (see ``repro.core.repair.ssb``).
        self.htm_abort_fallback_threshold = htm_abort_fallback_threshold
        #: Gate every rewrite through the static TSO/SSB verifier
        #: (``repro.static.verify``); a rewrite it cannot prove safe is
        #: rejected and counted in ``RunHealth.repair_verifier_rejections``.
        self.verify_repairs = verify_repairs
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
        #: Checkpoint cadence, in detection windows (check intervals).
        self.checkpoint_every_windows = checkpoint_every_windows
        #: First supervisor restart delay, in check intervals...
        self.restart_backoff_intervals = restart_backoff_intervals
        #: ...doubling per consecutive crash up to this cap.
        self.restart_backoff_max = restart_backoff_max
        #: Seeded-jitter fraction widening each restart delay (0 = none).
        self.restart_jitter = restart_jitter
        #: Restart budget per component before the circuit breaker
        #: trips and the run degrades (detection-only, then passthrough).
        self.max_component_restarts = max_component_restarts
        #: Closed-loop overload control (``repro.control``).  Off by
        #: default: a disabled controller touches no knob and a run is
        #: bit-identical to one without the control machinery at all.
        self.control_enabled = control_enabled
        #: Record admission the controller defends, per *base* check
        #: interval.  Also the reference point for the overload and
        #: recovery thresholds below.
        self.control_budget_records = control_budget_records
        #: An interval is overloaded when normalized record flow
        #: exceeds this multiple of the budget (or anything dropped).
        self.control_overload_ratio = control_overload_ratio
        #: ...and calm only when flow falls below this multiple with a
        #: clean driver; the gap between the two ratios is the
        #: hysteresis band that keeps the ladder from flapping.
        self.control_recover_ratio = control_recover_ratio
        #: Consecutive overloaded intervals before escalating one rung.
        self.control_escalate_after = control_escalate_after
        #: Consecutive calm intervals before de-escalating one rung.
        self.control_recover_after = control_recover_after
        #: Higher bar for the final SHEDDING -> PASSTHROUGH rung
        #: (parking the monitor is a last resort).
        self.control_passthrough_after = control_passthrough_after
        #: Per-rung multiplier applied to the SAV...
        self.control_sav_step = control_sav_step
        #: ...and to the poll interval.
        self.control_poll_step = control_poll_step
        #: Hard cap on the actuated SAV (sampling coarser than this
        #: stops producing a usable rate estimate at all).
        self.control_max_sav = control_max_sav
        #: Consult the static sharing certificate (``repro.static.race``)
        #: before attaching a repair: source lines certified RACE are
        #: quarantined (repair refused, counted in
        #: ``RunHealth.repairs_quarantined``) because SSB-rewriting a
        #: racy line would mask a correctness bug.  Off by default so
        #: default runs stay bit-identical to the golden pins.
        self.race_gate = race_gate
        #: Feed the certificate's shared-line set to the detector's
        #: record filter so sampling budget is spent only on lines
        #: static analysis says can be shared.  Fail-open: applied only
        #: when the certificate is complete (no clipped footprints).
        self.static_prefilter = static_prefilter
        #: Host-time profiling (``repro.obs.profile``): attribute host
        #: wall-clock per scheduler slice to each service plus the sim
        #: core and PEBS drain.  Off by default — a disabled profiler
        #: costs one branch per hook, and the profiler only *reads* the
        #: host clock, so simulated outputs are bit-identical on or off.
        self.profile_enabled = profile_enabled
        #: Causal span events (``repro.obs.spans``): emit the extra
        #: ``detect.batch`` trace events that let the span builder link
        #: record batches to the windows and repairs they caused.  Off
        #: by default because any extra emission changes the trace
        #: stream's SHA-256 golden pin.
        self.trace_spans = trace_spans

    def replace(self, **kwargs) -> "LaserConfig":
        """Return a copy with some fields overridden."""
        fields = dict(
            sample_after_value=self.sample_after_value,
            rate_threshold=self.rate_threshold,
            repair_trigger_rate=self.repair_trigger_rate,
            check_interval_cycles=self.check_interval_cycles,
            min_stores_per_flush=self.min_stores_per_flush,
            heap_shift=self.heap_shift,
            detection_enabled=self.detection_enabled,
            repair_enabled=self.repair_enabled,
            seed=self.seed,
            outbox_capacity=self.outbox_capacity,
            repair_backoff_intervals=self.repair_backoff_intervals,
            repair_backoff_max=self.repair_backoff_max,
            rollback_enabled=self.rollback_enabled,
            watchdog_windows=self.watchdog_windows,
            watchdog_rate_ratio=self.watchdog_rate_ratio,
            watchdog_abort_rate=self.watchdog_abort_rate,
            htm_abort_fallback_threshold=self.htm_abort_fallback_threshold,
            verify_repairs=self.verify_repairs,
            trace_enabled=self.trace_enabled,
            trace_capacity=self.trace_capacity,
            resilience_enabled=self.resilience_enabled,
            checkpoint_every_windows=self.checkpoint_every_windows,
            restart_backoff_intervals=self.restart_backoff_intervals,
            restart_backoff_max=self.restart_backoff_max,
            restart_jitter=self.restart_jitter,
            max_component_restarts=self.max_component_restarts,
            control_enabled=self.control_enabled,
            control_budget_records=self.control_budget_records,
            control_overload_ratio=self.control_overload_ratio,
            control_recover_ratio=self.control_recover_ratio,
            control_escalate_after=self.control_escalate_after,
            control_recover_after=self.control_recover_after,
            control_passthrough_after=self.control_passthrough_after,
            control_sav_step=self.control_sav_step,
            control_poll_step=self.control_poll_step,
            control_max_sav=self.control_max_sav,
            race_gate=self.race_gate,
            static_prefilter=self.static_prefilter,
            profile_enabled=self.profile_enabled,
            trace_spans=self.trace_spans,
        )
        fields.update(kwargs)
        return LaserConfig(**fields)
