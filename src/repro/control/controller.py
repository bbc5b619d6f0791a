"""The overload controller: a hysteresis ladder over three knobs.

Modes form a ladder (:data:`ControlMode.LADDER`), mirroring the
``DegradeMode`` idiom of the crash-recovery supervisor but answering a
different question: the crash ladder reacts to *component deaths*, this
one reacts to *load*.  The two compose — a run can be THROTTLED while
the crash supervisor restarts a dead detector — because they actuate
disjoint state: the crash ladder switches pipeline stages off, the
control ladder rescales sampling, cadence and admission.

Per mode, the knob table (each step relative to the configured base;
the SAV is capped at :data:`MAX_SAV`):

=============  ==========  ============  ==============================
mode           SAV factor  poll factor   admission budget per interval
=============  ==========  ============  ==============================
NOMINAL        x1          x1            unlimited
THROTTLED      x 2         x 2           ``budget_records`` x poll factor
SHEDDING       x 4         x 4           ``budget_records/4`` x poll factor
PASSTHROUGH    x 8         x 8           0 (monitoring parked)
=============  ==========  ============  ==============================

Escalation needs ``escalate_after`` *consecutive* overloaded intervals
(``passthrough_after`` for the final rung — parking the monitor is a
last resort); de-escalation needs ``recover_after`` consecutive calm
intervals.  Intervals that are neither overloaded nor calm reset both
streaks: the gap between the overload and recovery thresholds is the
hysteresis band that keeps the ladder from flapping.  The thresholds
(:data:`OVERLOAD_RATIO`, :data:`RECOVER_RATIO`), the knob steps and the
SAV cap are module constants; only the streak lengths and the budget
come from the run config.

The overload signal is *normalized* record flow: records offered by
the PMU, rescaled by the current SAV and poll-interval stretch back to
base-knob units.  Without the normalization, raising SAV would halve
the observed record count and the controller would declare victory
over a storm that is still raging; normalized flow only drops when the
*source* calms down.

Everything here is pure, deterministic arithmetic on integers and
floats derived from the run config — no RNG, no wall clock — so
controller-on runs are byte-deterministic per seed, and the whole
object round-trips through ``state_dict`` for crash checkpoints.
"""

from typing import Dict, Optional, Tuple

__all__ = ["ControlMode", "ControlSignals", "KnobSettings",
           "OverloadController"]


class ControlMode:
    """The overload ladder, least to most degraded."""

    NOMINAL = "nominal"
    THROTTLED = "throttled"
    SHEDDING = "shedding"
    PASSTHROUGH = "passthrough"

    LADDER: Tuple[str, ...] = (NOMINAL, THROTTLED, SHEDDING, PASSTHROUGH)

    @classmethod
    def rung(cls, mode: str) -> int:
        return cls.LADDER.index(mode)


class ControlSignals:
    """One interval's controller inputs, straight from a WindowStats."""

    __slots__ = ("records_offered", "sample_after_value", "duration_cycles",
                 "records_dropped", "outbox_pending", "detect_latency")

    def __init__(self, records_offered: int, sample_after_value: int,
                 duration_cycles: int, records_dropped: int = 0,
                 outbox_pending: int = 0, detect_latency: int = 0):
        self.records_offered = records_offered
        self.sample_after_value = sample_after_value
        self.duration_cycles = duration_cycles
        self.records_dropped = records_dropped
        self.outbox_pending = outbox_pending
        self.detect_latency = detect_latency

    def __repr__(self):
        return ("<ControlSignals offered=%d sav=%d dur=%d drop=%d "
                "pending=%d lat=%d>"
                % (self.records_offered, self.sample_after_value,
                   self.duration_cycles, self.records_dropped,
                   self.outbox_pending, self.detect_latency))


class KnobSettings:
    """The three actuated knobs for one mode."""

    __slots__ = ("sample_after_value", "sample_weight",
                 "poll_interval_cycles", "admission_budget")

    def __init__(self, sample_after_value: int, sample_weight: int,
                 poll_interval_cycles: int,
                 admission_budget: Optional[int]):
        self.sample_after_value = sample_after_value
        #: Records sampled at an elevated SAV each stand for this many
        #: base-SAV records; the detection pipeline weights them so
        #: reported HITM rates stay unbiased under throttling.
        self.sample_weight = sample_weight
        self.poll_interval_cycles = poll_interval_cycles
        #: Records the driver may admit per check interval; ``None``
        #: means unlimited, ``0`` parks the monitor entirely.
        self.admission_budget = admission_budget

    def as_dict(self) -> Dict:
        return {
            "sav": self.sample_after_value,
            "weight": self.sample_weight,
            "poll_interval": self.poll_interval_cycles,
            "budget": self.admission_budget,
        }

    def __repr__(self):
        return "<KnobSettings sav=%d poll=%d budget=%s>" % (
            self.sample_after_value, self.poll_interval_cycles,
            self.admission_budget,
        )


#: An interval is overloaded when normalized flow exceeds this
#: multiple of the budget (or anything dropped)...
OVERLOAD_RATIO = 1.0
#: ...and calm only when flow falls below this multiple with a clean
#: driver; the gap between the two ratios is the hysteresis band.
RECOVER_RATIO = 0.5
#: Per-rung multiplier applied to the SAV...
SAV_STEP = 2
#: ...and to the poll interval.
POLL_STEP = 2
#: Hard cap on the actuated SAV (sampling coarser than this stops
#: producing a usable rate estimate at all).
MAX_SAV = 512
#: SHEDDING admits this fraction of the THROTTLED budget rate.
_SHEDDING_BUDGET_DIVISOR = 4


class OverloadController:
    """Hysteresis ladder mapping load signals to knob settings."""

    def __init__(self, base_sav: int, base_interval_cycles: int,
                 budget_records: int, escalate_after: int,
                 recover_after: int, passthrough_after: int):
        if base_sav < 1 or base_interval_cycles < 1:
            raise ValueError("base knobs must be >= 1")
        if base_sav > MAX_SAV:
            raise ValueError("base SAV must be <= MAX_SAV (%d)" % MAX_SAV)
        self.base_sav = base_sav
        self.base_interval_cycles = base_interval_cycles
        self.budget_records = budget_records
        self.escalate_after = escalate_after
        self.recover_after = recover_after
        self.passthrough_after = passthrough_after
        self.reset()

    def reset(self) -> None:
        """Cold-start state (also the checkpoint-less restore path)."""
        self.mode = ControlMode.NOMINAL
        self.overload_streak = 0
        self.calm_streak = 0
        self.mode_changes = 0
        self.stuck_intervals = 0
        #: Intervals spent in each mode (counted at evaluation time).
        self.residency: Dict[str, int] = {
            mode: 0 for mode in ControlMode.LADDER
        }
        #: Worst knob excursions over the run, in absolute units above
        #: base (0 = the knob never left its base value).
        self.sav_max_excess = 0
        self.poll_max_excess = 0

    # ------------------------------------------------------------------
    # The knob table
    # ------------------------------------------------------------------

    def knobs_for(self, mode: str) -> KnobSettings:
        """The knob settings the given mode prescribes."""
        rung = ControlMode.rung(mode)
        sav = min(self.base_sav * SAV_STEP ** rung, MAX_SAV)
        weight = max(1, sav // self.base_sav)
        poll_factor = POLL_STEP ** rung
        poll = self.base_interval_cycles * poll_factor
        if mode == ControlMode.NOMINAL:
            budget: Optional[int] = None
        elif mode == ControlMode.PASSTHROUGH:
            budget = 0
        elif mode == ControlMode.SHEDDING:
            budget = max(1, self.budget_records
                         // _SHEDDING_BUDGET_DIVISOR) * poll_factor
        else:  # THROTTLED
            budget = self.budget_records * poll_factor
        return KnobSettings(sav, weight, poll, budget)

    def knobs(self) -> KnobSettings:
        """The knob settings for the current mode."""
        return self.knobs_for(self.mode)

    # ------------------------------------------------------------------
    # The control law
    # ------------------------------------------------------------------

    def normalized_flow(self, signals: ControlSignals) -> float:
        """Record flow rescaled to base-knob units.

        ``offered x (sav / base_sav)`` undoes the sampling throttle
        (each elevated-SAV record stands for ``sav/base_sav`` base
        records); ``x (base_interval / duration)`` undoes the poll
        stretch.  The result is what the PMU *would* have offered per
        base interval at base SAV — a signal the controller's own
        actuation cannot fake.
        """
        if signals.duration_cycles <= 0:
            return 0.0
        sav = signals.sample_after_value or self.base_sav
        return (signals.records_offered
                * (sav / self.base_sav)
                * (self.base_interval_cycles / signals.duration_cycles))

    def evaluate(self, signals: ControlSignals) -> bool:
        """Fold one interval's signals in; True if the mode changed."""
        flow = self.normalized_flow(signals)
        overloaded = (
            flow > OVERLOAD_RATIO * self.budget_records
            or signals.records_dropped > 0
        )
        # Calm demands more than "not overloaded": flow well inside the
        # budget, nothing dropped, no backlog in the outbox and no
        # record older than the current poll interval — the hysteresis
        # band between the two thresholds is what stops flapping.
        poll_now = self.knobs().poll_interval_cycles
        calm = (
            flow < RECOVER_RATIO * self.budget_records
            and signals.records_dropped == 0
            and signals.outbox_pending == 0
            and signals.detect_latency <= poll_now
        )
        changed = False
        if overloaded:
            self.overload_streak += 1
            self.calm_streak = 0
            changed = self._maybe_escalate()
        elif calm:
            self.calm_streak += 1
            self.overload_streak = 0
            changed = self._maybe_recover()
        else:
            self.overload_streak = 0
            self.calm_streak = 0
        self.residency[self.mode] += 1
        return changed

    def _maybe_escalate(self) -> bool:
        rung = ControlMode.rung(self.mode)
        if rung >= len(ControlMode.LADDER) - 1:
            return False
        # Parking the monitor (PASSTHROUGH) is a last resort: it takes
        # a longer sustained overload than an ordinary escalation.
        needed = (self.passthrough_after
                  if ControlMode.LADDER[rung + 1] == ControlMode.PASSTHROUGH
                  else self.escalate_after)
        if self.overload_streak < needed:
            return False
        self._transition(ControlMode.LADDER[rung + 1])
        return True

    def _maybe_recover(self) -> bool:
        rung = ControlMode.rung(self.mode)
        if rung == 0 or self.calm_streak < self.recover_after:
            return False
        self._transition(ControlMode.LADDER[rung - 1])
        return True

    def _transition(self, mode: str) -> None:
        self.mode = mode
        self.mode_changes += 1
        self.overload_streak = 0
        self.calm_streak = 0
        knobs = self.knobs()
        self.sav_max_excess = max(
            self.sav_max_excess, knobs.sample_after_value - self.base_sav)
        self.poll_max_excess = max(
            self.poll_max_excess,
            knobs.poll_interval_cycles - self.base_interval_cycles)

    # ------------------------------------------------------------------
    # Checkpointing (the crash ladder composes with this one)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot for the crash checkpoint."""
        return {
            "mode": self.mode,
            "overload_streak": self.overload_streak,
            "calm_streak": self.calm_streak,
            "mode_changes": self.mode_changes,
            "stuck_intervals": self.stuck_intervals,
            "residency": [
                [mode, self.residency[mode]] for mode in ControlMode.LADDER
            ],
            "sav_max_excess": self.sav_max_excess,
            "poll_max_excess": self.poll_max_excess,
        }

    def load_state_dict(self, state: dict) -> None:
        self.mode = state["mode"]
        self.overload_streak = state["overload_streak"]
        self.calm_streak = state["calm_streak"]
        self.mode_changes = state["mode_changes"]
        self.stuck_intervals = state["stuck_intervals"]
        self.residency = {mode: count for mode, count in state["residency"]}
        self.sav_max_excess = state["sav_max_excess"]
        self.poll_max_excess = state["poll_max_excess"]

    def __repr__(self):
        return "<OverloadController %s changes=%d streaks=o%d/c%d>" % (
            self.mode, self.mode_changes, self.overload_streak,
            self.calm_streak,
        )
