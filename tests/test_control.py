"""Overload control: the hysteresis ladder, admission shedding, soaks.

Five layers of assurance for :mod:`repro.control` and its mount point
in the service kernel:

* **Control law** — the ladder's escalation/recovery streak logic, the
  knob table (SAV cap, poll stretch, budget scaling), flow
  normalization (the controller cannot be fooled by its own
  actuation) and checkpoint round-trips, all pure-unit.
* **Admission boundary** — the driver sheds over-budget deliveries
  before the journal and the buffers, re-arms per interval, and
  accounts every shed record explicitly.
* **Burst soaks** — a ``load.burst`` record storm on three workloads
  drives the exact NOMINAL→THROTTLED→SHEDDING ladder walk and the
  recovery back to NOMINAL, never exceeds the admission budget in any
  interval, and still reports every line the storm-free run reports.
* **Composition** — a detector crash mid-shed restores the controller
  from its checkpoint contribution and re-actuates the same knobs;
  a stuck controller freezes knobs but not the budget.
* **Determinism** — controller-on runs are byte-identical per seed
  (trace and window streams), controller-off runs serialize no
  control fields at all, and the frontier sweep merges identically
  at any worker count.
"""

import json

import pytest

from repro.control import (
    ControlMode,
    ControlSignals,
    KnobSettings,
    OverloadController,
)
from repro.core import Laser, LaserConfig
from repro.experiments.frontier import run_frontier_sweep
from repro.faults import FaultPlan
from repro.pebs.driver import KernelDriver
from repro.pebs.events import PebsRecord
from repro.resilience.journal import RecordJournal
from repro.workloads import get_workload

pytestmark = pytest.mark.control


def make_controller(**overrides):
    kwargs = dict(
        base_sav=19, base_interval_cycles=50_000, budget_records=128,
        escalate_after=2, recover_after=3, passthrough_after=6,
    )
    kwargs.update(overrides)
    return OverloadController(**kwargs)


def overloaded(sav=19, duration=50_000):
    """Signals well past the overload threshold at the given knobs."""
    return ControlSignals(records_offered=1_000, sample_after_value=sav,
                          duration_cycles=duration)


def calm(sav=19, duration=50_000):
    return ControlSignals(records_offered=10, sample_after_value=sav,
                          duration_cycles=duration)


# ----------------------------------------------------------------------
# The control law (pure unit)
# ----------------------------------------------------------------------

class TestControlLaw:
    def test_escalates_after_streak(self):
        ctl = make_controller(escalate_after=2)
        assert not ctl.evaluate(overloaded())
        assert ctl.mode == ControlMode.NOMINAL
        assert ctl.evaluate(overloaded())
        assert ctl.mode == ControlMode.THROTTLED

    def test_full_ladder_walk_and_passthrough_bar(self):
        ctl = make_controller(escalate_after=1, passthrough_after=3)
        sav, dur = 19, 50_000
        walk = [ControlMode.NOMINAL]
        for _ in range(8):
            ctl.evaluate(overloaded(sav=sav, duration=dur))
            walk.append(ctl.mode)
            knobs = ctl.knobs()
            sav, dur = knobs.sample_after_value, knobs.poll_interval_cycles
        # One overloaded interval per ordinary rung, but the final rung
        # (parking the monitor) takes the longer passthrough_after bar.
        assert walk == [
            "nominal", "throttled", "shedding",
            "shedding", "shedding", "passthrough",
            "passthrough", "passthrough", "passthrough",
        ]

    def test_recovery_descends_one_rung_per_streak(self):
        ctl = make_controller(escalate_after=1, recover_after=2)
        ctl.evaluate(overloaded())
        ctl.evaluate(overloaded(sav=38, duration=100_000))
        assert ctl.mode == ControlMode.SHEDDING
        knobs = ctl.knobs()
        quiet = calm(sav=knobs.sample_after_value,
                     duration=knobs.poll_interval_cycles)
        assert not ctl.evaluate(quiet)
        assert ctl.evaluate(quiet)
        assert ctl.mode == ControlMode.THROTTLED

    def test_hysteresis_band_resets_both_streaks(self):
        ctl = make_controller(escalate_after=2)
        # In-between flow: above recover_ratio, below overload_ratio.
        between = ControlSignals(records_offered=100,
                                 sample_after_value=19,
                                 duration_cycles=50_000)
        ctl.evaluate(overloaded())
        assert ctl.overload_streak == 1
        ctl.evaluate(between)
        assert ctl.overload_streak == 0 and ctl.calm_streak == 0
        assert ctl.mode == ControlMode.NOMINAL

    def test_drops_count_as_overload_regardless_of_flow(self):
        ctl = make_controller(escalate_after=1)
        signals = ControlSignals(records_offered=1, sample_after_value=19,
                                 duration_cycles=50_000, records_dropped=3)
        assert ctl.evaluate(signals)
        assert ctl.mode == ControlMode.THROTTLED

    def test_backlog_or_latency_block_recovery(self):
        ctl = make_controller(escalate_after=1, recover_after=1)
        ctl.evaluate(overloaded())
        knobs = ctl.knobs()
        lagging = ControlSignals(
            records_offered=10, sample_after_value=knobs.sample_after_value,
            duration_cycles=knobs.poll_interval_cycles,
            detect_latency=knobs.poll_interval_cycles + 1,
        )
        assert not ctl.evaluate(lagging)
        assert ctl.mode == ControlMode.THROTTLED

    def test_normalized_flow_undoes_actuation(self):
        ctl = make_controller()
        base = ctl.normalized_flow(
            ControlSignals(records_offered=400, sample_after_value=19,
                           duration_cycles=50_000))
        # Doubled SAV and doubled interval: a quarter of the records,
        # but the same source flow.
        throttled = ctl.normalized_flow(
            ControlSignals(records_offered=400, sample_after_value=38,
                           duration_cycles=100_000))
        assert throttled == pytest.approx(base)

    def test_knob_table(self):
        ctl = make_controller()
        nominal = ctl.knobs_for(ControlMode.NOMINAL)
        assert (nominal.sample_after_value, nominal.sample_weight,
                nominal.poll_interval_cycles,
                nominal.admission_budget) == (19, 1, 50_000, None)
        throttled = ctl.knobs_for(ControlMode.THROTTLED)
        assert (throttled.sample_after_value, throttled.sample_weight,
                throttled.poll_interval_cycles,
                throttled.admission_budget) == (38, 2, 100_000, 256)
        shedding = ctl.knobs_for(ControlMode.SHEDDING)
        assert (shedding.sample_after_value, shedding.sample_weight,
                shedding.poll_interval_cycles,
                shedding.admission_budget) == (76, 4, 200_000, 128)
        parked = ctl.knobs_for(ControlMode.PASSTHROUGH)
        assert parked.admission_budget == 0

    def test_sav_cap(self):
        # SHEDDING would set 200 x 4 = 800; the ladder caps it at 512.
        ctl = make_controller(base_sav=200)
        assert ctl.knobs_for(ControlMode.SHEDDING).sample_after_value == 512
        assert ctl.knobs_for(ControlMode.SHEDDING).sample_weight == 2
        # A base SAV above the cap leaves the ladder nowhere to go.
        with pytest.raises(ValueError):
            make_controller(base_sav=1000)

    def test_state_dict_round_trip(self):
        ctl = make_controller(escalate_after=1)
        ctl.evaluate(overloaded())
        ctl.evaluate(overloaded(sav=38, duration=100_000))
        ctl.stuck_intervals = 2
        state = json.loads(json.dumps(ctl.state_dict()))
        fresh = make_controller(escalate_after=1)
        fresh.load_state_dict(state)
        assert fresh.mode == ctl.mode
        assert fresh.mode_changes == ctl.mode_changes
        assert fresh.residency == ctl.residency
        assert fresh.stuck_intervals == 2
        assert fresh.knobs().as_dict() == ctl.knobs().as_dict()


# ----------------------------------------------------------------------
# The driver's admission boundary
# ----------------------------------------------------------------------

def _record(i):
    return PebsRecord(pc=0x400000 + i, data_addr=0x1000 + i, core=0,
                      cycle=i)


class TestAdmissionControl:
    def test_budget_sheds_excess_deliveries(self):
        driver = KernelDriver(RecordJournal())
        driver.set_admission(3)
        for i in range(5):
            driver.deliver([_record(i)])
        assert driver.records_shed == 2
        assert driver.pending_records == 3

    def test_rearm_resets_the_interval_meter(self):
        driver = KernelDriver(RecordJournal())
        driver.set_admission(2)
        for i in range(4):
            driver.deliver([_record(i)])
        assert driver.records_shed == 2
        driver.set_admission(2)
        driver.deliver([_record(9)])
        assert driver.records_shed == 2  # new interval, fresh meter

    def test_zero_budget_parks_and_none_lifts(self):
        driver = KernelDriver(RecordJournal())
        driver.set_admission(0)
        driver.deliver([_record(0)])
        assert driver.records_shed == 1 and driver.pending_records == 0
        driver.set_admission(None)
        for i in range(10):
            driver.deliver([_record(i)])
        assert driver.records_shed == 1 and driver.pending_records == 10

    def test_shed_records_never_reach_the_journal(self):
        journal = RecordJournal()
        driver = KernelDriver(journal)
        driver.set_admission(1)
        for i in range(4):
            driver.deliver([_record(i)])
        assert driver.records_shed == 3
        assert journal.head_seq == 1

    def test_budget_validation(self):
        driver = KernelDriver(RecordJournal())
        with pytest.raises(ValueError):
            driver.set_admission(-1)


# ----------------------------------------------------------------------
# Burst soaks: the closed loop end to end
# ----------------------------------------------------------------------

#: (workload, burst probability, burst max_fires, budget, pinned walk).
#: The walk is the per-window mode sequence — mode *at window close*,
#: so the storm's escalations appear one window after they actuate.
SOAK_CASES = [
    ("linear_regression", 0.5, 1200, 128,
     ["nominal", "throttled", "shedding", "throttled", "nominal"]),
    ("kmeans", 0.5, 1200, 128,
     ["nominal", "throttled", "shedding", "shedding", "throttled",
      "nominal"]),
    ("volrend", 0.7, 600, 64,
     ["nominal", "throttled", "shedding", "throttled", "nominal"]),
]


def soak_config(budget):
    return LaserConfig().replace(
        seed=0, trace_enabled=True, control_enabled=True,
        repair_enabled=False, control_budget_records=budget,
        control_escalate_after=1, control_recover_after=1,
        control_passthrough_after=8,
    )


def run_soak(name, probability, max_fires, budget):
    cfg = soak_config(budget)
    baseline = Laser(cfg).run_workload(get_workload(name))
    plan = FaultPlan(seed=0).add("load.burst", probability=probability,
                                 max_fires=max_fires)
    burst = Laser(cfg, faults=plan).run_workload(get_workload(name))
    return baseline, burst


class TestBurstSoak:
    @pytest.mark.parametrize(
        "name,probability,max_fires,budget,walk",
        SOAK_CASES, ids=[case[0] for case in SOAK_CASES])
    def test_ladder_walk_budget_and_reporting(self, name, probability,
                                              max_fires, budget, walk):
        baseline, burst = run_soak(name, probability, max_fires, budget)
        windows = burst.telemetry.windows

        # The pinned ladder walk: up under the storm, back to NOMINAL.
        assert [w.control_mode for w in windows] == walk

        # The admission budget is a hard bound in every budgeted
        # interval: offered minus shed is what the driver admitted.
        for window in windows:
            if window.admit_budget is not None:
                admitted = window.records_offered - window.records_shed
                assert admitted <= window.admit_budget, (
                    "window %d admitted %d > budget %d"
                    % (window.index, admitted, window.admit_budget))

        # Shedding engaged for real: the storm cost records, visibly.
        assert burst.driver.records_shed > 0
        assert burst.health.records_shed == burst.driver.records_shed

        # Overload costs time-to-detect, never coverage: every line the
        # storm-free run reports is still reported under the storm.
        base_lines = {str(loc) for loc
                      in baseline.report.reported_locations()}
        storm_lines = {str(loc) for loc
                       in burst.report.reported_locations()}
        assert base_lines <= storm_lines

        # Health tells the story the operator needs.
        health = burst.health.as_dict()
        assert health["control_mode_changes"] >= 4
        assert health["control_shedding_windows"] >= 1
        assert health["control_sav_max_excess"] > 0

    def test_faultfree_controller_on_stays_nominal(self):
        cfg = soak_config(budget=128)
        result = Laser(cfg).run_workload(get_workload("linear_regression"))
        assert all(w.control_mode == "nominal"
                   for w in result.telemetry.windows)
        assert result.health.as_dict()["control_mode_changes"] == 0
        assert result.driver.records_shed == 0


# ----------------------------------------------------------------------
# Composition with the crash ladder, and the stuck-controller fault
# ----------------------------------------------------------------------

class TestCrashComposition:
    def plan(self):
        # detector.crash occurrence 5 lands in the SHEDDING interval of
        # the linear_regression soak walk (two consultations per poll).
        return (FaultPlan(seed=0)
                .add("load.burst", probability=0.5, max_fires=1200)
                .add("detector.crash", at=(5,)))

    def test_crash_mid_shed_restores_controller_state(self):
        cfg = soak_config(budget=128)
        result = Laser(cfg, faults=self.plan()).run_workload(
            get_workload("linear_regression"))
        health = result.health.as_dict()
        assert health["detector_crashes"] == 1
        assert health["checkpoints_restored"] == 1
        assert health["records_shed"] > 0
        assert health["control_shedding_windows"] >= 1
        # The run survives the compound failure and keeps reporting.
        assert result.report.lines
        modes = [w.control_mode for w in result.telemetry.windows]
        assert modes[0] == "nominal" and "shedding" in modes

    def test_crash_mid_shed_is_byte_deterministic(self):
        cfg = soak_config(budget=128)

        def run():
            return Laser(cfg, faults=self.plan()).run_workload(
                get_workload("linear_regression"))

        first, second = run(), run()
        assert first.cycles == second.cycles
        assert (first.telemetry.tracer.to_jsonl()
                == second.telemetry.tracer.to_jsonl())
        assert (first.telemetry.windows_jsonl()
                == second.telemetry.windows_jsonl())


class TestStuckController:
    def test_stuck_freezes_knobs_but_not_the_budget(self):
        cfg = soak_config(budget=128)
        plan = (FaultPlan(seed=0)
                .add("load.burst", probability=0.5, max_fires=1200)
                .add("control.stuck", at=(1,)))
        stuck = Laser(cfg, faults=plan).run_workload(
            get_workload("linear_regression"))
        health = stuck.health.as_dict()
        assert health["control_stuck_intervals"] == 1
        # The frozen evaluation missed an overloaded window, so the
        # ladder never reached SHEDDING -- but the driver still
        # enforced the budget armed before the freeze.
        modes = [w.control_mode for w in stuck.telemetry.windows]
        assert "shedding" not in modes and "throttled" in modes
        for window in stuck.telemetry.windows:
            if window.admit_budget is not None:
                admitted = window.records_offered - window.records_shed
                assert admitted <= window.admit_budget
        names = [e.name for e in stuck.telemetry.tracer.events()]
        assert "control.stuck" in names


# ----------------------------------------------------------------------
# Determinism and controller-off inertness
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_controller_on_runs_are_byte_identical(self):
        name, probability, max_fires, budget, _ = SOAK_CASES[0]

        def run():
            _, burst = run_soak(name, probability, max_fires, budget)
            return burst

        first, second = run(), run()
        assert first.cycles == second.cycles
        assert (first.telemetry.tracer.to_jsonl()
                == second.telemetry.tracer.to_jsonl())
        assert (first.telemetry.windows_jsonl()
                == second.telemetry.windows_jsonl())
        assert first.health.as_dict() == second.health.as_dict()

    def test_controller_off_serializes_no_control_fields(self):
        cfg = LaserConfig().replace(seed=0, trace_enabled=True)
        result = Laser(cfg).run_workload(get_workload("histogram'"))
        for line in result.telemetry.windows_jsonl().splitlines():
            window = json.loads(line)
            for key in ("control_mode", "sav", "admit_budget",
                        "records_offered", "records_shed"):
                assert key not in window
        names = [e.name for e in result.telemetry.tracer.events()]
        assert not any(n.startswith("control.") for n in names)

    def test_frontier_sweep_is_pool_invariant(self):
        serial = run_frontier_sweep(workloads=["linear_regression"],
                                    profiles=["off", "tight"], workers=1)
        pooled = run_frontier_sweep(workloads=["linear_regression"],
                                    profiles=["off", "tight"], workers=2)
        assert serial.rows == pooled.rows
        tight = serial.cell("linear_regression", "tight")
        assert tight["records_shed"] > 0
        assert tight["peak_mode"] == "shedding"
