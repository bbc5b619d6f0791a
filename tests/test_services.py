"""The service kernel: lifecycle contract, checkpoints, bit-identity.

Four layers of assurance for the ``repro.core.services`` decomposition:

* **Scheduler contract** — the hook ordering within each run slice is
  a bit-identity requirement (fault sites are consulted in slice
  order), so it is pinned with recording services on a fake machine.
* **Checkpoint round-trip** — each service's save/restore contribution
  composes into the same payload shape the monolith wrote, and
  restoring it (or a cold start) rebuilds the same state.
* **Fault-site routing** — detector stall/crash, driver crash and
  repair-error sites land in the service that owns them, visible
  through the RunHealth counters each service contributes.
* **Golden bit-identity** — ``run_built`` output (cycles, rendered
  report, trace JSONL bytes, windowed telemetry bytes, RunHealth dict)
  equals a recording taken at the pre-refactor monolith HEAD, across
  3 workloads x 3 seeds plus chaotic crash-schedule cells.

Plus the kernel's structural guard (``core/laser.py`` stays a slim
composition root) and the ``SweepRunner`` determinism checks (serial
and process-pool runs byte-agree, at any worker count).
"""

import ast
import os
from types import SimpleNamespace

import pytest

from golden_runbuilt import assert_cell_matches, collect_cell, load_golden
from repro.core import Laser, LaserConfig, RunHealth
from repro.core.health import HealthField
from repro.core.services import (
    DetectionService,
    DetectorState,
    DriverPollService,
    RepairService,
    ResilienceService,
    RunContext,
    Scheduler,
    Service,
    TelemetryService,
)
from repro.experiments.chaos import run_chaos_soak
from repro.experiments.runner import SweepRunner
from repro.experiments.thresholds import run_threshold_sweep
from repro.faults import FaultInjector, FaultPlan
from repro.obs.telemetry import RunTelemetry
from repro.obs.trace import NULL_TRACER
from repro.workloads import get_workload

pytestmark = pytest.mark.services

LASER_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "src", "repro", "core", "laser.py")


# ----------------------------------------------------------------------
# Harness: a recording service fleet on a fake machine
# ----------------------------------------------------------------------

class _Recorder(Service):
    """Logs every hook invocation as (service, hook)."""

    def __init__(self, name, log):
        self.name = name
        self._log = log

    def _note(self, hook):
        self._log.append((self.name, hook))

    def on_start(self, ctx):
        self._note("start")

    def on_poll(self, ctx):
        self._note("poll")

    def on_check_interval(self, ctx):
        self._note("check")

    def on_checkpoint_save(self, ctx, state):
        self._note("save")
        state[self.name] = {"from": self.name}

    def on_checkpoint_restore(self, ctx, state):
        self._note("restore")

    def on_exit(self, ctx):
        self._note("exit")

    def health(self, ctx):
        self._note("health")


class _PollingRecorder(_Recorder):
    """The detection stand-in: marks every poll slice successful."""

    def on_poll(self, ctx):
        super().on_poll(ctx)
        ctx.polled = True


class _FakeMachine:
    """Finishes after a fixed number of run slices."""

    def __init__(self, slices):
        self.cycle = 0
        self._remaining = slices

    def run(self, until_cycle, max_cycles):
        self.cycle = until_cycle
        self._remaining -= 1
        return SimpleNamespace(finished=self._remaining <= 0)


def _fake_context(config=None, slices=2):
    config = config or LaserConfig()
    ctx = RunContext(
        config=config,
        machine=_FakeMachine(slices),
        program=SimpleNamespace(name="fake"),
        injector=FaultInjector(FaultPlan()),
        tracer=NULL_TRACER,
        telemetry=RunTelemetry(),
        health=RunHealth(),
        driver=SimpleNamespace(),
        pmu=SimpleNamespace(total_hitm_count=0),
        pipeline=SimpleNamespace(report=lambda cycles, threshold: "report"),
        repairer=None,
        runtime=None,
        st=DetectorState(),
    )
    return ctx


def _recording_scheduler(ctx):
    log = []
    scheduler = Scheduler(
        ctx,
        resilience=_Recorder("resilience", log),
        driver_poll=_Recorder("driver_poll", log),
        detection=_PollingRecorder("detection", log),
        repair=_Recorder("repair", log),
        telemetry=_Recorder("telemetry", log),
    )
    return scheduler, log


ALL = ("resilience", "driver_poll", "detection", "repair", "telemetry")


class TestSchedulerContract:
    """The kernel's slice ordering is explicit and pinned."""

    def test_lifecycle_hook_ordering(self):
        ctx = _fake_context(slices=2)
        scheduler, log = _recording_scheduler(ctx)
        report = scheduler.run(max_cycles=10**6)
        assert report == "report"
        expected = (
            [(s, "start") for s in ALL]
            # Interval 1: poll slice, then (non-final, polled) the
            # check-interval slice with repair BEFORE the resilience
            # checkpoint cadence.
            + [(s, "poll") for s in
               ("resilience", "driver_poll", "detection", "repair",
                "telemetry")]
            + [(s, "check") for s in
               ("driver_poll", "detection", "repair", "resilience",
                "telemetry")]
            # Interval 2 is final: poll slice only, then the exit slice
            # (resilience's was_down verdict before the driver's
            # backlog accounting before the detection drain), then the
            # health fan-out.
            + [(s, "poll") for s in
               ("resilience", "driver_poll", "detection", "repair",
                "telemetry")]
            + [(s, "exit") for s in
               ("resilience", "driver_poll", "detection", "repair",
                "telemetry")]
            + [(s, "health") for s in ALL]
        )
        assert log == expected

    def test_unpolled_interval_skips_check_slice(self):
        ctx = _fake_context(slices=2)
        log = []
        scheduler = Scheduler(
            ctx,
            resilience=_Recorder("resilience", log),
            driver_poll=_Recorder("driver_poll", log),
            detection=_Recorder("detection", log),  # never sets polled
            repair=_Recorder("repair", log),
            telemetry=_Recorder("telemetry", log),
        )
        scheduler.run(max_cycles=10**6)
        assert not any(hook == "check" for _, hook in log)

    def test_checkpoint_fanout_orders(self):
        ctx = _fake_context(slices=1)
        scheduler, log = _recording_scheduler(ctx)
        state = scheduler.checkpoint_state(ctx)
        # Save order: detection (pipeline + loop) then resilience
        # (journal watermark).
        assert log == [("detection", "save"), ("resilience", "save")]
        assert set(state) == {"detection", "resilience"}
        log.clear()
        scheduler.restore_state(ctx, state)
        # Restore order: detection (load/cold-start) then repair
        # (attachment reconciliation).
        assert log == [("detection", "restore"), ("repair", "restore")]

    def test_run_boundary_events(self):
        from repro.obs.trace import EventTracer

        ctx = _fake_context(slices=1)
        ctx.tracer = EventTracer(capacity=64)
        scheduler, _ = _recording_scheduler(ctx)
        scheduler.run(max_cycles=10**6)
        names = [event.name for event in ctx.tracer.events()]
        assert names[0] == "laser.run_begin"
        assert names[-1] == "laser.run_end"


# ----------------------------------------------------------------------
# Checkpoint round-trip with the real services
# ----------------------------------------------------------------------

class _FakePipeline:
    """state_dict/load/reset tracker standing in for DetectionPipeline."""

    def __init__(self):
        self.state = {"lines": 3}
        self.resets = 0

    def state_dict(self):
        return dict(self.state)

    def load_state_dict(self, state):
        self.state = dict(state)

    def reset_state(self):
        self.state = {}
        self.resets += 1


def _service_context():
    config = LaserConfig()
    ctx = _fake_context(config=config)
    ctx.pipeline = _FakePipeline()
    ctx.runtime = SimpleNamespace(
        journal=SimpleNamespace(acked_seq=17),
        attached_state=None,
        rolled_back=False,
    )
    resilience = ResilienceService()
    Scheduler(
        ctx,
        resilience=resilience,
        driver_poll=DriverPollService(resilience),
        detection=DetectionService(resilience),
        repair=RepairService(repairer=None, resilience=resilience),
        telemetry=TelemetryService(),
    )
    return ctx


class TestCheckpointRoundTrip:
    def test_payload_shape_matches_monolith(self):
        """The composed payload keeps the historical key layout."""
        ctx = _service_context()
        state = ctx.scheduler.checkpoint_state(ctx)
        assert set(state) == {"pipeline", "loop", "acked_seq"}
        assert state["acked_seq"] == 17
        assert state["pipeline"] == {"lines": 3}
        assert set(state["loop"]) == {
            "window_start", "stalled", "backoff_remaining",
            "backoff_current", "attach_rate", "windows_since_attach",
            "mark_cycle", "mark_hitm", "mark_aborts",
        }

    def test_loop_state_round_trips_per_service(self):
        ctx = _service_context()
        ctx.st.window_start = 150_000
        ctx.st.stalled = True
        ctx.st.backoff_remaining = 3
        ctx.st.attach_rate = 123.5
        state = ctx.scheduler.checkpoint_state(ctx)
        # Wreck the live state, then restore.
        ctx.st.reset_loop_state()
        ctx.pipeline.state = {"garbage": True}
        assert ctx.st.window_start == 0
        ctx.scheduler.restore_state(ctx, state)
        assert ctx.st.window_start == 150_000
        assert ctx.st.stalled is True
        assert ctx.st.backoff_remaining == 3
        assert ctx.st.attach_rate == 123.5
        assert ctx.pipeline.state == {"lines": 3}
        # Repair reconciliation against the runtime authority: nothing
        # attached, nothing rolled back.
        assert ctx.st.plan is None
        assert ctx.st.repaired is False
        assert ctx.st.rolled_back is False

    def test_cold_start_restore_resets_every_service(self):
        ctx = _service_context()
        ctx.st.window_start = 99
        ctx.scheduler.restore_state(ctx, None)
        assert ctx.st.window_start == 0
        assert ctx.pipeline.resets == 1

    def test_rolled_back_authority_survives_restore(self):
        ctx = _service_context()
        ctx.runtime.rolled_back = True
        ctx.st.repaired = True  # stale in-memory claim
        ctx.scheduler.restore_state(ctx, None)
        assert ctx.st.repaired is False
        assert ctx.st.rolled_back is True


# ----------------------------------------------------------------------
# Fault-site routing through the services
# ----------------------------------------------------------------------

def _run_with_faults(**sites):
    plan = FaultPlan(seed=0)
    for site, at in sites.items():
        plan.add(site.replace("__", "."), at=at)
    laser = Laser(LaserConfig(seed=0), faults=plan)
    return laser.run_workload(get_workload("linear_regression"))


class TestFaultSiteRouting:
    """Each site lands in the service that owns it, visible in health."""

    def test_detector_stall_routes_to_driver_poll(self):
        result = _run_with_faults(detector__stall=(0,))
        assert result.health.detector_stalls == 1
        assert result.health.detector_restarts == 1  # next poll resyncs

    def test_detector_crash_routes_to_resilience(self):
        result = _run_with_faults(detector__crash=(0,))
        assert result.health.detector_crashes == 1
        assert result.health.detector_crash_restarts == 1

    def test_driver_crash_routes_to_resilience(self):
        result = _run_with_faults(driver__crash=(1,))
        assert result.health.driver_crashes == 1
        assert result.health.driver_crash_restarts == 1

    def test_repair_error_routes_to_repair(self):
        result = _run_with_faults(repair__error=(0,))
        assert result.health.repair_errors >= 1


# ----------------------------------------------------------------------
# RunHealth: single field registry
# ----------------------------------------------------------------------

class TestHealthRegistry:
    def test_derived_views_cover_every_registered_field(self):
        names = [field.name for field in RunHealth.FIELDS]
        assert tuple(names) == RunHealth._FIELDS
        assert RunHealth._INFO_FIELDS == frozenset(
            field.name for field in RunHealth.FIELDS if field.info
        )
        # Engine provenance slots live outside the counter registry on
        # purpose: as_dict/__eq__/degraded (and the golden health pins)
        # must stay engine-invariant.
        assert set(RunHealth.__slots__) == (
            set(names) | set(RunHealth._ENGINE_SLOTS)
        )
        for slot in RunHealth._ENGINE_SLOTS:
            assert slot not in RunHealth().as_dict()

    def test_as_dict_and_eq_track_the_registry(self):
        """No field can be silently omitted from equality/serialization."""
        for field in RunHealth.FIELDS:
            a, b = RunHealth(), RunHealth(**{field.name: 1})
            assert field.name in a.as_dict()
            assert a != b, "field %s invisible to __eq__" % field.name
            assert a.as_dict()[field.name] != b.as_dict()[field.name]

    def test_info_fields_do_not_degrade(self):
        for field in RunHealth.FIELDS:
            health = RunHealth(**{field.name: 5})
            assert health.degraded == (not field.info), field.name

    def test_field_spec_repr(self):
        assert "info" in repr(HealthField("x", info=True))


# ----------------------------------------------------------------------
# Golden bit-identity vs the pre-refactor monolith
# ----------------------------------------------------------------------

class TestGoldenBitIdentity:
    """cycles / report / trace bytes / telemetry bytes / health, pinned."""

    @pytest.mark.parametrize(
        "cell", load_golden(),
        ids=lambda cell: "%s-s%d-%s" % (
            cell["workload"], cell["seed"], cell["schedule"] or "clean"),
    )
    def test_run_built_matches_golden(self, cell):
        got = collect_cell(cell["workload"], cell["seed"], cell["schedule"])
        assert_cell_matches(got, cell)

    def test_golden_grid_shape(self):
        cells = load_golden()
        clean = [c for c in cells if c["schedule"] is None]
        chaotic = [c for c in cells if c["schedule"] is not None]
        assert len({(c["workload"], c["seed"]) for c in clean}) == 9
        assert len(chaotic) >= 6
        # The chaotic cells must actually exercise recovery machinery.
        assert any(c["health"]["checkpoints_restored"] for c in chaotic)
        assert any(c["health"]["records_deduped"] for c in chaotic)
        assert any(c["health"]["checkpoints_corrupt"] for c in chaotic)


# ----------------------------------------------------------------------
# The parallel sweep runner
# ----------------------------------------------------------------------

def _double(x):
    return x * 2


class TestSweepRunner:
    def test_serial_map_preserves_order(self):
        runner = SweepRunner(workers=1)
        assert runner.map(_double, [3, 1, 2]) == [6, 2, 4]
        assert runner.used_workers == 1

    def test_pool_map_matches_serial(self):
        cells = list(range(12))
        serial = SweepRunner(workers=1).map(_double, cells)
        pooled = SweepRunner(workers=2)
        assert pooled.map(_double, cells) == serial

    def test_single_cell_short_circuits_the_pool(self):
        runner = SweepRunner(workers=8)
        assert runner.map(_double, [21]) == [42]
        assert runner.used_workers == 1

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_map_records_per_cell_cost(self):
        runner = SweepRunner(workers=1)
        assert runner.cost_summary() == "sweep cost: no cells run"
        assert runner.map(_double, [1, 2, 3]) == [2, 4, 6]
        # Timing is a pure observation: results above are untouched,
        # and every cell got a (non-negative) host-seconds reading.
        assert len(runner.cell_seconds) == 3
        assert all(seconds >= 0 for seconds in runner.cell_seconds)
        assert runner.total_cell_seconds == sum(runner.cell_seconds)
        assert runner.elapsed_seconds >= 0
        summary = runner.cost_summary()
        assert "3 cells" in summary and "1 worker(s)" in summary

    def test_pooled_map_still_records_cell_cost(self):
        runner = SweepRunner(workers=2)
        assert runner.map(_double, list(range(6))) == [
            0, 2, 4, 6, 8, 10]
        assert len(runner.cell_seconds) == 6

    def test_chaos_soak_identical_at_any_worker_count(self):
        kwargs = dict(workloads=("histogram'",),
                      schedules=("detector-mid", "driver-early"),
                      seeds=(0,))
        serial = run_chaos_soak(workers=1, **kwargs)
        pooled = run_chaos_soak(workers=2, **kwargs)
        assert [o.as_dict() for o in serial] == [o.as_dict() for o in pooled]
        assert all(outcome.converged for outcome in pooled)

    def test_threshold_sweep_identical_at_any_worker_count(self):
        workloads = [get_workload("histogram"), get_workload("histogram'")]
        serial = run_threshold_sweep(workloads=workloads, workers=1,
                                     thresholds=[256.0, 4096.0])
        pooled = run_threshold_sweep(workloads=workloads, workers=2,
                                     thresholds=[256.0, 4096.0])
        assert serial.points == pooled.points


# ----------------------------------------------------------------------
# Structural guard: laser.py stays a slim composition root
# ----------------------------------------------------------------------

class TestKernelStructure:
    def test_laser_module_stays_under_400_lines(self):
        """AST-parse the composition root and bound its source extent.

        The service kernel exists so run_built never re-accretes into a
        monolith; parsing (rather than counting text lines) means
        comments can't hide code past the bound and syntax errors fail
        loudly here too.
        """
        with open(LASER_PATH) as fh:
            source = fh.read()
        tree = ast.parse(source)
        last_line = max(
            (node.end_lineno or 0 for node in ast.walk(tree)
             if hasattr(node, "end_lineno")),
            default=0,
        )
        assert last_line < 400, (
            "core/laser.py has grown to %d lines; move logic into "
            "repro.core.services instead" % last_line
        )
        assert len(source.splitlines()) < 400

    def test_laser_defines_no_loop_helpers(self):
        """The monolith's private loop methods must not creep back."""
        with open(LASER_PATH) as fh:
            tree = ast.parse(fh.read())
        methods = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        forbidden = {"_supervise", "_repair_step", "_record_window",
                     "_restore_detector", "_process_poll",
                     "_finalize_health", "_maybe_repair"}
        assert not (methods & forbidden)
