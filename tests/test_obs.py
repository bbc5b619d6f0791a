"""Observability: tracing, telemetry, bytecode counts, spans, the obs CLI.

The load-bearing guarantees under test:

* determinism — same seed + config produce byte-identical trace JSONL
  and windows JSONL;
* isolation — tracing observes, it never perturbs: simulated cycles are
  identical with tracing on, off, or ring-starved; counting bytecodes
  and span tracing likewise leave every simulated output bit-identical
  when enabled and byte-identical to baseline when off;
* boundedness — the ring sheds oldest events and accounts for them
  (and the drop count surfaces in ``RunHealth`` without degrading it);
* near-zero disabled cost — the tracer's per-site guard budget stays
  under 2% of run wall-clock.
"""

import contextlib
import json
import os
import subprocess
import sys
import time

import pytest

from repro.core.config import LaserConfig
from repro.core.laser import Laser
from repro.obs import NULL_TRACER, EventTracer, RunTelemetry, WindowStats
from repro.obs.trace import chrome_lane
from repro.workloads.registry import get_workload

pytestmark = pytest.mark.obs

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def traced_run(name="linear_regression", seed=0, **overrides):
    overrides.setdefault("trace_enabled", True)
    config = LaserConfig(seed=seed, **overrides)
    return Laser(config).run_workload(get_workload(name))


@pytest.fixture(scope="module")
def traced():
    """One traced linear_regression run shared by the read-only tests."""
    return traced_run()


def make_window(index=0, start=0, end=50_000, **overrides):
    fields = dict(
        index=index, start_cycle=start, end_cycle=end, stalled=False,
        repair_state="idle", hitm_events=10, hitm_rate=200.0,
        records_seen=5, records_admitted=5, records_dropped=0,
        detector_cycles=100, driver_cycles=50, ssb_flushes=0,
        ssb_htm_aborts=0,
    )
    fields.update(overrides)
    return WindowStats(**fields)


class TestTracerUnit:
    def test_ring_sheds_oldest_and_accounts_for_drops(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.emit("x.e", cycle=i)
        assert len(tracer) == 4
        assert tracer.events_emitted == 10
        assert tracer.events_dropped == 6
        assert [e.cycle for e in tracer.events()] == [6, 7, 8, 9]

    def test_null_tracer_never_emits_even_if_reenabled(self):
        NULL_TRACER.enabled = True
        try:
            NULL_TRACER.emit("x.e", cycle=1)
        finally:
            NULL_TRACER.enabled = False
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.events_emitted == 0

    def test_jsonl_is_canonical(self):
        tracer = EventTracer()
        tracer.emit("b.second", cycle=2, zeta=1, alpha=2)
        lines = tracer.to_jsonl().splitlines()
        assert lines == [
            '{"args":{"alpha":2,"zeta":1},"cycle":2,"name":"b.second","ph":"i"}'
        ]

    def test_chrome_lanes_split_by_component(self):
        assert chrome_lane("pebs.sample", {"core": 3}) == (1, 3)
        assert chrome_lane("machine.slice", None) == (1, 99)
        assert chrome_lane("driver.drain", {"core": 1}) == (2, 1)
        assert chrome_lane("repair.attach", None) == (3, 0)
        assert chrome_lane("laser.run_begin", None) == (3, 0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)


class TestTelemetryUnit:
    def test_series_and_totals(self):
        telemetry = RunTelemetry()
        telemetry.close_window(make_window(0, 0, 50_000, hitm_events=4))
        telemetry.close_window(
            make_window(1, 50_000, 100_000, hitm_events=6)
        )
        assert telemetry.series("hitm_events") == [4, 6]
        assert telemetry.totals()["hitm_events"] == 10
        with pytest.raises(KeyError):
            telemetry.series("no_such_field")

    def test_window_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            make_window(bogus=1)

    def test_timeline_marks_states(self):
        telemetry = RunTelemetry()
        telemetry.close_window(make_window(0, repair_state="attached"))
        telemetry.close_window(
            make_window(1, 50_000, 100_000, stalled=True)
        )
        timeline = telemetry.render_timeline()
        lines = timeline.splitlines()
        assert len(lines) == 3  # header + two windows
        assert lines[1].rstrip().endswith("R")
        assert lines[2].rstrip().endswith("S")

    def test_empty_timeline_renders_placeholder(self):
        assert "no detection windows" in RunTelemetry().render_timeline()

    def test_drop_rate_is_a_per_second_rate(self):
        window = make_window(records_dropped=50)  # 50 drops / 50k cycles
        from repro._constants import CYCLES_PER_SECOND

        assert window.drop_rate == pytest.approx(
            50 * CYCLES_PER_SECOND / 50_000)
        degenerate = make_window(end=0, records_dropped=50)
        assert degenerate.drop_rate == 0.0

    def test_timeline_plots_drop_rate_column(self):
        telemetry = RunTelemetry()
        telemetry.close_window(make_window(0, records_dropped=100))
        timeline = telemetry.render_timeline()
        assert "drop/s" in timeline.splitlines()[0]
        from repro._constants import CYCLES_PER_SECOND

        expected = "%.0f" % (100 * CYCLES_PER_SECOND / 50_000)
        assert expected in timeline.splitlines()[1]

    def test_timeline_golden_snapshot(self):
        """Exact ASCII pin for the timeline layout.

        Synthetic windows, so every column is deterministic; any
        formatting change must update this snapshot consciously.
        """
        telemetry = RunTelemetry()
        telemetry.close_window(
            make_window(0, hitm_events=4, records_seen=7,
                        records_admitted=7, repair_state="attached")
        )
        telemetry.close_window(
            make_window(1, 50_000, 100_000, stalled=True,
                        records_dropped=100)
        )
        assert telemetry.render_timeline() == "\n".join([
            "win  kcycles         hitm/s  rate (peak 200/s)            "
            "     recs  drop  drop/s st",
            "  0  0-50               200  ###############################"
            "#     7     0       0  R",
            "  1  50-100             200  ###############################"
            "#     5   100    2000  S",
        ])

    def test_timeline_adds_mode_column_only_for_control_runs(self):
        plain = RunTelemetry()
        plain.close_window(make_window(0))
        assert "mode" not in plain.render_timeline().splitlines()[0]

        controlled = RunTelemetry()
        controlled.close_window(
            make_window(0, control_mode="shedding", records_offered=400,
                        records_shed=144, sav=76, admit_budget=128)
        )
        lines = controlled.render_timeline().splitlines()
        assert "mode" in lines[0] and "shed" in lines[0]
        # Shedding renders as the "S" mode glyph plus the shed count.
        assert lines[1].split()[-2:] == ["S", "144"]


class TestRunDeterminism:
    def test_same_seed_same_bytes(self, traced):
        again = traced_run()
        assert (traced.telemetry.tracer.to_jsonl()
                == again.telemetry.tracer.to_jsonl())
        assert (traced.telemetry.windows_jsonl()
                == again.telemetry.windows_jsonl())

    def test_different_seed_different_trace(self, traced):
        other = traced_run(seed=1)
        assert (traced.telemetry.tracer.to_jsonl()
                != other.telemetry.tracer.to_jsonl())

    def test_tracing_never_perturbs_the_simulation(self, traced):
        untraced = traced_run(trace_enabled=False)
        assert untraced.cycles == traced.cycles
        assert (untraced.pmu.total_hitm_count
                == traced.pmu.total_hitm_count)
        assert untraced.repaired == traced.repaired
        assert len(untraced.telemetry.tracer) == 0
        assert untraced.telemetry.tracer.events_emitted == 0

    def test_starved_ring_still_identical_cycles(self, traced):
        starved = traced_run(trace_capacity=8)
        assert starved.cycles == traced.cycles
        assert len(starved.telemetry.tracer) == 8
        assert starved.telemetry.tracer.events_dropped > 0
        assert (starved.telemetry.tracer.events_emitted
                == traced.telemetry.tracer.events_emitted)


class TestRunTraceContent:
    def test_lifecycle_events_present(self, traced):
        tracer = traced.telemetry.tracer
        names = {e.name for e in tracer.events()}
        assert "laser.run_begin" in names
        assert "laser.run_end" in names
        assert "pebs.sample" in names
        assert "driver.drain" in names
        assert "detect.window_roll" in names
        assert "detect.line_over_threshold" in names
        # linear_regression's false sharing gets repaired (Figure 11).
        assert "repair.plan" in names
        assert "repair.attach" in names
        # the attached SSB flushes through HTM transactions
        assert "htm.begin" in names
        assert "htm.commit" in names

    def test_cycles_are_monotonic_where_ordered(self, traced):
        tracer = traced.telemetry.tracer
        rolls = [e.cycle for e in tracer.events_named("detect.window_roll")]
        assert rolls and rolls == sorted(rolls)
        # drains are stamped with each core's last buffered record, so
        # they are monotonic per core (not across cores within a poll)
        per_core = {}
        for event in tracer.events_named("driver.drain"):
            per_core.setdefault(event.args["core"], []).append(event.cycle)
        assert per_core
        for cycles in per_core.values():
            assert cycles == sorted(cycles)

    def test_windows_are_contiguous(self, traced):
        windows = traced.telemetry.windows
        assert windows
        for previous, window in zip(windows, windows[1:]):
            assert window.start_cycle == previous.end_cycle
            assert window.index == previous.index + 1
        for window in windows:
            expected = (window.hitm_events * 1_000_000
                        / window.duration_cycles)
            assert window.hitm_rate == pytest.approx(expected)

    def test_repair_state_transitions_to_attached(self, traced):
        states = traced.telemetry.series("repair_state")
        assert states[0] == "idle"
        assert "attached" in states

    def test_chrome_trace_structure(self, traced):
        doc = traced.telemetry.to_chrome_trace()
        events = doc["traceEvents"]
        assert events
        json.dumps(doc)  # must serialize
        metadata = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata
                 if e["name"] == "process_name"}
        assert "LASER kernel driver" in names
        assert "LASER detector + repair" in names
        counters = [e for e in events if e["ph"] == "C"]
        assert {c["name"] for c in counters} >= {"hitm_rate", "record_flow"}
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e.get("s") == "t" for e in instants)


class TestTelemetryTotals:
    def test_totals_match_run_counters_under_storm(self):
        """Each additive window field sums to the run's own counter.

        A controller-on record storm moves the record fields far apart:
        the PMU offers five times what the detector sees, and admission
        shedding discards the rest at the driver.
        """
        from repro.experiments.frontier import CONTROL_PROFILES
        from repro.faults import FaultPlan

        config = LaserConfig(sample_after_value=1, repair_enabled=False,
                             **CONTROL_PROFILES["on"])
        plan = FaultPlan(0).add("load.burst", probability=1.0)
        result = Laser(config, faults=plan).run_workload(
            get_workload("linear_regression"))
        totals = result.telemetry.totals()
        assert {
            name: totals[name]
            for name in ("hitm_events", "records_seen", "records_admitted",
                         "records_dropped", "records_shed",
                         "records_offered")
        } == {
            "hitm_events": result.pmu.total_hitm_count,
            "records_seen": result.pipeline.stats.records_seen,
            "records_admitted": result.pipeline.stats.records_admitted,
            "records_dropped": result.driver.records_dropped,
            "records_shed": result.driver.records_shed,
            "records_offered": result.pmu.records_generated,
        }
        assert totals["records_shed"] > 0
        assert totals["records_offered"] > totals["records_seen"]


class TestRunHealthSurfacing:
    def test_info_fields_do_not_degrade(self, traced):
        health = traced.health
        assert "undecodable_pcs" in health._FIELDS
        assert "records_pending_at_exit" in health._FIELDS
        assert health.undecodable_pcs >= 0
        assert health.records_pending_at_exit >= 0
        assert not health.degraded

    def test_info_fields_show_in_summary(self):
        from repro.core.laser import RunHealth

        health = RunHealth()
        health.undecodable_pcs = 3
        assert not health.degraded
        assert "undecodable_pcs=3" in health.summary()

    def test_trace_drops_surface_without_degrading(self, traced):
        assert "trace_events_dropped" in traced.health._FIELDS
        assert traced.health.trace_events_dropped == 0

        starved = traced_run(trace_capacity=8)
        dropped = starved.telemetry.tracer.events_dropped
        assert dropped > 0
        # The health hook samples the counter during exit teardown;
        # run-end events emitted after it may still drop, so the field
        # trails the final tracer count by at most those tail events.
        assert 0 < starved.health.trace_events_dropped <= dropped
        assert dropped - starved.health.trace_events_dropped <= 2
        assert not starved.health.degraded


class TestDisabledOverhead:
    def test_guard_budget_under_two_percent(self, traced):
        """Disabled tracing costs one attribute load + branch per site.

        Bound it: (guard executions, measured as events emitted by the
        traced twin) x (measured per-guard cost) must stay under 2% of
        the untraced run's wall-clock.
        """
        emitted = traced.telemetry.tracer.events_emitted
        assert emitted > 0

        tracer = NULL_TRACER
        iterations = 200_000
        t0 = time.perf_counter()
        for _ in range(iterations):
            if tracer.enabled:  # pragma: no cover - never taken
                raise AssertionError
        per_guard = (time.perf_counter() - t0) / iterations

        t0 = time.perf_counter()
        traced_run(trace_enabled=False)
        run_wall = time.perf_counter() - t0

        assert emitted * per_guard < 0.02 * run_wall


# ----------------------------------------------------------------------
# Bytecode counts
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _another_tracer():
    """Install a trace function, or a monitoring tool, as a debugger would."""
    if hasattr(sys, "monitoring"):
        mon = sys.monitoring
        tool = mon.PROFILER_ID
        mon.use_tool_id(tool, "another")
        mon.register_callback(tool, mon.events.PY_START,
                              lambda code, offset: None)
        mon.set_events(tool, mon.events.PY_START)
        try:
            yield
        finally:
            mon.set_events(tool, mon.events.NO_EVENTS)
            mon.register_callback(tool, mon.events.PY_START, None)
            mon.free_tool_id(tool)
    else:
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: None)
        try:
            yield
        finally:
            sys.settrace(previous)


def _installed_tracers():
    if hasattr(sys, "monitoring"):
        mon = sys.monitoring
        return [(mon.get_tool(tool), mon.get_events(tool))
                for tool in range(6)]
    return sys.gettrace()


class TestCountBytecodes:
    def test_stdlib_call_is_charged_to_its_repro_caller(self):
        from repro.obs.profile import OTHER, count_bytecodes
        from repro.resilience.checkpoint import encode_state

        state = {"b": [1, 2], "a": {"c": 3}}
        row = "resilience.checkpoint:encode_state"
        with _another_tracer():
            before = _installed_tracers()
            _, alone = count_bytecodes(lambda: json.dumps(
                state, sort_keys=True, separators=(",", ":")))
            assert _installed_tracers() == before
            _, charged = count_bytecodes(lambda: encode_state(state))
            assert _installed_tracers() == before
            with pytest.raises(ZeroDivisionError):
                count_bytecodes(lambda: encode_state(state) and 1 // 0)
            assert _installed_tracers() == before
        # With no repro caller, json's frames are all <other>.
        assert set(alone.counts) == {OTHER}
        # encode_state makes the same json.dumps call, then encodes the
        # string: json's frames are charged to it, and only the lambda's
        # few bytecodes stay outside.
        assert set(charged.counts) == {OTHER, row}
        assert charged.counts[row] > alone.total > 50
        assert charged.counts[OTHER] < 10

    def test_a_count_of_nothing_raises(self):
        from repro.obs.profile import count_bytecodes

        with pytest.raises(RuntimeError, match="counted no bytecodes"):
            count_bytecodes(int)  # a builtin: no bytecode runs


# ----------------------------------------------------------------------
# Causal span tracing
# ----------------------------------------------------------------------

def synthetic_repair_events():
    """A minimal drain → window → threshold → repair lifecycle."""
    tracer = EventTracer()
    tracer.emit("driver.drain", 10, core=0, drained=3, dropped=0)
    tracer.emit("detect.batch", 12, records=3, seq_lo=1, seq_hi=3)
    tracer.emit("detect.window_roll", 20, records_seen=3,
                records_admitted=3, window_cycles=20)
    tracer.emit("detect.line_over_threshold", 999, location="line#1",
                hitm_rate=2000.0)
    tracer.emit("repair.trigger", 25, lines=("line#1",), pcs=2)
    tracer.emit("repair.plan", 26, kind="realign")
    tracer.emit("repair.verify", 27, verdict="confirmed")
    tracer.emit("repair.attach", 28)
    tracer.emit("repair.watchdog", 60, verdict="ok")
    tracer.emit("repair.detach", 90)
    return list(tracer.events())


class TestSpanBuilderUnit:
    def test_chain_links_records_to_repair(self):
        from repro.obs.spans import build_spans

        trace = build_spans(synthetic_repair_events())
        assert len(trace.windows) == 1
        assert len(trace.chains) == 1
        assert not trace.orphans
        window = trace.windows[0]
        assert [c.name for c in window.children] == [
            "driver.drain", "detect.batch", "detect.line_over_threshold",
        ]
        chain = trace.chains[0]
        assert chain.outcome == "detached"
        assert chain.windows == [window]
        assert chain.records_behind() == {
            "records": 3, "seq_lo": 1, "seq_hi": 3, "windows": 1,
        }
        assert [s.name for s in chain.stages] == [
            "repair.trigger", "repair.plan", "repair.verify",
            "repair.attach", "repair.watchdog", "repair.detach",
        ]

    def test_backoff_closes_the_chain(self):
        from repro.obs.spans import build_spans

        tracer = EventTracer()
        tracer.emit("detect.window_roll", 20, records_seen=1,
                    records_admitted=1)
        tracer.emit("detect.line_over_threshold", 999, location="line#1")
        tracer.emit("repair.trigger", 25, lines=("line#1",))
        tracer.emit("repair.backoff", 26, reason="verify_failed",
                    intervals=4)
        trace = build_spans(tracer.events())
        assert trace.chains[0].outcome == "backed off (verify_failed)"

    def test_unparented_spans_become_orphans(self):
        from repro.obs.spans import build_spans

        tracer = EventTracer()
        # Threshold before any window, watchdog with nothing attached,
        # and a post-roll drain nothing consumed.
        tracer.emit("detect.line_over_threshold", 999, location="line#9")
        tracer.emit("repair.watchdog", 50, verdict="ok")
        tracer.emit("driver.drain", 60, core=1, drained=2, dropped=0)
        trace = build_spans(tracer.events())
        assert not trace.windows and not trace.chains
        assert [o.name for o in trace.orphans] == [
            "detect.line_over_threshold", "repair.watchdog", "driver.drain",
        ]

    def test_non_causal_events_pass_through_untouched(self):
        from repro.obs.spans import build_spans

        tracer = EventTracer()
        tracer.emit("laser.run_begin", 0)
        tracer.emit("pebs.sample", 5, core=0)
        trace = build_spans(tracer.events())
        assert not trace.windows and not trace.chains and not trace.orphans

    def test_render_names_the_flow_and_provenance(self):
        from repro.obs.spans import build_spans

        text = build_spans(synthetic_repair_events()).render()
        assert "causal spans: 1 windows, 1 repair chains, 0 orphans" in text
        assert "repair chain #0 (flow 1): detached" in text
        assert "caused by: 1 window(s), 3 record(s), seq 1..3" in text
        assert "batch records=3 seq 1..3" in text

    def test_render_elides_windows_past_the_cap(self):
        from repro.obs.spans import build_spans

        tracer = EventTracer()
        for index in range(5):
            tracer.emit("detect.window_roll", 20 * (index + 1),
                        records_seen=0, records_admitted=0)
        text = build_spans(tracer.events()).render(max_windows=2)
        assert "(… 3 more windows)" in text
        assert text.count("window @") == 2

    def test_chrome_export_threads_one_flow_per_chain(self):
        from repro.obs.spans import build_spans

        doc = build_spans(synthetic_repair_events()).to_chrome_trace()
        events = doc["traceEvents"]
        json.dumps(doc)  # must serialize
        slices = [e for e in events if e["ph"] == "X"]
        # window + its 3 children + 6 lifecycle stages
        assert len(slices) == 10
        flows = [e for e in events if e["ph"] in ("s", "t", "f")]
        assert [f["ph"] for f in flows] == (
            ["s"] + ["t"] * (len(flows) - 2) + ["f"])
        assert {f["id"] for f in flows} == {1}
        assert flows[-1]["bp"] == "e"
        # Threshold slices are re-anchored to the window's end cycle,
        # never their native report-duration timestamp.
        threshold = next(e for e in slices
                         if e["name"] == "detect.line_over_threshold")
        assert threshold["ts"] == 20


class TestSpanTracedRun:
    def test_span_tracing_off_means_no_batch_events(self, traced):
        names = {e.name for e in traced.telemetry.tracer.events()}
        assert "detect.batch" not in names

    def test_span_tracing_never_perturbs_the_simulation(self, traced):
        spanned = traced_run(trace_spans=True)
        assert spanned.cycles == traced.cycles
        assert spanned.health.as_dict() == traced.health.as_dict()
        names = {e.name for e in spanned.telemetry.tracer.events()}
        assert "detect.batch" in names

    def test_real_run_builds_a_resolved_chain(self):
        from repro.obs.spans import build_spans

        spanned = traced_run(trace_spans=True)
        trace = build_spans(spanned.telemetry.tracer.events())
        assert trace.windows and trace.chains
        chain = trace.chains[0]
        assert chain.outcome in ("attached", "detached")
        behind = chain.records_behind()
        assert behind["windows"] >= 1 and behind["records"] > 0
        assert behind["seq_lo"] is not None
        assert behind["seq_lo"] <= behind["seq_hi"]
        # Every record is journaled at delivery: each batch names a real
        # seq range, never the unstamped 0.
        batches = [e for e in spanned.telemetry.tracer.events()
                   if e.name == "detect.batch"]
        assert batches
        for event in batches:
            assert 1 <= event.args["seq_lo"] <= event.args["seq_hi"], \
                event.args


class TestGoldenPinsWithObservatoryOn:
    """The observatory must be free when off *and* invisible to the
    simulation when on — a run counted under the interpreter's
    instruction events matches the committed golden pins byte-for-byte
    (counting only observes), and the default config leaves span
    tracing off so the trace SHA-256 pins hold too (the services golden
    suite covers that side)."""

    def test_profiled_run_matches_committed_golden(self):
        from golden_runbuilt import _sha256, assert_cell_matches, load_golden

        from repro.obs.profile import count_bytecodes

        # The cheapest fault-free cell keeps the counted run short.
        want = min((g for g in load_golden() if g["schedule"] is None),
                   key=lambda g: g["cycles"])
        result, profile = count_bytecodes(
            lambda: traced_run(want["workload"], seed=want["seed"]))
        got = {
            "workload": want["workload"],
            "seed": want["seed"],
            "schedule": None,
            "cycles": result.cycles,
            "report": result.report.render().splitlines(),
            "health": result.health.as_dict(),
            "trace_events": len(result.telemetry.tracer),
            "trace_sha256": _sha256(result.telemetry.tracer.to_jsonl()),
            "windows": result.telemetry.window_count,
            "windows_sha256": _sha256(result.telemetry.windows_jsonl()),
        }
        assert_cell_matches(got, want)
        assert profile.layers()["sim.machine"] > 0  # it really counted


class TestCliAndBench:
    def _run(self, *argv, **env_overrides):
        env = dict(os.environ, **env_overrides)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True,
            env=env, timeout=300,
        )

    def test_obs_cli_smoke(self):
        proc = self._run("-m", "repro.obs", "--smoke")
        assert proc.returncode == 0, proc.stderr
        assert "smoke ok" in proc.stdout
        assert "phase timeline" in proc.stdout
        assert "cycle breakdown" in proc.stdout
        assert "ring: " in proc.stdout  # emitted/retained/dropped line

    def test_obs_cli_unknown_workload_exits_nonzero(self):
        proc = self._run("-m", "repro.obs", "no_such_workload")
        assert proc.returncode != 0

    def _profile(self, out, **env_overrides):
        return self._run("-m", "repro.obs", "profile", "histogram",
                         "--scale", "0.25", "--json", str(out),
                         **env_overrides)

    def test_obs_cli_profile_subcommand(self, tmp_path):
        out = tmp_path / "profile.json"
        proc = self._profile(out)
        assert proc.returncode == 0, proc.stderr
        assert "== bytecodes: histogram" in proc.stdout
        assert "per simulated instruction" in proc.stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == "laser-bytecode-profile/v1"
        total = doc["total"]
        assert total == sum(doc["layers"].values()) == sum(
            doc["rows"].values())
        assert doc["per_instruction"] == round(
            total / doc["instructions"], 3)
        # Nearly every bytecode is charged to a repro row.
        assert doc["layers"].get("<other>", 0) < 0.01 * total
        assert doc["layers"]["sim.machine"] > 0

    def test_obs_cli_profile_counts_repeat_across_hash_seeds(self, tmp_path):
        layers = []
        for seed in ("1", "12345"):
            out = tmp_path / ("profile-%s.json" % seed)
            proc = self._profile(out, PYTHONHASHSEED=seed)
            assert proc.returncode == 0, proc.stderr
            layers.append(json.loads(out.read_text())["layers"])
        assert layers[0] == layers[1]

    def test_obs_cli_spans_subcommand(self, tmp_path):
        out = tmp_path / "spans_trace.json"
        proc = self._run("-m", "repro.obs", "spans", "histogram'",
                         "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "causal spans:" in proc.stdout
        assert "repair chain #0" in proc.stdout
        assert "caused by:" in proc.stdout
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "s", "t", "f"} <= phases  # slices + flow arrows
        assert doc["otherData"]["repair_chains"] >= 1

    def test_obs_cli_writes_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        proc = self._run(
            "-m", "repro.obs", "linear_regression",
            "--trace", str(trace), "--jsonl", str(jsonl),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        lines = jsonl.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["name"] for line in lines)
