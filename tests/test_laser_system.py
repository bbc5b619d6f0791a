"""End-to-end tests of the LASER system (detector + driver + repair)."""

import pytest

from repro.core.config import LaserConfig
from repro.core.detect.report import ContentionClass
from repro.core.laser import Laser
from repro.experiments.runner import run_laser_on, run_native
from repro.isa.program import SourceLocation
from repro.workloads.registry import get_workload


class TestConfig:
    def test_defaults_follow_the_paper(self):
        config = LaserConfig()
        assert config.sample_after_value == 19
        assert config.rate_threshold == 1000.0

    def test_replace_overrides_selected_fields(self):
        config = LaserConfig().replace(sample_after_value=7, seed=3)
        assert config.sample_after_value == 7
        assert config.seed == 3
        assert config.rate_threshold == 1000.0
        # Every field survives the copy, not just the overridden ones.
        custom = LaserConfig(
            sample_after_value=7, rate_threshold=10.0,
            repair_trigger_rate=20.0, check_interval_cycles=1_000,
            heap_shift=0, repair_enabled=False,
            seed=5, rollback_enabled=False, trace_enabled=True,
            trace_capacity=16,
            max_component_restarts=1, control_enabled=True,
            control_budget_records=8, control_escalate_after=4,
            control_recover_after=5, control_passthrough_after=9,
            race_gate=True, trace_spans=True,
        )
        assert all(vars(custom)[name] != default
                   for name, default in vars(LaserConfig()).items())
        assert vars(custom.replace()) == vars(custom)
        # A name that is not a field is an error, not a silent no-op.
        with pytest.raises(TypeError):
            LaserConfig().replace(watchdog_windows=3)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            LaserConfig(sample_after_value=0)
        with pytest.raises(ValueError):
            LaserConfig(rate_threshold=-1)

    def test_sav_above_the_controller_cap_allowed(self):
        # The controller's SAV cap binds only its own ladder.
        assert LaserConfig(sample_after_value=1000).sample_after_value == 1000


class TestDetectionEndToEnd:
    def test_linear_regression_bug_lines_detected(self):
        result = run_laser_on(get_workload("linear_regression"))
        reported = result.report.reported_locations()
        assert (SourceLocation("linear_regression.c", 118) in reported
                or SourceLocation("linear_regression.c", 119) in reported)

    def test_linear_regression_type_is_unknown(self):
        """Table 2: low WW address accuracy leaves the type unresolved."""
        result = run_laser_on(get_workload("linear_regression"))
        for line in result.report.lines:
            if line.location.line in (118, 119):
                assert line.contention_class is ContentionClass.UNKNOWN

    def test_dedup_queue_lock_classified_true_sharing(self):
        result = run_laser_on(get_workload("dedup"))
        line = result.report.line_for(SourceLocation("queue.c", 88))
        assert line is not None
        assert line.contention_class is ContentionClass.TRUE_SHARING

    def test_kmeans_modified_flag_classified_true_sharing(self):
        result = run_laser_on(get_workload("kmeans"))
        line = result.report.line_for(SourceLocation("kmeans.c", 193))
        assert line is not None
        assert line.contention_class is ContentionClass.TRUE_SHARING

    def test_clean_benchmark_reports_nothing(self):
        result = run_laser_on(get_workload("pca"))
        assert result.report.lines == []

    def test_histogram_input_sensitivity(self):
        """LASER adapts: nothing on the default input, FS on the other."""
        default = run_laser_on(get_workload("histogram"))
        assert default.report.lines == []
        prime = run_laser_on(get_workload("histogram'"))
        hot = prime.report.line_for(SourceLocation("histogram.c", 77))
        assert hot is not None
        assert hot.contention_class is ContentionClass.FALSE_SHARING


class TestRepairEndToEnd:
    def test_histogram_prime_repaired_online_and_faster(self):
        workload = get_workload("histogram'")
        native = run_native(workload)
        result = run_laser_on(workload)
        assert result.repaired
        assert result.cycles < native.cycles

    def test_linear_regression_repaired_online(self):
        result = run_laser_on(get_workload("linear_regression"))
        assert result.repaired

    def test_kmeans_true_sharing_not_repaired(self):
        """Repairing true sharing would be fruitless (Section 7.1)."""
        result = run_laser_on(get_workload("kmeans"))
        assert not result.repaired

    def test_lu_ncb_repair_rejected_as_unprofitable(self):
        result = run_laser_on(get_workload("lu_ncb"))
        assert not result.repaired
        assert result.repair_plan is not None
        assert "stores/flush" in result.repair_plan.rejected_reason

    def test_reverse_index_minor_bug_not_worth_repair(self):
        result = run_laser_on(get_workload("reverse_index"))
        assert not result.repaired

    def test_repair_preserves_results(self):
        """The repaired histogram' computes the same bin counts."""
        workload = get_workload("histogram'")
        built = workload.build(heap_offset=64, seed=0)
        bins_addr = [a for a, s in built.allocator.live_allocations()
                     if built.allocator.label_of(a) == "histogram_bins"][0]
        laser_result = Laser(LaserConfig()).run_workload(workload)
        assert laser_result.repaired
        # Native reference on the identical layout.
        from repro.experiments.runner import run_built_native

        reference = workload.build(heap_offset=64, seed=0)
        native_machine_result = run_built_native(reference, seed=0)
        native_memory = None  # compare via machine objects below
        import repro.sim.machine as machine_mod

        native_machine = machine_mod.Machine(
            reference.program, seed=0, allocator=reference.allocator
        )
        reference.apply_init(native_machine)
        native_machine.run()
        assert (laser_result.machine.memory.read_bytes(bins_addr, 256)
                == native_machine.memory.read_bytes(bins_addr, 256))


class TestSystemAccounting:
    def test_driver_and_detector_cycles_tracked(self):
        result = run_laser_on(get_workload("kmeans"))
        assert result.detector_cycles > 0
        assert result.application_cpu_cycles > 0
        # Both components are tiny relative to the app (Figure 12).
        assert result.detector_cycles < 0.05 * result.application_cpu_cycles

    def test_repair_disabled_still_detects(self):
        config = LaserConfig(repair_enabled=False)
        result = run_laser_on(get_workload("histogram'"), config=config)
        assert not result.repaired
        assert result.report.lines

    def test_sav_controls_record_volume(self):
        dense = run_laser_on(get_workload("kmeans"),
                             config=LaserConfig(sample_after_value=3,
                                                repair_enabled=False))
        sparse = run_laser_on(get_workload("kmeans"),
                              config=LaserConfig(sample_after_value=31,
                                                 repair_enabled=False))
        assert dense.pipeline.stats.records_seen > (
            3 * sparse.pipeline.stats.records_seen
        )
