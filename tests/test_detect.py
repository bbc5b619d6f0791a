"""Tests for the LASERDETECT pipeline stages."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detect.filters import RecordFilter
from repro.core.detect.linemap import LineAggregator, LineStats
from repro.core.detect.linemodel import CacheLineModel, SharingType
from repro.core.detect.loadstore import LoadStoreSets
from repro.core.detect.pipeline import DetectionPipeline
from repro.core.detect.report import (
    ContentionClass,
    ContentionReport,
    LineReport,
    classify_counts,
)
from repro.isa.program import SourceLocation
from repro.pebs.events import PebsRecord
from repro.sim.vmmap import APP_CODE_BASE, KERNEL_BASE, STACK_TOP, default_memory_map

from helpers import make_counter_program


def make_pipeline(program=None, sav=19):
    program = program or make_counter_program(use_addm=True)
    vmmap = default_memory_map(program.num_threads, program.code_end)
    return DetectionPipeline(program, vmmap, sample_after_value=sav)


class TestRecordFilter:
    def _filter(self):
        vmmap = default_memory_map(2, APP_CODE_BASE + 0x1000)
        return RecordFilter(vmmap)

    def test_app_pc_with_heap_address_passes(self):
        f = self._filter()
        assert f.admit(PebsRecord(APP_CODE_BASE + 8, 0x10000000, 0, 5))
        assert f.passed == 1

    def test_spurious_kernel_pc_dropped(self):
        f = self._filter()
        assert not f.admit(PebsRecord(KERNEL_BASE + 8, 0x10000000, 0, 5))
        assert f.dropped_bad_pc == 1

    def test_unmapped_pc_dropped(self):
        f = self._filter()
        assert not f.admit(PebsRecord(0x123, 0x10000000, 0, 5))

    def test_stack_data_address_dropped(self):
        f = self._filter()
        record = PebsRecord(APP_CODE_BASE + 8, STACK_TOP - 128, 0, 5)
        assert not f.admit(record)
        assert f.dropped_stack_addr == 1

    def test_unmapped_data_address_passes(self):
        """Figure 4 drops only stack data addresses, nothing else."""
        f = self._filter()
        assert f.admit(PebsRecord(APP_CODE_BASE + 8, 0x5000_00000000, 0, 5))


class TestLoadStoreSets:
    def test_memory_op_pcs_decoded(self):
        program = make_counter_program(use_addm=True)
        sets = LoadStoreSets.from_program(program)
        addm_pcs = [
            inst.pc for inst in program.all_instructions()
            if inst.op.value == "addm"
        ]
        info = sets.lookup(addm_pcs[0])
        assert info.is_load and info.is_store and info.size == 8

    def test_non_memory_pcs_not_decodable(self):
        program = make_counter_program()
        sets = LoadStoreSets.from_program(program)
        alu_pcs = [
            inst.pc for inst in program.all_instructions()
            if not inst.is_memory_op
        ]
        assert sets.lookup(alu_pcs[0]) is None
        assert alu_pcs[0] not in sets


class TestLineAggregator:
    def test_records_aggregate_by_source_line(self):
        program = make_counter_program()
        agg = LineAggregator(program, sample_after_value=19)
        loc = SourceLocation("counter.c", 14)
        for pc in program.pcs_for_location(loc)[:1] * 5:
            agg.add_record_pc(pc)
        stats = agg.stats_for(loc)
        assert stats.record_count == 5

    def test_unresolved_pcs_counted(self):
        program = make_counter_program()
        agg = LineAggregator(program, sample_after_value=19)
        agg.add_record_pc(0xDEADBEEF)
        assert agg.unresolved_pcs == 1

    def test_rate_scales_with_sav_and_duration(self):
        stats = LineStats(SourceLocation("f.c", 1))
        for _ in range(10):
            stats.add(0x400000)
        # 10 records * SAV 19 over one simulated second.
        assert stats.hitm_rate(1_000_000, 19) == 190.0
        assert stats.hitm_rate(500_000, 19) == 380.0

    def test_threshold_is_monotone(self):
        program = make_counter_program()
        agg = LineAggregator(program, sample_after_value=19)
        locs = program.locations()
        for i, loc in enumerate(locs):
            for pc in program.pcs_for_location(loc)[:1] * (i + 1) * 3:
                agg.add_record_pc(pc)
        last = None
        for threshold in (0, 10, 100, 1000, 10000):
            count = len(agg.lines_above_threshold(1_000_000, threshold))
            if last is not None:
                assert count <= last
            last = count

    def test_peak_window_rate_survives_quiet_phases(self):
        stats = LineStats(SourceLocation("f.c", 1))
        for _ in range(30):
            stats.add(0x400000)
        stats.roll_window(150_000, 19)
        peak = stats.peak_window_rate
        assert peak > 0
        # A long quiet tail dilutes the cumulative rate but not the peak.
        assert stats.hitm_rate(100_000_000, 19) == peak

    def test_small_bursts_do_not_set_peak(self):
        stats = LineStats(SourceLocation("f.c", 1))
        for _ in range(3):  # below MIN_WINDOW_RECORDS
            stats.add(0x400000)
        stats.roll_window(150_000, 19)
        assert stats.peak_window_rate == 0.0


class TestCacheLineModel:
    def test_first_access_is_not_contention(self):
        model = CacheLineModel()
        assert model.observe(0x100, 8, True) is SharingType.NONE

    def test_overlapping_write_pair_is_true_sharing(self):
        model = CacheLineModel()
        model.observe(0x100, 8, True)
        assert model.observe(0x100, 8, False) is SharingType.TRUE_SHARING
        assert model.ts_events == 1

    def test_disjoint_write_pair_is_false_sharing(self):
        model = CacheLineModel()
        model.observe(0x100, 8, True)
        assert model.observe(0x108, 8, True) is SharingType.FALSE_SHARING
        assert model.fs_events == 1

    def test_read_read_is_not_contention(self):
        model = CacheLineModel()
        model.observe(0x100, 8, False)
        assert model.observe(0x100, 8, False) is SharingType.NONE

    def test_partial_byte_overlap_is_true_sharing(self):
        model = CacheLineModel()
        model.observe(0x100, 4, True)
        assert model.observe(0x102, 4, True) is SharingType.TRUE_SHARING

    def test_different_lines_do_not_interact(self):
        model = CacheLineModel()
        model.observe(0x100, 8, True)
        assert model.observe(0x140, 8, True) is SharingType.NONE
        assert model.tracked_lines == 2

    def test_straddling_access_clipped_to_first_line(self):
        model = CacheLineModel()
        model.observe(0x13C, 8, True)
        bitmap, was_write = model.previous_access(0x13C)
        assert was_write
        assert bitmap >> 60 == 0xF  # bytes 60-63 only

    @given(st.integers(0, 56), st.integers(0, 56),
           st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=80, deadline=None)
    def test_classification_matches_overlap_property(self, o1, o2, s1, s2):
        """write-write pairs: overlap <=> TS, disjoint <=> FS."""
        model = CacheLineModel()
        model.observe(0x100 + o1, s1, True)
        result = model.observe(0x100 + o2, s2, True)
        overlaps = not (o1 + s1 <= o2 or o2 + s2 <= o1)
        expected = (SharingType.TRUE_SHARING if overlaps
                    else SharingType.FALSE_SHARING)
        assert result is expected


class TestClassification:
    def test_insufficient_events_is_unknown(self):
        assert classify_counts(2, 1) is ContentionClass.UNKNOWN

    def test_dominant_ts(self):
        assert classify_counts(20, 2) is ContentionClass.TRUE_SHARING

    def test_dominant_fs(self):
        assert classify_counts(2, 20) is ContentionClass.FALSE_SHARING

    def test_mixed_is_unknown(self):
        assert classify_counts(10, 10) is ContentionClass.UNKNOWN

    def test_repair_candidates_exclude_true_sharing(self):
        ts_line = LineReport(SourceLocation("f.c", 1), 100, 9000.0, 30, 1)
        report = ContentionReport([ts_line], 1_000_000, 19, 1000.0)
        assert report.repair_candidates(4000.0) == []

    def test_repair_candidates_require_total_rate(self):
        fs_line = LineReport(SourceLocation("f.c", 1), 100, 2000.0, 1, 20)
        report = ContentionReport([fs_line], 1_000_000, 19, 1000.0)
        assert report.repair_candidates(4000.0) == []
        assert len(report.repair_candidates(1500.0)) == 1

    def test_repair_candidates_need_fs_evidence(self):
        noise = LineReport(SourceLocation("f.c", 1), 100, 9000.0, 0, 0)
        report = ContentionReport([noise], 1_000_000, 19, 1000.0)
        assert report.repair_candidates(4000.0) == []

    def test_unknown_verdict_does_not_block_repair(self):
        """The linear_regression situation."""
        line = LineReport(SourceLocation("f.c", 1), 100, 9000.0, 3, 4)
        assert line.contention_class is ContentionClass.UNKNOWN
        report = ContentionReport([line], 1_000_000, 19, 1000.0)
        assert report.repair_candidates(4000.0) == [line]


class TestPipeline:
    def test_records_flow_through_all_stages(self):
        program = make_counter_program(use_addm=True)
        pipeline = make_pipeline(program)
        loc = SourceLocation("counter.c", 14)
        pc = [p for p in program.pcs_for_location(loc)
              if pipeline.load_store_sets.lookup(p)][0]
        records = [
            PebsRecord(pc, 0x10000040 + 8 * (i % 4), i % 4, i * 100)
            for i in range(10)
        ]
        pipeline.process(records)
        assert pipeline.stats.records_admitted == 10
        report = pipeline.report(1_000_000, 0.0)
        line = report.line_for(loc)
        assert line is not None
        assert line.fs_events > 0  # distinct words, one line

    def test_undecodable_pcs_skip_line_model(self):
        program = make_counter_program()
        pipeline = make_pipeline(program)
        alu_pc = [inst.pc for inst in program.all_instructions()
                  if not inst.is_memory_op][0]
        pipeline.process([PebsRecord(alu_pc, 0x10000040, 0, 1)])
        assert pipeline.stats.undecodable_pcs == 1
        assert pipeline.line_model.tracked_lines == 0

    def test_contending_pcs_for_line_returns_memory_ops(self):
        program = make_counter_program(use_addm=True)
        pipeline = make_pipeline(program)
        loc = SourceLocation("counter.c", 14)
        pcs = pipeline.contending_pcs_for_line(loc)
        assert pcs
        assert all(pipeline.load_store_sets.lookup(pc) for pc in pcs)

    def test_report_threshold_applied_offline(self):
        program = make_counter_program(use_addm=True)
        pipeline = make_pipeline(program)
        loc = SourceLocation("counter.c", 14)
        pc = pipeline.contending_pcs_for_line(loc)[0]
        pipeline.process(
            [PebsRecord(pc, 0x10000040, 0, i) for i in range(8)]
        )
        loose = pipeline.report(1_000_000, 1.0)
        strict = pipeline.report(1_000_000, 1e9)
        assert loose.lines and not strict.lines
