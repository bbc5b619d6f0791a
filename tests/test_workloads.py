"""Tests over the benchmark-analog suite."""

from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.sim.machine import Machine
from repro.workloads.base import SheriffSupport
from repro.workloads.characterization import (
    FILLER_COUNTS,
    FILLER_KINDS,
    CharacterizationCase,
    generate_cases,
)
from repro.workloads.registry import (
    all_workloads,
    get_workload,
    suite_workloads,
    workload_names,
)

EXPECTED_NAMES = {
    # Phoenix
    "histogram", "histogram'", "kmeans", "linear_regression",
    "matrix_multiply", "pca", "reverse_index", "string_match", "word_count",
    # Parsec
    "blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
    "fluidanimate", "freqmine", "raytrace.parsec", "streamcluster",
    "swaptions", "vips", "x264",
    # Splash2x
    "barnes", "fft", "fmm", "lu_cb", "lu_ncb", "ocean_cp", "ocean_ncp",
    "radiosity", "radix", "raytrace.splash2x", "volrend", "water_nsquared",
    "water_spatial",
}

BUGGY = {"bodytrack", "dedup", "histogram'", "kmeans", "linear_regression",
         "lu_ncb", "reverse_index", "streamcluster", "volrend"}


class TestRegistry:
    def test_all_thirty_five_benchmarks_present(self):
        assert set(workload_names()) == EXPECTED_NAMES
        assert len(all_workloads()) == 35

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("nonexistent")

    def test_suites_partition_the_registry(self):
        phoenix = suite_workloads("phoenix")
        parsec = suite_workloads("parsec")
        splash = suite_workloads("splash2x")
        assert len(phoenix) == 9 and len(parsec) == 13 and len(splash) == 13

    def test_nine_benchmarks_carry_bugs(self):
        """Table 1's nine performance bugs."""
        assert {w.name for w in all_workloads() if w.bugs} == BUGGY

    def test_bug_kinds_follow_table_two(self):
        expected = {
            "bodytrack": "TS", "dedup": "TS", "histogram'": "FS",
            "kmeans": "TS", "linear_regression": "FS", "lu_ncb": "FS",
            "reverse_index": "FS", "streamcluster": "FS", "volrend": "TS",
        }
        for name, kind in expected.items():
            assert get_workload(name).bugs[0].kind.value == kind

    def test_sheriff_compatibility_matrix(self):
        """Section 7.3's verdicts: 12 run, 5 incompatible, 18 crash."""
        counts = {support: 0 for support in SheriffSupport}
        for workload in all_workloads():
            counts[workload.sheriff_support] += 1
        assert counts[SheriffSupport.OK] == 12
        assert counts[SheriffSupport.INCOMPATIBLE] == 5
        assert counts[SheriffSupport.CRASH] == 18

    def test_reduced_input_benchmarks(self):
        starred = {w.name for w in all_workloads()
                   if w.sheriff_reduced_input_ok}
        assert starred == {"lu_cb", "lu_ncb", "radix", "water_spatial"}


class TestBuilding:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_every_workload_builds_and_runs(self, name):
        workload = get_workload(name)
        built = workload.build(scale=0.12)
        machine = Machine(built.program, seed=0, allocator=built.allocator)
        built.apply_init(machine)
        result = machine.run(max_cycles=3_000_000)
        assert result.finished
        assert result.instructions > 0

    def test_build_is_deterministic(self):
        a = get_workload("linear_regression").build(seed=1, scale=0.2)
        b = get_workload("linear_regression").build(seed=1, scale=0.2)
        ma = Machine(a.program, seed=1, allocator=a.allocator)
        mb = Machine(b.program, seed=1, allocator=b.allocator)
        a.apply_init(ma)
        b.apply_init(mb)
        assert ma.run().cycles == mb.run().cycles

    def test_heap_offset_shifts_every_allocation(self):
        base = get_workload("histogram'").build(heap_offset=0, scale=0.2)
        shifted = get_workload("histogram'").build(heap_offset=64, scale=0.2)
        for (a1, _s1), (a2, _s2) in zip(base.allocator.live_allocations(),
                                        shifted.allocator.live_allocations()):
            assert a2 == a1 + 64

    def test_manual_fixes_exist_where_the_paper_has_them(self):
        # Figure 11's manual fixes plus the Section 7.4.3 fixes that
        # do not change runtime (streamcluster, word_count, volrend).
        with_fix = {"dedup", "histogram'", "kmeans", "linear_regression",
                    "lu_ncb", "reverse_index", "streamcluster", "volrend",
                    "word_count"}
        for name in sorted(EXPECTED_NAMES):
            fixed = get_workload(name).build_fixed(scale=0.12)
            assert (fixed is not None) == (name in with_fix), name


class TestContentionCharacter:
    def test_linear_regression_contends_and_fix_removes_it(self):
        workload = get_workload("linear_regression")
        built = workload.build(scale=0.5)
        machine = Machine(built.program, seed=0, allocator=built.allocator)
        built.apply_init(machine)
        broken = machine.run()
        fixed = workload.build_fixed(scale=0.5)
        machine2 = Machine(fixed.program, seed=0, allocator=fixed.allocator)
        fixed.apply_init(machine2)
        clean = machine2.run()
        assert broken.hitm_count > 50
        assert clean.hitm_count < broken.hitm_count / 20
        assert clean.cycles < broken.cycles

    def test_histogram_default_input_is_contention_free(self):
        built = get_workload("histogram").build(scale=0.5)
        machine = Machine(built.program, seed=0, allocator=built.allocator)
        built.apply_init(machine)
        assert machine.run().hitm_count < 20

    def test_histogram_prime_input_contends(self):
        built = get_workload("histogram'").build(scale=0.5)
        machine = Machine(built.program, seed=0, allocator=built.allocator)
        built.apply_init(machine)
        assert machine.run().hitm_count > 200

    def test_kmeans_has_no_false_sharing_store_storms(self):
        """kmeans contends through true sharing; its sum objects are
        line-separated (Section 7.4.2)."""
        built = get_workload("kmeans").build(scale=0.3)
        machine = Machine(built.program, seed=0, allocator=built.allocator)
        built.apply_init(machine)
        result = machine.run()
        assert result.hitm_count > 100  # plenty of (true) sharing

    def test_lu_cb_is_nearly_contention_free(self):
        built = get_workload("lu_cb").build(scale=0.5)
        machine = Machine(built.program, seed=0, allocator=built.allocator)
        built.apply_init(machine)
        assert machine.run().hitm_rate_per_second < 500

    def test_lu_ncb_layout_is_environment_sensitive(self):
        """The fork's heap shift accidentally calms lu_ncb (30% faster)."""
        workload = get_workload("lu_ncb")
        native = workload.build(heap_offset=0, scale=0.5)
        forked = workload.build(heap_offset=64, scale=0.5)
        m1 = Machine(native.program, seed=0, allocator=native.allocator)
        m2 = Machine(forked.program, seed=0, allocator=forked.allocator)
        r1, r2 = m1.run(), m2.run()
        assert r2.cycles < r1.cycles * 0.9
        assert r2.hitm_count < r1.hitm_count


class TestCharacterizationCases:
    def test_full_grid_is_160_cases(self):
        cases = generate_cases()
        assert len(cases) == len(FILLER_COUNTS) * len(FILLER_KINDS) * 4
        assert len(cases) == 160
        assert len({c.name for c in cases}) == 160

    def test_groups_balanced(self):
        cases = generate_cases()
        for group in ("TSRW", "FSRW", "TSWW", "FSWW"):
            assert sum(1 for c in cases if c.group == group) == 40

    @staticmethod
    def _hitms_by_kind(case):
        """(load, store) HITM counts of one run, told by the HITM hook."""
        built = case.build()
        machine = Machine(built.program, seed=0, allocator=built.allocator)
        kinds = Counter()

        def on_hitm(core_id, inst, addr, is_write, cycle):
            kinds[is_write] += 1
            return 0

        machine.on_hitm = on_hitm
        machine.run(max_cycles=2_000_000)
        return kinds[False], kinds[True]

    def test_rw_case_generates_load_hitms(self):
        case = CharacterizationCase("TS", "RW", "alu", 2, iters=150)
        loads, _ = self._hitms_by_kind(case)
        assert loads > 20

    def test_ww_case_generates_store_hitms(self):
        case = CharacterizationCase("FS", "WW", "alu", 2, iters=150)
        _, stores = self._hitms_by_kind(case)
        assert stores > 20

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CharacterizationCase("XX", "RW", "alu", 1)
        with pytest.raises(ValueError):
            CharacterizationCase("TS", "XX", "alu", 1)
        with pytest.raises(ValueError):
            CharacterizationCase("TS", "RW", "bogus", 1)
