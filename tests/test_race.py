"""Tests for the static race certifier (``repro.static.mhp`` / ``race``).

Covers the MHP happens-before rules (flag handoff, counting barrier),
the branch-divergent lock-release lockset regression, the pair
classification lattice, certificate serialization and determinism, the
racy workload variants, the repair-time race gate (quarantine), the
certificate-driven record prefilter, and the CLI / golden-verdict exit
codes.
"""

import pytest

from repro.core.config import LaserConfig
from repro.core.laser import Laser
from repro.experiments.race_cmp import GROUND_TRUTH, run_race_cmp
from repro.isa.assembler import Assembler
from repro.isa.program import Program, SourceLocation
from repro.sim.locks import (
    emit_barrier_wait,
    emit_lock_release,
    emit_naive_lock_acquire,
)
from repro.sim.vmmap import HEAP_BASE
from repro.static import racecheck
from repro.static.__main__ import main as static_main
from repro.static.absint import analyze_thread_values, thread_entry_registers
from repro.static.lockset import analyze_locksets, collect_lock_addresses
from repro.static.mhp import analyze_mhp
from repro.static.race import (
    LineVerdict,
    SharingCertificate,
    certify_built,
    certify_program,
)
from repro.workloads.registry import (
    all_workloads,
    get_workload,
    variant_workloads,
)

from helpers import make_counter_program

DATA = HEAP_BASE + 0x40
FLAG = HEAP_BASE + 0x80
LOCK = HEAP_BASE + 0x200
WORD = HEAP_BASE + 0x2C0


def _indices_at(code, line):
    """Instruction indices carrying debug line ``line``."""
    return [i for i, inst in enumerate(code.instructions)
            if inst.loc is not None and inst.loc.line == line]


def _store_at(code, line):
    """The single store instruction tagged with ``line``."""
    (idx,) = [i for i in _indices_at(code, line)
              if code.instructions[i].is_store]
    return idx


def _load_at(code, line):
    """The single load instruction tagged with ``line``."""
    (idx,) = [i for i in _indices_at(code, line)
              if code.instructions[i].is_load]
    return idx


def _handoff_program(with_flag: bool) -> Program:
    """t0 writes DATA (then raises FLAG); t1 (waits, then) reads DATA."""
    asm = Assembler("writer")
    asm.at("handoff.c", 10)
    asm.mov("r1", DATA)
    asm.store("r1", 7, size=8)
    if with_flag:
        asm.at("handoff.c", 11)
        asm.mov("r2", FLAG)
        asm.store("r2", 1, size=8)
    asm.halt()
    writer = asm.build()

    asm = Assembler("reader")
    if with_flag:
        asm.mov("r2", FLAG)
        asm.label("wait")
        asm.at("handoff.c", 20)
        asm.load("r3", "r2", size=8)
        asm.beq("r3", 0, "wait")
    asm.at("handoff.c", 21)
    asm.mov("r1", DATA)
    asm.load("r4", "r1", size=8)
    asm.halt()
    return Program("handoff", [writer, asm.build()])


def _barrier_program(num_threads: int = 2) -> Program:
    """Each thread writes its word, joins a barrier, reads a peer's."""
    threads = []
    for tid in range(num_threads):
        asm = Assembler("t%d" % tid)
        asm.at("barrier.c", 5)
        asm.mov("r1", DATA + 8 * tid)
        asm.store("r1", 1, size=8)
        asm.at("barrier.c", 15)
        asm.mov("r9", FLAG)
        emit_barrier_wait(asm, "r9", num_threads, "b%d" % tid)
        asm.at("barrier.c", 30)
        asm.mov("r6", DATA + 8 * ((tid + 1) % num_threads))
        asm.load("r7", "r6", size=8)
        asm.halt()
        threads.append(asm.build())
    return Program("barrier", threads)


def _two_symmetric(body) -> Program:
    """Two threads running ``body(asm)`` (same code, both tids)."""
    threads = []
    for tid in range(2):
        asm = Assembler("t%d" % tid)
        body(asm)
        asm.halt()
        threads.append(asm.build())
    return Program("sym", threads)


# ----------------------------------------------------------------------
# MHP: flag handoff and counting barrier
# ----------------------------------------------------------------------

class TestMhp:
    def test_flag_handoff_orders_data_accesses(self):
        program = _handoff_program(with_flag=True)
        mhp = analyze_mhp(program)
        write_idx = _store_at(program.threads[0], 10)
        read_idx = _load_at(program.threads[1], 21)
        assert mhp.ordered(0, write_idx, 1, read_idx)
        assert not mhp.may_happen_in_parallel(0, write_idx, 1, read_idx)
        # The flag word itself is recognized synchronization traffic.
        assert (FLAG, 8) in mhp.sync_addresses

    def test_no_flag_means_concurrent(self):
        program = _handoff_program(with_flag=False)
        mhp = analyze_mhp(program)
        write_idx = _store_at(program.threads[0], 10)
        read_idx = _load_at(program.threads[1], 21)
        assert mhp.may_happen_in_parallel(0, write_idx, 1, read_idx)
        assert not mhp.sync_addresses

    def test_seeded_flag_word_defeats_handoff_rule(self):
        # A flag that may start nonzero cannot prove ordering: the wait
        # could fall through before the writer ever stored.
        program = _handoff_program(with_flag=True)
        mhp = analyze_mhp(program, init_addrs=[FLAG])
        write_idx = _store_at(program.threads[0], 10)
        read_idx = _load_at(program.threads[1], 21)
        assert mhp.may_happen_in_parallel(0, write_idx, 1, read_idx)

    def test_joined_threads_not_concurrent_across_barrier(self):
        # Regression: a thread that joined the others at a counting
        # barrier must not be reported concurrent with their
        # pre-barrier accesses.
        program = _barrier_program()
        mhp = analyze_mhp(program)
        t1_write = _store_at(program.threads[1], 5)
        t0_read = _load_at(program.threads[0], 30)
        assert mhp.ordered(1, t1_write, 0, t0_read)
        assert not mhp.may_happen_in_parallel(1, t1_write, 0, t0_read)

    def test_same_thread_pairs_are_program_ordered(self):
        program = _handoff_program(with_flag=False)
        mhp = analyze_mhp(program)
        assert mhp.ordered(0, 0, 0, 1)


# ----------------------------------------------------------------------
# Locksets: branch-divergent release (must-intersection at the join)
# ----------------------------------------------------------------------

class TestBranchDivergentRelease:
    def _analyze(self):
        asm = Assembler("div")
        asm.at("div.c", 3)
        asm.mov("r1", LOCK)
        emit_naive_lock_acquire(asm, "r1", "t")
        asm.at("div.c", 10)
        asm.mov("r2", DATA)
        asm.store("r2", 1, size=8)
        asm.load("r3", "r2", size=8)
        asm.beq("r3", 0, "skip")
        asm.at("div.c", 15)
        emit_lock_release(asm, "r1")
        asm.label("skip")
        asm.at("div.c", 20)
        asm.store("r2", 2, size=8)
        asm.halt()
        code = asm.build()
        values = analyze_thread_values(
            code, entry_registers=thread_entry_registers(0))
        universe = frozenset(collect_lock_addresses(values))
        return code, universe, analyze_locksets(values, universe)

    def test_lock_recognized_and_held_in_critical_section(self):
        code, universe, locksets = self._analyze()
        assert LOCK in universe
        assert LOCK in locksets.held_at(_store_at(code, 10))

    def test_release_on_one_path_empties_join_lockset(self):
        # Lock released on only one CFG path: the must-intersection at
        # the join cannot claim it is held.
        code, _universe, locksets = self._analyze()
        assert locksets.held_at(_store_at(code, 20)) == frozenset()


# ----------------------------------------------------------------------
# Pair classification lattice
# ----------------------------------------------------------------------

class TestClassification:
    def test_plain_rmw_same_word_is_race(self):
        program = _two_symmetric(lambda asm: (
            asm.at("w.c", 4), asm.mov("r1", WORD),
            asm.addm("r1", 1, size=8)))
        cert = certify_program(program)
        assert cert.unsafe
        assert cert.verdict_for_line(WORD // 64) is LineVerdict.RACE
        assert SourceLocation("w.c", 4) in cert.racy_locations()

    def test_atomic_xadd_same_word_is_sync(self):
        program = _two_symmetric(lambda asm: (
            asm.at("w.c", 4), asm.mov("r1", WORD),
            asm.xadd("r2", "r1", 1, size=8)))
        cert = certify_program(program)
        assert not cert.unsafe
        assert (cert.verdict_for_line(WORD // 64)
                is LineVerdict.SYNC_TRUE_SHARING)

    def test_locked_update_is_sync_true_sharing(self):
        def body(asm):
            asm.at("w.c", 3)
            asm.mov("r1", LOCK)
            emit_naive_lock_acquire(asm, "r1", "u")
            asm.at("w.c", 8)
            asm.mov("r2", WORD)
            asm.addm("r2", 1, size=8)
            emit_lock_release(asm, "r1")
        cert = certify_program(_two_symmetric(body))
        assert not cert.unsafe
        assert (cert.verdict_for_line(WORD // 64)
                is LineVerdict.SYNC_TRUE_SHARING)

    def test_disjoint_words_same_line_is_false_sharing(self):
        program = make_counter_program(
            num_threads=2, iters=4, stride=8, base=DATA, use_addm=True)
        cert = certify_program(program)
        assert not cert.unsafe
        assert cert.verdict_for_line(DATA // 64) is LineVerdict.FALSE_SHARING

    def test_unshared_lines_are_thread_local(self):
        program = make_counter_program(
            num_threads=2, iters=4, stride=64, base=DATA, use_addm=True)
        cert = certify_program(program)
        assert not cert.unsafe
        for line in (DATA // 64, DATA // 64 + 1):
            assert cert.verdict_for_line(line) is LineVerdict.THREAD_LOCAL

    def test_flag_handoff_certifies_safe_no_flag_race(self):
        safe = certify_program(_handoff_program(with_flag=True))
        assert not safe.unsafe
        assert (safe.verdict_for_line(DATA // 64)
                is LineVerdict.SYNC_TRUE_SHARING)
        racy = certify_program(_handoff_program(with_flag=False))
        assert racy.unsafe
        assert racy.verdict_for_line(DATA // 64) is LineVerdict.RACE


# ----------------------------------------------------------------------
# Certificate object: determinism, serialization, gate verdicts
# ----------------------------------------------------------------------

class TestCertificate:
    def test_serialization_roundtrip(self):
        cert = certify_program(_handoff_program(with_flag=False))
        again = SharingCertificate.from_json(cert.to_json())
        assert again.to_json() == cert.to_json()
        assert again.unsafe == cert.unsafe
        assert again.counts() == cert.counts()
        for loc in cert.racy_locations():
            assert again.gate_verdict_for_location(loc) is LineVerdict.RACE

    def test_certification_is_deterministic(self):
        program = _handoff_program(with_flag=False)
        assert (certify_program(program).to_json()
                == certify_program(program).to_json())

    def test_gate_verdict_joins_over_touched_lines(self):
        # racy_counter's repair trigger is its increment line: its own
        # pairs are only false sharing, but the line it touches carries
        # a race — the gate verdict must join over the line.
        workload = get_workload("racy_counter")
        built = workload.build(heap_offset=0, seed=0)
        cert = certify_built(built)
        inc_loc = SourceLocation(workload.FILE, workload.INC_LINE)
        assert cert.verdict_for_location(inc_loc) is not LineVerdict.RACE
        assert cert.gate_verdict_for_location(inc_loc) is LineVerdict.RACE

    def test_render_smoke(self):
        cert = certify_program(_handoff_program(with_flag=False))
        text = cert.render()
        assert "RACE" in text


# ----------------------------------------------------------------------
# Racy workload variants (positive controls)
# ----------------------------------------------------------------------

class TestVariants:
    def test_registry_unchanged_and_variants_resolvable(self):
        assert len(all_workloads()) == 35
        names = [w.name for w in variant_workloads()]
        assert names == ["racy_counter", "racy_handoff"]
        for name in names:
            assert get_workload(name).name == name

    @pytest.mark.parametrize("name", ["racy_counter", "racy_handoff"])
    def test_variant_certifies_race_at_declared_locations(self, name):
        workload = get_workload(name)
        built = workload.build(heap_offset=0, seed=0)
        cert = certify_built(built)
        assert cert.unsafe
        blamed = set(cert.racy_locations())
        assert set(workload.race_locations) <= blamed


# ----------------------------------------------------------------------
# Runtime wiring: the quarantine gate
# ----------------------------------------------------------------------

def _run(name, **overrides):
    cfg = LaserConfig(seed=0, trace_enabled=True, **overrides)
    return Laser(cfg).run_workload(get_workload(name))


@pytest.mark.static
class TestRaceGate:
    def test_gate_off_repairs_racy_workload(self):
        result = _run("racy_counter")
        assert result.repaired
        assert result.health.repairs_quarantined == 0

    def test_gate_on_quarantines_racy_workload(self):
        result = _run("racy_counter", race_gate=True)
        assert not result.repaired
        assert result.health.repairs_quarantined > 0
        events = result.telemetry.tracer.events_named("repair.quarantine")
        assert events
        assert "racy_counter.c:33" in events[0].args["lines"]

    def test_gate_is_inert_on_safe_workload(self):
        off = _run("linear_regression")
        on = _run("linear_regression", race_gate=True)
        assert on.cycles == off.cycles
        assert on.repaired == off.repaired
        assert on.report.render() == off.report.render()
        assert on.health.repairs_quarantined == 0


# ----------------------------------------------------------------------
# CLIs, goldens, and the accuracy harness
# ----------------------------------------------------------------------

@pytest.mark.static
class TestCliAndGoldens:
    def test_racecheck_matches_committed_goldens(self, capsys):
        assert racecheck.main([]) == 0
        assert "racecheck: OK" in capsys.readouterr().out

    def test_racecheck_single_workload_exit_codes(self, capsys):
        assert racecheck.main(["linear_regression"]) == 0
        assert racecheck.main(["racy_counter"]) == 1
        capsys.readouterr()

    def test_static_cli_exits_nonzero_on_unsafe(self, capsys):
        assert static_main(["linear_regression"]) == 0
        assert static_main(["racy_handoff"]) == 1
        assert "unsafe" in capsys.readouterr().out

    def test_race_cmp_sharding_matches_serial(self):
        names = ["linear_regression", "histogram", "racy_counter"]
        serial = run_race_cmp(names=names, workers=1)
        sharded = run_race_cmp(names=names, workers=2)
        assert serial.render() == sharded.render()
        assert serial.row_for("racy_counter").outcome == "TP"
        assert serial.row_for("histogram").outcome == "FP"
        assert serial.row_for("linear_regression").outcome == "TN"

    def test_ground_truth_covers_registry_exactly(self):
        assert ({w.name for w in all_workloads()} == set(GROUND_TRUTH))
