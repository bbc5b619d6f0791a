"""Tests for the HTM model and the software store buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._constants import SSB_FLUSH_BASE_LATENCY
from repro.errors import HtmAbort
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.core.repair.ssb import SoftwareStoreBuffer
from repro.sim.machine import Machine


def make_machine():
    asm = Assembler()
    asm.halt()
    return Machine(Program("htm_host", [asm.build()]), jitter=False)


class TestHtm:
    def test_commit_applies_all_writes(self):
        machine = make_machine()
        writes = [(0x10000000 + 8 * i, i + 1, 8) for i in range(4)]
        machine.htm.execute_atomically(0, writes, 0)
        for addr, value, size in writes:
            assert machine.memory.read(addr, size) == value
        assert machine.htm.commits == 1

    def test_capacity_abort_rolls_back(self):
        machine = make_machine()
        writes = [(0x10000000 + 64 * i, 7, 8) for i in range(9)]  # 9 lines
        with pytest.raises(HtmAbort):
            machine.htm.execute_atomically(0, writes, 0)
        assert machine.htm.aborts == 1
        for addr, _v, _s in writes:
            assert machine.memory.read(addr, 8) == 0

    def test_straddling_write_counts_both_lines(self):
        machine = make_machine()
        writes = [(0x10000000 + 128 * i + 60, 7, 8) for i in range(5)]
        with pytest.raises(HtmAbort):
            # 5 straddlers over disjoint line pairs -> 10 lines > 8 ways.
            machine.htm.execute_atomically(0, writes, 0)

    def test_split_for_capacity_preserves_order(self):
        writes = [(0x1000 + 64 * i, i, 8) for i in range(20)]
        chunks = machine_chunks = (
            make_machine().htm.split_for_capacity(writes)
        )
        flattened = [w for chunk in chunks for w in chunk]
        assert flattened == writes
        for chunk in chunks:
            lines = {addr // 64 for addr, _v, _s in chunk}
            assert len(lines) <= 8


class TestSsbBasics:
    def _ssb(self):
        machine = make_machine()
        return machine, SoftwareStoreBuffer(machine, core_id=0)

    def test_put_then_contains(self):
        _m, ssb = self._ssb()
        ssb.put(0x10000000, 0xAABB, 2)
        assert ssb.contains(0x10000000, 2)
        assert not ssb.contains(0x10000000, 4)  # only 2 bytes buffered
        assert ssb.may_alias(0x10000001, 4)
        assert not ssb.may_alias(0x10000002, 2)

    def test_fully_buffered_load_costs_no_memory_access(self):
        machine, ssb = self._ssb()
        ssb.put(0x10000000, 0x1234, 8)
        core = machine.cores[0]
        inst = machine.program.threads[0].instructions[0]
        value, latency = ssb.load_through(core, inst, 0x10000000, 8)
        assert value == 0x1234
        assert latency == 0
        assert ssb.stats.full_hits == 1

    def test_partial_load_overlays_buffered_bytes(self):
        machine, ssb = self._ssb()
        machine.memory.write(0x10000000, 0x1111111111111111, 8)
        ssb.put(0x10000000, 0xFF, 1)  # buffer only the low byte
        core = machine.cores[0]
        inst = machine.program.threads[0].instructions[0]
        value, latency = ssb.load_through(core, inst, 0x10000000, 8)
        assert value == 0x11111111111111FF
        assert latency > 0
        assert ssb.stats.partial_hits == 1

    def test_unbuffered_load_reads_memory(self):
        machine, ssb = self._ssb()
        machine.memory.write(0x10000040, 77, 8)
        core = machine.cores[0]
        inst = machine.program.threads[0].instructions[0]
        value, _lat = ssb.load_through(core, inst, 0x10000040, 8)
        assert value == 77
        assert ssb.stats.misses == 1

    def test_last_write_wins_per_byte(self):
        machine, ssb = self._ssb()
        ssb.put(0x10000000, 0x1111111111111111, 8)
        ssb.put(0x10000004, 0xAA, 1)
        ssb.flush(0)
        assert machine.memory.read(0x10000000, 8) == 0x111111AA11111111

    def test_preflush_threshold_follows_l1_associativity(self):
        """Preflush fires AT the associativity bound so the flush still
        fits in one hardware transaction."""
        _m, ssb = self._ssb()
        for i in range(7):
            ssb.put(0x10000000 + 64 * i, 1, 8)
        assert not ssb.should_preflush()
        ssb.put(0x10000000 + 64 * 7, 1, 8)
        assert ssb.should_preflush()

    def test_preflush_sized_flush_never_aborts(self):
        machine, ssb = self._ssb()
        for i in range(8):
            ssb.put(0x10000000 + 64 * i, 1, 8)
        assert ssb.should_preflush()
        ssb.flush(0)
        assert ssb.stats.htm_aborts == 0

    def test_flush_clears_and_returns_latency(self):
        _m, ssb = self._ssb()
        ssb.put(0x10000000, 5, 8)
        latency = ssb.flush(0)
        assert latency >= SSB_FLUSH_BASE_LATENCY
        assert ssb.empty()
        assert ssb.flush(0) == 0  # empty flush is free

    def test_oversized_flush_falls_back_to_chunks(self):
        machine, ssb = self._ssb()
        # Preflush checks are the caller's job; force 12 lines directly.
        for i in range(12):
            ssb.put(0x10000000 + 64 * i, i + 1, 8)
        ssb.flush(0)
        assert ssb.stats.htm_aborts == 1
        for i in range(12):
            assert machine.memory.read(0x10000000 + 64 * i, 8) == i + 1

    def test_coalescing_merges_contiguous_bytes(self):
        _m, ssb = self._ssb()
        ssb.put(0x10000000, 0x11, 1)
        ssb.put(0x10000001, 0x22, 1)
        ssb.put(0x10000002, 0x33, 1)
        ssb.put(0x10000010, 0x44, 1)
        writes = ssb._coalesced_writes()
        assert (0x10000000, 0x332211, 3) in writes
        assert (0x10000010, 0x44, 1) in writes

    @given(st.lists(
        st.tuples(st.integers(0, 96), st.integers(0, (1 << 64) - 1),
                  st.sampled_from([1, 2, 4, 8])),
        min_size=1, max_size=30,
    ))
    @settings(max_examples=40, deadline=None)
    def test_flush_equals_direct_store_sequence(self, stores):
        """SSB buffering + one flush == executing the stores directly."""
        base = 0x10000000
        machine, ssb = self._ssb()
        reference = make_machine()
        for offset, value, size in stores:
            ssb.put(base + offset, value, size)
            reference.memory.write(base + offset, value, size)
        ssb.flush(0)
        assert (machine.memory.read_bytes(base, 112)
                == reference.memory.read_bytes(base, 112))
