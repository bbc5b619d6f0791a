"""Tests for the MESI directory and HITM event generation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._constants import (
    HITM_LATENCY,
    L1_HIT_LATENCY,
    MEMORY_LATENCY,
    UPGRADE_LATENCY,
)
from repro.sim.cache import LineState
from repro.sim.coherence import CoherenceDirectory


def make_directory():
    return CoherenceDirectory()


class TestStateTransitions:
    def test_cold_read_fills_exclusive(self):
        d = make_directory()
        latency, hitm = d.access(0, 0x100, 8, is_write=False)
        assert not hitm
        assert latency == MEMORY_LATENCY
        assert d.state_of(0, 0x100) is LineState.EXCLUSIVE

    def test_cold_write_fills_modified(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=True)
        assert d.state_of(0, 0x100) is LineState.MODIFIED

    def test_exclusive_write_upgrades_silently(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=False)
        latency, _ = d.access(0, 0x100, 8, is_write=True)
        assert latency == L1_HIT_LATENCY
        assert d.state_of(0, 0x100) is LineState.MODIFIED

    def test_read_of_remote_modified_is_a_hitm(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=True)
        _, hitm = d.access(1, 0x100, 8, is_write=False)
        assert hitm
        assert d.hitm_count == 1
        # Both end Shared (writeback + share).
        assert d.state_of(0, 0x100) is LineState.SHARED
        assert d.state_of(1, 0x100) is LineState.SHARED

    def test_write_to_remote_modified_is_a_store_hitm(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=True)
        _, hitm = d.access(1, 0x100, 8, is_write=True)
        assert hitm
        assert d.hitm_count == 1
        assert d.state_of(0, 0x100) is LineState.INVALID
        assert d.state_of(1, 0x100) is LineState.MODIFIED

    def test_shared_write_is_an_upgrade_not_a_hitm(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=False)
        d.now = 1000  # past any pending line transition
        d.access(1, 0x100, 8, is_write=False)
        d.now = 2000
        latency, hitm = d.access(0, 0x100, 8, is_write=True)
        assert not hitm
        assert latency == UPGRADE_LATENCY
        assert d.state_of(1, 0x100) is LineState.INVALID

    def test_read_read_sharing_is_free_of_contention(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=False)
        for core in (1, 2, 3):
            _, hitm = d.access(core, 0x100, 8, is_write=False)
            assert not hitm
        assert d.hitm_count == 0

    def test_same_word_different_line_no_interference(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=True)
        _, hitm = d.access(1, 0x140, 8, is_write=True)
        assert not hitm

    def test_false_sharing_within_one_line_hitms(self):
        """Distinct words, same line: the contention of Section 2."""
        d = make_directory()
        d.access(0, 0x100, 8, is_write=True)
        _, hitm = d.access(1, 0x108, 8, is_write=True)
        assert hitm

    def test_straddling_access_touches_two_lines(self):
        d = make_directory()
        latency, _ = d.access(0, 0x13C, 8, is_write=True)  # crosses 0x140
        # Two cold fills, one per line.
        assert latency == 2 * MEMORY_LATENCY
        assert d.state_of(0, 0x13C) is LineState.MODIFIED
        assert d.state_of(0, 0x140) is LineState.MODIFIED


class TestSerialization:
    def test_contended_transitions_queue_behind_each_other(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=True)
        d.now = 0
        first, _ = d.access(1, 0x100, 8, is_write=True)
        # Still at cycle 0: the second transition must wait for the first.
        second, _ = d.access(2, 0x100, 8, is_write=True)
        assert second == first + HITM_LATENCY

    def test_l1_hits_never_serialize(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=True)
        d.now = 0
        for _ in range(3):
            latency, _ = d.access(0, 0x100, 8, is_write=True)
            assert latency == L1_HIT_LATENCY


class TestInvariants:
    def test_clean_directory_has_no_violations(self):
        d = make_directory()
        d.access(0, 0x100, 8, is_write=True)
        d.access(1, 0x100, 8, is_write=False)
        d.access(2, 0x140, 8, is_write=False)
        assert d.check_invariants() == []

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 8), st.booleans()),
        min_size=1, max_size=200,
    ))
    @settings(max_examples=60, deadline=None)
    def test_mesi_invariants_hold_under_random_traffic(self, accesses):
        """At most one M holder; M excludes S/E; at most one E."""
        d = make_directory()
        for core, slot, is_write in accesses:
            d.now += 7
            d.access(core, 0x1000 + slot * 24, 8, is_write)
            assert d.check_invariants() == []

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.booleans()),
        min_size=2, max_size=100,
    ))
    @settings(max_examples=40, deadline=None)
    def test_hitm_fires_iff_remote_modified(self, accesses):
        d = make_directory()
        addr = 0x2000
        for core, is_write in accesses:
            d.now += 11
            remote_m = any(
                d.state_of(c, addr) is LineState.MODIFIED
                for c in range(4) if c != core
            )
            _, hitm = d.access(core, addr, 8, is_write)
            assert hitm == remote_m
