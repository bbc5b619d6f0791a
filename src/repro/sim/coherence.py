"""MESI coherence directory and HITM event generation.

The directory tracks, for each cache line any core has touched, the
per-core MESI state.  Caches are modelled as infinite (no capacity
evictions): contention behaviour — the subject of the paper — is driven
by coherence state transitions, not capacity, and infinite caches keep
the model deterministic and fast.

A **HITM event** occurs when a core's access finds the line Modified in
a *remote* cache (Figure 1a for loads, Figure 1c for stores).  The
directory reports these to the machine, which forwards them to the PMU.
"""

from typing import Dict, List, Optional, Tuple

from repro._constants import (
    CACHE_LINE_SIZE,
    HITM_LATENCY,
    L1_HIT_LATENCY,
    MEMORY_LATENCY,
    SHARED_FILL_LATENCY,
    UPGRADE_LATENCY,
)
from repro.sim.cache import LineState

__all__ = ["CoherenceDirectory"]


class CoherenceDirectory:
    """Per-line MESI state across all cores."""

    def __init__(self):
        # line index -> {core: LineState}; absent core means Invalid.
        self._lines: Dict[int, Dict[int, LineState]] = {}
        # line index -> cycle until which the line's coherence transition
        # machinery is busy.  Contending accesses to one line serialize —
        # "the cache line constantly undergoes expensive and serialized
        # state transitions" (Section 2) — which is what makes intense
        # contention superlinearly painful on real hardware.
        self._line_busy_until: Dict[int, int] = {}
        #: Current global cycle; the machine updates this before accesses.
        self.now = 0
        self.hitm_count = 0

    # ------------------------------------------------------------------
    # Access protocol
    # ------------------------------------------------------------------

    def access(self, core: int, addr: int, size: int,
               is_write: bool) -> Tuple[int, bool]:
        """Perform a coherent access; returns ``(latency, hitm)``.

        Accesses that straddle a cache-line boundary touch each line in
        turn (as split accesses do on x86); ``hitm`` is true if any of
        them found the line Modified in a remote cache.
        """
        first_line = addr // CACHE_LINE_SIZE
        last_line = (addr + size - 1) // CACHE_LINE_SIZE
        total_latency = 0
        hitm = False
        for line in range(first_line, last_line + 1):
            latency, line_hitm = self._access_line(core, line, is_write)
            if latency > L1_HIT_LATENCY:
                # A coherence transition: serialize behind any transition
                # already in flight on this line.
                busy_until = self._line_busy_until.get(line, 0)
                if busy_until > self.now:
                    latency += busy_until - self.now
                self._line_busy_until[line] = self.now + latency
            total_latency += latency
            if line_hitm:
                hitm = True
        if hitm:
            self.hitm_count += 1
        return total_latency, hitm

    def _access_line(self, core: int, line: int, is_write: bool):
        """MESI transition for one line; returns (latency, hitm)."""
        states = self._lines.get(line)
        if states is None:
            states = {}
            self._lines[line] = states
        mine = states.get(core, LineState.INVALID)

        if not is_write:
            if mine is not LineState.INVALID:
                return L1_HIT_LATENCY, False
            modified_owner = self._modified_holder(states, exclude=core)
            if modified_owner is not None:
                # HITM: remote M line is written back and both end Shared.
                states[modified_owner] = LineState.SHARED
                states[core] = LineState.SHARED
                return HITM_LATENCY, True
            if states:
                # Clean copy supplied by a sharer; E holders downgrade.
                for holder, st in list(states.items()):
                    if st is LineState.EXCLUSIVE:
                        states[holder] = LineState.SHARED
                states[core] = LineState.SHARED
                return SHARED_FILL_LATENCY, False
            states[core] = LineState.EXCLUSIVE
            return MEMORY_LATENCY, False

        # Write path.
        if mine is LineState.MODIFIED:
            return L1_HIT_LATENCY, False
        if mine is LineState.EXCLUSIVE:
            states[core] = LineState.MODIFIED
            return L1_HIT_LATENCY, False
        modified_owner = self._modified_holder(states, exclude=core)
        if modified_owner is not None:
            # HITM: dirty line transferred and remote copy invalidated.
            del states[modified_owner]
            states.clear()
            states[core] = LineState.MODIFIED
            return HITM_LATENCY, True
        if mine is LineState.SHARED or states:
            # Upgrade / invalidation round over the sharers.
            states.clear()
            states[core] = LineState.MODIFIED
            return UPGRADE_LATENCY, False
        states[core] = LineState.MODIFIED
        return MEMORY_LATENCY, False

    @staticmethod
    def _modified_holder(states: Dict[int, LineState], exclude: int) -> Optional[int]:
        for holder, st in states.items():
            if holder != exclude and st is LineState.MODIFIED:
                return holder
        return None

    # ------------------------------------------------------------------
    # Introspection (for tests and invariants)
    # ------------------------------------------------------------------

    def state_of(self, core: int, addr: int) -> LineState:
        states = self._lines.get(addr // CACHE_LINE_SIZE)
        if not states:
            return LineState.INVALID
        return states.get(core, LineState.INVALID)

    def check_invariants(self) -> List[str]:
        """Return a list of MESI invariant violations (empty if healthy)."""
        problems = []
        for line, states in self._lines.items():
            m_holders = [c for c, s in states.items() if s is LineState.MODIFIED]
            e_holders = [c for c, s in states.items() if s is LineState.EXCLUSIVE]
            s_holders = [c for c, s in states.items() if s is LineState.SHARED]
            if len(m_holders) > 1:
                problems.append("line %d has %d M holders" % (line, len(m_holders)))
            if m_holders and (e_holders or s_holders):
                problems.append("line %d mixes M with E/S" % line)
            if len(e_holders) > 1:
                problems.append("line %d has %d E holders" % (line, len(e_holders)))
            if e_holders and s_holders:
                problems.append("line %d mixes E with S" % line)
        return problems
