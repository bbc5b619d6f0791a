"""Schema-versioned, CRC-guarded detector checkpoints.

A checkpoint is the serialized state of the detector pipeline (line
aggregates, cache-line model, classification history) and the
loop-control state (backoff, watchdog marks) — everything a restarted
detector needs besides the record journal and the attached repair plan,
which the resilience runtime holds.

Snapshots are canonical JSON (sorted keys, no whitespace variance)
guarded by a CRC-32 and a schema version:

* the CRC is computed over the payload bytes at save time and checked
  at load time; a mismatch means the snapshot is corrupt and the store
  falls back to the previous *generation* (``GENERATIONS`` are
  retained, oldest pruned);
* the schema version is embedded in the payload; a snapshot written by
  an incompatible detector version is treated exactly like a corrupt
  one (fall back, count, trace) rather than being half-understood.

Corruption is injected through the ``checkpoint.corrupt`` fault site:
at load time the site may fire once per candidate generation, flipping
one payload byte (chosen by the site's private seeded RNG) before the
CRC check — so the *detection and fallback* path is what gets tested,
not a simulation shortcut around it.
"""

import json
import zlib
from typing import Dict, List, Optional

from repro.obs.trace import NULL_TRACER

__all__ = ["CHECKPOINT_SCHEMA", "Snapshot", "CheckpointStore", "encode_state"]

#: Bump on any incompatible change to the checkpoint payload layout.
CHECKPOINT_SCHEMA = 1

#: Generations retained: the newest, plus the one a corrupt newest
#: falls back to.
GENERATIONS = 2


def encode_state(state: dict) -> bytes:
    """Canonical byte serialization (deterministic for a given state)."""
    return json.dumps(state, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class Snapshot:
    """One retained checkpoint generation."""

    __slots__ = ("generation", "cycle", "payload", "crc", "ints")

    def __init__(self, generation: int, cycle: int, payload: bytes,
                 crc: int, ints: Dict[str, int]):
        self.generation = generation
        self.cycle = cycle
        self.payload = payload
        self.crc = crc
        #: The saved state's top-level integers (``acked_seq`` among
        #: them), kept beside the payload for compaction bookkeeping.
        self.ints = ints

    def __repr__(self):
        return "<Snapshot gen=%d cycle=%d %dB crc=%08x>" % (
            self.generation, self.cycle, len(self.payload), self.crc,
        )


class CheckpointStore:
    """Bounded generations of CRC-guarded snapshots with fallback load."""

    def __init__(self, injector=None, tracer=None):
        #: Optional :class:`repro.faults.FaultInjector`; hosts the
        #: ``checkpoint.corrupt`` site (consulted per candidate
        #: generation at load time).
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._snapshots: List[Snapshot] = []
        self._next_generation = 1
        self.written = 0
        self.restored = 0
        self.corrupt_detected = 0

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------

    def save(self, state: dict, cycle: int) -> Snapshot:
        """Serialize, stamp schema + CRC, retain, prune old generations."""
        state = dict(state)
        state["schema"] = CHECKPOINT_SCHEMA
        payload = encode_state(state)
        snap = Snapshot(
            generation=self._next_generation,
            cycle=cycle,
            payload=payload,
            crc=zlib.crc32(payload) & 0xFFFFFFFF,
            ints={k: v for k, v in state.items() if type(v) is int},
        )
        self._next_generation += 1
        self._snapshots.append(snap)
        if len(self._snapshots) > GENERATIONS:
            del self._snapshots[0]
        self.written += 1
        if self.tracer.enabled:
            self.tracer.emit("resil.checkpoint", cycle,
                             generation=snap.generation,
                             bytes=len(payload), crc=snap.crc)
        return snap

    # ------------------------------------------------------------------
    # Load (with corrupt-generation fallback)
    # ------------------------------------------------------------------

    def load(self, cycle: int = 0) -> Optional[dict]:
        """Newest valid generation's state, or ``None`` (cold start).

        Walks generations newest-first.  A generation whose payload
        fails the CRC, whose schema version mismatches, or whose JSON
        cannot be decoded is counted in ``corrupt_detected`` and
        skipped — recovery falls back to the one before it.
        """
        for snap in reversed(self._snapshots):
            payload = snap.payload
            if (self.injector is not None
                    and self.injector.fires("checkpoint.corrupt")):
                payload = self._flip_byte(payload)
            state = self._decode(snap, payload, cycle)
            if state is None:
                continue
            self.restored += 1
            if self.tracer.enabled:
                self.tracer.emit("resil.restore", cycle,
                                 generation=snap.generation,
                                 checkpoint_cycle=snap.cycle)
            return state
        return None

    def _flip_byte(self, payload: bytes) -> bytes:
        """Deterministically corrupt one byte (the injected fault)."""
        rng = self.injector.rng("checkpoint.corrupt")
        index = rng.randrange(len(payload)) if payload else 0
        corrupted = bytearray(payload or b"\x00")
        corrupted[index] ^= 0xFF
        return bytes(corrupted)

    def _decode(self, snap: Snapshot, payload: bytes,
                cycle: int) -> Optional[dict]:
        reason = None
        state = None
        if zlib.crc32(payload) & 0xFFFFFFFF != snap.crc:
            reason = "crc_mismatch"
        else:
            try:
                state = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                reason = "undecodable"
        if state is not None and state.get("schema") != CHECKPOINT_SCHEMA:
            reason = "schema_mismatch"
            state = None
        if reason is not None:
            self.corrupt_detected += 1
            if self.tracer.enabled:
                self.tracer.emit("resil.checkpoint_corrupt", cycle,
                                 generation=snap.generation, reason=reason)
            return None
        return state

    # ------------------------------------------------------------------
    # Compaction support
    # ------------------------------------------------------------------

    def min_retained(self, key: str, default: int = 0) -> int:
        """Smallest top-level integer ``state[key]`` across generations.

        Used for journal compaction: entries at or below the *oldest*
        retained checkpoint's acked seqno can never be needed again,
        even if load falls back a generation.  Reads the integers
        ``save`` kept on each snapshot, so no payload is decoded (and
        the injector is not involved — this is bookkeeping, not a
        restore).  They equal what the payloads hold: stored bytes are
        never modified in place (``checkpoint.corrupt`` flips a copy at
        load time).
        """
        return min((snap.ints.get(key, default) for snap in self._snapshots),
                   default=default)

    @property
    def generations(self) -> int:
        return len(self._snapshots)

    @property
    def snapshots(self) -> List[Snapshot]:
        """Retained generations, oldest first."""
        return list(self._snapshots)

    def __repr__(self):
        return "<CheckpointStore %d/%d gens written=%d restored=%d corrupt=%d>" % (
            len(self._snapshots), GENERATIONS, self.written, self.restored,
            self.corrupt_detected,
        )
