"""The write-ahead record journal.

Every PEBS record is appended here *at the driver boundary* — the
moment the driver accepts it from the PMU — and stamped with a
monotonically increasing sequence number.  The driver appends once per
PMU event (one group of records, stamped with consecutive seqnos), and
each entry is the same object the PMU built and the driver buffers and
forwards.  The journal is the durable side of the pipeline (the model
of a WAL file the kernel driver keeps next to its device node); the
per-core buffers and the detector-facing outbox are volatile.
Everything downstream can therefore be reconstructed:

* a restarted *detector* restores its last checkpoint (acked seqno
  ``A``) and replays the suffix ``seq > A``;
* a restarted *driver* loses its volatile buffers and outbox, but the
  records in them were already journaled, so the same replay heals the
  wipe;
* duplicate delivery (a record both replayed from the journal and
  still sitting in the outbox) is detected by ``(seq, cycle, core)``
  against the acked watermark and dropped with accounting, which makes
  replay idempotent.

Batch marks record *acked seqnos*: after the detector processes one
poll's batch it marks the batch's highest seqno (and the poll cycle).
Replay re-processes the suffix split at those marks, in the same
per-batch ``(cycle, core, pc)`` order the live detector used, so a
recovered detector's line-model state converges to the fault-free
run's.  Entries past the last mark (forwarded but never acked) form
the *tail* and are replayed as one final batch.

The journal is bounded: beyond ``max_entries`` the oldest entries are
shed with accounting (an online monitor must not let its own WAL grow
without limit).  Compaction is the usual checkpoint contract —
``truncate_through(seq)`` drops everything at or below the oldest
*retained* checkpoint's acked seqno.

Seqnos are stamped consecutively and entries only ever leave from the
front, so the retained entries always carry the contiguous seqnos
``head_seq - len + 1 .. head_seq``: an entry's index follows from its
seqno by subtraction, with no search.
"""

from operator import attrgetter
from typing import List, Sequence, Tuple

from repro.pebs.events import PebsRecord, batch_sort_key

__all__ = ["RecordJournal", "batch_sort_key"]

_seq = attrgetter("seq")


class RecordJournal:
    """Sequence-numbered WAL of PEBS records with acked-batch marks."""

    def __init__(self, max_entries: int = 1 << 20):
        if max_entries < 1:
            raise ValueError("journal capacity must be >= 1")
        self.max_entries = max_entries
        self._entries: List[PebsRecord] = []
        #: Acked batch boundaries: (last seqno of the batch, poll cycle),
        #: ascending in seq.
        self._marks: List[Tuple[int, int]] = []
        self._next_seq = 1
        self.truncated = 0
        #: Entries shed by the capacity bound (oldest first).  A shed
        #: entry below the acked watermark costs nothing; above it, the
        #: record is unrecoverable and replay completeness is lost.
        self.overflow_dropped = 0

    # ------------------------------------------------------------------
    # Write side (the driver)
    # ------------------------------------------------------------------

    def append(self, records: Sequence[PebsRecord]) -> int:
        """Journal one event's records; returns the last seqno.

        Stamps the records with consecutive seqnos in order.
        """
        seq = self._next_seq
        for record in records:
            record.seq = seq
            seq += 1
        self._next_seq = seq
        entries = self._entries
        entries.extend(records)
        excess = len(entries) - self.max_entries
        if excess > 0:
            del entries[:excess]
            self.overflow_dropped += excess
        return seq - 1

    # ------------------------------------------------------------------
    # Ack side (the detector)
    # ------------------------------------------------------------------

    def mark_batch(self, seq: int, cycle: int) -> None:
        """Record that every entry up to ``seq`` was processed."""
        if self._marks and seq <= self._marks[-1][0]:
            return  # replays never move the watermark backwards
        self._marks.append((seq, cycle))

    @property
    def acked_seq(self) -> int:
        return self._marks[-1][0] if self._marks else 0

    @property
    def head_seq(self) -> int:
        """Highest seqno ever assigned (0 when nothing was journaled)."""
        return self._next_seq - 1

    # ------------------------------------------------------------------
    # Replay side
    # ------------------------------------------------------------------

    def _count_through(self, seq: int) -> int:
        """How many retained entries carry a seqno at or below ``seq``."""
        first = self._next_seq - len(self._entries)
        return min(max(seq - first + 1, 0), len(self._entries))

    def entries_after(self, seq: int) -> List[PebsRecord]:
        """All retained entries with seqno strictly above ``seq``."""
        return self._entries[self._count_through(seq):]

    def batches_after(self, seq: int):
        """The unprocessed suffix, split at acked-batch marks.

        Returns ``(batches, tail)``: ``batches`` is a list of
        ``(entries, poll_cycle)`` pairs, one per recorded mark above
        ``seq`` (entries in seqno order, unsorted — the caller applies
        :data:`batch_sort_key`); ``tail`` is the entries past the last
        mark, forwarded but never acked.
        """
        suffix = self.entries_after(seq)
        batches: List[Tuple[List[PebsRecord], int]] = []
        start = 0
        for mark_seq, mark_cycle in self._marks:
            if mark_seq <= seq:
                continue
            end = start
            while end < len(suffix) and suffix[end].seq <= mark_seq:
                end += 1
            batches.append((suffix[start:end], mark_cycle))
            start = end
        return batches, suffix[start:]

    @staticmethod
    def dedup(records: List[PebsRecord], acked_seq: int):
        """Split delivered records into (fresh, duplicates).

        A record whose ``(seq, cycle, core)`` falls at or below the
        acked watermark was already applied (via replay or a previous
        read) — re-delivering it must be a no-op.  When no record is at
        or below the watermark, the common case, ``records`` itself is
        returned unchanged.
        """
        if not records or min(map(_seq, records)) > acked_seq:
            return records, 0
        fresh = [r for r in records if r.seq > acked_seq]
        return fresh, len(records) - len(fresh)

    # ------------------------------------------------------------------
    # Compaction (checkpoint contract)
    # ------------------------------------------------------------------

    def truncate_through(self, seq: int) -> int:
        """Drop entries (and marks) at or below ``seq``; returns count."""
        dropped = self._count_through(seq)
        if dropped:
            del self._entries[:dropped]
            self.truncated += dropped
        self._marks = [(s, c) for s, c in self._marks if s > seq]
        return dropped

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return "<RecordJournal %d entries seq<=%d acked=%d marks=%d>" % (
            len(self._entries), self.head_seq, self.acked_seq,
            len(self._marks),
        )
