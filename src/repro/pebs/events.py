"""The PEBS record format.

A :class:`PebsRecord` is what the driver sends to the detector: "only
the PC, data address, and originating core" (Section 6), plus the TSC
the driver merges by.  The hardware dumps the whole processor context
into the PEBS buffer, but nothing downstream reads it, so the PMU
builds the stripped record directly and every later stage — the
journal, the per-core buffer, the outbox, the detector — holds that
one object.

A record carries a ``seq`` slot: the write-ahead journal
(:mod:`repro.resilience.journal`) stamps each one with a monotone
sequence number at the driver boundary, so duplicate delivery after a
crash can be detected against the acked watermark.

A record also carries a ``weight``: how many base-SAV records it
stands for.  The overload controller (:mod:`repro.control`) raises the
SAV under load; records sampled at the elevated SAV are stamped with
the SAV multiplier so the detection pipeline's rate estimates stay
unbiased.  ``weight == 1`` always, outside controller throttling.
"""

from operator import attrgetter

__all__ = ["PebsRecord", "XSNP_HITM_EVENT", "batch_sort_key"]

#: Name of the precise load-HITM event introduced with Haswell.
XSNP_HITM_EVENT = "MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM"


class PebsRecord:
    """One sampled HITM: PC, data address, core, TSC, seqno, weight."""

    __slots__ = ("pc", "data_addr", "core", "cycle", "seq", "weight")

    def __init__(self, pc: int, data_addr: int, core: int, cycle: int,
                 weight: int = 1):
        self.pc = pc
        self.data_addr = data_addr
        self.core = core
        self.cycle = cycle
        #: Stamped by the journal when the driver appends the record.
        self.seq = 0
        self.weight = weight

    def __repr__(self):
        return "<PebsRecord pc=%#x addr=%#x core=%d cyc=%d>" % (
            self.pc, self.data_addr, self.core, self.cycle,
        )


#: The detector's record order: timestamp, then core, then PC.  The
#: driver merges its outbox by it, and recovery re-sorts each replayed
#: batch by it, so a recovered detector processes records exactly as
#: the live one did.
batch_sort_key = attrgetter("cycle", "core", "pc")
