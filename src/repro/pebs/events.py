"""PEBS record formats.

A raw :class:`PebsRecord` carries the full processor context the
hardware dumps into the PEBS buffer (we model the register file as an
opaque payload).  The kernel driver strips records down to
:class:`StrippedRecord` — "only the PC, data address, and originating
core" (Section 6) — before they reach the userspace detector.

A stripped record carries a ``seq`` slot: the write-ahead journal
(:mod:`repro.resilience.journal`) stamps each one with a monotone
sequence number at the driver boundary, and since the journal, the
per-core buffer and the outbox hold the same object, the record the
detector reads carries it too, so duplicate delivery after a crash can
be detected against the acked watermark.  ``seq == 0`` means "never
journaled" (resilience disabled).

Both record classes carry a ``weight``: how many base-SAV records this
record stands for.  The overload controller (:mod:`repro.control`)
raises the SAV under load; records sampled at the elevated SAV are
stamped with the SAV multiplier so the detection pipeline's rate
estimates stay unbiased.  ``weight == 1`` always, outside controller
throttling.
"""

__all__ = ["PebsRecord", "StrippedRecord", "XSNP_HITM_EVENT"]

#: Name of the precise load-HITM event introduced with Haswell.
XSNP_HITM_EVENT = "MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM"


class PebsRecord:
    """A full PEBS record as produced by the (simulated) hardware."""

    __slots__ = ("pc", "data_addr", "core", "cycle", "store_triggered",
                 "register_file", "weight")

    def __init__(self, pc: int, data_addr: int, core: int, cycle: int,
                 store_triggered: bool, register_file=None,
                 weight: int = 1):
        self.pc = pc
        self.data_addr = data_addr
        self.core = core
        self.cycle = cycle
        self.weight = weight
        #: Whether the triggering access was a store (Figure 1c).  The
        #: real record does not expose this; it exists for ground-truth
        #: instrumentation in the characterization experiments and MUST
        #: NOT be consulted by the detector.
        self.store_triggered = store_triggered
        self.register_file = register_file

    def __repr__(self):
        return "<PebsRecord pc=%#x addr=%#x core=%d cyc=%d>" % (
            self.pc, self.data_addr, self.core, self.cycle,
        )


class StrippedRecord:
    """What the driver forwards to the detector: PC, address, core, time."""

    __slots__ = ("pc", "data_addr", "core", "cycle", "seq", "weight")

    def __init__(self, pc: int, data_addr: int, core: int, cycle: int,
                 seq: int = 0, weight: int = 1):
        self.pc = pc
        self.data_addr = data_addr
        self.core = core
        self.cycle = cycle
        self.seq = seq
        self.weight = weight

    def __repr__(self):
        return "<Record pc=%#x addr=%#x core=%d cyc=%d>" % (
            self.pc, self.data_addr, self.core, self.cycle,
        )
