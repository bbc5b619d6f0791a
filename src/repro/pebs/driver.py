"""The LASER kernel driver model.

Per Section 6: "The driver configures the chip's performance monitoring
unit to record HITM events into per-core memory buffers.  The driver
receives an interrupt whenever a per-core buffer is full, and empties
the buffer by moving the records to an internal buffer that feeds into a
kernel file-like device.  The driver removes irrelevant information from
the HITM records ... and sends only the PC, data address, and
originating core to the detector."

The interrupt cost is charged to the core whose buffer filled; total
driver CPU time is tracked separately for the Figure 12 breakdown.

The internal buffer (the *outbox*) is bounded: a kernel driver cannot
let a stalled reader grow an allocation without limit, so when the
outbox is full the driver drops the freshly drained records and counts
them in ``records_dropped`` — the detector observes the loss through
the count, never through a crash.

The PMU builds each record with only those fields (plus the TSC, the
journal seqno and the sample weight), so the driver strips nothing: the
one :class:`~repro.pebs.events.PebsRecord` the PMU hands over is what
the journal keeps, what the per-core buffer holds and what a drain
moves into the outbox.  Sharing it is safe because nothing downstream
of the driver mutates a record (``pebs.record_corrupt`` edits it before
delivery).  The PMU hands over the records of one event at a time — the
SAV-th sample, or all of one ``load.burst`` fire's records — so the
driver and the journal are crossed once per PMU event, not once per
record.

Crash recoverability (``repro.resilience``): every admitted record is
journaled in the driver's
:class:`~repro.resilience.journal.RecordJournal` — stamped with a
sequence number — at ``deliver`` time, the moment the PMU hands it
over.  The per-core buffers and the outbox are *volatile*:
``crash_reset`` wipes them (a driver crash loses exactly that state),
and the journal is what heals the wipe.  A driver whose restart budget
is exhausted is ``halted`` and drops deliveries with accounting instead
of crashing the run.

Admission control (``repro.control``): the overload controller may set
a per-interval record budget via :meth:`set_admission`.  A record
arriving after the interval's budget is exhausted is *shed* — counted
in ``records_shed`` and discarded before it is journaled or buffered,
so a storm can never grow the journal, the buffers or the outbox past
what the budget allows, and crash replay never resurrects a shed
record.  ``admission_budget`` is ``None`` (unlimited) unless the
controller escalates, so controller-off runs take one predictable
branch here and stay bit-identical.
"""

from typing import List, Sequence

from repro._constants import (
    DRIVER_INTERRUPT_COST,
    DRIVER_OUTBOX_CAPACITY,
    NUM_CORES,
    PEBS_BUFFER_RECORDS,
)
from repro.obs.trace import NULL_TRACER
from repro.pebs.events import PebsRecord, batch_sort_key

__all__ = ["KernelDriver"]


class KernelDriver:
    """Per-core PEBS buffers draining into a bounded detector queue."""

    def __init__(self, journal, num_cores: int = NUM_CORES,
                 buffer_records: int = PEBS_BUFFER_RECORDS,
                 interrupt_cost: int = DRIVER_INTERRUPT_COST,
                 outbox_capacity: int = DRIVER_OUTBOX_CAPACITY,
                 injector=None, tracer=None):
        self.num_cores = num_cores
        self.buffer_records = buffer_records
        self.interrupt_cost = interrupt_cost
        self.outbox_capacity = outbox_capacity
        #: Optional :class:`repro.faults.FaultInjector`; hosts the
        #: ``driver.outbox_overflow`` site.
        self.injector = injector
        #: Event tracer (``repro.obs.trace``); emits ``driver.drain``
        #: per buffer drain and ``driver.outbox_drop`` on overflow.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The write-ahead :class:`RecordJournal`: every delivered
        #: record is journaled before it touches any volatile buffer.
        self.journal = journal
        #: Set by the supervisor when the driver's restart budget is
        #: exhausted: a halted driver drops deliveries with accounting.
        self.halted = False
        #: Records the driver may admit in the current check interval;
        #: ``None`` = unlimited (the controller-off fast path).
        self.admission_budget = None
        self._admitted_in_interval = 0
        self._core_buffers: List[List[PebsRecord]] = [
            [] for _ in range(num_cores)]
        self._outbox: List[PebsRecord] = []
        self.interrupts = 0
        self.driver_cycles = 0
        self.records_forwarded = 0
        self.records_dropped = 0
        self.records_shed = 0

    # ------------------------------------------------------------------
    # PMU-facing side
    # ------------------------------------------------------------------

    def deliver(self, records: Sequence[PebsRecord]) -> int:
        """Accept one PMU event's records; returns the interrupt cost.

        ``records`` (at least one) are what one ``on_hitm`` produced on
        one core: the SAV-th sample, or one ``load.burst`` fire's batch.
        Each record gets exactly the outcome it would get delivered on
        its own: dropped while halted, shed once the admission budget
        runs out, otherwise journaled and buffered — with a buffer-full
        interrupt (and drain) at every ``buffer_records`` boundary.  The
        return value sums the interrupts the group raised.
        """
        if self.halted:
            self.records_dropped += len(records)
            return 0
        if self.admission_budget is not None:
            # Admission control: shed *before* the journal write, so a
            # shed record leaves no durable trace to replay, and before
            # the buffers, so it costs no interrupt either.
            room = self.admission_budget - self._admitted_in_interval
            if room < len(records):
                self.records_shed += len(records) - room
                records = records[:room]
                if not records:
                    return 0
            self._admitted_in_interval += len(records)
        # Write-ahead: durable before volatile.  The journal stamps the
        # seqnos on the very objects buffered below.
        self.journal.append(records)
        core = records[0].core
        buffer = self._core_buffers[core]
        cost = start = 0
        while start < len(records):
            # The record that fills the buffer raises the interrupt.
            end = start + max(self.buffer_records - len(buffer), 1)
            if end > len(records):
                buffer.extend(records[start:])
                break
            buffer.extend(records[start:end])
            self._drain_core(core)
            self.interrupts += 1
            self.driver_cycles += self.interrupt_cost
            cost += self.interrupt_cost
            start = end
        return cost

    def _drain_core(self, core: int) -> None:
        buffer = self._core_buffers[core]
        if not buffer:
            return
        overflow = (self.injector is not None
                    and self.injector.fires("driver.outbox_overflow"))
        room = 0 if overflow else self.outbox_capacity - len(self._outbox)
        forwarded = min(room, len(buffer))
        self._outbox.extend(buffer[:forwarded])
        self.records_forwarded += forwarded
        dropped = len(buffer) - forwarded
        self.records_dropped += dropped
        if self.tracer.enabled:
            # The drain happens at the interrupt that the last-delivered
            # record raised; its TSC is the drain's timestamp.
            cycle = buffer[-1].cycle
            self.tracer.emit("driver.drain", cycle, core=core,
                             drained=len(buffer), dropped=dropped,
                             outbox=len(self._outbox))
            if dropped:
                self.tracer.emit("driver.outbox_drop", cycle, core=core,
                                 dropped=dropped,
                                 capacity=self.outbox_capacity)
        buffer.clear()

    # ------------------------------------------------------------------
    # Detector-facing side (the kernel file-like device)
    # ------------------------------------------------------------------

    def read_records(self) -> List[PebsRecord]:
        """Drain the outbox (the detector's read() on the device).

        Records are merged across cores in timestamp order (Haswell PEBS
        records carry a TSC field): without the merge, each interrupt
        would deliver a burst of same-core records, and the detector's
        cache line model would see artificial same-address runs.
        Same-TSC records from different cores are tie-broken by
        (core, pc) so the merge order is a property of the records, not
        of buffer-drain order (:data:`~repro.pebs.events.batch_sort_key`).
        """
        out = self._outbox
        self._outbox = []
        out.sort(key=batch_sort_key)
        return out

    def flush_batch(self) -> List[PebsRecord]:
        """Full drain: empty every core buffer, then read the outbox.

        This is the detector poll's read and the final drain at
        application exit.  perfbench's traced pass sizes each poll by
        wrapping this method by name.
        """
        for core in range(self.num_cores):
            self._drain_core(core)
        return self.read_records()

    @property
    def pending_records(self) -> int:
        return len(self._outbox) + sum(len(b) for b in self._core_buffers)

    # ------------------------------------------------------------------
    # Admission control (``repro.control``)
    # ------------------------------------------------------------------

    def set_admission(self, budget) -> None:
        """Set the next interval's record budget and reset its meter.

        Called by the control service once per check interval: with a
        budget of ``None`` admission is unlimited, ``0`` sheds every
        delivery (passthrough).  Resetting the meter here — rather than
        on a clock the driver would need to own — keeps the budget
        boundary aligned with the detector's poll slice.
        """
        if budget is not None and budget < 0:
            raise ValueError("admission budget must be >= 0 or None")
        self.admission_budget = budget
        self._admitted_in_interval = 0

    # ------------------------------------------------------------------
    # Crash model (``repro.resilience``)
    # ------------------------------------------------------------------

    def crash_reset(self) -> int:
        """A driver crash: every volatile buffer is wiped.

        Returns the number of records lost from volatile state.  They
        are *not* counted in ``records_dropped``: each of them was
        journaled at delivery, so replay recovers them.
        """
        wiped = len(self._outbox)
        self._outbox = []
        for buffer in self._core_buffers:
            wiped += len(buffer)
            buffer.clear()
        return wiped
