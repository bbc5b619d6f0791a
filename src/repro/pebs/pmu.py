"""Performance monitoring unit: HITM counting + PEBS sampling.

The PMU is installed as the machine's ``on_hitm`` hook.  It counts HITM
events per core (the pre-Haswell capability) and materializes a PEBS
record for every SAV-th event per core — setting the Sample-After Value
to ``n`` means "every nth event is sampled" (Section 3).  Record
materialization is a microcode assist charged to the triggering core;
that cost is the hook's return value and becomes application slowdown.

Records pass through the imprecision model and are handed to the
driver as the :class:`~repro.pebs.events.PebsRecord` objects the
detector will read: the PMU builds each record once, with only the
fields the driver forwards.

Two knobs here belong to the overload controller (:mod:`repro.control`):
``sample_after_value`` may be raised mid-run to throttle record flow at
the source, and ``sample_weight`` stamps each record with the SAV
multiplier so downstream rate estimates stay unbiased.

The ``load.burst`` fault site also lives here: a counter misfire storm
that materializes batches of garbage-PC records at the *current* SAV.
Storm records are counted against a separate synthetic event counter —
the real per-core HITM counters and their sampling phase are never
perturbed, so the genuine record stream is identical with or without
the storm.  Storm records charge no microcode-assist cycles (a phantom
counter event never ran an assist for real work) but they do fill
driver buffers, so their interrupt cost — and the admission budget that
sheds them — is real.  One fire's sampled records are counted
arithmetically, drawn from the site's RNG in order (PC, then address,
per record) and handed to the driver in one ``deliver`` call, exactly
as the SAV-th real sample is handed over as a group of one.
"""

from typing import List

from repro._constants import NUM_CORES, PEBS_RECORD_COST
from repro.obs.trace import NULL_TRACER
from repro.pebs.events import PebsRecord
from repro.pebs.imprecision import ImprecisionModel

__all__ = ["PerformanceMonitoringUnit", "BURST_EVENTS_PER_FIRE"]

#: Synthetic counter events added per ``load.burst`` fire.  The site is
#: consulted once per real HITM event, so a storm with firing
#: probability ``p`` multiplies the record rate by roughly
#: ``1 + p * BURST_EVENTS_PER_FIRE`` while it lasts.
BURST_EVENTS_PER_FIRE = 16

#: Storm records carry PCs from far above any mapped region, so the
#: detector's memory-map filter classifies them as garbage (Section 3.1
#: imprecision at adversarial rates) rather than app samples.
_BURST_PC_BASE = 1 << 44


class PerformanceMonitoringUnit:
    """Per-core HITM counters plus PEBS record generation."""

    def __init__(
        self,
        imprecision: ImprecisionModel,
        driver,
        sample_after_value: int = 19,
        record_cost: int = PEBS_RECORD_COST,
        injector=None,
        tracer=None,
    ):
        if sample_after_value < 1:
            raise ValueError("SAV must be >= 1")
        self.imprecision = imprecision
        self.driver = driver
        self.sample_after_value = sample_after_value
        #: Base-SAV multiple each sampled record stands for; the
        #: overload controller keeps this equal to the SAV multiplier
        #: it applied, and it is 1 whenever the controller is off.
        self.sample_weight = 1
        self.record_cost = record_cost
        #: Optional :class:`repro.faults.FaultInjector`; hosts the
        #: ``pebs.record_drop``, ``pebs.record_corrupt`` and
        #: ``load.burst`` sites.
        self.injector = injector
        #: Event tracer (``repro.obs.trace``); emits ``pebs.sample``
        #: whenever the microcode assist materializes a record.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.hitm_counts: List[int] = [0] * NUM_CORES
        self.records_generated = 0
        #: Synthetic ``load.burst`` accounting, separate from the real
        #: counters so storms never shift the genuine sampling phase.
        self.burst_events = 0
        self.burst_records = 0

    # ------------------------------------------------------------------
    # Machine hook
    # ------------------------------------------------------------------

    def on_hitm(self, core: int, inst, addr: int, is_write: bool,
                cycle: int) -> int:
        """Machine ``on_hitm`` hook; returns stall cycles for the core."""
        self.hitm_counts[core] += 1
        extra = 0
        if self.hitm_counts[core] % self.sample_after_value == 0:
            extra = self._sample(core, inst, addr, is_write, cycle)
        if self.injector is not None and self.injector.fires("load.burst"):
            extra += self._burst_storm(core, cycle)
        return extra

    def _sample(self, core: int, inst, addr: int, is_write: bool,
                cycle: int) -> int:
        """The SAV-th event: materialize one record (microcode assist)."""
        recorded_pc, recorded_addr = self.imprecision.distort(
            inst.pc, addr, store_triggered=is_write
        )
        record = PebsRecord(
            pc=recorded_pc,
            data_addr=recorded_addr,
            core=core,
            cycle=cycle,
            weight=self.sample_weight,
        )
        self.records_generated += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "pebs.sample", cycle, core=core, pc=record.pc,
                data_addr=record.data_addr, store=is_write,
            )
        extra = self.record_cost
        if self.injector is not None:
            if self.injector.fires("pebs.record_drop"):
                # The microcode assist still ran; the record is lost on
                # its way to the per-core buffer.
                return extra
            if self.injector.fires("pebs.record_corrupt"):
                rng = self.injector.rng("pebs.record_corrupt")
                record.pc = rng.getrandbits(40)
                record.data_addr = rng.getrandbits(40)
        return extra + self.driver.deliver((record,))

    def _burst_storm(self, core: int, cycle: int) -> int:
        """One ``load.burst`` fire: a batch of phantom counter events.

        Sampled at the *current* SAV — which is exactly what closes the
        control loop: raising the SAV throttles the storm at its source.
        """
        first = self.burst_events
        self.burst_events = first + BURST_EVENTS_PER_FIRE
        sav = self.sample_after_value
        # Phantom events first+1 .. first+16 that land on an SAV multiple.
        sampled = self.burst_events // sav - first // sav
        if not sampled:
            return 0
        rng = self.injector.rng("load.burst")
        getrandbits = rng.getrandbits
        records = [PebsRecord(_BURST_PC_BASE | getrandbits(32),
                              getrandbits(40), core, cycle)
                   for _ in range(sampled)]
        self.records_generated += sampled
        self.burst_records += sampled
        return self.driver.deliver(records)

    @property
    def total_hitm_count(self) -> int:
        return sum(self.hitm_counts)
