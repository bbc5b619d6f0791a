"""Tests for the PEBS substrate: imprecision, PMU sampling, driver."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.isa.program import PC_STRIDE
from repro.pebs.driver import KernelDriver
from repro.pebs.events import PebsRecord
from repro.pebs.imprecision import ImprecisionModel, ImprecisionParams
from repro.pebs.pmu import (
    BURST_EVENTS_PER_FIRE,
    PerformanceMonitoringUnit,
    _BURST_PC_BASE,
)
from repro.resilience.journal import RecordJournal
from repro.sim.vmmap import APP_CODE_BASE


def make_model(seed=0, **params):
    return ImprecisionModel(
        APP_CODE_BASE, APP_CODE_BASE + 0x20000,
        params=ImprecisionParams(**params), seed=seed,
    )


class _FakeInst:
    def __init__(self, pc):
        self.pc = pc


class TestImprecision:
    def test_load_records_track_the_paper_accuracy_bands(self):
        """RW: ~75% correct addresses, ~40% exact PCs, ~70% adjacent."""
        model = make_model(per_pc_jitter=0.0)
        pc, addr = APP_CODE_BASE + 400, 0x10000040
        n = 4000
        stats = {"addr": 0, "exact": 0, "adj": 0}
        for _ in range(n):
            rpc, raddr = model.distort(pc, addr, store_triggered=False)
            stats["addr"] += raddr == addr
            verdict = ImprecisionModel.classify_pc(rpc, pc)
            stats["exact"] += verdict == "exact"
            stats["adj"] += verdict in ("exact", "adjacent")
        assert 0.70 < stats["addr"] / n < 0.80
        assert 0.36 < stats["exact"] / n < 0.48
        assert 0.64 < stats["adj"] / n < 0.80

    def test_store_records_are_highly_inaccurate(self):
        """WW: ~10% correct addresses, exact PCs rare, adjacent ~34%."""
        model = make_model(per_pc_jitter=0.0)
        pc, addr = APP_CODE_BASE + 400, 0x10000040
        n = 4000
        stats = {"addr": 0, "exact": 0, "adj": 0}
        for _ in range(n):
            rpc, raddr = model.distort(pc, addr, store_triggered=True)
            stats["addr"] += raddr == addr
            verdict = ImprecisionModel.classify_pc(rpc, pc)
            stats["exact"] += verdict == "exact"
            stats["adj"] += verdict in ("exact", "adjacent")
        assert stats["addr"] / n < 0.16
        assert stats["exact"] / n < 0.12
        assert 0.24 < stats["adj"] / n < 0.45

    def test_wrong_pcs_mostly_stay_in_the_binary(self):
        """Over 99% of incorrect PCs come from the program's binary."""
        model = make_model(per_pc_jitter=0.0)
        pc = APP_CODE_BASE + 400
        wrong, in_binary = 0, 0
        for _ in range(4000):
            rpc, _ = model.distort(pc, 0x10000040, store_triggered=True)
            if ImprecisionModel.classify_pc(rpc, pc) == "wrong":
                wrong += 1
                in_binary += APP_CODE_BASE <= rpc < APP_CODE_BASE + 0x20000
        assert wrong > 0
        assert in_binary / wrong > 0.97

    def test_wrong_addresses_mostly_unmapped(self):
        """95% of incorrect data addresses come from unmapped space."""
        from repro.pebs.imprecision import UNMAPPED_BASE, UNMAPPED_SPAN

        model = make_model(per_pc_jitter=0.0)
        wrong, unmapped = 0, 0
        for _ in range(4000):
            _, raddr = model.distort(APP_CODE_BASE + 400, 0x10000040, True)
            if raddr != 0x10000040:
                wrong += 1
                unmapped += UNMAPPED_BASE <= raddr < UNMAPPED_BASE + UNMAPPED_SPAN
        assert unmapped / wrong > 0.88

    def test_per_pc_jitter_spreads_test_cases(self):
        """Different PCs get different accuracies (the Figure 3 scatter)."""
        model = make_model(per_pc_jitter=0.15)
        rates = []
        for pc_index in range(8):
            pc = APP_CODE_BASE + 64 * pc_index
            exact = sum(
                ImprecisionModel.classify_pc(
                    model.distort(pc, 0x10000040, False)[0], pc
                ) == "exact"
                for _ in range(500)
            )
            rates.append(exact / 500)
        assert max(rates) - min(rates) > 0.05

    def test_classify_pc(self):
        assert ImprecisionModel.classify_pc(100, 100) == "exact"
        assert ImprecisionModel.classify_pc(100 + PC_STRIDE, 100) == "adjacent"
        assert ImprecisionModel.classify_pc(100 + 5 * PC_STRIDE, 100) == "wrong"


class TestPmu:
    def test_sav_samples_every_nth_event_per_core(self):
        driver = KernelDriver(RecordJournal())
        pmu = PerformanceMonitoringUnit(make_model(), driver,
                                        sample_after_value=5)
        inst = _FakeInst(APP_CODE_BASE + 40)
        for _ in range(23):
            pmu.on_hitm(0, inst, 0x10000040, False, 0)
        assert pmu.hitm_counts[0] == 23
        assert pmu.records_generated == 4  # events 5, 10, 15, 20

    def test_sav_counters_are_per_core(self):
        pmu = PerformanceMonitoringUnit(make_model(),
                                        KernelDriver(RecordJournal()),
                                        sample_after_value=10)
        inst = _FakeInst(APP_CODE_BASE + 40)
        for core in range(4):
            for _ in range(9):
                pmu.on_hitm(core, inst, 0x10000040, False, 0)
        assert pmu.records_generated == 0
        assert pmu.total_hitm_count == 36

    def test_record_cost_charged_on_sampled_events_only(self):
        pmu = PerformanceMonitoringUnit(make_model(),
                                        KernelDriver(RecordJournal()),
                                        sample_after_value=2, record_cost=123)
        inst = _FakeInst(APP_CODE_BASE + 40)
        assert pmu.on_hitm(0, inst, 0x10000040, False, 0) == 0
        assert pmu.on_hitm(0, inst, 0x10000040, False, 0) >= 123


class TestDriver:
    def _record(self, core, cycle):
        return PebsRecord(APP_CODE_BASE + 4, 0x10000040, core, cycle)

    def test_buffer_full_interrupt(self):
        driver = KernelDriver(RecordJournal(), buffer_records=4,
                              interrupt_cost=999)
        costs = [driver.deliver([self._record(0, i)]) for i in range(4)]
        assert costs == [0, 0, 0, 999]
        assert driver.interrupts == 1
        assert len(driver.read_records()) == 4

    def test_records_stripped_to_pc_addr_core(self):
        driver = KernelDriver(RecordJournal(), buffer_records=1)
        record = self._record(2, 77)
        driver.deliver([record])
        [rec] = driver.read_records()
        assert rec is record and rec.seq == 1
        assert rec.core == 2 and rec.cycle == 77

    def test_timestamp_merge_across_cores(self):
        """Records from different core buffers come out in TSC order."""
        driver = KernelDriver(RecordJournal(), buffer_records=3)
        for i in range(3):
            driver.deliver([self._record(0, 10 + i)])
        for i in range(3):
            driver.deliver([self._record(1, 5 + i)])
        records = driver.read_records()
        cycles = [r.cycle for r in records]
        assert cycles == sorted(cycles)

    def test_flush_all_drains_partial_buffers(self):
        driver = KernelDriver(RecordJournal(), buffer_records=64)
        driver.deliver([self._record(0, 1)])
        driver.deliver([self._record(1, 2)])
        assert driver.pending_records == 2
        assert len(driver.flush_batch()) == 2
        assert driver.pending_records == 0

    def test_driver_cycles_accumulate(self):
        driver = KernelDriver(RecordJournal(), buffer_records=2,
                              interrupt_cost=100)
        for i in range(6):
            driver.deliver([self._record(0, i)])
        assert driver.driver_cycles == 300


# ----------------------------------------------------------------------
# Grouped delivery: one ``deliver`` per PMU event, per-record outcomes
# ----------------------------------------------------------------------

class _PerRecordDriver:
    """Reference model: the driver's contract applied one record at a time.

    Halted drops, admission shedding, write-ahead journaling, a
    buffer-full interrupt whenever a core buffer reaches
    ``buffer_records``, and a drain that forwards until the outbox is
    full (or drops everything when ``driver.outbox_overflow`` fires).
    Records are ``(seq, pc, core, cycle)`` tuples.
    """

    def __init__(self, num_cores, buffer_records, interrupt_cost,
                 outbox_capacity, injector, max_entries):
        self.buffers = [[] for _ in range(num_cores)]
        self.buffer_records = buffer_records
        self.interrupt_cost = interrupt_cost
        self.outbox_capacity = outbox_capacity
        self.injector = injector
        self.max_entries = max_entries
        self.journal = []
        self.next_seq = 1
        self.outbox = []
        self.halted = False
        self.budget = None
        self.admitted = 0
        self.interrupts = self.driver_cycles = 0
        self.forwarded = self.dropped = self.shed = 0

    def deliver_one(self, record):
        if self.halted:
            self.dropped += 1
            return 0
        if self.budget is not None:
            if self.admitted >= self.budget:
                self.shed += 1
                return 0
            self.admitted += 1
        seq = self.next_seq
        self.next_seq += 1
        self.journal = (self.journal + [seq])[-self.max_entries:]
        buffer = self.buffers[record.core]
        buffer.append((seq, record.pc, record.core, record.cycle))
        if len(buffer) < self.buffer_records:
            return 0
        self.drain(record.core)
        self.interrupts += 1
        self.driver_cycles += self.interrupt_cost
        return self.interrupt_cost

    def drain(self, core):
        buffer = self.buffers[core]
        if not buffer:
            return
        overflow = (self.injector is not None
                    and self.injector.fires("driver.outbox_overflow"))
        for entry in buffer:
            if overflow or len(self.outbox) >= self.outbox_capacity:
                self.dropped += 1
            else:
                self.outbox.append(entry)
                self.forwarded += 1
        buffer.clear()

    def flush(self):
        for core in range(len(self.buffers)):
            self.drain(core)
        out, self.outbox = self.outbox, []
        return sorted(out, key=lambda e: (e[3], e[2], e[1]))


def _injector(overflow_probability):
    if overflow_probability is None:
        return None
    plan = FaultPlan(seed=5).add("driver.outbox_overflow",
                                 probability=overflow_probability)
    return FaultInjector(plan)


def _key(record):
    return (record.seq, record.pc, record.core, record.cycle)


_OPS = st.lists(st.one_of(
    st.tuples(st.just("deliver"), st.integers(0, 3), st.integers(1, 16)),
    st.tuples(st.just("budget"), st.one_of(st.none(), st.integers(0, 20))),
    st.tuples(st.just("halt"), st.booleans()),
    st.tuples(st.just("flush")),
), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(
    num_cores=st.integers(1, 4),
    buffer_records=st.integers(1, 8),
    outbox_capacity=st.integers(0, 40),
    overflow=st.sampled_from([None, 0.3, 1.0]),
    max_entries=st.one_of(st.none(), st.integers(1, 64)),
    ops=_OPS,
)
# A group straddling the buffer boundary (3 + 6 records, buffer of 4).
@example(num_cores=1, buffer_records=4, outbox_capacity=40, overflow=None,
         max_entries=None, ops=[("deliver", 0, 3), ("deliver", 0, 6)])
# An admission budget that runs out in the middle of a group.
@example(num_cores=2, buffer_records=4, outbox_capacity=40, overflow=None,
         max_entries=None,
         ops=[("budget", 5), ("deliver", 0, 3), ("deliver", 1, 9),
              ("deliver", 0, 2), ("budget", None), ("deliver", 1, 4)])
# A halted driver drops whole groups, then resumes.
@example(num_cores=1, buffer_records=2, outbox_capacity=40, overflow=None,
         max_entries=8,
         ops=[("deliver", 0, 3), ("halt", True), ("deliver", 0, 16),
              ("halt", False), ("deliver", 0, 5), ("flush",)])
# A tiny outbox: one drain forwards part of the buffer, drops the rest.
@example(num_cores=1, buffer_records=4, outbox_capacity=3, overflow=None,
         max_entries=None, ops=[("deliver", 0, 16), ("flush",)])
# ``driver.outbox_overflow`` firing at every drain.
@example(num_cores=2, buffer_records=3, outbox_capacity=40, overflow=1.0,
         max_entries=4,
         ops=[("deliver", 0, 16), ("deliver", 1, 7), ("flush",)])
def test_grouped_delivery_matches_per_record_reference(
        num_cores, buffer_records, outbox_capacity, overflow, max_entries,
        ops):
    journal = (RecordJournal() if max_entries is None
               else RecordJournal(max_entries=max_entries))
    driver = KernelDriver(journal, num_cores=num_cores,
                          buffer_records=buffer_records, interrupt_cost=7,
                          outbox_capacity=outbox_capacity,
                          injector=_injector(overflow))
    ref = _PerRecordDriver(num_cores, buffer_records, 7, outbox_capacity,
                           _injector(overflow), journal.max_entries)
    cycle = 0
    costs, ref_costs = [], []
    delivered = []  # keeps every delivered object alive, so ids stay unique
    for op in ops:
        if op[0] == "deliver":
            _, core, n = op
            core %= num_cores
            group = []
            for _ in range(n):
                cycle += 1
                group.append(PebsRecord(_BURST_PC_BASE | cycle, 0x2000,
                                        core, cycle))
            delivered.extend(group)
            costs.append(driver.deliver(group))
            ref_costs.append(sum(ref.deliver_one(r) for r in group))
        elif op[0] == "budget":
            driver.set_admission(op[1])
            ref.budget, ref.admitted = op[1], 0
        elif op[0] == "halt":
            driver.halted = ref.halted = op[1]
        else:
            assert [_key(r) for r in driver.flush_batch()] == ref.flush()
        assert [_key(r) for r in driver._outbox] == ref.outbox
    assert costs == ref_costs
    assert driver.interrupts == ref.interrupts
    assert driver.driver_cycles == ref.driver_cycles
    assert driver.records_forwarded == ref.forwarded
    assert driver.records_dropped == ref.dropped
    assert driver.records_shed == ref.shed
    assert driver.pending_records == (len(ref.outbox)
                                      + sum(map(len, ref.buffers)))
    if overflow is not None:
        assert (driver.injector.occurrences["driver.outbox_overflow"]
                == ref.injector.occurrences["driver.outbox_overflow"])
    entries = journal.entries_after(0)
    assert [r.seq for r in entries] == ref.journal
    assert journal.head_seq == ref.next_seq - 1
    # Built once: the journal and the outbox hold the very objects the
    # caller delivered, and the outbox forwards the journal's own.
    caller_ids = {id(r) for r in delivered}
    assert all(id(r) in caller_ids for r in entries)
    assert all(id(r) in caller_ids for r in driver._outbox)
    retained = {id(r) for r in entries}
    assert all(id(r) in retained for r in driver._outbox
               if r.seq >= ref.journal[0])


# ----------------------------------------------------------------------
# ``load.burst``: arithmetic sampling count, unchanged RNG stream
# ----------------------------------------------------------------------

class _GroupRecorder:
    def __init__(self):
        self.groups = []

    def deliver(self, records):
        self.groups.append(list(records))
        return 0


def _burst_pmu(sav, burst_events):
    plan = FaultPlan(seed=9).add("load.burst", probability=1.0)
    recorder = _GroupRecorder()
    pmu = PerformanceMonitoringUnit(make_model(), recorder,
                                    sample_after_value=sav,
                                    injector=FaultInjector(plan))
    pmu.burst_events = burst_events
    return pmu, recorder


def test_burst_storm_count_and_rng_match_the_event_loop():
    """The arithmetic sample count equals the 16-step loop, and the
    site's RNG is drawn exactly as the loop drew it (PC, then address)."""
    starts = list(range(0, 41)) + [999, 12345, 2**31 - 3, 10**12 + 7]
    for sav in range(1, 41):
        for start in starts:
            pmu, recorder = _burst_pmu(sav, start)
            ref_rng = FaultInjector(pmu.injector.plan).rng("load.burst")
            want = []
            events = start
            for _ in range(BURST_EVENTS_PER_FIRE):
                events += 1
                if events % sav == 0:
                    want.append((_BURST_PC_BASE | ref_rng.getrandbits(32),
                                 ref_rng.getrandbits(40)))
            assert pmu._burst_storm(2, 77) == 0
            got = [(r.pc, r.data_addr) for g in recorder.groups for r in g]
            assert got == want, (sav, start)
            assert len(recorder.groups) == (1 if want else 0)
            assert all(r.core == 2 and r.cycle == 77
                       for g in recorder.groups for r in g)
            assert pmu.burst_events == events
            assert pmu.burst_records == pmu.records_generated == len(want)
            assert (pmu.injector.rng("load.burst").getstate()
                    == ref_rng.getstate()), (sav, start)
