"""The full LASERDETECT event-processing pipeline (Figure 4).

Record in -> PC classified against the memory map -> stack data
addresses dropped -> PC aggregated by source line -> instruction decoded
through the load/store sets -> byte-accurate cache line model ->
per-line true/false sharing counts.

The pipeline is incremental: records are pushed as the driver delivers
them (the LASER system pushes every detection window), and reports can
be cut at any time with any rate threshold — thresholds are applied at
report time, "offline, without rerunning the program."
"""

from typing import Dict, List, Optional, Sequence, Set

from repro._constants import DETECTOR_RECORD_COST
from repro.core.detect.filters import RecordFilter
from repro.core.detect.linemap import LineAggregator
from repro.core.detect.linemodel import CacheLineModel, SharingType
from repro.core.detect.loadstore import LoadStoreSets
from repro.core.detect.report import ContentionReport, LineReport
from repro.isa.program import Program, SourceLocation
from repro.obs.trace import NULL_TRACER
from repro.pebs.events import PebsRecord
from repro.sim.vmmap import VirtualMemoryMap

__all__ = ["DetectionPipeline", "PipelineStats"]


class PipelineStats:
    """Bookkeeping across all pipeline stages."""

    __slots__ = (
        "records_seen",
        "records_admitted",
        "undecodable_pcs",
        "detector_cycles",
    )

    def __init__(self):
        self.records_seen = 0
        self.records_admitted = 0
        self.undecodable_pcs = 0
        self.detector_cycles = 0


class DetectionPipeline:
    """Stateful pipeline consuming stripped HITM records."""

    def __init__(
        self,
        program: Program,
        vmmap: VirtualMemoryMap,
        sample_after_value: int,
        tracer=None,
    ):
        self.program = program
        self.filter = RecordFilter(vmmap)
        self.aggregator = LineAggregator(program, sample_after_value)
        self.load_store_sets = LoadStoreSets.from_program(program)
        self.line_model = CacheLineModel()
        self.sample_after_value = sample_after_value
        self.stats = PipelineStats()
        #: Event tracer (``repro.obs.trace``); emits ``detect.window_roll``
        #: per detection window and ``detect.line_over_threshold`` the
        #: first time a source line crosses the report threshold.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._lines_reported: Set[SourceLocation] = set()
        # Per-source-line TS/FS event counts ("associated with the PC of N").
        self._sharing_by_line: Dict[SourceLocation, List[int]] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def process(self, records: Sequence[PebsRecord]) -> None:
        """Push one batch through the stages, record by record, in order.

        Every record is seen and costs the detector
        ``DETECTOR_RECORD_COST`` cycles; only the records the filter
        admits reach the later stages.
        """
        stats = self.stats
        stats.records_seen += len(records)
        stats.detector_cycles += len(records) * DETECTOR_RECORD_COST
        admit = self.filter.admit
        for record in records:
            if admit(record):
                self._ingest(record)

    def _ingest(self, record: PebsRecord) -> None:
        """The stages after the filter, for one admitted record."""
        self.stats.records_admitted += 1

        # Stage: aggregate by source line (addresses are NOT consulted,
        # which is what makes location detection robust to address noise).
        # The record's weight is its base-SAV multiple: sampling thinned
        # by the overload controller still estimates unbiased rates.
        loc = self.aggregator.add_record_pc(record.pc, record.weight)

        # Stage: decode the PC through the load/store sets; records whose
        # PC is not a memory op (a skidded or random PC) cannot be decoded
        # and skip the line model.
        op = self.load_store_sets.lookup(record.pc)
        if op is None:
            self.stats.undecodable_pcs += 1
            return

        # Stage: byte-accurate cache line model.  x86 RMW instructions
        # are both loads and stores; feed the write (the contention-
        # relevant half), accepting the inaccuracy the paper notes.
        sharing = self.line_model.observe(record.data_addr, op.size, op.is_store)
        if sharing is SharingType.NONE or loc is None:
            return
        counts = self._sharing_by_line.setdefault(loc, [0, 0])
        if sharing is SharingType.TRUE_SHARING:
            counts[0] += record.weight
        else:
            counts[1] += record.weight

    def roll_window(self, window_cycles: int,
                    cycle: Optional[int] = None) -> None:
        """Close a detection window (called at each periodic check).

        ``cycle`` is the machine cycle at which the window closed; it
        timestamps the trace event (callers without a clock may omit
        it and the event is stamped with the window length alone).
        """
        self.aggregator.roll_window(window_cycles)
        if self.tracer.enabled:
            self.tracer.emit(
                "detect.window_roll",
                cycle if cycle is not None else window_cycles,
                window_cycles=window_cycles,
                records_seen=self.stats.records_seen,
                records_admitted=self.stats.records_admitted,
                undecodable_pcs=self.stats.undecodable_pcs,
            )

    # ------------------------------------------------------------------
    # Checkpoint/restore (``repro.resilience``)
    # ------------------------------------------------------------------

    def reset_state(self) -> None:
        """Discard all accumulated state (checkpoint-less cold start).

        Leaves the pure-function stages (filter, load/store sets) alone
        and reinitializes everything :meth:`state_dict` would capture;
        the caller then replays the journal from seq 0.
        """
        self.stats = PipelineStats()
        self.aggregator = LineAggregator(self.program, self.sample_after_value)
        self.line_model = CacheLineModel()
        self._lines_reported = set()
        self._sharing_by_line = {}

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of all mutable pipeline state.

        The filter and the load/store sets are pure functions of the
        program and memory map, so only the accumulated statistics are
        captured.  Collections are emitted in sorted order so the same
        state always encodes to the same bytes (the checkpoint CRC is
        meaningful).
        """
        return {
            "stats": {
                "records_seen": self.stats.records_seen,
                "records_admitted": self.stats.records_admitted,
                "undecodable_pcs": self.stats.undecodable_pcs,
                "detector_cycles": self.stats.detector_cycles,
            },
            "aggregator": self.aggregator.state_dict(),
            "line_model": self.line_model.state_dict(),
            "sharing_by_line": [
                [loc.file, loc.line, counts[0], counts[1]]
                for loc, counts in sorted(
                    self._sharing_by_line.items(),
                    key=lambda item: (item[0].file, item[0].line),
                )
            ],
            "lines_reported": [
                [loc.file, loc.line]
                for loc in sorted(self._lines_reported,
                                  key=lambda l: (l.file, l.line))
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        stats = state["stats"]
        self.stats.records_seen = stats["records_seen"]
        self.stats.records_admitted = stats["records_admitted"]
        self.stats.undecodable_pcs = stats["undecodable_pcs"]
        self.stats.detector_cycles = stats["detector_cycles"]
        self.aggregator.load_state_dict(state["aggregator"])
        self.line_model.load_state_dict(state["line_model"])
        self._sharing_by_line = {
            SourceLocation(file, line): [ts, fs]
            for file, line, ts, fs in state["sharing_by_line"]
        }
        self._lines_reported = {
            SourceLocation(file, line)
            for file, line in state["lines_reported"]
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self, duration_cycles: int, rate_threshold: float) -> ContentionReport:
        """Cut a report at the given threshold (applied offline)."""
        lines = []
        traced = self.tracer.enabled
        for stats in self.aggregator.lines_above_threshold(
            duration_cycles, rate_threshold
        ):
            ts, fs = self._sharing_by_line.get(stats.location, (0, 0))
            if traced and stats.location not in self._lines_reported:
                self._lines_reported.add(stats.location)
                self.tracer.emit(
                    "detect.line_over_threshold", duration_cycles,
                    location=str(stats.location),
                    hitm_rate=round(stats.hitm_rate(
                        duration_cycles, self.sample_after_value), 3),
                    ts_events=ts, fs_events=fs,
                )
            lines.append(
                LineReport(
                    location=stats.location,
                    record_count=stats.record_count,
                    hitm_rate=stats.hitm_rate(
                        duration_cycles, self.sample_after_value
                    ),
                    ts_events=ts,
                    fs_events=fs,
                )
            )
        return ContentionReport(
            lines, duration_cycles, self.sample_after_value, rate_threshold
        )

    def contending_pcs_for_line(self, location: SourceLocation) -> List[int]:
        """Memory-op PCs the binary analysis maps to ``location``.

        Used when invoking LASERREPAIR: the detector hands over the PCs
        involved in false sharing (Section 4.4).
        """
        return [
            pc
            for pc in self.program.pcs_for_location(location)
            if pc in self.load_store_sets
        ]
