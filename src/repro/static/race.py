"""Static data-race certification: the sharing certificate.

``certify_program`` classifies every statically-shared cache line of a
program into a four-point lattice, ordered by severity::

    RACE  >  SYNC_TRUE_SHARING  >  FALSE_SHARING  >  THREAD_LOCAL

A cross-thread pair of accesses with at least one write is examined per
cache line (the same access universe the sharing predictor uses, via
``predict.collect_line_accesses``):

* **overlapping bytes** — a potential race, unless some synchronization
  argument discharges it: the pair is ordered by a happens-before edge
  (``mhp.py``), protected by a common must-held lock (``lockset.py``),
  made of two atomic RMWs (``cmpxchg``/``xadd`` — x86 ``lock``-prefixed
  instructions), confined to a recognized synchronization word (a lock,
  flag or barrier word — that traffic *is* the synchronization), or
  made of two SSB pseudo-ops (LASERREPAIR serializes those through HTM
  regions).  A discharged overlapping pair is *synchronized true
  sharing*; an undischarged one is a **race**.
* **disjoint bytes** — false sharing: never a data race (no byte is
  contested), whatever the synchronization.

Lines with cross-thread accesses but no write-bearing pair, and lines
touched by one thread only, sit at the lattice bottom — "thread-local"
here is shorthand for *thread-local or read-only*.

The result is a :class:`SharingCertificate`: serializable, deterministic
for a given built workload, carrying per-(pc, line) evidence for every
verdict.  The runtime consults it in one place, opt-in via
``LaserConfig.race_gate``: the repair service refuses to SSB-rewrite
source locations certified ``RACE`` (repairing a racy line would paper
over a correctness bug).  Only such a run imports this module.

Like every must-analysis here, the certifier is conservative toward
``RACE``: happens-before edges it cannot prove are simply absent, so
benign idioms it does not recognize (e.g. an intentionally-racy
"modified" flag updated with a plain ``addm``) certify as races.  That
asymmetry is the point of the quarantine gate — refusing to repair a
line that might be racy is safe; the converse is not.
"""

import enum
import json
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro._constants import CACHE_LINE_SIZE
from repro.isa.instructions import Opcode
from repro.isa.program import Program, SourceLocation
from repro.static.mhp import MhpAnalysis, analyze_mhp

if TYPE_CHECKING:  # pragma: no cover
    from repro.static.predict import StaticAccess

__all__ = [
    "LineVerdict",
    "PairEvidence",
    "LineCertificate",
    "SharingCertificate",
    "certify_program",
    "certify_built",
]

#: Atomic RMW opcodes (x86 ``lock`` prefix); ``ADDM`` is deliberately
#: absent — it is the *un-locked* memory-destination add, and two of
#: them on the same word race.
_ATOMIC_OPS = frozenset({Opcode.CMPXCHG, Opcode.XADD})

_SSB_OPS = frozenset({Opcode.SSB_LOAD, Opcode.SSB_STORE, Opcode.SSB_ADDM})

#: Evidence pairs retained per cache line (deterministic prefix).
MAX_EVIDENCE_PAIRS = 8


class LineVerdict(enum.Enum):
    """The certification lattice, ordered by severity."""

    THREAD_LOCAL = "THREAD_LOCAL"
    FALSE_SHARING = "FALSE_SHARING"
    SYNC_TRUE_SHARING = "SYNC_TRUE_SHARING"
    RACE = "RACE"

    @property
    def severity(self) -> int:
        return _SEVERITY[self]


_SEVERITY = {
    LineVerdict.THREAD_LOCAL: 0,
    LineVerdict.FALSE_SHARING: 1,
    LineVerdict.SYNC_TRUE_SHARING: 2,
    LineVerdict.RACE: 3,
}


class PairEvidence:
    """One classified access pair: why a line got (part of) its verdict."""

    __slots__ = ("kind", "thread_a", "pc_a", "loc_a",
                 "thread_b", "pc_b", "loc_b")

    def __init__(self, kind: str, thread_a: int, pc_a: int,
                 loc_a: Optional[SourceLocation], thread_b: int,
                 pc_b: int, loc_b: Optional[SourceLocation]):
        #: "race", "ordered", "locked", "atomic", "sync_word", "ssb"
        #: or "false_sharing".
        self.kind = kind
        self.thread_a = thread_a
        self.pc_a = pc_a
        self.loc_a = loc_a
        self.thread_b = thread_b
        self.pc_b = pc_b
        self.loc_b = loc_b

    def to_list(self) -> List:
        return [self.kind, self.thread_a, self.pc_a, str(self.loc_a),
                self.thread_b, self.pc_b, str(self.loc_b)]

    @classmethod
    def from_list(cls, data: List) -> "PairEvidence":
        kind, thread_a, pc_a, loc_a, thread_b, pc_b, loc_b = data
        return cls(kind, thread_a, pc_a, _parse_loc(loc_a),
                   thread_b, pc_b, _parse_loc(loc_b))

    def __repr__(self) -> str:
        return "<PairEvidence %s t%d@0x%x ~ t%d@0x%x>" % (
            self.kind, self.thread_a, self.pc_a, self.thread_b, self.pc_b)


def _parse_loc(text: str) -> Optional[SourceLocation]:
    if not text or text == "None":
        return None
    file, _, line = text.rpartition(":")
    if not file or not line.isdigit():
        return None
    return SourceLocation(file, int(line))


class LineCertificate:
    """Verdict and evidence for one cache line."""

    __slots__ = ("line", "verdict", "threads", "pair_counts", "evidence",
                 "locations")

    def __init__(self, line: int, verdict: LineVerdict,
                 threads: List[int], pair_counts: Dict[str, int],
                 evidence: List[PairEvidence],
                 locations: Optional[List[SourceLocation]] = None):
        self.line = line
        self.verdict = verdict
        self.threads = threads
        #: kind -> number of classified pairs of that kind.
        self.pair_counts = pair_counts
        #: Deterministic sample of classified pairs (first
        #: ``MAX_EVIDENCE_PAIRS`` in thread/instruction order).
        self.evidence = evidence
        #: Every source location with an access on this line (not just
        #: paired ones) — the repair gate's line<->location join.
        self.locations = locations or []

    def to_dict(self) -> Dict:
        return {
            "line": self.line,
            "verdict": self.verdict.value,
            "threads": list(self.threads),
            "pair_counts": dict(sorted(self.pair_counts.items())),
            "evidence": [pair.to_list() for pair in self.evidence],
            "locations": [str(loc) for loc in self.locations],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LineCertificate":
        locations = [_parse_loc(text) for text in data.get("locations", [])]
        return cls(
            data["line"], LineVerdict(data["verdict"]),
            list(data["threads"]), dict(data["pair_counts"]),
            [PairEvidence.from_list(e) for e in data["evidence"]],
            [loc for loc in locations if loc is not None],
        )

    def __repr__(self) -> str:
        return "<LineCertificate 0x%x %s threads=%s>" % (
            self.line, self.verdict.value, self.threads)


class SharingCertificate:
    """The certifier's whole-program output, runtime- and CI-consumable."""

    SCHEMA_VERSION = 1

    def __init__(self, program_name: str, num_threads: int,
                 lines: Dict[int, LineCertificate],
                 location_verdicts: Dict[SourceLocation, LineVerdict],
                 clipped_footprints: int,
                 lock_addresses: FrozenSet[int],
                 sync_addresses: FrozenSet[Tuple[int, int]]):
        self.program_name = program_name
        self.num_threads = num_threads
        self.lines = lines
        #: Source location -> worst verdict over every pair it joins.
        self.location_verdicts = location_verdicts
        #: Footprints too wide or unbounded to classify: the coverage
        #: gap that makes the certificate incomplete.
        self.clipped_footprints = clipped_footprints
        self.lock_addresses = lock_addresses
        self.sync_addresses = sync_addresses
        self._gate_map: Optional[Dict[SourceLocation, LineVerdict]] = None

    # -- verdict queries ------------------------------------------------

    @property
    def complete(self) -> bool:
        """True when every footprint was classified (nothing clipped)."""
        return self.clipped_footprints == 0

    @property
    def unsafe(self) -> bool:
        """True when any line certifies RACE."""
        return any(
            cert.verdict is LineVerdict.RACE for cert in self.lines.values()
        )

    def verdict_for_line(self, line: int) -> LineVerdict:
        cert = self.lines.get(line)
        return cert.verdict if cert is not None else LineVerdict.THREAD_LOCAL

    def verdict_for_location(self, location: SourceLocation) -> LineVerdict:
        """Worst verdict over the pairs this location itself joins."""
        return self.location_verdicts.get(location, LineVerdict.THREAD_LOCAL)

    def gate_verdict_for_location(self, location: SourceLocation) -> LineVerdict:
        """The repair gate's view: the location *or any line it touches*.

        Repairing is a per-line act (the SSB serializes the whole cache
        line's store traffic), so a location whose own pairs are mere
        false sharing must still be quarantined when a race rides the
        same line — e.g. per-thread counters packed next to an
        unsynchronized result word.
        """
        if self._gate_map is None:
            gate: Dict[SourceLocation, LineVerdict] = dict(
                self.location_verdicts)
            for cert in self.lines.values():
                for loc in cert.locations:
                    held = gate.get(loc, LineVerdict.THREAD_LOCAL)
                    if cert.verdict.severity > held.severity:
                        gate[loc] = cert.verdict
            self._gate_map = gate
        return self._gate_map.get(location, LineVerdict.THREAD_LOCAL)

    def racy_lines(self) -> List[LineCertificate]:
        return [cert for cert in self.iter_lines()
                if cert.verdict is LineVerdict.RACE]

    def racy_locations(self) -> List[SourceLocation]:
        return sorted(
            (loc for loc, verdict in self.location_verdicts.items()
             if verdict is LineVerdict.RACE),
            key=lambda loc: (loc.file, loc.line),
        )

    def counts(self) -> Dict[str, int]:
        out = {verdict.value: 0 for verdict in LineVerdict}
        for cert in self.lines.values():
            out[cert.verdict.value] += 1
        return out

    def iter_lines(self) -> List[LineCertificate]:
        return [self.lines[line] for line in sorted(self.lines)]

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "version": self.SCHEMA_VERSION,
            "program": self.program_name,
            "num_threads": self.num_threads,
            "clipped_footprints": self.clipped_footprints,
            "lock_addresses": sorted(self.lock_addresses),
            "sync_addresses": sorted(list(pair)
                                     for pair in self.sync_addresses),
            "lines": [cert.to_dict() for cert in self.iter_lines()],
            "locations": sorted(
                ([loc.file, loc.line, verdict.value]
                 for loc, verdict in self.location_verdicts.items()),
                key=lambda row: (row[0], row[1]),
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SharingCertificate":
        if data.get("version") != cls.SCHEMA_VERSION:
            raise ValueError(
                "unsupported certificate version %r" % data.get("version"))
        lines = {
            entry["line"]: LineCertificate.from_dict(entry)
            for entry in data["lines"]
        }
        locations = {
            SourceLocation(file, line): LineVerdict(verdict)
            for file, line, verdict in data["locations"]
        }
        return cls(
            data["program"], data["num_threads"], lines, locations,
            data["clipped_footprints"],
            frozenset(data["lock_addresses"]),
            frozenset(tuple(pair) for pair in data["sync_addresses"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SharingCertificate":
        return cls.from_dict(json.loads(text))

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        rows = ["%-12s %-18s %-9s %s" % ("cache line", "verdict", "threads",
                                         "pairs (by kind)")]
        for cert in self.iter_lines():
            if cert.verdict is LineVerdict.THREAD_LOCAL:
                continue
            kinds = " ".join(
                "%s=%d" % (kind, count)
                for kind, count in sorted(cert.pair_counts.items())
                if count
            )
            rows.append("0x%-10x %-18s %-9s %s" % (
                cert.line, cert.verdict.value,
                ",".join(str(t) for t in cert.threads), kinds))
        counts = self.counts()
        rows.append(
            "%s: RACE=%d SYNC_TS=%d FS=%d local/ro=%d clipped=%d -> %s"
            % (self.program_name, counts["RACE"],
               counts["SYNC_TRUE_SHARING"], counts["FALSE_SHARING"],
               counts["THREAD_LOCAL"], self.clipped_footprints,
               "UNSAFE" if self.unsafe else "safe"))
        if self.unsafe:
            for loc in self.racy_locations():
                rows.append("  racy location: %s" % (loc,))
        return "\n".join(rows)

    def __repr__(self) -> str:
        return "<SharingCertificate %s lines=%d %s>" % (
            self.program_name, len(self.lines),
            "UNSAFE" if self.unsafe else "safe")


# ----------------------------------------------------------------------
# Pair classification
# ----------------------------------------------------------------------

def _sync_word_bitmaps(
    lock_addresses: Iterable[int],
    sync_addresses: Iterable[Tuple[int, int]],
) -> Dict[int, int]:
    """Per-cache-line byte bitmap covered by synchronization words."""
    bitmaps: Dict[int, int] = {}
    words = [(addr, 8) for addr in lock_addresses]
    words.extend(sync_addresses)
    for addr, size in words:
        for byte in range(addr, addr + size):
            line = byte // CACHE_LINE_SIZE
            bitmaps[line] = bitmaps.get(line, 0) | (
                1 << (byte - line * CACHE_LINE_SIZE))
    return bitmaps


def _classify_pair(first: "StaticAccess", second: "StaticAccess",
                   overlap: int, sync_bitmap: int,
                   mhp: MhpAnalysis) -> str:
    """The evidence kind for one cross-thread write-bearing pair."""
    if not overlap:
        return "false_sharing"
    if first.op in _SSB_OPS and second.op in _SSB_OPS:
        return "ssb"  # LASERREPAIR serializes SSB ops through HTM
    if first.op in _ATOMIC_OPS and second.op in _ATOMIC_OPS:
        return "atomic"
    if overlap & ~sync_bitmap == 0:
        return "sync_word"  # the contested bytes *are* the lock/flag
    if first.locks & second.locks:
        return "locked"
    if mhp.ordered(first.thread, first.index, second.thread, second.index):
        return "ordered"
    return "race"


_KIND_VERDICT = {
    "race": LineVerdict.RACE,
    "ordered": LineVerdict.SYNC_TRUE_SHARING,
    "locked": LineVerdict.SYNC_TRUE_SHARING,
    "atomic": LineVerdict.SYNC_TRUE_SHARING,
    "sync_word": LineVerdict.SYNC_TRUE_SHARING,
    "ssb": LineVerdict.SYNC_TRUE_SHARING,
    "false_sharing": LineVerdict.FALSE_SHARING,
}


def certify_program(program: Program,
                    init_addrs: Iterable[int] = ()) -> SharingCertificate:
    """Certify every statically-shared cache line of ``program``."""
    # Deferred: predict imports the dynamic report types from
    # repro.core, which imports this module for the repair gate — a
    # module-level import here would close that cycle when the static
    # package is the interpreter's entry point.
    from repro.static.predict import collect_line_accesses

    collection = collect_line_accesses(program)
    mhp = analyze_mhp(program, analyses=collection.analyses,
                      init_addrs=init_addrs)
    sync_bitmaps = _sync_word_bitmaps(
        collection.lock_universe, mhp.sync_addresses)

    lines: Dict[int, LineCertificate] = {}
    location_verdicts: Dict[SourceLocation, LineVerdict] = {}
    for line in sorted(collection.accesses_by_line):
        accesses = collection.accesses_by_line[line]
        sync_bitmap = sync_bitmaps.get(line, 0)
        threads = sorted({access.thread for access in accesses})
        touching = sorted(
            {access.loc for access in accesses if access.loc is not None},
            key=lambda loc: (loc.file, loc.line),
        )
        pair_counts: Dict[str, int] = {}
        evidence: List[PairEvidence] = []
        verdict = LineVerdict.THREAD_LOCAL
        for i, first in enumerate(accesses):
            for second in accesses[i + 1:]:
                if first.thread == second.thread:
                    continue
                if not (first.is_write or second.is_write):
                    continue
                kind = _classify_pair(
                    first, second, first.bitmap & second.bitmap,
                    sync_bitmap, mhp)
                pair_counts[kind] = pair_counts.get(kind, 0) + 1
                if len(evidence) < MAX_EVIDENCE_PAIRS:
                    evidence.append(PairEvidence(
                        kind, first.thread, first.pc, first.loc,
                        second.thread, second.pc, second.loc))
                pair_verdict = _KIND_VERDICT[kind]
                if pair_verdict.severity > verdict.severity:
                    verdict = pair_verdict
                for loc in (first.loc, second.loc):
                    if loc is None:
                        continue
                    held = location_verdicts.get(loc, LineVerdict.THREAD_LOCAL)
                    if pair_verdict.severity > held.severity:
                        location_verdicts[loc] = pair_verdict
                    elif loc not in location_verdicts:
                        location_verdicts[loc] = held
        lines[line] = LineCertificate(
            line, verdict, threads, pair_counts, evidence, touching)

    return SharingCertificate(
        program.name, program.num_threads, lines, location_verdicts,
        len(collection.clipped), collection.lock_universe,
        mhp.sync_addresses)


def certify_built(built) -> SharingCertificate:
    """Certify a built workload, honoring its initial memory image."""
    return certify_program(
        built.program,
        init_addrs=[addr for addr, _value, _size in built.init_writes],
    )
