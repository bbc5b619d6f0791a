"""Seeded cells: one registry program at one seed, native then monitored.

A workload (``perfbench/workloads.json``) is a registry program plus
``LaserConfig`` overrides and a fault plan.  ``--seed`` derives a fixed
list of cells per workload; each cell runs the program natively with
``run_built_native`` and monitored with ``Laser(cfg, faults=plan)
.run_built``, timing both, and reduces the outcome to a digest of its
simulated outputs that the runner checks against a reference.
"""

import hashlib
import json
import os
import time
import traceback
from typing import Callable, Dict, List, NamedTuple, Optional

__all__ = [
    "DEFAULT_SEED",
    "PROBE_EXPONENT",
    "PROBE_REF_S",
    "SETUP_PROBE_EXPONENT",
    "DIGEST_FIELDS",
    "Cell",
    "CellRun",
    "WorkloadSpec",
    "cells_for",
    "derive_seed",
    "first_difference",
    "host_scale",
    "load_specs",
    "prepare",
    "probe_seconds",
    "run_cell",
    "warmup_cell",
]

HERE = os.path.dirname(os.path.abspath(__file__))
#: The committed reference digests of the default seed's cells.
DIGESTS = os.path.join(HERE, "digests.json")

#: Simulated outputs a cell must reproduce, in the order mismatches are
#: reported.  ``health.as_dict()`` is deliberately absent: its fields
#: are expected to change while the simulated behaviour does not.
DIGEST_FIELDS = ("native_cycles", "cycles", "report", "repaired",
                 "instructions", "records_seen")


class WorkloadSpec:
    """One named workload: program, config overrides, fault plan."""

    def __init__(self, name: str, record: dict):
        self.name = name
        self.program: str = record["program"]
        self.config: Dict[str, object] = dict(record["config"])
        self.faults: List[dict] = [dict(f) for f in record["faults"]]
        #: Distinct cells per run; deterministic metrics cover each once.
        self.cells: int = int(record["cells"])

    def fault_plan(self, plan_seed: int):
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=plan_seed)
        for fault in self.faults:
            fault = dict(fault)
            plan.add(fault.pop("site"), **fault)
        return plan


#: The seed whose cells have committed reference digests
#: (``perfbench/digests.json``, from the reference interpreter).
DEFAULT_SEED = 0


def load_specs() -> Dict[str, WorkloadSpec]:
    """The workload records of ``perfbench/workloads.json``, by name."""
    with open(os.path.join(HERE, "workloads.json")) as fh:
        data = json.load(fh)
    return {name: WorkloadSpec(name, record)
            for name, record in data["workloads"].items()}


class Cell(NamedTuple):
    workload: str
    index: int
    seed: int
    plan_seed: int


def derive_seed(seed: int, workload: str, purpose: str, index: int) -> int:
    """A 31-bit seed, a pure function of the run seed and the cell."""
    key = "%d/%s/%s/%d" % (seed, workload, purpose, index)
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _cell(spec: WorkloadSpec, seed: int, index: int) -> Cell:
    return Cell(spec.name, index,
                derive_seed(seed, spec.name, "cell", index),
                derive_seed(seed, spec.name, "plan", index))


def cells_for(spec: WorkloadSpec, seed: int) -> List[Cell]:
    return [_cell(spec, seed, i) for i in range(spec.cells)]


def warmup_cell(spec: WorkloadSpec, seed: int) -> Cell:
    """An extra cell, outside every metric, that warms caches first."""
    return _cell(spec, seed, -1)


def prepare() -> None:
    """Set-up the first timed cell needs: imports and the registry.

    The record engine imports numpy lazily on the first monitored run;
    resolving it here charges that import to set-up, not to a cell.
    """
    import repro.core  # noqa: F401
    import repro.experiments.accuracy  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.faults  # noqa: F401
    from repro.workloads import all_workloads

    try:
        from repro.accel import resolve_engine
    except ImportError:  # no engine layer: nothing is loaded lazily
        pass
    else:
        resolve_engine("auto")
    all_workloads()


class CellRun:
    """Outcome of one execution of one cell."""

    def __init__(self, cell: Cell):
        self.cell = cell
        #: Raw host seconds of the native and the monitored part.
        self.native_s = 0.0
        self.run_s = 0.0
        #: Host-speed probe seconds timed before the native part, between
        #: the two parts, and after the monitored part.
        self.probes: List[float] = []
        self.digest: Optional[dict] = None
        #: Why the cell failed, or ``None``: an exception, a coherence
        #: invariant violation, or (set by the runner) a digest mismatch.
        self.error: Optional[str] = None
        self.report_fp = 0
        self.report_fn = 0
        #: Per-run counters the traced run reports as layer extras.
        self.counters: Dict[str, int] = {}

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict:
        return {
            "index": self.cell.index, "seed": self.cell.seed,
            "plan_seed": self.cell.plan_seed,
            "native_s": self.native_s, "run_s": self.run_s,
            "probes": self.probes,
            "digest": self.digest, "error": self.error,
            "report_fp": self.report_fp, "report_fn": self.report_fn,
            "counters": self.counters,
        }


def _timed(fn: Callable):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def run_cell(spec: WorkloadSpec, cell: Cell,
             monitor: Callable = _timed) -> CellRun:
    """Run one cell: native, then monitored through ``monitor``.

    ``monitor(fn)`` runs the monitored part (build plus ``run_built``)
    and returns ``(result, seconds)``; the traced run passes one that
    installs the layer wrappers around it.
    """
    from repro.core import Laser, LaserConfig
    from repro.experiments.accuracy import score_report_lines
    from repro.experiments.runner import run_built_native
    from repro.workloads import get_workload

    out = CellRun(cell)
    try:
        workload = get_workload(spec.program)
        config = LaserConfig().replace(seed=cell.seed, **spec.config)
        plan = spec.fault_plan(cell.plan_seed)

        def monitored():
            built = workload.build(heap_offset=config.heap_shift,
                                   seed=cell.seed)
            return Laser(config, faults=plan).run_built(built)

        out.probes.append(probe_seconds())
        native, out.native_s = _timed(lambda: run_built_native(
            workload.build(heap_offset=0, seed=cell.seed), seed=cell.seed))
        out.probes.append(probe_seconds())
        result, out.run_s = monitor(monitored)
        out.probes.append(probe_seconds())
    except Exception:  # a failing cell is counted, never fatal
        out.error = traceback.format_exc().strip()
        return out
    machine = result.machine
    out.digest = {
        "native_cycles": native.cycles,
        "cycles": result.cycles,
        "report": hashlib.sha256(
            result.report.render().encode()).hexdigest()[:16],
        "repaired": bool(result.repaired),
        "instructions": sum(c.stats.instructions for c in machine.cores),
        "records_seen": result.pipeline.stats.records_seen,
    }
    problems = machine.directory.check_invariants()
    if problems:
        out.error = "coherence invariant: %s" % problems[0]
    score = score_report_lines(workload,
                               result.report.reported_locations())
    out.report_fp, out.report_fn = score["fp"], score["fn"]
    stats = result.pipeline.stats
    out.counters = {
        "hitm": machine.directory.hitm_count,
        "records_generated": result.pmu.records_generated,
        "records_lost": (result.driver.records_dropped
                         + result.driver.records_shed),
        "records_seen": stats.records_seen,
        "records_admitted": stats.records_admitted,
    }
    return out


def first_difference(digest: dict, reference: dict) -> Optional[str]:
    """The first digest field that differs from the reference, or None."""
    for field in DIGEST_FIELDS:
        if digest.get(field) != reference.get(field):
            return "%s %r != reference %r" % (
                field, digest.get(field), reference.get(field))
    return None


class _Probe:
    __slots__ = ("total", "table")

    def __init__(self):
        self.total = 0
        self.table = {}

    def step(self, i: int) -> int:
        value = (self.total * 1103515245 + i) & 0xFFFFFFFF
        slot = value & 255
        self.table[slot] = self.table.get(slot, 0) + (value >> 7)
        self.total = value
        return slot


#: Probe seconds on the reference host: the fastest decile of
#: ``probe_seconds()`` on the 2-vCPU container the benchmark was
#: defined on.  Host times are reported as seconds on that host.
PROBE_REF_S = 0.0044

#: How strongly cell time follows the probe.  Regressing the log median
#: cell time of runs on the log of their mean probe time gave 0.73-0.94
#: across the workloads' native and monitored parts: when other tenants
#: slow the probe 2x, the simulator slows about 1.8x.
PROBE_EXPONENT = 0.85

#: The same for set-up (imports, page cache, registry): 0.53 over 30
#: runs, so set-up slows only about 1.4x when the probe slows 2x.
SETUP_PROBE_EXPONENT = 0.5


def host_scale(runs: List["CellRun"],
               exponent: float = PROBE_EXPONENT) -> float:
    """The factor taking host seconds of these runs to the reference host.

    Other tenants slow a shared host by up to 2.5x, for spans of a
    second to many minutes.  The probes, timed around every cell,
    sample the host's speed evenly over the runs, so their mean tracks
    the average slowdown the runs saw, while a change to the program
    moves the cells and not the probe.  ``exponent`` is how strongly
    the scaled work follows the probe.
    """
    probes = [p for run in runs for p in run.probes]
    mean_probe = sum(probes) / len(probes)
    return (PROBE_REF_S / mean_probe) ** exponent


def probe_seconds() -> float:
    """Time a fixed pure-Python loop: the host-speed probe.

    It exercises what the simulator's hot paths do (method calls,
    attribute and dict traffic, integer arithmetic, list churn) and no
    code of the program under test, so its time moves only with the
    host.
    """
    t0 = time.perf_counter()
    probe = _Probe()
    queue: List[int] = []
    for i in range(15_000):
        queue.append(probe.step(i))
        if len(queue) > 8:
            queue.pop(0)
    return time.perf_counter() - t0
