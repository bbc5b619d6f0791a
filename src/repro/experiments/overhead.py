"""Figure 10 (runtime overhead) and Figure 12 (LASER time breakdown).

Figure 10: normalized runtime of every benchmark under LASER and under
the VTune baseline, relative to native execution (trimmed mean over
seeds, as the paper averages 10 runs dropping the extremes).  The
paper's headline numbers: LASER geomean 1.02 with kmeans worst at 1.22
and linear_regression/histogram'/lu_ncb *faster* than native (repair and
the lu_ncb layout coincidence); VTune geomean 1.84 with string_match
worst at 7x.

Figure 12: for the highest-overhead benchmarks, the driver and detector
CPU time as a fraction of application CPU time — both are tiny, showing
the overhead is interference, not LASER computation.
"""

from typing import List, Optional

from repro.baselines.vtune import VTuneProfiler
from repro.core.config import LaserConfig
from repro.experiments.runner import (
    DEFAULT_RUNS,
    run_laser_on,
    run_native,
    trimmed_mean,
)
from repro.experiments.tables import geomean, render_bars, render_table
from repro.workloads.registry import all_workloads

__all__ = ["OverheadRow", "OverheadResult", "run_overhead",
           "BreakdownRow", "run_time_breakdown"]


class OverheadRow:
    def __init__(self, name: str, laser_norm: float, vtune_norm: float,
                 laser_repaired: bool):
        self.name = name
        self.laser_norm = laser_norm
        self.vtune_norm = vtune_norm
        self.laser_repaired = laser_repaired


class OverheadResult:
    """Figure 10's data: per-benchmark normalized runtimes + geomeans."""

    def __init__(self, rows: List[OverheadRow]):
        self.rows = rows

    @property
    def laser_geomean(self) -> float:
        return geomean([row.laser_norm for row in self.rows])

    @property
    def vtune_geomean(self) -> float:
        return geomean([row.vtune_norm for row in self.rows])

    def row_for(self, name: str) -> Optional[OverheadRow]:
        for row in self.rows:
            if row.name == name:
                return row
        return None

    def worst_laser(self) -> OverheadRow:
        return max(self.rows, key=lambda r: r.laser_norm)

    def render(self) -> str:
        headers = ["benchmark", "LASER", "VTune", "repaired"]
        body = [
            [r.name, "%.3f" % r.laser_norm, "%.3f" % r.vtune_norm,
             "yes" if r.laser_repaired else ""]
            for r in self.rows
        ]
        body.append(["geomean", "%.3f" % self.laser_geomean,
                     "%.3f" % self.vtune_geomean, ""])
        table = render_table(
            headers, body,
            title="Figure 10: normalized runtime (lower is better)")
        bars = render_bars(
            [r.name for r in self.rows],
            [r.laser_norm for r in self.rows],
            title="\nLASER normalized runtime",
        )
        return table + "\n" + bars


def run_overhead(workloads=None, runs: int = DEFAULT_RUNS,
                 scale: float = 1.0,
                 config: Optional[LaserConfig] = None) -> OverheadResult:
    rows = []
    for workload in workloads or all_workloads():
        native = trimmed_mean([
            float(run_native(workload, seed=s, scale=scale).cycles)
            for s in range(runs)
        ])
        laser_runs = [
            run_laser_on(workload, seed=s, scale=scale, config=config)
            for s in range(runs)
        ]
        laser = trimmed_mean([float(r.cycles) for r in laser_runs])
        vtune = trimmed_mean([
            float(VTuneProfiler(seed=s).run_workload(workload, scale=scale).cycles)
            for s in range(runs)
        ])
        rows.append(OverheadRow(
            workload.name,
            laser / native,
            vtune / native,
            any(r.repaired for r in laser_runs),
        ))
    return OverheadResult(rows)


class BreakdownRow:
    """Figure 12: one high-overhead benchmark's LASER time breakdown."""

    def __init__(self, name: str, slowdown: float, driver_pct: float,
                 detector_pct: float):
        self.name = name
        self.slowdown = slowdown
        self.driver_pct = driver_pct
        self.detector_pct = detector_pct


class BreakdownResult:
    def __init__(self, rows: List[BreakdownRow]):
        self.rows = rows

    def render(self) -> str:
        headers = ["benchmark", "slowdown", "driver %", "detector %"]
        body = [
            [r.name, "%.2fx" % r.slowdown, "%.2f%%" % r.driver_pct,
             "%.2f%%" % r.detector_pct]
            for r in self.rows
        ]
        return render_table(
            headers, body,
            title="Figure 12: driver/detector share of application CPU time",
        )


def run_time_breakdown(names=("kmeans", "x264", "water_nsquared"),
                       seed: int = 0, scale: float = 1.0) -> BreakdownResult:
    """Figure 12 for the benchmarks the paper highlights."""
    from repro.workloads.registry import get_workload

    rows = []
    for name in names:
        workload = get_workload(name)
        native = run_native(workload, seed=seed, scale=scale)
        laser = run_laser_on(workload, seed=seed, scale=scale)
        app_cpu = max(1, laser.application_cpu_cycles)
        rows.append(BreakdownRow(
            name,
            laser.cycles / native.cycles,
            100.0 * laser.driver_cycles / app_cpu,
            100.0 * laser.detector_cycles / app_cpu,
        ))
    return BreakdownResult(rows)


if __name__ == "__main__":  # pragma: no cover
    result = run_overhead(runs=3)
    print(result.render())
    print()
    print(run_time_breakdown().render())
