"""Shared run helpers for the experiment harnesses.

The paper presents performance as "the average of 10 runs, after
excluding the slowest and fastest runs".  We keep the same *averaging
discipline* (trimmed mean: drop min and max) but default to 5 seeds
rather than 10 runs — see ``DEFAULT_RUNS`` for the rationale.  Every
experiment entry point (``run_overhead``, ``run_speedups``,
``run_sav_sweep``) accepts ``runs`` and threads it through to these
helpers, so a config that wants the paper's full 10 can ask for it.

:class:`SweepRunner` is the single fan-out path for every multi-run
experiment: the chaos soak, the threshold sweep and the control
frontier all shard their (workload, seed, …) cells over one
``ProcessPoolExecutor`` instead of hand-rolling three bespoke serial
loops.  Cells are independent and seed-deterministic, and the merge
preserves submission order, so results are byte-identical at any
worker count — parallelism changes wall-clock only.
"""

import os
import time
from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.config import LaserConfig
from repro.core.laser import Laser, LaserRunResult
from repro.sim.machine import Machine, RunResult
from repro.workloads.base import BuiltWorkload, Workload

__all__ = [
    "run_native",
    "run_built_native",
    "run_laser_on",
    "native_cycles",
    "laser_cycles",
    "average_cycles",
    "trimmed_mean",
    "DEFAULT_RUNS",
    "SweepRunner",
]

#: Seeds per measurement.  The paper averages 10 *runs* of a >1 minute
#: native binary; our analog of run-to-run variation is seed variation
#: in a simulator whose runs are deterministic per seed, and 5 seeds
#: (trimmed to the middle 3) already stabilizes the trimmed mean to
#: well under the 1-2% effects the experiments care about, at half the
#: suite wall-clock.  Pass ``runs=10`` to any experiment entry point to
#: reproduce the paper's count exactly.
DEFAULT_RUNS = 5


class SweepRunner:
    """Deterministic parallel fan-out over independent experiment cells.

    ``map(fn, cells)`` applies a module-level (picklable) ``fn`` to
    every cell and returns the results *in cell order* — the merge is
    deterministic regardless of which worker finished first, so a
    sweep's output is identical at any worker count.

    ``workers=None`` sizes the pool to the host (``os.cpu_count``);
    ``workers<=1`` — or a single cell — runs serially in-process with
    no pool at all.  Environments that forbid subprocess pools (some
    sandboxes block the semaphores ``ProcessPoolExecutor`` needs) fall
    back to the serial path with accounting in ``used_workers``.

    The process pool is created lazily on the first pooled ``map`` and
    *reused* across subsequent maps — a soak that loops over schedules
    pays worker spawn once, not once per schedule.  ``close()`` (or
    using the runner as a context manager) shuts the pool down; an
    unclosed pool is reaped with the runner.

    Workers receive *cell specs* (names, seeds, configs — small
    picklable values) and build the heavy objects themselves; results
    should likewise be reduced, picklable summaries, not live machines.

    Every ``map`` also records how much host wall-clock each cell cost
    (``cell_seconds``, measured inside the worker) so sweeps can report
    their own price — a pure observation that leaves results untouched.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        #: Pool width actually used by the last ``map`` (1 = serial).
        self.used_workers = 1
        #: Per-cell host wall-clock seconds of the last ``map``, in
        #: cell order (measured in the worker, so pool scheduling gaps
        #: are excluded).
        self.cell_seconds: List[float] = []
        #: Wall-clock seconds the last ``map`` took end to end on the
        #: submitting side (what the operator actually waited).
        self.elapsed_seconds = 0.0
        #: Lifetime accounting across every ``map`` this runner ran —
        #: what a multi-schedule soak reports at the end.
        self.maps_run = 0
        self.lifetime_cell_seconds = 0.0
        self.lifetime_elapsed_seconds = 0.0
        #: The shared ``ProcessPoolExecutor`` (see ``_ensure_pool``).
        self._pool = None
        self._pool_unavailable = False

    def map(self, fn: Callable, cells: Iterable) -> List:
        cells = list(cells)
        timed_fn = _Timed(fn)
        t0 = time.perf_counter()
        timed = self._dispatch(timed_fn, cells)
        self.elapsed_seconds = time.perf_counter() - t0
        self.cell_seconds = [seconds for seconds, _ in timed]
        self.maps_run += 1
        self.lifetime_cell_seconds += sum(s for s, _ in timed)
        self.lifetime_elapsed_seconds += self.elapsed_seconds
        return [result for _, result in timed]

    def _dispatch(self, fn: Callable, cells: List) -> List:
        width = min(self.workers, len(cells))
        if width <= 1:
            self.used_workers = 1
            return [fn(cell) for cell in cells]
        pool = self._ensure_pool()
        if pool is None:
            self.used_workers = 1
            return [fn(cell) for cell in cells]
        from concurrent.futures import BrokenExecutor

        try:
            results = list(pool.map(fn, cells))
        except (OSError, BrokenExecutor):
            # The pool died under us (host revoked subprocess rights
            # mid-soak, or a worker process died): drop it and degrade
            # to the serial path rather than failing the sweep.
            self._pool_unavailable = True
            self.close()
            self.used_workers = 1
            return [fn(cell) for cell in cells]
        self.used_workers = width
        return results

    def _ensure_pool(self):
        """The shared pool, created on first pooled map and reused.

        Returns ``None`` where subprocess pools are unavailable (some
        sandboxes block the semaphores ``ProcessPoolExecutor`` needs, or
        lack ``multiprocessing.synchronize``, and the pool raises
        ``NotImplementedError``) — the decision is remembered, so a soak
        probes the host once.  The pool's module is imported here, so a
        run that never fans out never loads ``multiprocessing``.
        """
        if self._pool is None and not self._pool_unavailable:
            from concurrent.futures import ProcessPoolExecutor

            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, NotImplementedError):
                self._pool_unavailable = True
        return self._pool

    def close(self) -> None:
        """Shut the shared pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        # A runner that failed validation in __init__ has no pool slot.
        if getattr(self, "_pool", None) is not None:
            self.close()

    def starmap(self, fn: Callable, cells: Iterable[Sequence]) -> List:
        """``map`` for cells that are argument tuples."""
        return self.map(_Star(fn), cells)

    @property
    def total_cell_seconds(self) -> float:
        """Summed per-cell cost of the last ``map`` (CPU-time-ish: what
        the cells cost, as opposed to what the operator waited)."""
        return sum(self.cell_seconds)

    def cost_summary(self) -> str:
        """One line of sweep-cost accounting for CLI footers."""
        cells = len(self.cell_seconds)
        if not cells:
            return "sweep cost: no cells run"
        worst = max(self.cell_seconds)
        line = (
            "sweep cost: %d cells, %.2fs total cell time "
            "(max %.2fs/cell), %.2fs elapsed on %d worker(s)"
            % (cells, self.total_cell_seconds, worst,
               self.elapsed_seconds, self.used_workers)
        )
        if self.maps_run > 1:
            line += ("; lifetime: %d maps, %.2fs cell time, %.2fs elapsed"
                     % (self.maps_run, self.lifetime_cell_seconds,
                        self.lifetime_elapsed_seconds))
        return line

    def __repr__(self):
        return "<SweepRunner workers=%d>" % self.workers


class _Star:
    """Picklable adapter: unpack one cell tuple into ``fn(*cell)``."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, cell):
        return self.fn(*cell)


class _Timed:
    """Picklable adapter: time one cell in the worker.

    Returns ``(seconds, result)``; the runner strips the timing before
    handing results back, so sweep outputs are byte-identical to the
    untimed path.
    """

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, cell):
        t0 = time.perf_counter()
        result = self.fn(cell)
        return time.perf_counter() - t0, result


def run_built_native(built: BuiltWorkload, seed: int = 0,
                     max_cycles: int = 200_000_000) -> RunResult:
    """Execute a built workload with no monitoring attached."""
    machine = Machine(built.program, seed=seed, allocator=built.allocator)
    built.apply_init(machine)
    return machine.run(max_cycles=max_cycles)


def run_native(workload: Workload, seed: int = 0,
               scale: float = 1.0) -> RunResult:
    built = workload.build(heap_offset=0, seed=seed, scale=scale)
    return run_built_native(built, seed=seed)


def run_laser_on(workload: Workload, seed: int = 0, scale: float = 1.0,
                 config: Optional[LaserConfig] = None) -> LaserRunResult:
    cfg = (config or LaserConfig()).replace(seed=seed)
    return Laser(cfg).run_workload(workload, scale=scale)


def trimmed_mean(values: List[float]) -> float:
    """Mean after dropping the min and max (the paper's averaging)."""
    if not values:
        raise ValueError("no values to average")
    if len(values) <= 2:
        return sum(values) / len(values)
    ordered = sorted(values)
    trimmed = ordered[1:-1]
    return sum(trimmed) / len(trimmed)


def average_cycles(run: Callable[[int], int], runs: int = DEFAULT_RUNS) -> float:
    """Trimmed-mean cycles of ``run(seed)`` over ``runs`` seeds.

    ``runs`` is caller-facing on purpose: experiment configs that want
    the paper's 10-run averaging (or a quick 3-run smoke) pass it down
    rather than relying on the module default.
    """
    return trimmed_mean([float(run(seed)) for seed in range(runs)])


def native_cycles(workload: Workload, scale: float = 1.0,
                  runs: int = DEFAULT_RUNS) -> float:
    """Trimmed-mean native cycles over ``runs`` seeds."""
    return average_cycles(
        lambda seed: run_native(workload, seed=seed, scale=scale).cycles,
        runs=runs,
    )


def laser_cycles(workload: Workload, scale: float = 1.0,
                 runs: int = DEFAULT_RUNS,
                 config: Optional[LaserConfig] = None) -> float:
    """Trimmed-mean LASER-on cycles over ``runs`` seeds."""
    return average_cycles(
        lambda seed: run_laser_on(
            workload, seed=seed, scale=scale, config=config
        ).cycles,
        runs=runs,
    )
