"""Phoenix 1.0 benchmark analogs (Section 7's workload suite).

Each class reproduces the sharing character the paper documents for its
namesake:

* ``linear_regression`` — intense write-write false sharing on the
  unaligned 64-byte ``lreg_args`` structs (Figure 2); the compiler's
  register caching of the fields removes the loads, leaving blind
  stores at the end of every loop iteration (Section 7.4.1).
* ``histogram`` / ``histogram'`` — input-dependent false sharing on
  adjacent thread-private counter arrays.
* ``kmeans`` — no false sharing at all, but two kinds of true sharing:
  a repeatedly-set global ``modified`` flag, and migratory read-write
  sharing on short-lived ``sum`` heap objects handed from the main
  thread to workers (Section 7.4.2).
* ``reverse_index`` / ``word_count`` — false sharing on the ``use_len``
  array (minor for reverse_index; fixing word_count's does not move
  performance at all, so it is *not* in the bug database and LASER's
  correct report of it counts as a false positive, as in Table 1).
* ``matrix_multiply`` / ``pca`` / ``string_match`` — no contention
  bugs; string_match's large read-only dictionary is written by the
  main thread and then scanned by workers, producing a high *volume* of
  one-shot HITM events spread thinly over many lines — harmless, but
  deadly for an interrupt-per-event profiler (the VTune 7x case).
"""

from typing import List

from repro.core.detect.report import ContentionClass
from repro.isa.assembler import Assembler
from repro.isa.program import Program, SourceLocation
from repro.rng import RngStreams
from repro.sim.allocator import Allocator
from repro.workloads.base import (
    BugRecord,
    BuiltWorkload,
    SheriffSupport,
    Workload,
    iterations,
)
from repro.workloads.templates import (
    emit_counter_increment,
    emit_handoff_read,
    emit_private_stream,
    emit_startup_handoff_writes,
)

__all__ = [
    "LinearRegression",
    "Histogram",
    "HistogramPrime",
    "Kmeans",
    "MatrixMultiply",
    "Pca",
    "ReverseIndex",
    "StringMatch",
    "WordCount",
    "PHOENIX_WORKLOADS",
]


class LinearRegression(Workload):
    """False sharing on the ``lreg_args`` array (Figure 2)."""

    name = "linear_regression"
    suite = "phoenix"
    FILE = "linear_regression.c"
    # The compiler emits the five field write-backs as two fused store
    # groups (one statement block in the source).
    STORE_LINES = [118, 118, 118, 119, 119]
    bugs = [
        BugRecord(
            [
                SourceLocation("linear_regression.c", 118),
                SourceLocation("linear_regression.c", 119),
            ],
            ContentionClass.FALSE_SHARING,
            "lreg_args structs for two threads share a cache line; the "
            "compiler caches SX..SXY in registers but stores them every "
            "iteration (write-write false sharing)",
            significant=True,
            sheriff_detects=False,  # Sheriff-Detect misses it (Table 1)
        )
    ]
    sheriff_support = SheriffSupport.OK

    def build(self, heap_offset: int = 0, seed: int = 0, scale: float = 1.0,
              align_args: bool = False) -> BuiltWorkload:
        allocator = Allocator(base_offset=heap_offset)
        iters = iterations(1200, scale)
        points = [
            allocator.malloc(iters * 16, label="points[%d]" % tid)
            for tid in range(self.num_threads)
        ]
        # One 64-byte struct per thread; 16-byte default alignment means
        # the array generally straddles cache lines (the bug).  The
        # manual fix aligns it to a line boundary.
        args = allocator.malloc(
            self.num_threads * 64,
            align=64 if align_args else 16,
            label="lreg_args",
        )
        threads = [
            self._worker(tid, points[tid], args + tid * 64, iters)
            for tid in range(self.num_threads)
        ]
        rng = RngStreams(seed).stream("lreg-points")
        init_writes = []
        for tid in range(self.num_threads):
            for i in range(0, iters, 7):  # sparse nonzero data is enough
                init_writes.append((points[tid] + i * 16, rng.randrange(100), 8))
                init_writes.append((points[tid] + i * 16 + 8, rng.randrange(100), 8))
        program = Program(self.name, threads)
        return BuiltWorkload(program, allocator, init_writes)

    def build_fixed(self, heap_offset: int = 0, seed: int = 0,
                    scale: float = 1.0) -> BuiltWorkload:
        return self.build(heap_offset, seed, scale, align_args=True)

    def _worker(self, tid: int, points: int, my_args: int, iters: int):
        asm = Assembler("lreg_worker_%d" % tid)
        asm.at(self.FILE, 100)
        asm.mov("r1", points)       # point cursor
        asm.mov("r0", iters)
        # SX..SXY cached in r3..r7 (the -O3 register caching).
        for reg in ("r3", "r4", "r5", "r6", "r7"):
            asm.mov(reg, 0)
        asm.label("loop")
        asm.at(self.FILE, 110)
        asm.load("r8", "r1", size=8)            # x
        asm.load("r9", "r1", offset=8, size=8)  # y
        asm.at(self.FILE, 112)
        asm.add("r3", "r3", "r8")               # SX += x
        asm.add("r4", "r4", "r9")               # SY += y
        asm.mul("r10", "r8", "r9")
        asm.add("r5", "r5", "r8")               # SXX (strength-reduced)
        asm.add("r6", "r6", "r9")               # SYY (strength-reduced)
        asm.add("r7", "r7", "r10")              # SXY += x*y
        # The write-back of every field, each iteration (the bug).
        asm.mov("r2", my_args)
        for i, (line, reg) in enumerate(
            zip(self.STORE_LINES, ("r3", "r4", "r5", "r6", "r7"))
        ):
            asm.at(self.FILE, line)
            asm.store("r2", reg, offset=24 + 8 * i, size=8)
        asm.at(self.FILE, 125)
        asm.add("r1", "r1", 16)
        asm.sub("r0", "r0", 1)
        asm.bne("r0", 0, "loop")
        asm.halt()
        return asm.build()


class _HistogramBase(Workload):
    """Shared implementation for histogram and histogram'."""

    suite = "phoenix"
    FILE = "histogram.c"
    INC_LINE = 77

    #: Whether the input drives threads into the boundary buckets.
    accentuate_false_sharing = False

    def build(self, heap_offset: int = 0, seed: int = 0, scale: float = 1.0,
              align_bins: bool = False) -> BuiltWorkload:
        allocator = Allocator(base_offset=heap_offset)
        pixels_per_thread = iterations(1400, scale)
        num_buckets = 64  # 64 x 4B counters = 256 B per thread
        pixel_arrays = [
            allocator.malloc(pixels_per_thread, label="pixels[%d]" % tid)
            for tid in range(self.num_threads)
        ]
        bins = allocator.malloc(
            self.num_threads * num_buckets * 4,
            align=64 if align_bins else 16,
            label="histogram_bins",
        )
        rng = RngStreams(seed).stream("histogram-pixels")
        init_writes = []
        for tid in range(self.num_threads):
            for i in range(pixels_per_thread):
                if self.accentuate_false_sharing:
                    # Dark/bright image: even threads hit their top
                    # buckets, odd threads their bottom buckets, so all
                    # traffic lands on the lines straddling adjacent
                    # per-thread arrays.
                    if rng.random() < 0.5:
                        value = 8 + rng.randrange(num_buckets - 16)
                    elif tid % 2 == 0:
                        value = num_buckets - 1 - rng.randrange(3)
                    else:
                        value = rng.randrange(3)
                else:
                    # The standard image's values land in mid-range
                    # buckets, away from the array-boundary lines — on
                    # our layout the default input exhibits no false
                    # sharing, as the paper observes.
                    value = 8 + rng.randrange(num_buckets - 16)
                init_writes.append((pixel_arrays[tid] + i, value, 1))
        threads = [
            self._worker(tid, pixel_arrays[tid],
                         bins + tid * num_buckets * 4, pixels_per_thread)
            for tid in range(self.num_threads)
        ]
        program = Program(self.name, threads)
        return BuiltWorkload(program, allocator, init_writes)

    def _worker(self, tid: int, pixels: int, my_bins: int, count: int):
        asm = Assembler("hist_worker_%d" % tid)
        asm.at(self.FILE, 70)
        asm.mov("r1", pixels)
        asm.mov("r0", count)
        asm.label("loop")
        asm.at(self.FILE, 74)
        asm.load("r2", "r1", size=1)        # pixel value = bucket
        asm.at(self.FILE, 75)
        asm.shl("r2", "r2", 2)              # bucket * 4
        asm.add("r2", "r2", my_bins)        # &bins[tid][bucket]
        asm.at(self.FILE, self.INC_LINE)
        emit_counter_increment(asm, "r2", size=4)
        asm.at(self.FILE, 79)
        asm.add("r1", "r1", 1)
        asm.sub("r0", "r0", 1)
        asm.bne("r0", 0, "loop")
        asm.halt()
        return asm.build()


class Histogram(_HistogramBase):
    """Standard input: no false sharing manifests on our layout."""

    name = "histogram"
    bugs: List[BugRecord] = []
    sheriff_support = SheriffSupport.OK


class HistogramPrime(_HistogramBase):
    """Alternative input accentuating the latent false sharing."""

    name = "histogram'"
    accentuate_false_sharing = True
    bugs = [
        BugRecord(
            [SourceLocation(_HistogramBase.FILE, _HistogramBase.INC_LINE)],
            ContentionClass.FALSE_SHARING,
            "unpadded thread-private histogram counters share the cache "
            "lines straddling adjacent per-thread arrays",
            significant=True,
            sheriff_detects=False,  # Sheriff-Detect reports nothing (Table 1)
        )
    ]
    sheriff_support = SheriffSupport.OK

    def build_fixed(self, heap_offset: int = 0, seed: int = 0,
                    scale: float = 1.0) -> BuiltWorkload:
        # Manual fix: pad/align each thread's counters to a line boundary.
        return self.build(heap_offset, seed, scale, align_bins=True)


class Kmeans(Workload):
    """Migratory true sharing; no false sharing at all (Section 7.4.2)."""

    name = "kmeans"
    suite = "phoenix"
    FILE = "kmeans.c"
    FLAG_LINE = 193       # "threads repeatedly ... set the global modified flag"
    SUM_READ_LINE = 210   # workers read main-thread-written sum objects
    SUM_WRITE_LINE = 214
    MAIN_REDUCE_LINE = 165

    bugs = [
        BugRecord(
            [
                SourceLocation(FILE, FLAG_LINE),
                SourceLocation(FILE, SUM_READ_LINE),
                SourceLocation(FILE, SUM_WRITE_LINE),
            ],
            ContentionClass.TRUE_SHARING,
            "two new true-sharing sources found by LASER: the global "
            "`modified` flag redundantly updated by every worker "
            "iteration, and migratory read-write sharing on sum heap "
            "objects allocated on the main thread and instantly handed "
            "off to workers (ill-suited to sampling-based detectors)",
            significant=True,
            sheriff_detects=False,
        ),
    ]
    sheriff_support = SheriffSupport.CRASH

    def build(self, heap_offset: int = 0, seed: int = 0, scale: float = 1.0,
              fixed: bool = False) -> BuiltWorkload:
        allocator = Allocator(base_offset=heap_offset)
        batches = iterations(120, scale)
        workers = self.num_threads - 1
        # One line-aligned sum object per (batch, worker): fresh
        # addresses all run long (the migratory pattern).  Objects are
        # 64 bytes apart: kmeans has *no* false sharing (Section 7.4.2).
        objects = allocator.malloc(batches * workers * 64, align=64,
                                   label="sum_objects")
        flags = allocator.malloc(64 * workers * 2, align=64, label="flags")
        modified_flag = allocator.malloc(8, align=64, label="modified")
        ready = [flags + 128 * w for w in range(workers)]
        done = [flags + 128 * w + 64 for w in range(workers)]
        threads = [self._main(objects, ready, done, modified_flag,
                              batches, workers, fixed)]
        for w in range(workers):
            threads.append(
                self._worker(w, objects, ready[w], done[w], modified_flag,
                             batches, workers, fixed)
            )
        program = Program(self.name, threads)
        return BuiltWorkload(program, allocator, [])

    def build_fixed(self, heap_offset: int = 0, seed: int = 0,
                    scale: float = 1.0) -> BuiltWorkload:
        """The paper's manual fix: sum objects on each worker's stack.

        The `modified`-flag true sharing is left in place — Section 7.4.2
        attributes the 5% improvement to the stack allocation of the sum
        objects alone.
        """
        return self.build(heap_offset, seed, scale, fixed=True)

    def _main(self, objects: int, ready: List[int], done: List[int],
              modified_flag: int, batches: int, workers: int, fixed: bool):
        asm = Assembler("kmeans_main")
        asm.at(self.FILE, 140)
        asm.mov("r0", 0)  # batch counter
        asm.label("batch")
        # Allocate-and-initialize this batch's sum objects, then publish.
        for w in range(workers):
            asm.at(self.FILE, 150)
            asm.mov("r1", 0)  # placeholder; address computed per batch
            # obj = objects + (batch*workers + w) * 64
            asm.mov("r2", workers)
            asm.mul("r1", "r0", "r2")
            asm.add("r1", "r1", w)
            asm.shl("r1", "r1", 6)
            asm.add("r1", "r1", objects)
            asm.at(self.FILE, 152)
            if not fixed:
                asm.store("r1", 11, offset=0, size=8)
                asm.store("r1", 22, offset=8, size=8)
                asm.store("r1", 33, offset=16, size=8)
        for w in range(workers):
            asm.at(self.FILE, 156)
            asm.mov("r3", ready[w])
            asm.add("r4", "r0", 1)
            asm.store("r3", "r4", size=8)
        # Wait for all workers to finish the batch.
        for w in range(workers):
            asm.at(self.FILE, 160)
            asm.mov("r3", done[w])
            asm.add("r4", "r0", 1)
            asm.label("wait_%d" % w)
            asm.load("r5", "r3", size=8)
            asm.bge("r5", "r4", "ready_%d" % w)
            asm.pause()
            asm.jmp("wait_%d" % w)
            asm.label("ready_%d" % w)
        # Reduce the workers' results (reads lines they modified).
        asm.mov("r6", 0)
        for w in range(workers):
            asm.at(self.FILE, self.MAIN_REDUCE_LINE)
            asm.mov("r2", workers)
            asm.mul("r1", "r0", "r2")
            asm.add("r1", "r1", w)
            asm.shl("r1", "r1", 6)
            asm.add("r1", "r1", objects)
            asm.load("r7", "r1", offset=24, size=8)
            asm.add("r6", "r6", "r7")
        asm.at(self.FILE, 170)
        asm.add("r0", "r0", 1)
        asm.blt("r0", batches, "batch")
        asm.halt()
        return asm.build()

    def _worker(self, w: int, objects: int, ready: int, done: int,
                modified_flag: int, batches: int, workers: int, fixed: bool):
        asm = Assembler("kmeans_worker_%d" % w)
        asm.at(self.FILE, 200)
        asm.mov("r0", 0)  # batch counter
        asm.label("batch")
        asm.mov("r3", ready)
        asm.add("r4", "r0", 1)
        asm.label("wait")
        asm.at(self.FILE, 204)
        asm.load("r5", "r3", size=8)
        asm.bge("r5", "r4", "go")
        asm.pause()
        asm.jmp("wait")
        asm.label("go")
        # obj = objects + (batch*workers + w) * 64
        asm.mov("r2", workers)
        asm.mul("r1", "r0", "r2")
        asm.add("r1", "r1", w)
        asm.shl("r1", "r1", 6)
        asm.add("r1", "r1", objects)
        asm.at(self.FILE, self.SUM_READ_LINE)
        if fixed:
            # Fix: sums start on the worker's own stack; no reads of
            # main-thread-written heap objects.
            asm.load("r6", "r15", offset=-32, size=8)
            asm.load("r7", "r15", offset=-24, size=8)
            asm.load("r8", "r15", offset=-16, size=8)
        else:
            asm.load("r6", "r1", offset=0, size=8)   # HITM: main wrote these
            asm.load("r7", "r1", offset=8, size=8)
            asm.load("r8", "r1", offset=16, size=8)
        asm.add("r6", "r6", "r7")
        asm.add("r6", "r6", "r8")
        asm.at(self.FILE, self.SUM_WRITE_LINE)
        asm.addm("r1", "r6", offset=24, size=8)   # obj->sum += local (RMW)
        # Private clustering work between hand-offs, with the redundant
        # flag update repeated mid-batch ("threads repeatedly and
        # redundantly set the global modified flag to true").  The flag
        # update is modelled as `or $1, (modified)` — a memory-
        # destination RMW rather than a blind store — so the detector's
        # evidence volume matches the real system's statistics at our
        # much shorter simulated runs (see DESIGN.md calibration notes).
        # The flag bug stays even in the "fixed" variant: the paper's
        # 5% manual fix is the sum-object stack allocation only
        # (Section 7.4.2).
        asm.mov("r9", modified_flag)
        asm.mov("r10", 12)
        asm.label("work")
        asm.mul("r6", "r6", 3)
        asm.at(self.FILE, self.FLAG_LINE)
        asm.addm("r9", 0, size=8)
        asm.at(self.FILE, 218)
        asm.sub("r10", "r10", 1)
        asm.bne("r10", 0, "work")
        if fixed and w == 0:
            # The fix: one flag write per batch by a single thread.
            asm.at(self.FILE, self.FLAG_LINE)
            asm.mov("r9", modified_flag)
            asm.store("r9", 1, size=8)
        asm.at(self.FILE, 220)
        asm.mov("r3", done)
        asm.add("r4", "r0", 1)
        asm.store("r3", "r4", size=8)
        asm.add("r0", "r0", 1)
        asm.blt("r0", batches, "batch")
        asm.halt()
        return asm.build()


class MatrixMultiply(Workload):
    """Row-partitioned matmul: read-shared inputs, private outputs."""

    name = "matrix_multiply"
    suite = "phoenix"
    FILE = "matrix_multiply.c"
    bugs: List[BugRecord] = []
    sheriff_support = SheriffSupport.OK

    def build(self, heap_offset: int = 0, seed: int = 0,
              scale: float = 1.0) -> BuiltWorkload:
        allocator = Allocator(base_offset=heap_offset)
        shared_b = allocator.malloc(64 * 400, label="matrix_b")
        outputs = [
            allocator.malloc(8 * 2048, align=64, label="c_rows[%d]" % tid)
            for tid in range(self.num_threads)
        ]
        n = iterations(2600, scale)
        handoff_lines = iterations(120, scale)
        threads = []
        for tid in range(self.num_threads):
            asm = Assembler("mm_worker_%d" % tid)
            asm.at(self.FILE, 50)
            if tid == 0:
                emit_startup_handoff_writes(asm, shared_b, handoff_lines, "b")
            asm.at(self.FILE, 60 + tid)
            # Everyone reads B (one-shot HITMs from t0's writes, then
            # read-shared), accumulating into private C rows.
            emit_handoff_read(asm, shared_b, handoff_lines, "readb")
            asm.at(self.FILE, 72)
            emit_private_stream(asm, outputs[tid], n, "crow",
                                alu_ops=3, do_store=True)
            asm.halt()
            threads.append(asm.build())
        program = Program(self.name, threads)
        return BuiltWorkload(program, allocator, [])


class Pca(Workload):
    """Covariance over row-partitioned data: essentially no sharing."""

    name = "pca"
    suite = "phoenix"
    FILE = "pca.c"
    bugs: List[BugRecord] = []
    sheriff_support = SheriffSupport.OK

    def build(self, heap_offset: int = 0, seed: int = 0,
              scale: float = 1.0) -> BuiltWorkload:
        allocator = Allocator(base_offset=heap_offset)
        rows = [
            allocator.malloc(8 * 4096, align=64, label="rows[%d]" % tid)
            for tid in range(self.num_threads)
        ]
        n = iterations(2400, scale)
        threads = []
        for tid in range(self.num_threads):
            asm = Assembler("pca_worker_%d" % tid)
            asm.at(self.FILE, 90)
            emit_private_stream(asm, rows[tid], n, "mean", alu_ops=2)
            asm.at(self.FILE, 104)
            emit_private_stream(asm, rows[tid], n // 2, "cov", alu_ops=4,
                                do_store=True)
            asm.halt()
            threads.append(asm.build())
        program = Program(self.name, threads)
        return BuiltWorkload(program, allocator, [])


class _UseLenBase(Workload):
    """Shared shape for reverse_index / word_count: the use_len FS idiom."""

    suite = "phoenix"
    FILE = "stddefines.h"
    INC_LINE = 0          # set by subclasses
    inner_private_work = 55
    outer_iters_base = 290

    def build(self, heap_offset: int = 0, seed: int = 0, scale: float = 1.0,
              pad_use_len: bool = False) -> BuiltWorkload:
        allocator = Allocator(base_offset=heap_offset)
        stride = 64 if pad_use_len else 8
        use_len = allocator.malloc(
            self.num_threads * stride, align=64 if pad_use_len else 16,
            label="use_len",
        )
        links = [
            allocator.malloc(8 * 4096, label="links[%d]" % tid)
            for tid in range(self.num_threads)
        ]
        outer = iterations(self.outer_iters_base, scale)
        threads = []
        for tid in range(self.num_threads):
            asm = Assembler("%s_worker_%d" % (self.name, tid))
            asm.at(self.FILE, 40)
            asm.mov("r0", outer)
            asm.mov("r3", links[tid])
            asm.label("outer")
            # Private parsing work between counter updates.
            asm.at(self.FILE, 44)
            asm.mov("r4", self.inner_private_work)
            asm.label("inner")
            asm.load("r5", "r3", size=8)
            asm.add("r5", "r5", 1)
            asm.add("r3", "r3", 8)
            asm.sub("r4", "r4", 1)
            asm.bne("r4", 0, "inner")
            # The falsely-shared counter increment.
            asm.at(self.FILE, self.INC_LINE)
            asm.mov("r2", use_len + tid * stride)
            emit_counter_increment(asm, "r2", size=8)
            asm.at(self.FILE, 52)
            asm.sub("r0", "r0", 1)
            asm.bne("r0", 0, "outer")
            asm.halt()
            threads.append(asm.build())
        program = Program(self.name, threads)
        return BuiltWorkload(program, allocator, [])

    def build_fixed(self, heap_offset: int = 0, seed: int = 0,
                    scale: float = 1.0) -> BuiltWorkload:
        return self.build(heap_offset, seed, scale, pad_use_len=True)


class ReverseIndex(_UseLenBase):
    """Minor false sharing on use_len[]; found but not worth auto-repair."""

    name = "reverse_index"
    FILE = "reverse_index.c"
    INC_LINE = 88
    bugs = [
        BugRecord(
            [SourceLocation(FILE, INC_LINE)],
            ContentionClass.FALSE_SHARING,
            "per-thread use_len counters share one cache line; minor "
            "(manual padding buys ~4%)",
            significant=True,
            # Sheriff sees the data but attributes it to the malloc
            # wrapper allocation site, not these lines (Section 7.1) —
            # so the site report is an FP and the bug still an FN.
            sheriff_detects=True,
        )
    ]
    sheriff_support = SheriffSupport.OK


class WordCount(_UseLenBase):
    """Same idiom, but fixing it does not change performance at all.

    Hence there is no entry in the performance-bug database and LASER's
    (correct) report of this line is scored as a false positive, exactly
    as in Table 1.
    """

    name = "word_count"
    FILE = "word_count.c"
    INC_LINE = 61
    inner_private_work = 54
    outer_iters_base = 230
    bugs: List[BugRecord] = []
    sheriff_support = SheriffSupport.CRASH


class StringMatch(Workload):
    """No bugs; huge one-shot HITM volume from the dictionary handoff."""

    name = "string_match"
    suite = "phoenix"
    FILE = "string_match.c"
    bugs: List[BugRecord] = []
    sheriff_support = SheriffSupport.OK

    def build(self, heap_offset: int = 0, seed: int = 0,
              scale: float = 1.0) -> BuiltWorkload:
        allocator = Allocator(base_offset=heap_offset)
        dictionary = allocator.malloc(64 * 2600, align=64, label="dictionary")
        keys = [
            allocator.malloc(8 * 4096, label="keys[%d]" % tid)
            for tid in range(self.num_threads)
        ]
        dict_lines = iterations(400, scale)
        compare_iters = iterations(2600, scale)
        threads = []
        for tid in range(self.num_threads):
            asm = Assembler("sm_worker_%d" % tid)
            asm.at(self.FILE, 30)
            if tid == 0:
                # Main thread "encrypts" the dictionary in place.
                emit_startup_handoff_writes(asm, dictionary, dict_lines, "dict")
            # Every worker scans the whole dictionary: line after line
            # of one-shot HITMs against thread 0's modified lines.  The
            # scan is spread across many source lines (the inlined
            # compare helpers of the real benchmark), so no single line
            # accumulates a reportable HITM rate — high HITM *volume*
            # with no performance bug, the worst case for an
            # interrupt-per-event profiler.
            chunk = dict_lines // 10
            for part in range(10):
                asm.at(self.FILE, 40 + part)
                emit_handoff_read(
                    asm,
                    dictionary + part * chunk * 64,
                    chunk,
                    "scan%d" % part,
                )
            # The encrypted-compare loop: nearly one load per cycle,
            # which is what makes an interrupt-per-sample profiler
            # catastrophic here (Figure 10's 7x VTune outlier).
            asm.at(self.FILE, 55)
            asm.mov("r1", keys[tid])
            asm.mov("r0", compare_iters)
            asm.label("cmp")
            asm.load("r5", "r1", size=8)
            asm.load("r6", "r1", offset=8, size=8)
            asm.load("r7", "r1", offset=16, size=8)
            asm.load("r8", "r1", offset=24, size=8)
            asm.load("r9", "r1", offset=32, size=8)
            asm.load("r10", "r1", offset=40, size=8)
            asm.add("r1", "r1", 48)
            asm.sub("r0", "r0", 1)
            asm.bne("r0", 0, "cmp")
            asm.halt()
            threads.append(asm.build())
        program = Program(self.name, threads)
        return BuiltWorkload(program, allocator, [])


PHOENIX_WORKLOADS = [
    Histogram,
    HistogramPrime,
    Kmeans,
    LinearRegression,
    MatrixMultiply,
    Pca,
    ReverseIndex,
    StringMatch,
    WordCount,
]
