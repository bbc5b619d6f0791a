"""LASERREPAIR orchestration.

The manager is invoked by LASERDETECT with the PCs involved in false
sharing (Section 4.4).  It analyzes each thread, checks profitability,
rewrites the code, and attaches the result to the running machine the
way Pin attaches to a running process: thread code is swapped at an
instruction boundary and each affected thread gets a software store
buffer.
"""

from typing import Dict, List, Optional, Set

from repro.core.repair.analysis import ThreadRepairAnalysis, analyze_thread
from repro.core.repair.rewrite import rewrite_thread
from repro.core.repair.ssb import SoftwareStoreBuffer
from repro.isa.program import Program, ThreadCode
from repro.obs.trace import NULL_TRACER
from repro.static.verify import VerificationResult, verify_rewrite

__all__ = ["RepairPlan", "LaserRepair"]


class RepairPlan:
    """The outcome of repair analysis over a whole program."""

    def __init__(self, program: Program, contending_pcs: Set[int]):
        self.program = program
        self.contending_pcs = contending_pcs
        self.analyses: Dict[int, ThreadRepairAnalysis] = {}
        self.new_codes: Dict[int, ThreadCode] = {}
        self.index_maps: Dict[int, Dict[int, int]] = {}
        #: Instrumented-code length per thread.  Kept separately from
        #: ``new_codes`` because a plan reconstructed from serialized
        #: attached state (crash recovery) has the lengths and index
        #: maps — everything detach needs — but not the code objects.
        self.new_code_lens: Dict[int, int] = {}
        self.rejected_reason: Optional[str] = None
        #: Per-thread rewrite-verifier outcomes (``static/verify.py``);
        #: populated for every rewritten thread.
        self.verifier_results: Dict[int, VerificationResult] = {}
        #: True when the plan was rejected *by the verifier* (as opposed
        #: to the profitability gate) — surfaced separately in RunHealth
        #: because a verifier rejection means the rewriter produced code
        #: the static checker could not prove safe, which is degradation.
        self.verifier_rejected: bool = False
        #: SSBs removed by :meth:`LaserRepair.detach` (stats survive the
        #: rollback for end-of-run health accounting).
        self.detached_buffers: List[SoftwareStoreBuffer] = []

    @property
    def profitable(self) -> bool:
        return self.rejected_reason is None and bool(self.new_codes)

    @property
    def threads_instrumented(self) -> List[int]:
        return sorted(self.index_maps)

    def new_code_len(self, tid: int) -> int:
        """Instrumented instruction count for one rewritten thread."""
        if tid in self.new_code_lens:
            return self.new_code_lens[tid]
        return len(self.new_codes[tid].instructions)

    # ------------------------------------------------------------------
    # Crash-recovery serialization (``repro.resilience``)
    # ------------------------------------------------------------------

    def attached_state(self) -> dict:
        """JSON-serializable record of an *attached* plan.

        Captures exactly what a recovered detector needs to keep
        supervising (and eventually detach) instrumentation that is
        already live in the machine: the threads, their index maps and
        instrumented code lengths.  The rewritten code itself lives in
        the machine and survives a detector crash.
        """
        return {
            "contending_pcs": sorted(self.contending_pcs),
            "threads": [
                {
                    "tid": tid,
                    "index_map": sorted(self.index_maps[tid].items()),
                    "new_len": self.new_code_len(tid),
                }
                for tid in self.threads_instrumented
            ],
        }

    @classmethod
    def from_attached_state(cls, program: Program,
                            state: dict) -> "RepairPlan":
        """Rebuild a detachable plan from serialized attached state."""
        plan = cls(program, set(state["contending_pcs"]))
        for entry in state["threads"]:
            tid = entry["tid"]
            plan.index_maps[tid] = {old: new for old, new in entry["index_map"]}
            plan.new_code_lens[tid] = entry["new_len"]
        return plan

    def min_stores_per_flush(self) -> float:
        ratios = [
            a.stores_per_flush
            for a in self.analyses.values()
            if a.has_contention
        ]
        return min(ratios) if ratios else 0.0


class LaserRepair:
    """Builds, applies and rolls back repair plans."""

    def __init__(self, min_stores_per_flush: float = 4.0):
        #: Repair profitability floor (Section 5.4).
        self.min_stores_per_flush = min_stores_per_flush
        self.plans_built = 0
        self.plans_applied = 0
        self.plans_rejected = 0
        self.plans_verifier_rejected = 0
        self.plans_detached = 0

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, program: Program, contending_pcs: Set[int],
             tracer=None, cycle: int = 0) -> RepairPlan:
        """Analyze and (if profitable) rewrite every contending thread.

        ``tracer``/``cycle`` let the caller timestamp the plan/verify
        lifecycle events (planning has no clock of its own).
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        plan = RepairPlan(program, set(contending_pcs))
        self.plans_built += 1
        if tracer.enabled:
            tracer.emit("repair.plan", cycle,
                        contending_pcs=sorted(contending_pcs))
        for tid, code in enumerate(program.threads):
            analysis = analyze_thread(code, plan.contending_pcs)
            if not analysis.has_contention:
                continue
            plan.analyses[tid] = analysis
            if not analysis.is_profitable(self.min_stores_per_flush):
                plan.rejected_reason = (
                    "thread %d: estimated %.1f stores/flush below %.1f"
                    % (tid, analysis.stores_per_flush, self.min_stores_per_flush)
                )
                plan.new_codes.clear()
                plan.index_maps.clear()
                plan.new_code_lens.clear()
                self.plans_rejected += 1
                if tracer.enabled:
                    tracer.emit("repair.plan_rejected", cycle, thread=tid,
                                reason=plan.rejected_reason)
                return plan
            new_code, index_map = rewrite_thread(code, analysis)
            verdict = verify_rewrite(code, analysis, new_code, index_map,
                                     thread=tid)
            plan.verifier_results[tid] = verdict
            if tracer.enabled:
                tracer.emit("repair.verify", cycle, thread=tid,
                            ok=verdict.ok, summary=verdict.summary())
            if not verdict.ok:
                plan.rejected_reason = (
                    "thread %d: rewrite verification failed: %s"
                    % (tid, verdict.summary())
                )
                plan.verifier_rejected = True
                plan.new_codes.clear()
                plan.index_maps.clear()
                plan.new_code_lens.clear()
                self.plans_rejected += 1
                self.plans_verifier_rejected += 1
                if tracer.enabled:
                    tracer.emit("repair.plan_rejected", cycle, thread=tid,
                                reason=plan.rejected_reason)
                return plan
            plan.new_codes[tid] = new_code
            plan.index_maps[tid] = index_map
            plan.new_code_lens[tid] = len(new_code.instructions)
        if not plan.new_codes:
            plan.rejected_reason = "no thread contains the contending PCs"
            self.plans_rejected += 1
            if tracer.enabled:
                tracer.emit("repair.plan_rejected", cycle,
                            reason=plan.rejected_reason)
        return plan

    # ------------------------------------------------------------------
    # Attach (the Pin-attach analog)
    # ------------------------------------------------------------------

    def attach(self, machine, plan: RepairPlan) -> List[SoftwareStoreBuffer]:
        """Swap instrumented code into the running machine."""
        if not plan.profitable:
            raise ValueError("cannot attach a rejected plan: %s" % plan.rejected_reason)
        buffers = []
        for tid in plan.threads_instrumented:
            core = machine.cores[tid]
            core.replace_code(plan.new_codes[tid].instructions, plan.index_maps[tid])
            ssb = SoftwareStoreBuffer(machine, tid)
            core.ssb = ssb
            buffers.append(ssb)
        self.plans_applied += 1
        if machine.tracer.enabled:
            machine.tracer.emit(
                "repair.attach", machine.cycle,
                threads=plan.threads_instrumented,
                min_stores_per_flush=round(plan.min_stores_per_flush(), 3),
            )
        return buffers

    # ------------------------------------------------------------------
    # Detach (rollback: the Pin-detach analog)
    # ------------------------------------------------------------------

    def detach(self, machine, plan: RepairPlan) -> None:
        """Roll the instrumentation back out of a running machine.

        The inverse of :meth:`attach`: each instrumented thread's SSB is
        drained (pending stores become globally visible — the flush is
        the same TSO-preserving flush the instrumented code uses), the
        buffer is detached, and the original instruction stream is
        swapped back in with the program counter translated through the
        inverse index map.  A thread paused *at* an injected flush or
        alias check resumes at the original instruction the injection
        guarded; with no SSB attached the guard is vacuous, so skipping
        it is semantically exact.
        """
        for tid in plan.threads_instrumented:
            core = machine.cores[tid]
            ssb = core.ssb
            if ssb is not None:
                if not ssb.empty():
                    ssb.flush(tid)
                    core.stats.ssb_flushes += 1
                plan.detached_buffers.append(ssb)
            core.ssb = None
            inverse = _invert_index_map(
                plan.index_maps[tid], plan.new_code_len(tid)
            )
            core.replace_code(
                plan.program.threads[tid].instructions, inverse
            )
        self.plans_detached += 1
        if machine.tracer.enabled:
            machine.tracer.emit(
                "repair.detach", machine.cycle,
                threads=plan.threads_instrumented,
            )


def _invert_index_map(index_map: Dict[int, int], new_len: int) -> Dict[int, int]:
    """Map every new-code index back to an original index.

    Indices of original instructions map to their source; indices of
    injected instructions (flushes, alias checks — always inserted
    *before* an original instruction) map to the original index of the
    instruction they guard, i.e. the next original instruction.
    """
    by_new = {new: old for old, new in index_map.items()}
    inverse: Dict[int, int] = {}
    following_old = None
    for new in range(new_len - 1, -1, -1):
        if new in by_new:
            following_old = by_new[new]
        inverse[new] = following_old
    return inverse
