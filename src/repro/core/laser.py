"""The LASER system (Section 6, Figure 8).

Wires together the three components: the kernel driver (per-core PEBS
buffers and the write-ahead record journal), the userspace detector
process (the Section 4 pipeline), and the online repair mechanism
(Section 5).  The detector "forks the application process to be
analyzed" — modelled as a small heap-base shift in the child's layout —
then configures the driver and consumes records while the application
runs.  At every check interval the detector evaluates false-sharing
rates and may invoke LASERREPAIR, which attaches to the running machine
like Pin attaches to a running process.

The run loop itself lives in the service kernel
(:mod:`repro.core.services`): ``run_built`` composes a
:class:`~repro.core.services.context.RunContext` with six services —
driver poll, detection, repair, resilience, telemetry, overload
control — under a deterministic
:class:`~repro.core.services.scheduler.Scheduler`, and wraps the
outcome.  Deployability is the paper's whole argument, so
the kernel degrades rather than dies: stalls resync, rejected repairs
back off, unprofitable repairs detach, crashed components restart from
checkpoint + journal, exhausted restart budgets degrade the run
(detection-only, then passthrough) instead of aborting, and every
degradation event is tallied in a :class:`RunHealth` record on the
result.  Crash recovery is part of every run: the
:class:`~repro.resilience.ResilienceRuntime` is built before the
driver, so the journal holds every record the PMU hands over.
"""

from typing import Optional

from repro.accel import resolve_sim_engine
from repro.core.config import LaserConfig
from repro.core.detect.pipeline import DetectionPipeline
from repro.core.detect.report import ContentionReport
from repro.core.health import RunHealth
from repro.core.repair.manager import LaserRepair, RepairPlan
from repro.core.services import (
    ControlService,
    DetectionService,
    DetectorState,
    DriverPollService,
    RepairService,
    ResilienceService,
    RunContext,
    Scheduler,
    TelemetryService,
)
from repro.faults import FaultInjector, FaultPlan
from repro.obs.telemetry import RunTelemetry
from repro.obs.trace import NULL_TRACER, EventTracer
from repro.pebs.driver import KernelDriver
from repro.pebs.imprecision import ImprecisionModel
from repro.pebs.pmu import PerformanceMonitoringUnit
from repro.resilience import ResilienceRuntime
from repro.sim.machine import Machine

__all__ = ["Laser", "LaserRunResult", "RunHealth"]


class LaserRunResult:
    """Everything observable from one application run under LASER."""

    def __init__(
        self,
        cycles: int,
        report: ContentionReport,
        repaired: bool,
        repair_plan: Optional[RepairPlan],
        pmu: PerformanceMonitoringUnit,
        driver: KernelDriver,
        pipeline: DetectionPipeline,
        machine: Machine,
        resilience: ResilienceRuntime,
        health: Optional[RunHealth] = None,
        telemetry: Optional[RunTelemetry] = None,
    ):
        self.cycles = cycles
        self.report = report
        self.repaired = repaired
        self.repair_plan = repair_plan
        self.pmu = pmu
        self.driver = driver
        self.pipeline = pipeline
        self.machine = machine
        self.health = health or RunHealth()
        #: Per-run observability bundle (``repro.obs``): the windowed
        #: time series and the event tracer (NULL_TRACER unless
        #: ``config.trace_enabled``).
        self.telemetry = telemetry or RunTelemetry()
        #: Crash-recovery bundle (``repro.resilience``): the run's
        #: record journal, checkpoints and supervisor.
        self.resilience = resilience

    @property
    def detector_cycles(self) -> int:
        """CPU time spent in the userspace detector (Figure 12)."""
        return self.pipeline.stats.detector_cycles

    @property
    def driver_cycles(self) -> int:
        """CPU time spent in the kernel driver (Figure 12)."""
        return self.driver.driver_cycles

    @property
    def application_cpu_cycles(self) -> int:
        """Total busy CPU time across application cores."""
        return sum(core.stats.busy_cycles for core in self.machine.cores)

    @property
    def rolled_back(self) -> bool:
        """True if a repair was applied and later detached."""
        return self.health.rollbacks > 0

    def __repr__(self):
        return "<LaserRunResult cycles=%d hitms=%d repaired=%s%s>" % (
            self.cycles,
            self.pmu.total_hitm_count,
            self.repaired,
            " DEGRADED" if self.health.degraded else "",
        )


class Laser:
    """The deployable system: detect + (optionally) repair online."""

    def __init__(self, config: Optional[LaserConfig] = None,
                 faults: Optional[FaultPlan] = None,
                 transport=None):
        self.config = config or LaserConfig()
        #: Fault schedule applied to every run (empty = free, identical
        #: to no injection at all).
        self.faults = faults or FaultPlan()
        #: Client-to-shard record transport (``repro.fleet``), or
        #: ``None`` on the single-run path.  Transports are stateful
        #: across polls, so the fleet attaches a fresh one per session;
        #: with no transport the driver-poll slice is byte-identical to
        #: pre-fleet behavior.
        self.transport = transport
        self.repairer = LaserRepair()

    # ------------------------------------------------------------------
    # Running a workload under LASER
    # ------------------------------------------------------------------

    def run_workload(self, workload, scale: float = 1.0,
                     max_cycles: int = 200_000_000) -> LaserRunResult:
        """Fork (build with the shifted heap) and monitor a workload."""
        built = workload.build(
            heap_offset=self.config.heap_shift,
            seed=self.config.seed,
            scale=scale,
        )
        return self.run_built(built, max_cycles=max_cycles)

    def run_built(self, built,
                  max_cycles: int = 200_000_000) -> LaserRunResult:
        """Monitor an already-built program: compose the kernel, run it."""
        config = self.config
        program = built.program
        injector = FaultInjector(self.faults)
        # Simulator engine (``repro.accel``): ``auto`` resolved once per
        # run (``LASER_SIM_ENGINE`` may force one) and recorded on
        # RunHealth so the run reports which engine actually served it.
        sim_engine = resolve_sim_engine("auto")
        # Observability: the tracer is shared by every instrumented
        # component; with tracing off the shared NULL_TRACER makes
        # every site a single predicted-not-taken branch, and a run's
        # simulated cycles are identical either way.
        tracer = (
            EventTracer(capacity=config.trace_capacity)
            if config.trace_enabled else NULL_TRACER
        )
        telemetry = RunTelemetry(tracer=tracer)
        machine = Machine(
            program,
            seed=config.seed,
            allocator=built.allocator,
            fault_injector=injector,
            tracer=tracer,
            engine=sim_engine,
        )
        built.apply_init(machine)
        # Wrong PCs scatter across the whole app text region (most of a
        # real binary is cold code with no HITM-relevant debug lines).
        app_region = machine.vmmap.find(program.code_base)
        imprecision = ImprecisionModel(
            app_region.start, app_region.end, seed=config.seed
        )
        # Crash recovery: like tracing, the runtime observes and never
        # charges simulated cycles.  Built before the driver so records
        # are journaled from the very first delivery.
        runtime = ResilienceRuntime(config, injector=injector, tracer=tracer)
        driver = KernelDriver(runtime.journal, injector=injector,
                              tracer=tracer)
        pmu = PerformanceMonitoringUnit(
            imprecision,
            driver,
            sample_after_value=config.sample_after_value,
            injector=injector,
            tracer=tracer,
        )
        machine.on_hitm = pmu.on_hitm
        # Static race certification: computed, and its analyzers
        # imported, only when the repair gate asks for it, so default
        # runs stay bit-identical to the golden pins.
        certificate = None
        if config.race_gate:
            from repro.static.race import certify_built

            certificate = certify_built(built)
            tracer.emit(
                "static.certificate", 0,
                unsafe=certificate.unsafe,
                racy_lines=len(certificate.racy_lines()),
                complete=certificate.complete,
            )
        pipeline = DetectionPipeline(
            program, machine.vmmap, config.sample_after_value,
            tracer=tracer,
        )
        ctx = RunContext(
            config=config, machine=machine, program=program,
            injector=injector, tracer=tracer, telemetry=telemetry,
            health=RunHealth(sim_engine=sim_engine),
            driver=driver, pmu=pmu,
            pipeline=pipeline, repairer=self.repairer, runtime=runtime,
            st=DetectorState(), certificate=certificate,
            transport=self.transport,
        )
        resilience = ResilienceService()
        scheduler = Scheduler(
            ctx,
            resilience=resilience,
            driver_poll=DriverPollService(resilience),
            detection=DetectionService(resilience),
            repair=RepairService(self.repairer, resilience),
            telemetry=TelemetryService(),
            control=ControlService(),
        )
        report = scheduler.run(max_cycles=max_cycles)
        return LaserRunResult(
            cycles=machine.cycle,
            report=report,
            repaired=runtime.attached is not None,
            repair_plan=ctx.st.plan,
            pmu=pmu,
            driver=driver,
            pipeline=pipeline,
            machine=machine,
            resilience=runtime,
            health=ctx.health,
            telemetry=telemetry,
        )
