"""One tenant's detection shard: supervised sessions with eviction.

A shard is the unit of blast radius: one tenant's detector sessions,
each a full :meth:`~repro.core.laser.Laser.run_workload` with its own
service kernel, journal/checkpoint stack, degrade ladder, admission
budget and a fresh :class:`~repro.fleet.transport.ShardTransport`.
Nothing in a shard is shared with any other tenant, so the worst a
misbehaving tenant can do is burn its own shard down — the containment
the fleet chaos soak pins.

Fault plans are split at the shard boundary:

* **tenant-level sites** (:data:`TENANT_SITES`) are consulted by a
  *fleet-level* injector once per session attempt, in fixed order
  (crash, then flood), so occurrence indices are session attempts.
  A fired ``tenant.crash`` kills the session before the machine is
  even built — the client process died, the shard's in-flight state
  for it is worthless — and charges a deterministic number of wasted
  intervals from the site's private RNG.  A fired ``tenant.flood``
  runs the session under the standard ``load.burst`` record storm
  (probability 0.5, max 1200 fires — the same storm the overload
  chaos suite uses) so the tenant's own admission budget must shed it.
* **run-level sites** (everything else: ``detector.crash``,
  ``shard.partition``, ``checkpoint.corrupt``, …) are copied into a
  per-session plan and handled by the session's own resilience stack,
  exactly as on the single-run path.

Supervision: crashed sessions restart under a
:class:`~repro.resilience.RetryPolicy` with seeded-jitter backoff
(the jitter stream is derived from the fleet seed and tenant name, so
restart schedules are deterministic per fleet and decorrelated across
tenants).  When the restart budget is exhausted the tenant is
**evicted** — its shard stops and reports :data:`TenantState.EVICTED`
— rather than aborting the fleet.
"""

import random
from typing import List, Optional

from repro.core.laser import Laser, LaserRunResult
from repro.experiments.chaos import report_signature
from repro.faults import FaultInjector, FaultPlan
from repro.fleet.health import TenantState
from repro.fleet.tenants import FleetSpec, TenantSpec
from repro.fleet.transport import ShardTransport
from repro.resilience import RetryPolicy
from repro.rng import derive_seed
from repro.workloads import get_workload

__all__ = ["TENANT_SITES", "TenantOutcome", "run_shard"]

#: Fault sites decided at the fleet level, once per session attempt.
TENANT_SITES = frozenset({"tenant.crash", "tenant.flood"})

#: The standard record storm a flooding tenant runs under (matches the
#: overload chaos suite's ``load.burst`` schedule).
FLOOD_PROBABILITY = 0.5
FLOOD_MAX_FIRES = 1200

#: Seeded jitter on the session restart backoff (``RetryPolicy``'s
#: 1 .. 8 interval schedule), so restarting tenants do not
#: thundering-herd onto the same interval.
RESTART_JITTER = 0.5


class TenantOutcome:
    """Everything one shard reports back to the fleet (picklable)."""

    __slots__ = ("tenant", "workload", "seed", "arrival_cycle",
                 "budget_records", "state", "sessions", "restarts",
                 "evicted", "report_render", "signature", "health",
                 "cycles", "records_shed", "transport_partitions",
                 "transport_heals", "transport_records_delayed",
                 "recovery_events")

    def __init__(self, tenant: TenantSpec, state: str,
                 sessions: List[dict],
                 result: Optional[LaserRunResult] = None,
                 transport: Optional[ShardTransport] = None):
        self.tenant = tenant.name
        self.workload = tenant.workload
        self.seed = tenant.seed
        self.arrival_cycle = tenant.arrival_cycle
        self.budget_records = tenant.budget_records
        #: Final :class:`~repro.fleet.health.TenantState` value.
        self.state = state
        #: Session-attempt log, in attempt order (crashes + completion).
        self.sessions = sessions
        self.restarts = sum(
            1 for session in sessions if session["state"] == "crashed")
        self.evicted = state == TenantState.EVICTED
        # Result-derived views (None/empty for an evicted tenant —
        # eviction means the fleet has *no* report for it, which is the
        # honest answer).
        if result is not None:
            self.report_render = result.report.render()
            self.signature = report_signature(result)
            self.health = result.health.as_dict()
            self.cycles = result.cycles
            self.records_shed = result.health.records_shed
            self.recovery_events = [
                {"cycle": event.cycle, "name": event.name,
                 "args": dict(event.args or {})}
                for prefix in ("resil.", "fleet.")
                for event in result.telemetry.tracer.events_named(prefix)
            ]
        else:
            self.report_render = None
            self.signature = frozenset()
            self.health = None
            self.cycles = 0
            self.records_shed = 0
            self.recovery_events = []
        if transport is not None:
            self.transport_partitions = transport.partitions
            self.transport_heals = transport.heals
            self.transport_records_delayed = transport.records_delayed
        else:
            self.transport_partitions = 0
            self.transport_heals = 0
            self.transport_records_delayed = 0

    @property
    def wasted_intervals(self) -> int:
        """Modeled intervals burned by crashed session attempts."""
        return sum(
            session.get("wasted_intervals", 0) for session in self.sessions)

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "workload": self.workload,
            "seed": self.seed,
            "arrival_cycle": self.arrival_cycle,
            "budget_records": self.budget_records,
            "state": self.state,
            "sessions": self.sessions,
            "restarts": self.restarts,
            "evicted": self.evicted,
            "report_render": self.report_render,
            "signature": sorted(self.signature),
            "health": self.health,
            "cycles": self.cycles,
            "records_shed": self.records_shed,
            "transport_partitions": self.transport_partitions,
            "transport_heals": self.transport_heals,
            "transport_records_delayed": self.transport_records_delayed,
            "recovery_events": self.recovery_events,
        }

    def __repr__(self):
        return "<TenantOutcome %s %s restarts=%d shed=%d>" % (
            self.tenant, self.state, self.restarts, self.records_shed,
        )


def split_plan(plan: Optional[FaultPlan]):
    """(fleet-level plan, session-level plan) halves of one schedule.

    Both halves keep the original plan seed, so a site's private RNG
    stream is unchanged by the split.
    """
    fleet_plan = FaultPlan(seed=plan.seed if plan is not None else 0)
    session_plan = FaultPlan(seed=plan.seed if plan is not None else 0)
    if plan is not None:
        for spec in plan.specs:
            target = fleet_plan if spec.site in TENANT_SITES else session_plan
            target.add(spec.site, probability=spec.probability,
                       at=spec.at, max_fires=spec.max_fires)
    return fleet_plan, session_plan


def _session_plan(base: FaultPlan, flooded: bool) -> FaultPlan:
    """A fresh per-session plan; a flooded session gains the storm."""
    plan = FaultPlan(seed=base.seed)
    for spec in base.specs:
        plan.add(spec.site, probability=spec.probability,
                 at=spec.at, max_fires=spec.max_fires)
    if flooded and plan.spec_for("load.burst") is None:
        plan.add("load.burst", probability=FLOOD_PROBABILITY,
                 max_fires=FLOOD_MAX_FIRES)
    return plan


def run_shard(tenant: TenantSpec, fleet: FleetSpec) -> TenantOutcome:
    """Run one tenant's shard to completion or eviction.

    Deterministic per ``(tenant, fleet)``: the fleet-level injector,
    the restart jitter stream and every session are seeded from the
    specs alone.
    """
    fleet_plan, base_session_plan = split_plan(
        fleet.fault_plan_for(tenant.name))
    fleet_injector = FaultInjector(fleet_plan)
    policy = RetryPolicy(
        jitter=RESTART_JITTER, max_attempts=fleet.max_restarts,
        rng=random.Random(
            derive_seed(fleet.seed, "fleet.restart:" + tenant.name)),
    )
    workload = get_workload(tenant.workload)
    sessions: List[dict] = []
    while True:
        attempt = len(sessions)
        # Fixed consultation order per attempt: crash, then flood.
        crashed = fleet_injector.fires("tenant.crash")
        flooded = fleet_injector.fires("tenant.flood")
        if crashed:
            # The client died at session start: the shard discards the
            # attempt and charges a deterministic number of wasted
            # check intervals from the site's private payload stream.
            wasted = fleet_injector.rng("tenant.crash").randint(1, 8)
            delay = policy.next_delay()
            sessions.append({
                "attempt": attempt,
                "state": "crashed",
                "wasted_intervals": wasted,
                "restart_delay": delay,
            })
            if delay is None:
                # Restart budget spent: evict, never abort the fleet.
                return TenantOutcome(tenant, TenantState.EVICTED, sessions)
            continue
        transport = ShardTransport()
        laser = Laser(tenant.config,
                      faults=_session_plan(base_session_plan, flooded),
                      transport=transport)
        result = laser.run_workload(workload)
        sessions.append({
            "attempt": attempt,
            "state": "completed",
            "flooded": flooded,
        })
        degraded = result.health.degraded or any(
            session["state"] == "crashed" for session in sessions)
        state = TenantState.DEGRADED if degraded else TenantState.NOMINAL
        return TenantOutcome(tenant, state, sessions, result=result,
                             transport=transport)
