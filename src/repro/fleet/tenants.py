"""Fleet planning: tenants, arrival model, per-tenant budgets.

A *tenant* is one monitored client workload with its own detection
shard.  :func:`plan_fleet` materializes N tenants from a single fleet
seed: workloads are drawn from :data:`FLEET_WORKLOADS` under a seeded
rotation (so a 6-tenant fleet is a mixed fleet, not six copies of one
benchmark), arrival cycles follow seeded inter-arrival draws, and
every per-tenant seed is derived with :func:`repro.rng.derive_seed` —
the whole fleet is a pure function of ``(n, seed)``.

Per-tenant budgets (the fleet completion of ROADMAP item 3): the
fleet's total record-admission budget is split evenly across tenants
and baked into each tenant's :class:`~repro.core.config.LaserConfig`
as ``control_budget_records``, with the overload controller enabled.
A tenant that floods therefore sheds against *its own* budget inside
*its own* shard; no other tenant's admission window moves.

A fleet spec also carries each tenant's session restart budget
(``max_restarts``).  The backoff between restarts is not a fleet knob:
every shard uses :class:`~repro.resilience.RetryPolicy`'s default
1 .. 8 interval schedule with the shard's seeded ``RESTART_JITTER``.

Everything here is a small picklable value object — tenant specs cross
the :class:`~repro.experiments.runner.SweepRunner` process boundary,
and the heavy machinery (machines, drivers, pipelines) is built inside
the shard worker.
"""

import random
from typing import Dict, List, Optional, Sequence

from repro.core.config import LaserConfig
from repro.faults import FaultPlan
from repro.rng import derive_seed

__all__ = ["FLEET_WORKLOADS", "TenantSpec", "FleetSpec", "plan_fleet"]

#: The default fleet mix: registry workloads small enough for soak
#: grids, spanning both primed (known-false-sharing) and clean
#: benchmarks so the cross-tenant contention table has something real
#: to correlate.
FLEET_WORKLOADS: Sequence[str] = (
    "histogram'",
    "histogram",
    "linear_regression",
    "word_count",
    "string_match",
    "matrix_multiply",
)


class TenantSpec:
    """One tenant: a workload, a seed, an arrival, a budget share."""

    __slots__ = ("name", "workload", "seed", "arrival_cycle",
                 "budget_records", "config")

    def __init__(self, name: str, workload: str, seed: int,
                 arrival_cycle: int, budget_records: int,
                 config: LaserConfig):
        self.name = name
        self.workload = workload
        #: Derived per-tenant seed; also baked into ``config.seed``.
        self.seed = seed
        #: When this tenant joined the fleet (modeled arrival clock;
        #: shards are independent, so this orders reports and restarts
        #: without coupling machines).
        self.arrival_cycle = arrival_cycle
        #: This tenant's share of the fleet admission budget
        #: (records per check interval; see ``repro.control``).
        self.budget_records = budget_records
        #: The shard's run config: the base config with this tenant's
        #: seed and budget applied.
        self.config = config

    def __repr__(self):
        return "<TenantSpec %s workload=%s seed=%d budget=%d>" % (
            self.name, self.workload, self.seed, self.budget_records,
        )


class FleetSpec:
    """The whole fleet: tenants plus fault schedules and restart budget."""

    __slots__ = ("tenants", "seed", "faults", "max_restarts")

    def __init__(self, tenants: List[TenantSpec], seed: int,
                 faults: Optional[Dict[str, FaultPlan]] = None,
                 max_restarts: int = 3):
        self.tenants = tenants
        self.seed = seed
        #: Per-tenant fault schedules (tenant name -> plan).  A plan
        #: may mix tenant-level sites (``tenant.crash``,
        #: ``tenant.flood``) with run-level sites; the shard splits
        #: them (see :mod:`repro.fleet.shard`).  Tenants absent from
        #: the dict run fault-free.
        self.faults = dict(faults or {})
        #: Session restart budget per tenant; exhaustion *evicts* the
        #: tenant (its shard stops, the fleet keeps running).  The
        #: backoff between restarts is the shard's (see
        #: :mod:`repro.fleet.shard`).
        self.max_restarts = max_restarts

    def tenant(self, name: str) -> TenantSpec:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError("no tenant %r in fleet (have: %s)" % (
            name, ", ".join(t.name for t in self.tenants)))

    def fault_plan_for(self, name: str) -> Optional[FaultPlan]:
        return self.faults.get(name)

    def describe(self) -> str:
        lines = ["FleetSpec(seed=%d, %d tenants, max_restarts=%d)" % (
            self.seed, len(self.tenants), self.max_restarts)]
        for tenant in self.tenants:
            plan = self.faults.get(tenant.name)
            lines.append("  %-24s %-18s arrival=%-7d budget=%-5d %s" % (
                tenant.name, tenant.workload, tenant.arrival_cycle,
                tenant.budget_records,
                plan.describe() if plan is not None else "fault-free"))
        return "\n".join(lines)

    def __repr__(self):
        return "<FleetSpec seed=%d tenants=%d faulted=%d>" % (
            self.seed, len(self.tenants), len(self.faults))


def plan_fleet(n: int = 4, seed: int = 0,
               base_config: Optional[LaserConfig] = None,
               workload_pool: Sequence[str] = FLEET_WORKLOADS,
               total_budget_records: Optional[int] = None,
               control: bool = True,
               faults: Optional[Dict[str, FaultPlan]] = None,
               max_restarts: int = 3) -> FleetSpec:
    """Materialize a seeded N-tenant fleet.

    The plan is deterministic: same ``(n, seed, knobs)`` gives the
    same tenants, same names, same seeds, same arrivals, same budget
    split, regardless of host or worker count.

    ``total_budget_records=None`` gives each tenant the base config's
    own ``control_budget_records`` (the single-run default); passing a
    total splits it evenly, floored at one record per tenant — the
    fleet-wide budget the ISSUE's per-tenant overload story divides.
    """
    if n < 1:
        raise ValueError("a fleet needs at least one tenant")
    if not workload_pool:
        raise ValueError("workload_pool must not be empty")
    base = base_config or LaserConfig()
    rng = random.Random(derive_seed(seed, "fleet.plan"))
    rotation = rng.randrange(len(workload_pool))
    if total_budget_records is None:
        share = base.control_budget_records
    else:
        share = max(1, total_budget_records // n)
    tenants: List[TenantSpec] = []
    arrival = 0
    for index in range(n):
        workload = workload_pool[(index + rotation) % len(workload_pool)]
        name = "t%02d-%s" % (index, workload)
        tenant_seed = derive_seed(seed, "fleet.tenant:" + name)
        arrival += rng.randint(1_000, 20_000)
        # Shard controllers run the responsive tuning the burst soak
        # pins (escalate/recover after one window): a resident shard
        # must shed a flood within a window, not ride it out.
        config = base.replace(
            seed=tenant_seed,
            control_enabled=control,
            control_budget_records=share,
            control_escalate_after=1,
            control_recover_after=1,
        )
        tenants.append(TenantSpec(
            name=name, workload=workload, seed=tenant_seed,
            arrival_cycle=arrival, budget_records=share, config=config,
        ))
    return FleetSpec(tenants, seed=seed, faults=faults,
                     max_restarts=max_restarts)
