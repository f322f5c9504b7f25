"""Turn a :class:`~repro.campaign.spec.RunSpec` into a live scenario.

One builder per matrix axis value, composed: the *architecture x
mobility* pair picks the world/cloud construction — the hardened Fig. 4
architecture builders of :mod:`repro.chaos.scenarios` (parked fleet,
elected-captain highway or Manhattan fleet, RSU-anchored highway), so
campaign cells measure the configurations the chaos suite defends —
the *workload* attaches traffic (batch tasks + storage churn, the
protected serving gateway under open-loop load, or the dependable DAG
scheduler), and the *fault profile* maps to a seeded
:class:`~repro.chaos.generator.ChaosProfile` weight table.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..chaos.generator import ChaosProfile
from ..chaos.invariants import Conservation
from ..chaos.runner import ChaosScenario
from ..chaos.scenarios import (
    dynamic_architecture,
    infrastructure_architecture,
    stationary_architecture,
    storage_workload,
    task_stream,
)
from ..core import BacklogEstimator, Task
from ..dag import (
    DagScheduler,
    RedundancyPlanner,
    ReliabilityEstimator,
    map_reduce_template,
    pipeline_template,
)
from ..errors import CampaignError
from ..faults.plan import FaultPlan
from ..infra.central_cloud import CentralCloud
from ..serve import MEAN_WORK_MI, ServiceGateway, WorkloadGenerator, tenant_mix
from ..sim.metrics import percentile
from ..tier import (
    BackhaulLink,
    CentralCloudTier,
    TieredOffloader,
    TierTopology,
    VCloudTier,
)
from .spec import RunSpec

#: Sim-seconds the mobile architectures get to form membership before
#: the serving workload sizes its open-loop rate off actual capacity.
SERVING_SETTLE_S = 3.0

#: Fault-profile names -> seeded chaos grammars.  ``None`` means no
#: member-level injector is armed; "light"/"heavy" differ in fault
#: density.  "backhaul" also maps to ``None`` here — its faults target
#: the WAN link through :func:`backhaul_fault_plan` and a
#: :class:`~repro.faults.backhaul.BackhaulFaultDriver`, not the fleet.
FAULT_PROFILE_TABLE: Dict[str, Optional[ChaosProfile]] = {
    "none": None,
    "light": ChaosProfile(mean_interval_s=12.0, max_faults=24),
    "heavy": ChaosProfile(mean_interval_s=5.0, max_faults=48),
    "backhaul": None,
}


def backhaul_fault_plan(seed: int, run_length_s: float) -> FaultPlan:
    """The WAN fault schedule for the "backhaul" campaign profile.

    One loss burst, one hard outage and one jitter spike, spread over
    the run proportionally so short smoke cells and long nightly cells
    stress the same phases of the workload.
    """
    plan = FaultPlan(seed)
    window = run_length_s * 0.15
    plan.loss_burst(run_length_s * 0.20, duration_s=window, drop_probability=0.3)
    plan.partition(run_length_s * 0.45, duration_s=window)
    plan.jitter_spike(
        run_length_s * 0.70, duration_s=window, max_extra_delay_s=0.5
    )
    return plan


# -- architecture x mobility ------------------------------------------------


def _build_stationary(spec: RunSpec) -> ChaosScenario:
    return stationary_architecture(spec.world_seed, spec.members, cloud_id="campaign-vc")


def _build_tiered(spec: RunSpec) -> ChaosScenario:
    """Stationary local v-cloud + datacenter tier behind a WAN backhaul."""
    base = _build_stationary(spec)
    world = base.world
    central = CentralCloud(world, compute_mips=50_000.0, wan_delay_s=0.0)
    link = BackhaulLink(
        world, "campaign-wan", base_latency_s=0.05, loss_probability=0.02
    )
    topology = TierTopology()
    topology.register(VCloudTier(world, "local", "local", base.cloud))
    topology.register(CentralCloudTier(world, "central", central, link))
    offloader = TieredOffloader(world, topology, name="campaign")
    base.offloader = offloader
    base.backhaul_link = link
    base.invariants.append(Conservation(offloader))

    def vector() -> Dict[str, float]:
        stats = offloader.stats
        wan = link.accounting()
        return {
            "tier/submitted": float(stats.submitted),
            "tier/completed": float(stats.completed),
            "tier/failed": float(stats.failed),
            "tier/deadline_hit_rate": stats.deadline_hit_rate(),
            "tier/speculated": float(stats.speculated),
            "tier/degraded": float(sum(stats.degraded.values())),
            "tier/wins_local": float(stats.wins_by_tier.get("local", 0)),
            "tier/wins_remote": float(stats.wins_by_tier.get("central", 0)),
            "tier/backhaul_sent": float(wan["sent"]),
            "tier/backhaul_lost": float(wan["lost"]),
        }

    base.vector_sources.append(vector)
    return base


_ARCHITECTURE_BUILDERS: Dict[str, Callable[[RunSpec], ChaosScenario]] = {
    "stationary": _build_stationary,
    "dynamic": lambda spec: dynamic_architecture(
        spec.world_seed, spec.members, mobility=spec.mobility
    ),
    "infrastructure": lambda spec: infrastructure_architecture(
        spec.world_seed, spec.members
    ),
    "tiered": _build_tiered,
}


# -- workloads ---------------------------------------------------------------


def _attach_tasks(spec: RunSpec, scenario: ChaosScenario) -> None:
    """Batch task stream + storage read/write churn (the chaos workload).

    On the tiered architecture the stream routes through the
    :class:`~repro.tier.TieredOffloader` as deadline-bearing speculative
    tasks, so campaign cells exercise the same submit path E20 measures;
    everywhere else it submits straight to the cloud.
    """
    count = max(4, int(spec.run_length_s // 3))
    offloader = scenario.offloader
    if offloader is None:
        records = task_stream(
            scenario.world, scenario.cloud, count=count, work_mi=2000.0
        )

        def vector() -> Dict[str, float]:
            stats = scenario.cloud.stats
            submitted = float(stats.submitted)
            return {
                "tasks/submitted": submitted,
                "tasks/completed": float(stats.completed),
                "tasks/failed": float(stats.failed),
                "tasks/completion_rate": (
                    stats.completed / submitted if submitted else 0.0
                ),
                "tasks/records": float(len(records)),
                "storage/degraded": float(stats.storage_degraded),
            }

    else:
        deadline_s = spec.run_length_s * 0.75
        for index in range(count):
            scenario.world.engine.schedule_at(
                1.0 + index * 2.0,
                lambda: offloader.submit(
                    Task(work_mi=2000.0, deadline_s=deadline_s, submitter="campaign"),
                    policy="speculate",
                ),
                label="campaign-tier-task",
            )

        def vector() -> Dict[str, float]:
            stats = offloader.stats
            submitted = float(stats.submitted)
            return {
                "tasks/submitted": submitted,
                "tasks/completed": float(stats.completed),
                "tasks/failed": float(stats.failed),
                "tasks/completion_rate": (
                    stats.completed / submitted if submitted else 0.0
                ),
                "tasks/records": submitted,
                "storage/degraded": float(scenario.cloud.stats.storage_degraded),
            }

    storage_workload(scenario.world, scenario.cloud)
    scenario.vector_sources.append(vector)


def _attach_serving(spec: RunSpec, scenario: ChaosScenario) -> None:
    """Protected gateway under an open-loop tenant mix at ``load_factor``.

    On the tiered architecture the gateway routes through ``tiering=``
    (cross-tier speculation) instead of same-tier hedging — the two are
    mutually exclusive by construction.
    """
    world = scenario.world
    gateway = ServiceGateway.protected(
        world,
        scenario.cloud,
        name="campaign",
        tiering=scenario.offloader,
        backlog=BacklogEstimator(scenario.cloud),
    )
    horizon_s = max(1.0, spec.run_length_s - SERVING_SETTLE_S)

    def start_traffic() -> None:
        # Rate sized off the *actual* admitted capacity so the same
        # load factor means the same pressure on every architecture.
        capacity_tasks_s = max(
            0.5, gateway.aggregate_capacity_mips() / MEAN_WORK_MI
        )
        tenants = tenant_mix(spec.load_factor * capacity_tasks_s)
        WorkloadGenerator(world, gateway, tenants, horizon_s=horizon_s).start()

    world.engine.schedule_at(
        SERVING_SETTLE_S, start_traffic, label="campaign-serving-start"
    )

    def vector() -> Dict[str, float]:
        stats = gateway.stats
        terminal = stats.completed + stats.failed + stats.shed
        latencies = sorted(stats.latencies_s)
        return {
            "serve/offered": float(stats.offered),
            "serve/admitted": float(stats.admitted),
            "serve/rejected": float(stats.rejected),
            "serve/shed": float(stats.shed),
            "serve/completed": float(stats.completed),
            "serve/failed": float(stats.failed),
            "serve/goodput_per_s": stats.slo_hits / horizon_s,
            "serve/deadline_hit_rate": (
                stats.slo_hits / terminal if terminal else 0.0
            ),
            "serve/p50_latency_s": percentile(latencies, 0.50) if latencies else 0.0,
            "serve/p99_latency_s": percentile(latencies, 0.99) if latencies else 0.0,
            "serve/hedges_launched": float(stats.hedges_launched),
        }

    scenario.gateway = gateway
    scenario.invariants.append(Conservation(gateway))
    scenario.vector_sources.append(vector)


def _attach_dag(spec: RunSpec, scenario: ChaosScenario) -> None:
    """Dependable DAG stream: redundancy, checkpointing, backlog-aware."""
    world = scenario.world
    scheduler = DagScheduler(
        world,
        scenario.cloud,
        name="campaign",
        reliability=ReliabilityEstimator(scenario.cloud),
        redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
        checkpointing=True,
        backlog=BacklogEstimator(scenario.cloud),
    )
    deadline_s = max(20.0, spec.run_length_s * 0.75)
    templates = [
        pipeline_template([(300.0, 600.0)] * 3, deadline_s=deadline_s),
        map_reduce_template(3, (200.0, 450.0), (300.0, 500.0), deadline_s=deadline_s),
    ]
    rng = world.rng.fork("campaign/dag")
    gap_s = max(2.0, spec.run_length_s / max(1, spec.graph_count) * 0.5)
    for index in range(spec.graph_count):
        template = templates[index % len(templates)]
        world.engine.schedule_at(
            1.0 + index * gap_s,
            lambda t=template: scheduler.submit(
                t.instantiate(rng, submitter="campaign")
            ),
            label="campaign-graph-submit",
        )

    def vector() -> Dict[str, float]:
        stats = scheduler.stats
        judged = stats.deadline_hits + stats.deadline_misses
        return {
            "dag/graphs_submitted": float(stats.graphs_submitted),
            "dag/graphs_completed": float(stats.graphs_completed),
            "dag/graphs_failed": float(stats.graphs_failed),
            "dag/deadline_hit_rate": (
                stats.deadline_hits / judged if judged else 0.0
            ),
            "dag/stages_completed": float(stats.stages_completed),
            "dag/stages_reexecuted": float(stats.stages_reexecuted),
            "dag/replicas_cancelled": float(stats.replicas_cancelled),
            "dag/replicas_load_shed": float(stats.replicas_load_shed),
            "dag/checkpoint_writes": float(stats.checkpoint_writes),
        }

    scenario.dag_scheduler = scheduler
    scenario.invariants.append(Conservation(scheduler))
    scenario.vector_sources.append(vector)


_WORKLOAD_BUILDERS: Dict[str, Callable[[RunSpec, ChaosScenario], None]] = {
    "tasks": _attach_tasks,
    "serving": _attach_serving,
    "dag": _attach_dag,
}


def fault_profile_for(name: str) -> Optional[ChaosProfile]:
    """The chaos grammar for a fault-profile name (None = no faults)."""
    try:
        return FAULT_PROFILE_TABLE[name]
    except KeyError:
        raise CampaignError(f"unknown fault profile: {name!r}") from None


def build_scenario(spec: RunSpec) -> ChaosScenario:
    """Compose the architecture and workload builders for one cell."""
    try:
        build_arch = _ARCHITECTURE_BUILDERS[spec.architecture]
        attach_workload = _WORKLOAD_BUILDERS[spec.workload]
    except KeyError as exc:
        raise CampaignError(f"no builder for {exc}") from None
    scenario = build_arch(spec)
    attach_workload(spec, scenario)
    return scenario


__all__: Sequence[str] = (
    "FAULT_PROFILE_TABLE",
    "SERVING_SETTLE_S",
    "backhaul_fault_plan",
    "build_scenario",
    "fault_profile_for",
)
