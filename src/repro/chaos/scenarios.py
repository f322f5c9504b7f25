"""Ready-made chaos scenarios for the three Fig. 4 architectures.

Each builder returns a :class:`~.runner.ChaosScenario`: a fresh world,
a started cloud with a task stream and a storage workload, a full radio
stack (so network faults have something to bite on), and the invariant
set appropriate to the architecture.

``hardened=True`` (the default) enables every recovery mechanism the
framework offers — lease-based liveness, exponential-backoff retries,
majority-quorum replicated storage with anti-entropy repair and hinted
handoff.  ``hardened=False`` builds the deliberately weakened
configuration the chaos acceptance campaign is meant to break: no
leases, no retries, best-effort ``W=R=1`` quorum, no hinted handoff.
The weakened cloud violates :class:`~.invariants.StrandedTasks` (a
crashed worker's tasks are never recovered) and
:class:`~.invariants.QuorumSafety` (stale reads / lost updates under
partitions) — with minimized reproducers of one or two faults.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import (
    BackoffPolicy,
    CheckpointHandoverPolicy,
    DynamicVCloud,
    InfrastructureVCloud,
    QuorumConfig,
    ResourceOffer,
    Task,
    VehicularCloud,
)
from ..faults import ConsistencyChecker
from ..geometry import Vec2
from ..infra import deploy_rsus_on_highway
from ..mobility import Highway, HighwayModel, StationaryModel
from ..net import BeaconService, VehicleNode, WirelessChannel
from ..sim import ScenarioConfig, World
from .invariants import (
    ChannelConservation,
    Invariant,
    LeaseExclusivity,
    MembershipAgreement,
    QuorumSafety,
    SingleHead,
    StrandedTasks,
    Conservation,
)

__all__ = [
    "attach_stack",
    "finish_storage",
    "harden_cloud",
    "standard_invariants",
    "storage_workload",
    "task_stream",
    "weaken_cloud",
    "stationary_scenario",
    "dynamic_scenario",
    "infrastructure_scenario",
    "overload_scenario",
    "CHAOS_BACKOFF",
]

CHAOS_BACKOFF = BackoffPolicy(
    base_delay_s=0.5, multiplier=2.0, max_delay_s=8.0, jitter_fraction=0.1
)

_FILE_IDS = ("chaos-file-a", "chaos-file-b", "chaos-file-c")


def harden_cloud(cloud: VehicularCloud) -> None:
    """Enable the full recovery stack."""
    cloud.retry_backoff = CHAOS_BACKOFF
    cloud.enable_worker_leases(lease_duration_s=4.0, sweep_interval_s=1.0)
    cloud.enable_replicated_storage(
        quorum=QuorumConfig.majority(3),
        anti_entropy_period_s=5.0,
        anti_entropy_backoff=CHAOS_BACKOFF,
        hinted_handoff=True,
    )


def weaken_cloud(cloud: VehicularCloud) -> None:
    """Strip recovery: no leases, no retries, best-effort quorum."""
    cloud.retry_backoff = None
    cloud.enable_replicated_storage(
        quorum=QuorumConfig(write_quorum=1, read_quorum=1),
        anti_entropy_period_s=None,
        hinted_handoff=False,
    )


def storage_workload(
    world: World, cloud: VehicularCloud, period_s: float = 2.0
) -> None:
    """Seed shared files, then read/write them periodically.

    Storage faults surface as degraded operations (None results), never
    exceptions, so the workload runs to the end of every chaos run.
    """
    rng = world.rng.fork("chaos-workload")
    storage = cloud.storage
    assert storage is not None

    def seed_files() -> None:
        for file_id in _FILE_IDS:
            if cloud.membership.member_ids() and not storage.holders_of(file_id):
                cloud.store_put(file_id, size_bytes=1_000_000, target_replicas=3)

    def churn() -> None:
        members = sorted(cloud.membership.member_ids())
        if not members:
            return
        file_id = rng.choice(_FILE_IDS)
        if not storage.holders_of(file_id):
            return
        if rng.chance(0.5):
            cloud.store_write(file_id, writer=rng.choice(members))
        else:
            cloud.store_read(file_id)

    world.engine.schedule(0.5, seed_files, label="chaos-seed-files")
    world.engine.call_every(period_s, churn, label="chaos-storage-workload")


def task_stream(
    world: World, cloud: VehicularCloud, count: int = 10, work_mi: float = 2500.0
) -> List:
    """Submit ``count`` long tasks early so faults interrupt them."""
    records: List = []
    for index in range(count):
        world.engine.schedule_at(
            1.0 + index * 2.0,
            lambda: records.append(cloud.submit(Task(work_mi=work_mi))),
            label="chaos-task",
        )
    return records


def standard_invariants(
    cloud: VehicularCloud,
    world: World,
    checker: ConsistencyChecker,
    external_heads=(),
    stranded_grace_s: float = 12.0,
) -> List[Invariant]:
    return [
        Conservation(cloud),
        LeaseExclusivity(cloud),
        SingleHead(cloud, external_heads=external_heads),
        MembershipAgreement(cloud),
        QuorumSafety(checker),
        ChannelConservation(world),
        StrandedTasks(cloud, grace_s=stranded_grace_s),
    ]


def attach_stack(world: World, vehicles):
    """Channel + node + beacon per vehicle; returns (channel, lookup)."""
    channel = WirelessChannel(world)
    nodes: Dict[str, VehicleNode] = {}
    for vehicle in vehicles:
        node = VehicleNode(world, channel, vehicle)
        BeaconService(world, node).start()
        nodes[vehicle.vehicle_id] = node

    def lookup(node_id: str) -> Optional[object]:
        return nodes.get(node_id)

    return channel, lookup


def finish_storage(cloud: VehicularCloud, hardened: bool) -> ConsistencyChecker:
    if hardened:
        harden_cloud(cloud)
    else:
        weaken_cloud(cloud)
    checker = ConsistencyChecker(metrics=cloud.world.metrics)
    assert cloud.storage is not None
    checker.attach(cloud.storage)
    return checker


def stationary_scenario(seed: int, hardened: bool = True, members: int = 8):
    """A parked-fleet cloud on a controlled stationary grid."""
    from .runner import ChaosScenario

    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(members)]
    )
    vehicles = model.populate(members)
    channel, lookup = attach_stack(world, vehicles)
    cloud = VehicularCloud(
        world, "chaos-stationary-vc", handover_policy=CheckpointHandoverPolicy()
    )
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6)
        )
    checker = finish_storage(cloud, hardened)
    task_stream(world, cloud)
    storage_workload(world, cloud)
    return ChaosScenario(
        world=world,
        invariants=standard_invariants(cloud, world, checker),
        cloud=cloud,
        channel=channel,
        node_lookup=lookup,
        label="stationary",
    )


def dynamic_scenario(seed: int, hardened: bool = True, vehicles: int = 12):
    """A self-organized highway cloud with an elected captain."""
    from .runner import ChaosScenario

    world = World(ScenarioConfig(seed=seed, vehicle_count=vehicles))
    highway = Highway(length_m=3000.0)
    model = HighwayModel(world, highway)
    model.populate(vehicles)
    model.start()
    channel, lookup = attach_stack(world, model.vehicles)
    arch = DynamicVCloud(world, model)
    arch.start()
    cloud = arch.cloud
    checker = finish_storage(cloud, hardened)
    task_stream(world, cloud)
    storage_workload(world, cloud)
    # A dynamic cloud re-elects its captain and churns members as
    # vehicles move, so membership-derived tables may lag one refresh
    # interval; give agreement a convergence window and stranded tasks
    # extra grace for handover-in-progress.
    invariants: List[Invariant] = [
        Conservation(cloud),
        LeaseExclusivity(cloud),
        SingleHead(cloud),
        MembershipAgreement(cloud, convergence_s=2.0),
        QuorumSafety(checker),
        ChannelConservation(world),
        StrandedTasks(cloud, grace_s=12.0),
    ]
    return ChaosScenario(
        world=world,
        invariants=invariants,
        cloud=cloud,
        channel=channel,
        node_lookup=lookup,
        label="dynamic",
    )


def infrastructure_scenario(seed: int, hardened: bool = True, vehicles: int = 14):
    """An RSU-anchored highway cloud (the RSU is the external head)."""
    from .runner import ChaosScenario

    world = World(ScenarioConfig(seed=seed, vehicle_count=vehicles))
    highway = Highway(length_m=3000.0)
    model = HighwayModel(world, highway)
    model.populate(vehicles)
    model.start()
    channel = WirelessChannel(world)
    rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=1500.0)
    nodes: Dict[str, VehicleNode] = {}
    for vehicle in model.vehicles:
        node = VehicleNode(world, channel, vehicle)
        BeaconService(world, node).start()
        nodes[vehicle.vehicle_id] = node

    def lookup(node_id: str) -> Optional[object]:
        return nodes.get(node_id)

    arch = InfrastructureVCloud(world, rsus[0], model)
    arch.start()
    cloud = arch.cloud
    checker = finish_storage(cloud, hardened)
    task_stream(world, cloud)
    storage_workload(world, cloud)
    invariants: List[Invariant] = [
        Conservation(cloud),
        LeaseExclusivity(cloud),
        SingleHead(cloud, external_heads=(rsus[0].node_id,)),
        MembershipAgreement(cloud, convergence_s=2.0),
        QuorumSafety(checker),
        ChannelConservation(world),
        StrandedTasks(cloud, grace_s=12.0),
    ]
    return ChaosScenario(
        world=world,
        invariants=invariants,
        cloud=cloud,
        channel=channel,
        infrastructure=rsus,
        node_lookup=lookup,
        label="infrastructure",
    )


def overload_scenario(seed: int, hardened: bool = True, members: int = 8):
    """A stationary cloud behind a protected serving gateway, overloaded.

    Open-loop traffic at roughly twice the fleet's compute capacity
    pushes the gateway into sustained admission rejection and load
    shedding *while* the chaos campaign injects faults — the regime in
    which request-accounting bugs (a shed victim also dispatched, a
    hedge loser finalized twice) would surface.
    :class:`~.invariants.Conservation` holds the gateway to its
    conservation law throughout.
    """
    from ..serve import (
        CircuitBreakerBoard,
        CompositeAdmission,
        DeadlineFeasibilityAdmission,
        DeadlineLapseShedder,
        HedgePolicy,
        PoissonArrivals,
        QueueDelayShedder,
        ServiceGateway,
        TenantFairShareAdmission,
        TenantSpec,
        WorkloadGenerator,
    )
    from .invariants import Conservation
    from .runner import ChaosScenario

    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(members)]
    )
    vehicles = model.populate(members)
    channel, lookup = attach_stack(world, vehicles)
    cloud = VehicularCloud(
        world, "chaos-overload-vc", handover_policy=CheckpointHandoverPolicy()
    )
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6)
        )
    checker = finish_storage(cloud, hardened)
    gateway = ServiceGateway(
        world,
        cloud,
        name="chaos-overload",
        queue_capacity=32,
        admission=CompositeAdmission([
            DeadlineFeasibilityAdmission(),
            TenantFairShareAdmission(share=0.7),
        ]),
        shedders=[DeadlineLapseShedder(), QueueDelayShedder(max_delay_s=4.0)],
        breakers=CircuitBreakerBoard(world, "chaos-overload"),
        hedging=HedgePolicy(),
    )
    # ~2x the fleet's compute capacity: (members-1) workers x 100 MIPS
    # against 200 MI tasks is (members-1)/2 tasks/s sustainable.
    overload_rate = float(members - 1)
    tenants = [
        TenantSpec(
            name="bulk",
            arrivals=PoissonArrivals(overload_rate * 0.7),
            work_mi_range=(150.0, 250.0),
            deadline_s=8.0,
            priority=2,
        ),
        TenantSpec(
            name="interactive",
            arrivals=PoissonArrivals(overload_rate * 0.3),
            work_mi_range=(100.0, 200.0),
            deadline_s=6.0,
            priority=1,
        ),
    ]
    WorkloadGenerator(world, gateway, tenants, horizon_s=600.0).start()
    storage_workload(world, cloud)
    invariants = standard_invariants(cloud, world, checker)
    invariants.append(Conservation(gateway))
    return ChaosScenario(
        world=world,
        invariants=invariants,
        cloud=cloud,
        channel=channel,
        node_lookup=lookup,
        label="overload",
    )
