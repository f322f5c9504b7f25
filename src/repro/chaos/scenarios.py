"""The three Fig. 4 architectures, built once for chaos and campaign runs.

Each architecture builder (:func:`stationary_architecture`,
:func:`dynamic_architecture`, :func:`infrastructure_architecture`)
returns a :class:`~.runner.ChaosScenario` with no workload: a fresh
world, a started cloud with replicated storage, a full radio stack (so
network faults have something to bite on), and the invariant set from
:func:`standard_invariants`.  The chaos scenarios add the chaos workload
(:func:`task_stream` + :func:`storage_workload`);
:func:`repro.campaign.build_scenario` adds its own workload attachers to
the same builders.

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

from typing import Any, Callable, Dict, List, Optional, Sequence

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
from ..mobility import (
    Highway,
    HighwayModel,
    ManhattanGrid,
    ManhattanModel,
    StationaryModel,
)
from ..net import BeaconService, VehicleNode, WirelessChannel
from ..serve import ServiceGateway, WorkloadGenerator, tenant_mix
from ..sim import ScenarioConfig, World
from .invariants import (
    ChannelConservation,
    Conservation,
    Invariant,
    LeaseExclusivity,
    MembershipAgreement,
    QuorumSafety,
    SingleHead,
    StrandedTasks,
)
from .runner import ChaosScenario

__all__ = [
    "attach_stack",
    "harden_cloud",
    "standard_invariants",
    "storage_workload",
    "task_stream",
    "weaken_cloud",
    "stationary_architecture",
    "dynamic_architecture",
    "infrastructure_architecture",
    "stationary_scenario",
    "dynamic_scenario",
    "infrastructure_scenario",
    "overload_scenario",
    "CHAOS_BACKOFF",
    "MOBILE_CONVERGENCE_S",
    "STORAGE_PERIOD_S",
    "STRANDED_GRACE_S",
]

CHAOS_BACKOFF = BackoffPolicy(
    base_delay_s=0.5, multiplier=2.0, max_delay_s=8.0, jitter_fraction=0.1
)

#: Grace a task may sit unowned before :class:`StrandedTasks` flags it.
STRANDED_GRACE_S = 12.0

#: A mobile cloud re-elects its captain and churns members as vehicles
#: move, so membership-derived tables may lag one refresh interval.
MOBILE_CONVERGENCE_S = 2.0

#: Period of the storage read/write churn of :func:`storage_workload`.
STORAGE_PERIOD_S = 2.0

_FILE_IDS = ("chaos-file-a", "chaos-file-b", "chaos-file-c")

#: Mobility models a dynamic cloud can ride on.
_MOBILE_MODELS: Dict[str, Callable[[World], Any]] = {
    "highway": lambda world: HighwayModel(world, Highway(length_m=3000.0)),
    "grid": lambda world: ManhattanModel(
        world, ManhattanGrid(blocks_x=4, blocks_y=4, block_size_m=400.0)
    ),
}


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


def storage_workload(world: World, cloud: VehicularCloud) -> None:
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
    world.engine.call_every(STORAGE_PERIOD_S, churn, label="chaos-storage-workload")


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
    external_heads: Sequence[str] = (),
    convergence_s: float = 0.0,
) -> List[Invariant]:
    """The invariant set every architecture is held to."""
    return [
        Conservation(cloud),
        LeaseExclusivity(cloud),
        SingleHead(cloud, external_heads=external_heads),
        MembershipAgreement(cloud, convergence_s=convergence_s),
        QuorumSafety(checker),
        ChannelConservation(world),
        StrandedTasks(cloud, grace_s=STRANDED_GRACE_S),
    ]


def attach_stack(channel: WirelessChannel, vehicles) -> Callable[[str], Optional[object]]:
    """A radio node + beacon per vehicle on ``channel``; returns the node lookup."""
    nodes: Dict[str, VehicleNode] = {}
    for vehicle in vehicles:
        node = VehicleNode(channel.world, channel, vehicle)
        BeaconService(channel.world, node).start()
        nodes[vehicle.vehicle_id] = node
    return nodes.get


def _scenario(
    label: str,
    cloud: VehicularCloud,
    channel: WirelessChannel,
    lookup: Callable[[str], Optional[object]],
    hardened: bool,
    rsus: Sequence = (),
    convergence_s: float = MOBILE_CONVERGENCE_S,
) -> ChaosScenario:
    """Storage hardening, consistency checking and invariants for ``cloud``."""
    if hardened:
        harden_cloud(cloud)
    else:
        weaken_cloud(cloud)
    world = cloud.world
    checker = ConsistencyChecker(metrics=world.metrics)
    assert cloud.storage is not None
    checker.attach(cloud.storage)
    invariants = standard_invariants(
        cloud,
        world,
        checker,
        external_heads=tuple(rsu.node_id for rsu in rsus[:1]),
        convergence_s=convergence_s,
    )
    return ChaosScenario(
        world=world,
        invariants=invariants,
        cloud=cloud,
        channel=channel,
        infrastructure=rsus,
        node_lookup=lookup,
        label=label,
    )


# -- the three Fig. 4 architectures (no workload) ------------------------------


def stationary_architecture(
    seed: int,
    members: int = 8,
    hardened: bool = True,
    cloud_id: str = "chaos-stationary-vc",
) -> ChaosScenario:
    """A parked fleet on a controlled stationary grid.

    ``cloud_id`` names the RNG substreams of the cloud, so each caller
    keeps its own.
    """
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(members)]
    )
    vehicles = model.populate(members)
    channel = WirelessChannel(world)
    lookup = attach_stack(channel, vehicles)
    cloud = VehicularCloud(world, cloud_id, handover_policy=CheckpointHandoverPolicy())
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6)
        )
    return _scenario("stationary", cloud, channel, lookup, hardened, convergence_s=0.0)


def dynamic_architecture(
    seed: int, vehicles: int = 12, hardened: bool = True, mobility: str = "highway"
) -> ChaosScenario:
    """A self-organized cloud with an elected captain on a moving fleet."""
    world = World(ScenarioConfig(seed=seed, vehicle_count=vehicles))
    model = _MOBILE_MODELS[mobility](world)
    model.populate(vehicles)
    model.start()
    channel = WirelessChannel(world)
    lookup = attach_stack(channel, model.vehicles)
    arch = DynamicVCloud(world, model)
    arch.start()
    return _scenario("dynamic", arch.cloud, channel, lookup, hardened)


def infrastructure_architecture(
    seed: int, vehicles: int = 14, hardened: bool = True
) -> ChaosScenario:
    """An RSU-anchored highway cloud (the first RSU is the external head)."""
    world = World(ScenarioConfig(seed=seed, vehicle_count=vehicles))
    highway = Highway(length_m=3000.0)
    model = HighwayModel(world, highway)
    model.populate(vehicles)
    model.start()
    channel = WirelessChannel(world)
    rsus = deploy_rsus_on_highway(world, channel, highway, spacing_m=1500.0)
    lookup = attach_stack(channel, model.vehicles)
    arch = InfrastructureVCloud(world, rsus[0], model)
    arch.start()
    return _scenario("infrastructure", arch.cloud, channel, lookup, hardened, rsus=rsus)


# -- chaos scenarios: architecture + chaos workload ----------------------------


def _chaos_workload(scenario: ChaosScenario) -> ChaosScenario:
    task_stream(scenario.world, scenario.cloud)
    storage_workload(scenario.world, scenario.cloud)
    return scenario


def stationary_scenario(seed: int, hardened: bool = True, members: int = 8):
    """A parked-fleet cloud under the chaos task and storage workload."""
    return _chaos_workload(stationary_architecture(seed, members, hardened))


def dynamic_scenario(seed: int, hardened: bool = True, vehicles: int = 12):
    """A self-organized highway cloud under the chaos workload."""
    return _chaos_workload(dynamic_architecture(seed, vehicles, hardened))


def infrastructure_scenario(seed: int, hardened: bool = True, vehicles: int = 14):
    """An RSU-anchored highway cloud under the chaos workload."""
    return _chaos_workload(infrastructure_architecture(seed, vehicles, hardened))


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
    scenario = stationary_architecture(
        seed, members, hardened, cloud_id="chaos-overload-vc"
    )
    world = scenario.world
    gateway = ServiceGateway.protected(world, scenario.cloud, name="chaos-overload")
    # ~2x the fleet's compute capacity: (members-1) workers x 100 MIPS
    # against 200 MI tasks is (members-1)/2 tasks/s sustainable.
    tenants = tenant_mix(float(members - 1))
    WorkloadGenerator(world, gateway, tenants, horizon_s=600.0).start()
    storage_workload(world, scenario.cloud)
    scenario.invariants.append(Conservation(gateway))
    scenario.gateway = gateway
    scenario.label = "overload"
    return scenario
