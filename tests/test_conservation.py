"""The declared-ledger :class:`~repro.chaos.Conservation` invariant.

Every owner declares its balance equations next to ``accounting()``;
these tests tamper with each declared counter in turn and forge second
winners into the races the owners expose.
"""

from __future__ import annotations

import pytest

from repro.chaos import Conservation
from repro.core import ResourceOffer, Task, VehicularCloud
from repro.core.race import WON
from repro.dag import DagScheduler, RedundancyPlanner, ReliabilityEstimator, chain
from repro.geometry import Vec2
from repro.infra.central_cloud import CentralCloud
from repro.mobility import StationaryModel
from repro.serve import HedgePolicy, ServiceGateway, ServiceRequest
from repro.sim import ScenarioConfig, World
from repro.tier import BackhaulLink, CentralCloudTier, TieredOffloader, TierTopology, VCloudTier


def _cloud(members=6, seed=7):
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(world, positions=[Vec2(i * 40.0, 0.0) for i in range(members)])
    cloud = VehicularCloud(world, "conservation-vc")
    for index, vehicle in enumerate(model.populate(members)):
        offer = ResourceOffer(vehicle.vehicle_id, 100.0 + 10.0 * index, 10**9, 1e6)
        cloud.admit(vehicle, offer=offer)
    return world, cloud


def _hedging_gateway():
    world, cloud = _cloud(members=3)
    gateway = ServiceGateway(
        world, cloud, name="gw", queue_capacity=8,
        hedging=HedgePolicy(quantile=0.9, fallback_factor=1.5),
    )
    return world, cloud, gateway


def _redundant_scheduler():
    world, cloud = _cloud()
    scheduler = DagScheduler(
        world,
        cloud,
        # A pessimistic prior forces every stage to replicate.
        reliability=ReliabilityEstimator(cloud, prior_events=50.0, prior_exposure_s=100.0),
        redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
    )
    return world, scheduler


def _owner_cloud():
    world, cloud = _cloud()
    cloud.submit(Task(work_mi=300.0))
    world.run_for(10.0)
    return world, cloud


def _owner_gateway():
    world, _cloud_, gateway = _hedging_gateway()
    for _ in range(3):
        gateway.submit(ServiceRequest.build(work_mi=200.0, tenant="t", deadline_s=30.0))
    world.run_for(10.0)
    return world, gateway


def _owner_dag():
    world, scheduler = _redundant_scheduler()
    scheduler.submit(chain([500.0, 500.0], deadline_s=120.0))
    world.run_for(120.0)
    return world, scheduler


def _owner_tier():
    world, cloud = _cloud(members=3)
    link = BackhaulLink(world, "wan", base_latency_s=0.05)
    topology = TierTopology()
    topology.register(VCloudTier(world, "local", "local", cloud))
    topology.register(
        CentralCloudTier(world, "central", CentralCloud(world, compute_mips=2_000.0), link)
    )
    offloader = TieredOffloader(world, topology, name="t")
    for _ in range(3):
        offloader.submit(Task(work_mi=200.0, deadline_s=8.0), policy="speculate")
    world.run_for(30.0)
    return world, offloader


OWNERS = {
    "task-conservation": (VehicularCloud, _owner_cloud, 4),
    "serving-conservation": (ServiceGateway, _owner_gateway, 2),
    "dag-conservation": (DagScheduler, _owner_dag, 6),
    "tier-conservation": (TieredOffloader, _owner_tier, 3),
}

TAMPER_CASES = [
    (name, key)
    for name, (owner_type, _build, _count) in OWNERS.items()
    for key in dict.fromkeys(
        term for lhs, rhs, *_note in owner_type.balances for term in (lhs, *rhs)
    )
]


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_owner_declares_its_equations(name):
    owner_type, build, count = OWNERS[name]
    assert owner_type.conservation_name == name
    assert len(owner_type.balances) == count
    world, owner = build()
    assert Conservation(owner).check(world.now) == []


@pytest.mark.parametrize(("name", "key"), TAMPER_CASES)
def test_tampered_counter_is_reported_under_the_owner_name(name, key, monkeypatch):
    _owner_type, build, _count = OWNERS[name]
    world, owner = build()
    ledger = owner.accounting()
    monkeypatch.setattr(owner, "accounting", lambda: {**ledger, key: ledger[key] + 1})
    violations = Conservation(owner).check(world.now)
    assert violations
    assert {v.invariant for v in violations} == {name}
    assert all(key in v.message for v in violations)


def test_negative_ledger_value_is_reported(monkeypatch):
    world, offloader = _owner_tier()
    ledger = offloader.accounting()
    forged = {**ledger, "live": -1, "submitted": ledger["submitted"] - 1}
    monkeypatch.setattr(offloader, "accounting", lambda: forged)
    messages = [v.message for v in Conservation(offloader).check(world.now)]
    assert any("negative ledger values: live -1" in m for m in messages)


def test_forged_second_winner_in_a_gateway_hedge_race():
    world, cloud, gateway = _hedging_gateway()
    gateway.submit(ServiceRequest.build(work_mi=400.0, tenant="t", deadline_s=60.0))
    world.run_until(0.5)
    race = next(iter(gateway._inflight.values())).race
    cloud.stall_worker(race.attempts[0].worker_id, 30.0)
    while gateway.stats.hedges_launched == 0 and world.now < 30.0:
        world.run_for(0.5)
    assert len(race.attempts) == 2 and not race.resolved
    invariant = Conservation(gateway)
    assert invariant.check(world.now) == []
    race.states[:] = [WON, WON]
    violations = invariant.check(world.now)
    assert [v.invariant for v in violations] == ["serving-conservation"]
    assert "2 uncancelled winners" in violations[0].message


def test_forged_second_winner_in_a_dag_stage_race():
    world, scheduler = _redundant_scheduler()
    record = scheduler.submit(chain([1000.0], deadline_s=120.0))
    world.run_for(120.0)
    (race,) = record.stages["s0"].races
    assert race.states.count(WON) == 1 and len(race.attempts) >= 2
    invariant = Conservation(scheduler)
    assert invariant.check(world.now) == []
    race.states[1 if race.states[0] == WON else 0] = WON
    violations = invariant.check(world.now)
    assert [v.invariant for v in violations] == ["dag-conservation"]
    assert "2 uncancelled winners" in violations[0].message
