"""CI overload smoke: fixed seed, short run, fails loud.

Run as ``python -m repro.serve.smoke``.  Builds a stationary cloud
behind the protected gateway, drives ~2x-capacity open-loop traffic at
a pinned seed, and asserts the overload machinery actually engaged:

* the load shedder fired (shed counter > 0) and every shed/rejected
  request carries a typed reason;
* small-task batching engaged: the gateway runs with a
  :class:`~repro.serve.batching.BatchingPolicy` and a small-request
  tenant, so compatible queued smalls must coalesce
  (``batches_dispatched > 0``) with per-member accounting intact;
* the :class:`~repro.chaos.invariants.Conservation` invariant
  held at every periodic check (zero violations);
* the request stream balances at the end of the run.
"""

from __future__ import annotations

import sys

from ..chaos.invariants import Conservation, InvariantSuite
from ..core import CheckpointHandoverPolicy, ResourceOffer, VehicularCloud
from ..geometry import Vec2
from ..mobility import StationaryModel
from ..sim import ScenarioConfig, World
from . import (
    BatchingPolicy,
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

SEED = 1916
MEMBERS = 8
HORIZON_S = 60.0
DRAIN_S = 30.0


def main() -> int:
    world = World(ScenarioConfig(seed=SEED))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(MEMBERS)]
    )
    vehicles = model.populate(MEMBERS)
    cloud = VehicularCloud(
        world, "smoke-vc", handover_policy=CheckpointHandoverPolicy()
    )
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6)
        )
    gateway = ServiceGateway(
        world,
        cloud,
        name="smoke",
        queue_capacity=32,
        admission=CompositeAdmission([
            DeadlineFeasibilityAdmission(),
            TenantFairShareAdmission(share=0.7),
        ]),
        shedders=[DeadlineLapseShedder(), QueueDelayShedder(max_delay_s=4.0)],
        breakers=CircuitBreakerBoard(world, "smoke"),
        hedging=HedgePolicy(),
        batching=BatchingPolicy(
            max_batch_size=4, max_member_work_mi=50.0, max_batch_work_mi=160.0
        ),
    )
    # ~2x capacity: 7 workers x 100 MIPS vs ~200 MI tasks = 3.5 tasks/s,
    # plus a stream of batchable telemetry smalls that must coalesce
    # whenever the overloaded queue holds several of them.
    tenants = [
        TenantSpec(
            name="bulk", arrivals=PoissonArrivals(4.9),
            work_mi_range=(150.0, 250.0), deadline_s=8.0, priority=2,
        ),
        TenantSpec(
            name="interactive", arrivals=PoissonArrivals(2.1),
            work_mi_range=(100.0, 200.0), deadline_s=6.0, priority=1,
        ),
        TenantSpec(
            name="telemetry", arrivals=PoissonArrivals(10.0),
            work_mi_range=(20.0, 40.0), deadline_s=6.0, priority=1,
        ),
    ]
    WorkloadGenerator(world, gateway, tenants, horizon_s=HORIZON_S).start()
    suite = InvariantSuite([Conservation(gateway)], metrics=world.metrics)
    suite.attach(world, check_interval_s=0.5)
    world.run_until(HORIZON_S + DRAIN_S)

    failures = 0
    acc = gateway.accounting()
    stats = gateway.stats
    print(f"accounting: {acc}")
    print(f"rejections: {stats.rejection_reasons}")
    print(f"sheds:      {stats.shed_reasons}")
    print(
        f"slo: hits={stats.slo_hits} misses={stats.slo_misses} "
        f"p99={stats.p99_latency_s():.2f}s"
    )
    print(
        f"batching: batches={stats.batches_dispatched} "
        f"members={stats.batched_requests}"
    )
    print(f"invariant checks: {suite.checks_run}, violations: {len(suite.violations)}")

    if stats.shed == 0:
        failures += 1
        print("!! load shedder never fired under 2x overload")
    if stats.batches_dispatched == 0:
        failures += 1
        print("!! small-task batching never coalesced a dispatch under overload")
    if sum(stats.shed_reasons.values()) != stats.shed:
        failures += 1
        print("!! shed counter disagrees with typed shed reasons")
    if sum(stats.rejection_reasons.values()) != stats.rejected:
        failures += 1
        print("!! rejection counter disagrees with typed rejection reasons")
    if suite.violations:
        failures += 1
        for violation in suite.violations[:5]:
            print(f"!! {violation.describe()}")
    if acc["offered"] != acc["admitted"] + acc["rejected"]:
        failures += 1
        print("!! offered != admitted + rejected at end of run")
    if acc["queued"] != 0 or acc["inflight"] != 0:
        failures += 1
        print("!! requests still queued/in-flight after drain window")

    if failures:
        print(f"OVERLOAD SMOKE FAILED ({failures} problem(s))")
        return 1
    print("overload smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
