"""CI tier smoke: speculation through a backhaul outage, fails loud.

Run as ``python -m repro.tier.smoke``.  Builds a two-tier hierarchy —
a parked local v-cloud and a fast central cloud behind a
:class:`~repro.tier.backhaul.BackhaulLink` — submits a steady stream of
deadline-critical tasks under the ``speculate`` policy, cuts the
backhaul mid-run with a :class:`~repro.faults.plan.FaultPlan` partition
driven through :class:`~repro.faults.backhaul.BackhaulFaultDriver`,
and asserts:

* every task resolved (none stuck) with **100% deadline hits** — the
  outage costs latency, never deadline safety;
* the :class:`~repro.chaos.invariants.Conservation` verdicts
  (``tier-conservation`` and ``task-conservation``) are clean
  at every periodic check;
* speculation actually engaged (remote wins + losers cancelled) and
  actually degraded during the outage (``backhaul_degraded`` ledgered),
  so the smoke exercised both halves of the mechanism.
"""

from __future__ import annotations

import sys

from ..chaos.invariants import Conservation, InvariantSuite
from ..core import ResourceOffer, VehicularCloud
from ..core.tasks import Task
from ..faults.backhaul import BackhaulFaultDriver
from ..faults.plan import FaultPlan
from ..geometry import Vec2
from ..infra.central_cloud import CentralCloud
from ..mobility import StationaryModel
from ..sim import ScenarioConfig, World
from .backhaul import BackhaulLink
from .health import TierHealthTracker
from .offloader import TieredOffloader
from .topology import CentralCloudTier, TierTopology, VCloudTier

SEED = 2024
MEMBERS = 6
TASKS = 20
TASK_INTERVAL_S = 2.0
DEADLINE_S = 10.0
WORK_MI = 600.0
OUTAGE_AT_S = 15.0
OUTAGE_S = 10.0
HORIZON_S = 80.0


def build(seed: int = SEED):
    """Stand up the smoke scenario; returns (world, offloader, suite, driver)."""
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 30.0, 0.0) for i in range(MEMBERS)]
    )
    vehicles = model.populate(MEMBERS)
    cloud = VehicularCloud(world, "tier-smoke-local")
    for vehicle in vehicles:
        cloud.admit(
            vehicle,
            offer=ResourceOffer(vehicle.vehicle_id, 200.0, 10**9, 1e6),
        )

    central = CentralCloud(world, compute_mips=50_000.0, wan_delay_s=0.04)
    link = BackhaulLink(
        world, "smoke-wan", base_latency_s=0.05, jitter_s=0.01, loss_probability=0.02
    )
    topology = TierTopology()
    topology.register(VCloudTier(world, "local-vc", "local", cloud))
    topology.register(CentralCloudTier(world, "central", central, link))
    offloader = TieredOffloader(
        world, topology, health=TierHealthTracker(world), name="smoke"
    )

    for index in range(TASKS):
        world.engine.schedule_at(
            index * TASK_INTERVAL_S,
            lambda: offloader.submit(
                Task(work_mi=WORK_MI, deadline_s=DEADLINE_S, submitter="smoke"),
                policy="speculate",
            ),
            label="tier-smoke-submit",
        )

    plan = FaultPlan(seed).partition(OUTAGE_AT_S, duration_s=OUTAGE_S)
    driver = BackhaulFaultDriver(world.engine, link, plan)
    driver.arm()

    suite = InvariantSuite(
        [Conservation(cloud), Conservation(offloader)],
        metrics=world.metrics,
    )
    suite.attach(world, check_interval_s=0.5)
    return world, offloader, suite, driver


def main() -> int:
    world, offloader, suite, driver = build()
    world.run_until(HORIZON_S)

    failures = 0
    stats = offloader.stats
    acc = offloader.accounting()
    print(f"accounting: {acc}")
    print(
        f"deadline hits: {stats.deadline_hits}/{TASKS} "
        f"(misses {stats.deadline_misses})"
    )
    print(f"wins by tier: {stats.wins_by_tier}")
    print(
        f"speculated={stats.speculated} degraded={stats.degraded} "
        f"cancelled={stats.attempts_cancelled} late={stats.attempts_late}"
    )
    print(f"backhaul ledger: {driver.ledger}")
    print(f"invariant checks: {suite.checks_run}, violations: {len(suite.violations)}")

    if acc["submitted"] != TASKS:
        failures += 1
        print(f"!! expected {TASKS} tasks submitted, saw {acc['submitted']}")
    if acc["live"] != 0:
        failures += 1
        print(f"!! {acc['live']} task(s) never resolved")
    if stats.deadline_hits != TASKS or stats.deadline_misses != 0:
        failures += 1
        print(
            f"!! deadline safety broken: {stats.deadline_hits} hits, "
            f"{stats.deadline_misses} misses (need {TASKS}/0)"
        )
    if suite.violations:
        failures += 1
        for violation in suite.violations[:5]:
            print(f"!! {violation.describe()}")
    if not driver.ledger:
        failures += 1
        print("!! backhaul outage never fired (smoke exercised nothing)")
    if stats.degraded.get("backhaul_degraded", 0) == 0:
        failures += 1
        print("!! no backhaul_degraded collapse during the outage window")
    if stats.speculated == 0 or stats.attempts_cancelled == 0:
        failures += 1
        print("!! speculation never engaged (no races, no cancelled losers)")

    if failures:
        print(f"TIER SMOKE FAILED ({failures} problem(s))")
        return 1
    print("tier smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
