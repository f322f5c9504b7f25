"""CI DAG smoke: fixed-seed DAG run under churn, fails loud.

Run as ``python -m repro.dag.smoke``.  Builds a stationary cloud with
leases, backoff and replicated storage, submits a staggered stream of
pipeline and map-reduce graphs through the dependable
:class:`~repro.dag.scheduler.DagScheduler` (reliability-aware
redundancy + checkpointing), crashes a third of the members mid-run,
and asserts:

* every graph reached a typed terminal state (none stuck running);
* the :class:`~repro.chaos.invariants.Conservation` invariants
  (``dag-conservation`` and ``task-conservation``) held at
  every periodic check (zero violations);
* the graph and replica streams balance at the end of the run;
* the capacity-aware planner path engaged: the scheduler runs with a
  :class:`~repro.core.capacity.BacklogEstimator` (E18's adaptive
  configuration), so stage plans must ledger ``predicted_deadline_hit``
  — only candidate-drought fallbacks may use the static rule.
"""

from __future__ import annotations

import sys

from ..chaos.invariants import Conservation, InvariantSuite
from ..core import (
    BackoffPolicy,
    BacklogEstimator,
    CheckpointHandoverPolicy,
    ResourceOffer,
    VehicularCloud,
)
from ..faults import FaultInjector, FaultPlan
from ..geometry import Vec2
from ..mobility import StationaryModel
from ..sim import ScenarioConfig, World
from . import (
    DagScheduler,
    GraphState,
    RedundancyPlanner,
    ReliabilityEstimator,
    map_reduce_template,
    pipeline_template,
)

SEED = 1717
MEMBERS = 10
GRAPHS = 6
HORIZON_S = 240.0


def main() -> int:
    world = World(ScenarioConfig(seed=SEED))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(MEMBERS)]
    )
    vehicles = model.populate(MEMBERS)
    cloud = VehicularCloud(
        world,
        "dag-smoke-vc",
        handover_policy=CheckpointHandoverPolicy(),
        retry_backoff=BackoffPolicy(
            base_delay_s=0.5, multiplier=2.0, max_delay_s=8.0, jitter_fraction=0.1
        ),
    )
    # Heterogeneous workers: replica runtimes diverge, so first-result-
    # wins actually has losers to cancel.
    for index, vehicle in enumerate(vehicles):
        cloud.admit(
            vehicle,
            offer=ResourceOffer(
                vehicle.vehicle_id, 70.0 + 10.0 * index, 10**9, 1e6
            ),
        )
    cloud.enable_worker_leases(lease_duration_s=4.0, sweep_interval_s=1.0)
    cloud.enable_replicated_storage(capacity_bytes=10**8)
    scheduler = DagScheduler(
        world,
        cloud,
        name="smoke",
        reliability=ReliabilityEstimator(cloud),
        redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
        checkpointing=True,
        backlog=BacklogEstimator(cloud),
    )

    templates = [
        pipeline_template([(800.0, 1200.0)] * 3, deadline_s=120.0),
        map_reduce_template(3, (500.0, 900.0), (600.0, 800.0), deadline_s=120.0),
    ]
    rng = world.rng.fork("dag/smoke")
    for index in range(GRAPHS):
        template = templates[index % len(templates)]
        world.engine.schedule_at(
            index * 5.0,
            lambda t=template: scheduler.submit(t.instantiate(rng, submitter="smoke")),
            label="graph-submit",
        )

    targets = [m for m in cloud.membership.member_ids() if m != cloud.head_id]
    plan = FaultPlan(SEED).random_crashes(
        round(MEMBERS / 3), (10.0, 60.0), targets=targets
    )
    FaultInjector(world, plan, cloud=cloud).arm()

    suite = InvariantSuite(
        [Conservation(cloud), Conservation(scheduler)], metrics=world.metrics
    )
    suite.attach(world, check_interval_s=0.5)
    world.run_until(HORIZON_S)

    failures = 0
    acc = scheduler.accounting()
    stats = scheduler.stats
    print(f"accounting: {acc}")
    print(f"failure reasons: {stats.failure_reasons}")
    print(
        f"stages: completed={stats.stages_completed} "
        f"reexecuted={stats.stages_reexecuted} "
        f"checkpoints={stats.checkpoint_writes} "
        f"redundant={stats.redundant_dispatches} "
        f"cancelled={stats.replicas_cancelled} "
        f"load_shed={stats.replicas_load_shed}"
    )
    print(f"invariant checks: {suite.checks_run}, violations: {len(suite.violations)}")

    if acc["graphs_submitted"] != GRAPHS:
        failures += 1
        print(f"!! expected {GRAPHS} graphs submitted, saw {acc['graphs_submitted']}")
    stuck = [r for r in scheduler.records if r.state is GraphState.RUNNING]
    if stuck:
        failures += 1
        print(f"!! {len(stuck)} graph(s) still running after the horizon")
    if sum(stats.failure_reasons.values()) != stats.graphs_failed:
        failures += 1
        print("!! graph failure counter disagrees with typed failure reasons")
    if acc["replicas_live"] != 0:
        failures += 1
        print("!! live replicas remain after every graph reached a terminal state")
    if suite.violations:
        failures += 1
        for violation in suite.violations[:5]:
            print(f"!! {violation.describe()}")
    if cloud.stats.worker_crashes == 0:
        failures += 1
        print("!! fault plan never fired (smoke exercised nothing)")
    # Plans made during a candidate drought legitimately fall back to
    # the static rule, so require the adaptive ledger on the rest.
    ledgered = sum(
        1
        for record in scheduler.records
        for run in record.stages.values()
        if run.last_plan is not None
        and run.last_plan.predicted_deadline_hit is not None
    )
    if ledgered == 0:
        failures += 1
        print(
            "!! no stage plan ledgered a predicted_deadline_hit — the "
            "capacity-aware planner path never engaged"
        )

    if failures:
        print(f"DAG SMOKE FAILED ({failures} problem(s))")
        return 1
    print("dag smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
