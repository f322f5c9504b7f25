"""Experiment E18 — capacity-aware redundancy and small-task batching.

E17 exposed a defect, not a tuning issue: the survival-only
`RedundancyPlanner` grows replica sets exactly when churn has shrunk
the fleet, so replication multiplies queued work and deadline misses —
a positive feedback loop.  This experiment measures the fix: the same
dependable DAG configuration with and without the shared
:class:`~repro.core.capacity.BacklogEstimator` wired between the
serving gateway and the DAG scheduler, swept over churn x serving
load.  With the estimator, the planner optimizes predicted
*deadline-hit* probability (each marginal replica's survival gain
discounted by the queue delay it induces on a contended fleet) and
sheds redundancy under combined churn + load; without it, the static
rule replicates obliviously.

* **E18a** — churn x load sweep, adaptive vs static planner, identical
  substrate, fault schedule and serving workload.  Acceptance: at the
  E17 1/3-churn point under >= 1.5x serving load the adaptive planner's
  graph deadline-hit rate beats the static planner's, while at low load
  the two match (the adaptive objective degenerates to pure survival on
  an uncontended fleet).
* **E18b** — small-task batching: the same overloaded gateway with and
  without a :class:`~repro.serve.batching.BatchingPolicy`.  Batching
  must cut cloud dispatches (slots are the contended resource) without
  hurting completions, with per-member accounting conserved.
* **E18c** — dependability of the mechanisms: byte-identical seeded
  replays and zero conservation-invariant violations
  (:class:`~repro.chaos.invariants.Conservation` over the cloud, the
  DAG scheduler and the gateway) while the chaos
  schedule and the overload are live.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.chaos import Conservation, InvariantSuite, reset_global_ids
from repro.core import BackoffPolicy, BacklogEstimator, ResourceOffer, VehicularCloud
from repro.core.handover import DropPolicy
from repro.dag import (
    DagScheduler,
    GraphState,
    RedundancyPlanner,
    ReliabilityEstimator,
    StageSpec,
    TaskGraph,
)
from repro.faults import FaultInjector, FaultPlan
from repro.geometry import Vec2
from repro.mobility import StationaryModel
from repro.serve import BatchingPolicy, ServiceGateway, ServiceRequest
from repro.sim import ScenarioConfig, World

# The E17 substrate: same member count, heterogeneous offers, crash
# plan seed, recovery backoff, graph shape and deadline — so the
# 1/3-churn acceptance point is the same point E17 measured.
MEMBERS = 12
INTENSITIES = (0.0, 1 / 3)
PLAN_SEED = 1111
CRASH_WINDOW = (10.0, 160.0)
RECOVERY_BACKOFF = BackoffPolicy(
    base_delay_s=0.5, multiplier=2.0, max_delay_s=8.0, jitter_fraction=0.1
)

GRAPHS = 6
SUBMIT_SPACING_S = 30.0
MAP_FANOUT = 3
MAP_WORK_MI = 3600.0
REDUCE_WORK_MI = 2400.0
PUBLISH_WORK_MI = 1600.0
DEADLINE_S = 100.0
HORIZON_S = 450.0

# Background serving load, as a fraction of the eligible fleet's
# aggregate MIPS.  0.25x leaves the fleet uncontended; 1.5x keeps the
# admission queue standing-full for the whole run.
LOADS = (0.25, 1.5)
SERVE_WORK_MI = 1800.0
SERVE_DEADLINE_S = 60.0
SERVE_QUEUE_CAPACITY = 64
# The serving path may hold at most 4 of the 11 eligible workers, so
# the DAG planner always has free candidates to (over-)replicate onto —
# the partial-utilization regime where replication amplifies queueing —
# and churn cannot hand the serving path the whole surviving fleet.
SERVE_SLOTS = 4
SERVE_UNTIL_S = 380.0

CONFIGS = ("adaptive", "static")


def _bench_graph(index: int) -> TaskGraph:
    """The E17 map-reduce-publish graph: 3 mappers -> reduce -> publish."""
    stages = [StageSpec(f"map{m}", MAP_WORK_MI) for m in range(MAP_FANOUT)]
    stages.append(
        StageSpec(
            "reduce",
            REDUCE_WORK_MI,
            deps=tuple(f"map{m}" for m in range(MAP_FANOUT)),
        )
    )
    stages.append(StageSpec("publish", PUBLISH_WORK_MI, deps=("reduce",)))
    return TaskGraph(stages, deadline_s=DEADLINE_S, submitter=f"bench-{index}")


def _build_cloud(world):
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(MEMBERS)]
    )
    vehicles = model.populate(MEMBERS)
    cloud = VehicularCloud(
        world,
        "capacity-vc",
        handover_policy=DropPolicy(),
        retry_backoff=RECOVERY_BACKOFF,
    )
    for index, vehicle in enumerate(vehicles):
        cloud.admit(
            vehicle,
            offer=ResourceOffer(vehicle.vehicle_id, 120.0 + 3.0 * index, 10**9, 1e6),
        )
    cloud.enable_worker_leases(lease_duration_s=4.0, sweep_interval_s=1.0)
    cloud.enable_replicated_storage(capacity_bytes=10**8)
    return cloud


# ---------------------------------------------------------------------------
# E18a — churn x load: adaptive vs static redundancy planning
# ---------------------------------------------------------------------------


def _run_capacity_scenario(intensity: float, load: float, config: str, seed: int = 1801):
    """DAG stream + background serving load on one cloud, seeded crashes.

    Both configurations are identical — same substrate, same fault
    schedule, same deterministic serving arrivals, same planner targets
    — except that ``adaptive`` wires one shared
    :class:`BacklogEstimator` into both the gateway and the scheduler,
    enabling the deadline-hit objective; ``static`` plans from survival
    alone (the pre-fix behavior).
    """
    reset_global_ids()
    world = World(ScenarioConfig(seed=seed))
    cloud = _build_cloud(world)

    backlog = BacklogEstimator(cloud) if config == "adaptive" else None
    scheduler = DagScheduler(
        world,
        cloud,
        name=config,
        reliability=ReliabilityEstimator(cloud),
        redundancy=RedundancyPlanner(target_success=0.99, max_replicas=3),
        checkpointing=True,
        backlog=backlog,
    )
    gateway = ServiceGateway(
        world,
        cloud,
        name=f"{config}-gw",
        queue_capacity=SERVE_QUEUE_CAPACITY,
        max_dispatch_concurrency=SERVE_SLOTS,
        backlog=backlog,
    )

    eligible_mips = sum(
        cloud.pool.offer_of(w).compute_mips
        for w in cloud.pool.member_ids()
        if w != cloud.head_id
    )
    interval_s = SERVE_WORK_MI / (load * eligible_mips)
    arrivals = int(SERVE_UNTIL_S / interval_s)
    for index in range(arrivals):
        world.engine.schedule_at(
            0.1 + index * interval_s,
            lambda: gateway.submit(
                ServiceRequest.build(
                    work_mi=SERVE_WORK_MI, tenant="bg", deadline_s=SERVE_DEADLINE_S
                )
            ),
            label="serve-submit",
        )

    for index in range(GRAPHS):
        graph = _bench_graph(index)
        world.engine.schedule_at(
            index * SUBMIT_SPACING_S,
            lambda g=graph: scheduler.submit(g),
            label="graph-submit",
        )

    targets = [m for m in cloud.membership.member_ids() if m != cloud.head_id]
    plan = FaultPlan(PLAN_SEED).random_crashes(
        round(intensity * MEMBERS), CRASH_WINDOW, targets=targets
    )
    FaultInjector(world, plan, cloud=cloud).arm()

    suite = InvariantSuite(
        [
            Conservation(cloud),
            Conservation(scheduler),
            Conservation(gateway),
        ],
        metrics=world.metrics,
    )
    suite.attach(world, check_interval_s=1.0)
    world.run_for(HORIZON_S)
    gateway.stop()

    dag = scheduler.stats
    serve = gateway.stats
    return {
        "deadline_hit_rate": dag.deadline_hit_rate,
        "completion_rate": dag.completion_rate,
        "graphs_completed": dag.graphs_completed,
        "graphs_failed": dag.graphs_failed,
        "failure_reasons": dict(dag.failure_reasons),
        "replicas_submitted": dag.replicas_submitted,
        "replicas_load_shed": dag.replicas_load_shed,
        "redundant_dispatches": dag.redundant_dispatches,
        "stages_reexecuted": dag.stages_reexecuted,
        "serve_completed": serve.completed,
        "serve_shed": serve.shed,
        "serve_rejected": serve.rejected,
        "serve_slo_hits": serve.slo_hits,
        "stuck": sum(1 for r in scheduler.records if r.state is GraphState.RUNNING),
        "violations": len(suite.violations),
        "invariant_checks": suite.checks_run,
        "crashes": cloud.stats.worker_crashes,
        "dag_accounting": scheduler.accounting(),
        "serve_accounting": gateway.accounting(),
        "counters": sorted(world.metrics.counters.items()),
    }


@pytest.fixture(scope="module")
def capacity_sweep():
    sweep = {}
    for intensity in INTENSITIES:
        for load in LOADS:
            sweep[(intensity, load)] = {
                config: _run_capacity_scenario(intensity, load, config)
                for config in CONFIGS
            }
    return sweep


def test_bench_capacity_sweep_table(
    capacity_sweep, record_table, record_run_json, benchmark
):
    rows = []
    for (intensity, load), configs in capacity_sweep.items():
        for config in CONFIGS:
            row = configs[config]
            record_run_json(
                "E18_capacity_redundancy",
                f"sweep/{intensity:.0%}/{load:.2f}x/{config}",
                {
                    "deadline_hit_rate": row["deadline_hit_rate"],
                    "completion_rate": row["completion_rate"],
                    "replicas_submitted": row["replicas_submitted"],
                    "replicas_load_shed": row["replicas_load_shed"],
                    "serve_completed": row["serve_completed"],
                    "serve_refused": row["serve_shed"] + row["serve_rejected"],
                },
                config={"intensity": intensity, "load": load, "planner": config},
            )
            rows.append(
                [
                    f"{intensity:.0%}",
                    f"{load:.2f}x",
                    config,
                    row["deadline_hit_rate"],
                    row["completion_rate"],
                    row["replicas_submitted"],
                    row["replicas_load_shed"],
                    row["serve_completed"],
                    row["serve_shed"] + row["serve_rejected"],
                ]
            )
    table = render_table(
        [
            "crash intensity",
            "serving load",
            "planner",
            "graph deadline hits",
            "completion",
            "replicas",
            "replicas shed",
            "serve done",
            "serve refused",
        ],
        rows,
        title="E18a — capacity-aware vs static redundancy under churn x load "
        f"(graph deadline {DEADLINE_S:.0f}s)",
    )
    record_table("E18_capacity_redundancy", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_adaptive_beats_static_at_churn_and_load(capacity_sweep, benchmark):
    """Acceptance: at 1/3 churn and >= 1.5x load, adaptive wins outright."""
    point = capacity_sweep[(1 / 3, 1.5)]
    assert (
        point["adaptive"]["deadline_hit_rate"] > point["static"]["deadline_hit_rate"]
    ), point
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_adaptive_never_worse(capacity_sweep, benchmark):
    for key, configs in capacity_sweep.items():
        assert (
            configs["adaptive"]["deadline_hit_rate"]
            >= configs["static"]["deadline_hit_rate"]
        ), key
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_adaptive_matches_static_at_low_load(capacity_sweep, benchmark):
    """Uncontended fleet: the hit objective degenerates to pure survival."""
    for intensity in INTENSITIES:
        configs = capacity_sweep[(intensity, 0.25)]
        assert configs["adaptive"]["deadline_hit_rate"] == pytest.approx(
            configs["static"]["deadline_hit_rate"]
        ), intensity
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_shedding_engages_only_under_load(capacity_sweep, benchmark):
    """The headline numbers must come from the mechanism under test."""
    heavy = capacity_sweep[(1 / 3, 1.5)]["adaptive"]
    assert heavy["crashes"] > 0
    assert heavy["replicas_load_shed"] > 0
    assert (
        heavy["replicas_submitted"]
        < capacity_sweep[(1 / 3, 1.5)]["static"]["replicas_submitted"]
    )
    for key, configs in capacity_sweep.items():
        assert configs["static"]["replicas_load_shed"] == 0, key
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_every_graph_reaches_typed_terminal_state(capacity_sweep, benchmark):
    for key, configs in capacity_sweep.items():
        for config in CONFIGS:
            row = configs[config]
            assert row["stuck"] == 0, (key, config)
            assert sum(row["failure_reasons"].values()) == row["graphs_failed"], (
                key,
                config,
            )
            assert row["dag_accounting"]["replicas_live"] == 0, (key, config)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E18b — small-task batching under slot contention
# ---------------------------------------------------------------------------

BATCH_MEMBERS = 6
BATCH_SLOTS = 2
BATCH_WORK_MI = 60.0
BATCH_DEADLINE_S = 12.0
BATCH_INTERVAL_S = 0.05
BATCH_UNTIL_S = 40.0
BATCH_HORIZON_S = 80.0


def _run_batching_scenario(batched: bool, seed: int = 1805):
    """A dispatch-slot-starved gateway fed a stream of small requests."""
    reset_global_ids()
    world = World(ScenarioConfig(seed=seed))
    model = StationaryModel(
        world, positions=[Vec2(i * 40.0, 0.0) for i in range(BATCH_MEMBERS)]
    )
    vehicles = model.populate(BATCH_MEMBERS)
    cloud = VehicularCloud(world, "batch-vc", handover_policy=DropPolicy())
    for vehicle in vehicles:
        cloud.admit(
            vehicle, offer=ResourceOffer(vehicle.vehicle_id, 100.0, 10**9, 1e6)
        )
    gateway = ServiceGateway(
        world,
        cloud,
        name="batch-gw" if batched else "plain-gw",
        queue_capacity=128,
        max_dispatch_concurrency=BATCH_SLOTS,
        batching=BatchingPolicy(
            max_batch_size=8, max_member_work_mi=100.0, max_batch_work_mi=600.0
        )
        if batched
        else None,
    )
    arrivals = int(BATCH_UNTIL_S / BATCH_INTERVAL_S)
    for index in range(arrivals):
        world.engine.schedule_at(
            0.1 + index * BATCH_INTERVAL_S,
            lambda: gateway.submit(
                ServiceRequest.build(
                    work_mi=BATCH_WORK_MI, tenant="small", deadline_s=BATCH_DEADLINE_S
                )
            ),
            label="serve-submit",
        )
    suite = InvariantSuite([Conservation(gateway)], metrics=world.metrics)
    suite.attach(world, check_interval_s=0.5)
    world.run_for(BATCH_HORIZON_S)
    gateway.stop()
    stats = gateway.stats
    return {
        "offered": stats.offered,
        "completed": stats.completed,
        "slo_hits": stats.slo_hits,
        "shed": stats.shed,
        "rejected": stats.rejected,
        "batches_dispatched": stats.batches_dispatched,
        "batched_requests": stats.batched_requests,
        "cloud_dispatches": cloud.stats.submitted,
        "p99_latency_s": stats.p99_latency_s(),
        "violations": len(suite.violations),
        "invariant_checks": suite.checks_run,
        "accounting": gateway.accounting(),
        "counters": sorted(world.metrics.counters.items()),
    }


@pytest.fixture(scope="module")
def batching_pair():
    return {
        "batched": _run_batching_scenario(True),
        "plain": _run_batching_scenario(False),
    }


def test_bench_batching_table(batching_pair, record_table, record_run_json, benchmark):
    rows = []
    for name in ("batched", "plain"):
        row = batching_pair[name]
        record_run_json(
            "E18_capacity_redundancy",
            f"batching/{name}",
            {
                "offered": row["offered"],
                "completed": row["completed"],
                "slo_hits": row["slo_hits"],
                "refused": row["shed"] + row["rejected"],
                "cloud_dispatches": row["cloud_dispatches"],
                "batches_dispatched": row["batches_dispatched"],
                "p99_latency_s": row["p99_latency_s"],
            },
            config={"batching": name == "batched"},
        )
        rows.append(
            [
                name,
                row["offered"],
                row["completed"],
                row["slo_hits"],
                row["shed"] + row["rejected"],
                row["cloud_dispatches"],
                row["batches_dispatched"],
                row["p99_latency_s"],
            ]
        )
    table = render_table(
        [
            "gateway",
            "offered",
            "completed",
            "slo hits",
            "refused",
            "cloud dispatches",
            "batches",
            "p99 (s)",
        ],
        rows,
        title="E18b — small-task batching under dispatch-slot contention "
        f"({BATCH_SLOTS} slots, {BATCH_WORK_MI:.0f} MI requests)",
    )
    record_table("E18_capacity_redundancy", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_batching_cuts_dispatches_not_completions(batching_pair, benchmark):
    """Coalescing trades per-request dispatches for summed-work tasks.

    Work is conserved — a batch runs its members' summed MI on one
    worker — so batching cannot raise MIPS throughput; what it buys is
    *economy*: each coalesced member is one fewer cloud dispatch
    (reservation, lease, transfer, completion event) and leaves the
    bounded admission queue at dispatch time in bulk, freeing space
    for later arrivals.  Under overload that must show up as a steep
    dispatch cut at no cost in completed requests.
    """
    batched, plain = batching_pair["batched"], batching_pair["plain"]
    assert batched["batches_dispatched"] > 0
    assert batched["cloud_dispatches"] <= plain["cloud_dispatches"] // 4
    assert batched["completed"] >= plain["completed"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E18c — dependability of the mechanisms themselves
# ---------------------------------------------------------------------------


def test_capacity_runs_are_byte_identical(benchmark):
    """Same seed twice => identical accounting, stats and metrics."""
    first = _run_capacity_scenario(1 / 3, 1.5, "adaptive", seed=1803)
    second = _run_capacity_scenario(1 / 3, 1.5, "adaptive", seed=1803)
    assert first == second
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_batching_runs_are_byte_identical(benchmark):
    first = _run_batching_scenario(True, seed=1807)
    second = _run_batching_scenario(True, seed=1807)
    assert first == second
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_no_invariant_violations_under_chaos(capacity_sweep, batching_pair, benchmark):
    for key, configs in capacity_sweep.items():
        for config in CONFIGS:
            row = configs[config]
            assert row["invariant_checks"] > 0, (key, config)
            assert row["violations"] == 0, (key, config)
    for name, row in batching_pair.items():
        assert row["invariant_checks"] > 0, name
        assert row["violations"] == 0, name
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
