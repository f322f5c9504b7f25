"""Experiment E20 — tiered federation: speculation vs a dying backhaul.

The tiered offloader's pitch (ROADMAP item 3): a deadline-critical task
should never have to choose between an under-provisioned local v-cloud
and a fast datacenter behind an unreliable WAN — it races both and
takes the first acceptable result.  This experiment quantifies that on
a deliberately uncomfortable substrate:

* the **local** tier is over-committed (offered load ~1.3x its service
  capacity), so pure local execution drowns in queueing delay;
* the **remote** tier is effectively infinite compute behind a
  :class:`~repro.tier.backhaul.BackhaulLink` swept from clean to dying
  (latency x Bernoulli loss x scheduled outage windows, the outages
  driven by :class:`~repro.faults.plan.FaultPlan` partitions through
  :class:`~repro.faults.backhaul.BackhaulFaultDriver`).

* **E20a** — deadline-hit-rate sweep: ``local_only`` / ``remote_only``
  / ``speculate`` across the backhaul profiles.  Acceptance: wherever
  both single-tier baselines drop below 80%, tiered speculation stays
  at or above 95% — the WAN dying costs latency, never deadline safety.
* **E20b** — dependability: byte-identical seeded replays and zero
  ``tier-conservation`` / ``task-conservation``
  (:class:`~repro.chaos.invariants.Conservation`) violations while
  the outage schedule is live.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.chaos import Conservation, InvariantSuite, reset_global_ids
from repro.core import ResourceOffer, Task, VehicularCloud
from repro.faults.backhaul import BackhaulFaultDriver
from repro.faults.plan import FaultPlan
from repro.geometry import Vec2
from repro.infra.central_cloud import CentralCloud
from repro.mobility import StationaryModel
from repro.sim import ScenarioConfig, World
from repro.tier import (
    BackhaulLink,
    CentralCloudTier,
    TieredOffloader,
    TierTopology,
    VCloudTier,
)

# Local tier: 1 coordinator + 3 workers at 100 MIPS.  600 MI tasks run
# 6s each, arriving every 1.5s => offered load ~1.33x the 0.5 task/s
# local service capacity.  Queueing alone sinks the local-only baseline.
MEMBERS = 4
WORKER_MIPS = 100.0
CENTRAL_MIPS = 50_000.0

WORK_MI = 600.0
DEADLINE_S = 15.0
INTERVAL_S = 1.5
SUBMIT_UNTIL_S = 90.0
HORIZON_S = 160.0
TASKS = int(SUBMIT_UNTIL_S / INTERVAL_S)

# Backhaul profiles, clean to dying: (one-way latency, Bernoulli frame
# loss, scheduled outage windows as (at, duration_s) pairs).
PROFILES = {
    "clean": {"latency_s": 0.05, "loss": 0.00, "outages": ()},
    "lossy": {"latency_s": 0.05, "loss": 0.10, "outages": ()},
    "flaky": {
        "latency_s": 0.10,
        "loss": 0.10,
        "outages": ((30.0, 8.0), (60.0, 8.0)),
    },
    "dying": {
        "latency_s": 0.25,
        "loss": 0.20,
        "outages": ((20.0, 10.0), (50.0, 10.0), (75.0, 10.0)),
    },
}

MODES = ("local_only", "remote_only", "speculate")
SEED = 2001


def _run_tier_scenario(mode: str, profile_name: str, seed: int = SEED):
    """One mode x backhaul-profile run; returns the full outcome dict.

    All three modes share the same substrate, arrivals, seeds and fault
    schedule; they differ only in which tiers the offloader may use:
    ``local_only`` and ``speculate`` are offloader policies over the
    full two-tier topology, ``remote_only`` registers the central tier
    alone (speculation with no local tier degenerates to remote-only).
    """
    profile = PROFILES[profile_name]
    reset_global_ids()
    world = World(ScenarioConfig(seed=seed))

    model = StationaryModel(
        world, positions=[Vec2(i * 30.0, 0.0) for i in range(MEMBERS)]
    )
    vehicles = model.populate(MEMBERS)
    cloud = VehicularCloud(world, "e20-local")
    for vehicle in vehicles:
        cloud.admit(
            vehicle,
            offer=ResourceOffer(vehicle.vehicle_id, WORKER_MIPS, 10**9, 1e6),
        )
    central = CentralCloud(world, compute_mips=CENTRAL_MIPS, wan_delay_s=0.0)
    link = BackhaulLink(
        world,
        "e20-wan",
        base_latency_s=profile["latency_s"],
        loss_probability=profile["loss"],
    )

    topology = TierTopology()
    if mode != "remote_only":
        topology.register(VCloudTier(world, "local", "local", cloud))
    topology.register(CentralCloudTier(world, "central", central, link))
    offloader = TieredOffloader(world, topology, name=f"e20-{mode}")
    policy = "local_only" if mode == "local_only" else "speculate"

    for index in range(TASKS):
        world.engine.schedule_at(
            0.1 + index * INTERVAL_S,
            lambda: offloader.submit(
                Task(work_mi=WORK_MI, deadline_s=DEADLINE_S, submitter="e20"),
                policy=policy,
            ),
            label="e20-submit",
        )

    plan = FaultPlan(seed)
    for at, duration_s in profile["outages"]:
        plan.partition(at, duration_s=duration_s)
    driver = BackhaulFaultDriver(world.engine, link, plan)
    driver.arm()

    suite = InvariantSuite(
        [Conservation(cloud), Conservation(offloader)],
        metrics=world.metrics,
    )
    suite.attach(world, check_interval_s=0.5)
    world.run_until(HORIZON_S)

    stats = offloader.stats
    return {
        "deadline_hit_rate": stats.deadline_hit_rate(),
        "completed": stats.completed,
        "failed": stats.failed,
        "failure_reasons": dict(stats.failure_reasons),
        "speculated": stats.speculated,
        "degraded": dict(stats.degraded),
        "wins_by_tier": dict(stats.wins_by_tier),
        "attempts_cancelled": stats.attempts_cancelled,
        "attempts_late": stats.attempts_late,
        "mean_latency_s": stats.mean_latency_s(),
        "outages_fired": len(driver.ledger),
        "link_accounting": link.accounting(),
        "accounting": offloader.accounting(),
        "violations": len(suite.violations),
        "invariant_checks": suite.checks_run,
        "counters": sorted(world.metrics.counters.items()),
    }


@pytest.fixture(scope="module")
def tier_sweep():
    return {
        profile: {mode: _run_tier_scenario(mode, profile) for mode in MODES}
        for profile in PROFILES
    }


# ---------------------------------------------------------------------------
# E20a — the sweep
# ---------------------------------------------------------------------------


def test_bench_tier_federation_table(
    tier_sweep, record_table, record_run_json, benchmark
):
    rows = []
    for profile, modes in tier_sweep.items():
        for mode in MODES:
            row = modes[mode]
            record_run_json(
                "E20_tier_federation",
                f"sweep/{profile}/{mode}",
                {
                    "deadline_hit_rate": row["deadline_hit_rate"],
                    "completed": row["completed"],
                    "failed": row["failed"],
                    "speculated": row["speculated"],
                    "degraded": sum(row["degraded"].values()),
                    "mean_latency_s": row["mean_latency_s"],
                },
                seed=SEED,
                config={"profile": profile, "mode": mode, **PROFILES[profile]},
            )
            rows.append(
                [
                    profile,
                    mode,
                    f"{row['deadline_hit_rate']:.1%}",
                    row["completed"],
                    row["failed"],
                    sum(row["degraded"].values()),
                    row["wins_by_tier"].get("local", 0),
                    row["wins_by_tier"].get("central", 0),
                    f"{row['mean_latency_s']:.2f}",
                ]
            )
    table = render_table(
        [
            "backhaul",
            "mode",
            "deadline hits",
            "completed",
            "failed",
            "degraded",
            "local wins",
            "remote wins",
            "mean latency (s)",
        ],
        rows,
        title="E20a — deadline-hit-rate vs backhaul health "
        f"({TASKS} tasks, {DEADLINE_S:.0f}s deadline, local ~1.3x overcommitted)",
    )
    record_table("E20_tier_federation", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_speculation_survives_where_baselines_drown(tier_sweep, benchmark):
    """Acceptance: >= 95% hits wherever both baselines fall below 80%."""
    stressed = [
        profile
        for profile, modes in tier_sweep.items()
        if modes["local_only"]["deadline_hit_rate"] < 0.80
        and modes["remote_only"]["deadline_hit_rate"] < 0.80
    ]
    assert stressed, {
        profile: {mode: modes[mode]["deadline_hit_rate"] for mode in MODES}
        for profile, modes in tier_sweep.items()
    }
    for profile in stressed:
        assert tier_sweep[profile]["speculate"]["deadline_hit_rate"] >= 0.95, (
            profile,
            tier_sweep[profile]["speculate"],
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_local_only_drowns_in_queueing_everywhere(tier_sweep, benchmark):
    """The local baseline fails for capacity reasons, not WAN reasons."""
    for profile, modes in tier_sweep.items():
        assert modes["local_only"]["deadline_hit_rate"] < 0.80, profile
        assert modes["local_only"]["speculated"] == 0, profile
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_remote_only_tracks_backhaul_health(tier_sweep, benchmark):
    """Remote-only is fine on a clean WAN and collapses as it dies."""
    hit = {p: tier_sweep[p]["remote_only"]["deadline_hit_rate"] for p in PROFILES}
    assert hit["clean"] >= 0.95
    assert hit["dying"] < hit["lossy"] <= hit["clean"]
    assert hit["dying"] < 0.80
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_speculation_mechanisms_engaged(tier_sweep, benchmark):
    """The headline number must come from the mechanism under test."""
    dying = tier_sweep["dying"]["speculate"]
    assert dying["speculated"] > 0
    assert dying["attempts_cancelled"] > 0  # losers really get cancelled
    assert dying["degraded"].get("backhaul_degraded", 0) > 0  # outages collapsed
    assert dying["wins_by_tier"].get("local", 0) > 0  # local saved lost frames
    assert dying["wins_by_tier"].get("central", 0) > 0  # remote saved queueing
    assert dying["outages_fired"] == len(PROFILES["dying"]["outages"])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_every_task_reaches_a_typed_terminal_state(tier_sweep, benchmark):
    for profile, modes in tier_sweep.items():
        for mode in MODES:
            row = modes[mode]
            acc = row["accounting"]
            assert acc["submitted"] == TASKS, (profile, mode)
            assert acc["live"] == 0, (profile, mode)
            assert acc["attempts_live"] == 0, (profile, mode)
            assert sum(row["failure_reasons"].values()) == row["failed"], (
                profile,
                mode,
            )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E20b — dependability of the mechanism itself
# ---------------------------------------------------------------------------


def test_tier_runs_are_byte_identical(benchmark):
    """Same seed twice => identical accounting, stats and metrics."""
    first = _run_tier_scenario("speculate", "dying", seed=2003)
    second = _run_tier_scenario("speculate", "dying", seed=2003)
    assert first == second
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_no_conservation_violations_under_outage_schedule(tier_sweep, benchmark):
    for profile, modes in tier_sweep.items():
        for mode in MODES:
            row = modes[mode]
            assert row["invariant_checks"] > 0, (profile, mode)
            assert row["violations"] == 0, (profile, mode)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
