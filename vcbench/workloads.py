"""The four benchmark workloads, built only from ``repro``'s public API.

Every workload is an offline batch that runs in one process on one
thread; the campaign runs its cells serially (``workers=1``).  A
workload takes the benchmark's ``--seed`` and builds its scene from it;
the simulator only ever receives the generated scene.  Scenes import the
``repro`` modules they use (listed in each workload's ``MODULES``) so that
set-up time counts only what that workload pays for.  Each scene is cut
into timed *steps* that the harness brackets with calibration loops, and
reports its *work* (the unit ``work_per_s`` counts), a *digest* of its
seeded outputs, and any failure it saw.

``radio-1000``
    The E13 scene: 1000 vehicles beacon on a 4 km highway with 1 Hz
    ``MobilityClustering`` passes, for 2 sim-s (about 255k events).
    Chosen because the kernel, the channel, the spatial index and the
    metrics registry do almost all the work and serve/dag/tier/analysis
    do none: it is the target of the kernel/channel fast path.
    Work unit: frames delivered.  Step: 0.1 sim-s.  Oracle seed 77
    (E13 ``fleet/1000``: 253,185 delivered, 11,757 lost, 37 clusters,
    72,234 radio edges).
``serve-soak``
    E16b's ``mobile/dynamic/protected`` gateway at 2x admitted capacity
    for a 1200 sim-s horizon plus the 30 s drain; the seed picks the
    request streams, the fleet stays E16b's (see ``ServeScene``).  Chosen because the
    gateway, admission and v-cloud scheduling do the work and no frame
    is delivered (channel changes must not move it), and because the
    per-request latency lists make ``peak_rss_mb`` move.  Work unit:
    offered requests that reached a typed outcome.  Step: 30 sim-s of
    steady open-loop traffic, each one a ``run_p50_s``/``run_p90_s`` sample.
    Oracle seed 42 (88,001 offered; the 120 s E16 builder gives 8807
    offered, goodput 28.4917, 5388 rejected plus shed).
``campaign-full``
    ``campaigns/full.json`` (144 runs, seeds shifted to seed..seed+2)
    with bundles written under the checkout, then ``Reporter.compare``
    against ``campaigns/baselines/full.json``.  Chosen because it uses
    the serve/core layers through many short runs with observability on,
    invariant checks every sim-second, JSONL export, and the dag and tier
    layers.  Work unit: runs.  Step: six ``execute_run`` calls, each one
    a ``run_p50_s``/``run_p90_s`` sample (for radio-1000 a run is one whole
    repetition).  Oracle seed 1 (the committed
    matrix: 0 regressions, 0 violations).
``topology-300``
    A mobility-only 300-vehicle E13 highway analysed by ``topology_stats``
    at t = 0.5, 1.0, 1.5 and 2.0 s.  Chosen because the analysis layer
    (networkx diameter and articulation points) does nearly all the work
    and sim/net almost none.  Work unit: radio edges analysed.  Step: one
    snapshot, whose ``topology_stats`` call is a ``run_p50_s``/``run_p90_s``
    sample.  Oracle seed 77 (E13 ``fleet/300``: 6585 edges at t = 2.0).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import shutil
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Step = Callable[[], Optional[List[float]]]
#: (what was checked, expected, actual)
Check = Tuple[str, Any, Any]


def mismatches(checks: List[Check]) -> List[str]:
    """The checks whose actual value differs from the expected one, described."""
    return [
        f"{name}: expected {expected!r}, got {actual!r}"
        for name, expected, actual in checks
        if expected != actual
    ]


def use_source_tree() -> str:
    """Put the checkout's ``src`` first on ``sys.path``; return the checkout root.

    Raises ``FileNotFoundError`` when the benchmark directory does not sit
    in a checkout of the program, so it never measures an installed copy.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise FileNotFoundError(f"no program source at {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    return root


def _run_until(world: Any, until: float) -> None:
    world.run_until(until)


def _timed_run_until(world: Any, until: float) -> List[float]:
    started = time.perf_counter()
    world.run_until(until)
    return [time.perf_counter() - started]


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# radio-1000
# ---------------------------------------------------------------------------


class RadioScene:
    """E13: beaconing plus 1 Hz clustering on a 4 km highway."""

    SIM_S = 2.0
    STEP_S = 0.1

    def __init__(self, seed: int, vehicles: int = 1000) -> None:
        from repro.mobility import Highway, HighwayModel
        from repro.mobility.vehicle import reset_vehicle_ids
        from repro.net import BeaconService, VehicleNode, WirelessChannel
        from repro.net.clustering import MobilityClustering
        from repro.net.messages import reset_message_ids
        from repro.sim import ScenarioConfig, World

        reset_vehicle_ids()
        reset_message_ids()
        self.world = World(ScenarioConfig(seed=seed, vehicle_count=vehicles))
        self.model = HighwayModel(self.world, Highway(length_m=4000.0))
        self.model.populate(vehicles)
        self.model.start()
        channel = WirelessChannel(self.world)
        for vehicle in self.model.vehicles:
            BeaconService(self.world, VehicleNode(self.world, channel, vehicle)).start()
        self.range_m = self.world.config.channel.v2v_range_m
        self.memberships: List[List[List[str]]] = []
        algorithm = MobilityClustering()

        def cluster_pass() -> None:
            result = algorithm.form(self.model.vehicles, self.range_m, now=self.world.now)
            self.memberships.append([list(c.member_ids) for c in result.clusters])

        self.world.engine.call_every(1.0, cluster_pass, label="clustering")
        self._summary: Optional[Dict[str, Any]] = None

    def steps(self) -> Iterator[Step]:
        count = int(round(self.SIM_S / self.STEP_S))
        for index in range(1, count + 1):
            yield functools.partial(_run_until, self.world, index * self.STEP_S)

    def work(self) -> int:
        return int(self.world.metrics.counter("channel/frames_delivered"))

    def summary(self) -> Dict[str, Any]:
        if self._summary is None:
            from repro.analysis import radio_graph

            metrics = self.world.metrics
            self._summary = {
                "delivered": int(metrics.counter("channel/frames_delivered")),
                "lost": int(metrics.counter("channel/frames_lost")),
                "clusters_formed": sum(len(p) for p in self.memberships),
                "radio_edges": radio_graph(self.model.vehicles, self.range_m).number_of_edges(),
                "latency": _digest(metrics.samples("channel/delivery_latency_s")),
                "memberships": _digest(self.memberships),
            }
        return self._summary

    def digest(self) -> str:
        return _digest(self.summary())

    def failures(self) -> List[str]:
        return []

    def warm_up(self) -> None:
        pass

    def close(self) -> None:
        pass


def _radio_checks(summary: Dict[str, Any], expected: Dict[str, int], tag: str) -> List[Check]:
    return [(f"{tag} {key}", value, summary[key]) for key, value in expected.items()]


class RadioWorkload:
    name = "radio-1000"
    oracle_seed = 77
    MODULES = ("repro.mobility", "repro.net", "repro.net.clustering", "repro.sim")
    FLEET_1000 = {"delivered": 253185, "lost": 11757, "clusters_formed": 37, "radio_edges": 72234}
    FLEET_300 = {"delivered": 23466, "lost": 1114, "clusters_formed": 18, "radio_edges": 6585}

    def build(self, seed: int) -> RadioScene:
        return RadioScene(seed)

    def oracle(self) -> List[Check]:
        """E13 ``fleet/300`` at seed 77: the same code path, 30x cheaper."""
        scene = RadioScene(self.oracle_seed, vehicles=300)
        for step in scene.steps():
            step()
        return _radio_checks(scene.summary(), self.FLEET_300, "E13 fleet/300")

    def seed_checks(self, scene: RadioScene) -> List[Check]:
        return _radio_checks(scene.summary(), self.FLEET_1000, "E13 fleet/1000")


# ---------------------------------------------------------------------------
# serve-soak
# ---------------------------------------------------------------------------


class ServeScene:
    """E16b ``mobile/dynamic/protected`` at 2x admitted capacity.

    The fleet is E16b's: the world seed is always E16's seed 42, because
    the admitted capacity (and with it the offered rate and the request
    count) depends on the fleet's heterogeneous MIPS, and one fleet can
    cost twice as much per request as another.  ``seed`` picks the two
    tenants' request streams instead: the gateway forks each tenant's
    arrival and task-size stream by tenant name, so seed 42 keeps E16's
    names and any other seed suffixes them.
    """

    FLEET_SEED = 42
    #: Offered load as a multiple of the admitted capacity.
    LOAD = 2.0
    DRAIN_S = 30.0
    WARMUP_S = 5.0
    STEP_S = 30.0
    MEAN_WORK_MI = 185.0

    def __init__(self, seed: int, horizon_s: float = 1200.0) -> None:
        from repro.core import DynamicVCloud
        from repro.core.tasks import reset_task_ids
        from repro.mobility import Highway, HighwayModel
        from repro.mobility.vehicle import reset_vehicle_ids
        from repro.net.messages import reset_message_ids
        from repro.serve import (
            CircuitBreakerBoard,
            CompositeAdmission,
            DeadlineFeasibilityAdmission,
            DeadlineLapseShedder,
            HedgePolicy,
            QueueDelayShedder,
            ServiceGateway,
            TenantFairShareAdmission,
        )
        from repro.sim import ScenarioConfig, World

        reset_task_ids()
        reset_vehicle_ids()
        reset_message_ids()
        self.horizon_s = horizon_s
        self.stream = "" if seed == self.FLEET_SEED else f"-{seed}"
        self.world = World(ScenarioConfig(seed=self.FLEET_SEED, vehicle_count=12))
        model = HighwayModel(self.world, Highway(length_m=3000.0))
        model.populate(12)
        model.start()
        arch = DynamicVCloud(self.world, model)
        arch.start()
        self.gateway = ServiceGateway(
            self.world,
            arch.cloud,
            name="e16",
            queue_capacity=32,
            admission=CompositeAdmission(
                [DeadlineFeasibilityAdmission(), TenantFairShareAdmission(share=0.7)]
            ),
            shedders=[DeadlineLapseShedder(), QueueDelayShedder(max_delay_s=4.0)],
            breakers=CircuitBreakerBoard(self.world, "e16"),
            hedging=HedgePolicy(),
        )

    def warm_up(self) -> None:
        """Let membership form, then start open-loop traffic sized off the
        admitted capacity (vehicle MIPS are heterogeneous)."""
        from repro.serve import PoissonArrivals, TenantSpec, WorkloadGenerator

        self.world.run_until(self.WARMUP_S)
        capacity = max(0.5, self.gateway.aggregate_capacity_mips() / self.MEAN_WORK_MI)
        rate = self.LOAD * capacity
        tenants = [
            TenantSpec(
                name="bulk" + self.stream,
                arrivals=PoissonArrivals(rate * 0.7),
                work_mi_range=(150.0, 250.0),
                deadline_s=8.0,
                priority=2,
            ),
            TenantSpec(
                name="interactive" + self.stream,
                arrivals=PoissonArrivals(rate * 0.3),
                work_mi_range=(100.0, 200.0),
                deadline_s=6.0,
                priority=1,
            ),
        ]
        WorkloadGenerator(self.world, self.gateway, tenants, horizon_s=self.horizon_s).start()

    def steps(self) -> Iterator[Step]:
        end = self.horizon_s + self.DRAIN_S
        until = self.world.now
        while until < end:
            until = min(end, until + self.STEP_S)
            yield functools.partial(_timed_run_until, self.world, until)

    def resolved(self) -> int:
        stats = self.gateway.stats
        return stats.rejected + stats.shed + stats.completed + stats.failed

    def work(self) -> int:
        return self.resolved()

    def summary(self) -> Dict[str, Any]:
        stats = self.gateway.stats
        return {
            "offered": stats.offered,
            "admitted": stats.admitted,
            "rejected": stats.rejected,
            "shed": stats.shed,
            "completed": stats.completed,
            "failed": stats.failed,
            "rejected_plus_shed": stats.rejected + stats.shed,
            "goodput": round(stats.slo_hits / self.horizon_s, 4),
            "hedges_launched": stats.hedges_launched,
            "hedges_won": stats.hedges_won,
            "rejection_reasons": dict(stats.rejection_reasons),
            "shed_reasons": dict(stats.shed_reasons),
            "latencies": _digest(stats.latencies_s),
        }

    def digest(self) -> str:
        return _digest(self.summary())

    def failures(self) -> List[str]:
        unresolved = self.gateway.stats.offered - self.resolved()
        return [f"{unresolved} requests without a typed outcome"] if unresolved else []

    def close(self) -> None:
        pass


class ServeWorkload:
    name = "serve-soak"
    oracle_seed = 42
    MODULES = ("repro.core", "repro.mobility", "repro.serve", "repro.sim")

    def build(self, seed: int) -> ServeScene:
        return ServeScene(seed)

    def oracle(self) -> List[Check]:
        """The same builder at the E16 120 s horizon reproduces E16b."""
        scene = ServeScene(self.oracle_seed, horizon_s=120.0)
        scene.warm_up()
        for step in scene.steps():
            step()
        summary = scene.summary()
        return [
            ("E16 mobile/dynamic/protected offered", 8807, summary["offered"]),
            ("E16 mobile/dynamic/protected goodput", 28.4917, summary["goodput"]),
            ("E16 mobile/dynamic/protected rejected+shed", 5388, summary["rejected_plus_shed"]),
            ("E16 120 s unresolved requests", [], scene.failures()),
        ]

    def seed_checks(self, scene: ServeScene) -> List[Check]:
        return [("serve-soak offered at seed 42", 88001, scene.summary()["offered"])]


# ---------------------------------------------------------------------------
# campaign-full
# ---------------------------------------------------------------------------


class CampaignScene:
    """``campaigns/full.json`` executed serially, then compared to its baseline."""

    RUNS_PER_STEP = 6

    def __init__(self, seed: int, root: str, scratch: str) -> None:
        from repro.campaign import CampaignSpec, load_baseline_file

        with open(os.path.join(root, "campaigns", "full.json"), encoding="utf-8") as handle:
            data = json.load(handle)
        data["matrix"]["seeds"] = [seed, seed + 1, seed + 2]
        self.spec = CampaignSpec.from_dict(data)
        self.baseline = load_baseline_file(
            os.path.join(root, "campaigns", "baselines", "full.json")
        )
        self.runs, self.skipped = self.spec.expansion()
        self.out_dir = scratch
        os.makedirs(self.out_dir, exist_ok=True)
        self.outcomes: List[Any] = []
        self.report: Any = None

    def _execute(self, batch: List[Any]) -> List[float]:
        from repro.campaign import execute_run

        samples = []
        for run_spec in batch:
            started = time.perf_counter()
            self.outcomes.append(execute_run(run_spec, self.out_dir))
            samples.append(time.perf_counter() - started)
        return samples

    def _compare(self) -> None:
        from repro.campaign import CampaignRun, Reporter

        campaign_run = CampaignRun(
            spec=self.spec,
            out_dir=self.out_dir,
            outcomes=sorted(self.outcomes, key=lambda o: o.key),
            skipped_cells=self.skipped,
            workers=1,
            wall_clock_s=0.0,
        )
        self.report = Reporter.for_spec(self.spec).compare(campaign_run, self.baseline)

    def steps(self) -> Iterator[Step]:
        for start in range(0, len(self.runs), self.RUNS_PER_STEP):
            batch = self.runs[start : start + self.RUNS_PER_STEP]
            yield lambda batch=batch: self._execute(batch)
        yield self._compare

    def work(self) -> int:
        return len(self.outcomes)

    def summary(self) -> Dict[str, Any]:
        return {
            "runs": len(self.outcomes),
            "regressions": len(self.report.regressions) if self.report else None,
            "violations": sum(len(o.violations) for o in self.outcomes),
            "vectors": _digest(
                sorted((o.key, o.vector, o.violations) for o in self.outcomes)
            ),
        }

    def digest(self) -> str:
        return _digest(self.summary())

    def failures(self) -> List[str]:
        summary = self.summary()
        problems = []
        if summary["violations"]:
            problems.append(f"{summary['violations']} invariant violations")
        if len(self.outcomes) != len(self.runs):
            problems.append(f"{len(self.outcomes)} of {len(self.runs)} runs executed")
        return problems

    def warm_up(self) -> None:
        pass

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


class CampaignWorkload:
    name = "campaign-full"
    oracle_seed = 1
    MODULES = ("repro.campaign",)
    #: Seed-1 cells replayed on every run and compared with the blessed runs.
    ORACLE_CELLS = (
        "arch=stationary,wl=tasks,fault=light,mob=stationary",
        "arch=dynamic,wl=serving,fault=heavy,mob=highway",
        "arch=infrastructure,wl=dag,fault=none,mob=highway",
    )

    def __init__(self, root: str, scratch: str) -> None:
        self.root = root
        self.scratch = scratch

    def build(self, seed: int) -> CampaignScene:
        return CampaignScene(seed, self.root, os.path.join(self.scratch, "campaign"))

    def oracle(self) -> List[Check]:
        """Replay a few seed-1 cells and compare them to the blessed run vectors."""
        from repro.campaign import execute_run

        scene = CampaignScene(1, self.root, os.path.join(self.scratch, "oracle"))
        blessed = scene.baseline["runs"]
        checks: List[Check] = []
        try:
            for run_spec in scene.runs:
                if run_spec.seed == 1 and run_spec.cell in self.ORACLE_CELLS:
                    vector = execute_run(run_spec, scene.out_dir).vector
                    expected = blessed[run_spec.key]
                    actual = {name: vector.get(name) for name in expected}
                    checks.append((f"baseline run {run_spec.key}", expected, actual))
        finally:
            scene.close()
        checks.append(("baseline oracle runs replayed", len(self.ORACLE_CELLS), len(checks)))
        return checks

    def seed_checks(self, scene: CampaignScene) -> List[Check]:
        summary = scene.summary()
        return [
            ("full.json regressions against baseline", 0, summary["regressions"]),
            ("full.json runs", 144, summary["runs"]),
        ]


# ---------------------------------------------------------------------------
# topology-300
# ---------------------------------------------------------------------------


class TopologyScene:
    """Mobility-only E13 highway analysed by ``topology_stats`` at four instants."""

    SNAPSHOTS_S = (0.5, 1.0, 1.5, 2.0)

    def __init__(self, seed: int, vehicles: int = 300) -> None:
        from repro.mobility import Highway, HighwayModel
        from repro.mobility.vehicle import reset_vehicle_ids
        from repro.sim import ScenarioConfig, World

        reset_vehicle_ids()
        self.world = World(ScenarioConfig(seed=seed, vehicle_count=vehicles))
        self.model = HighwayModel(self.world, Highway(length_m=4000.0))
        self.model.populate(vehicles)
        self.model.start()
        self.range_m = self.world.config.channel.v2v_range_m
        self.stats: List[Any] = []

    def _snapshot(self, at_s: float) -> List[float]:
        from repro.analysis import topology_stats

        self.world.run_until(at_s)
        started = time.perf_counter()
        self.stats.append(topology_stats(self.model.vehicles, self.range_m))
        return [time.perf_counter() - started]

    def steps(self) -> Iterator[Step]:
        for at_s in self.SNAPSHOTS_S:
            yield lambda at_s=at_s: self._snapshot(at_s)

    def work(self) -> int:
        return sum(s.edges for s in self.stats)

    def summary(self) -> Dict[str, Any]:
        return {"snapshots": [dataclasses.astuple(s) for s in self.stats]}

    def digest(self) -> str:
        return _digest(self.summary())

    def failures(self) -> List[str]:
        return []

    def warm_up(self) -> None:
        pass

    def close(self) -> None:
        pass


class TopologyWorkload:
    name = "topology-300"
    oracle_seed = 77
    MODULES = ("repro.analysis", "repro.mobility", "repro.sim")
    FLEET_300_EDGES = 6585

    def build(self, seed: int) -> TopologyScene:
        return TopologyScene(seed)

    def oracle(self) -> List[Check]:
        """E13 ``fleet/300`` radio edges of the seed-77 t = 2.0 snapshot."""
        from repro.analysis import radio_graph

        scene = TopologyScene(self.oracle_seed)
        scene.world.run_until(TopologyScene.SNAPSHOTS_S[-1])
        edges = radio_graph(scene.model.vehicles, scene.range_m).number_of_edges()
        return [("E13 fleet/300 radio edges", self.FLEET_300_EDGES, edges)]

    def seed_checks(self, scene: TopologyScene) -> List[Check]:
        return [("E13 fleet/300 t=2.0 edges", self.FLEET_300_EDGES, scene.stats[-1].edges)]


WORKLOADS = ("radio-1000", "serve-soak", "campaign-full", "topology-300")


def make_workload(name: str, root: str, scratch: str) -> Any:
    """The workload called ``name``; ``scratch`` holds files it writes."""
    if name == "radio-1000":
        return RadioWorkload()
    if name == "serve-soak":
        return ServeWorkload()
    if name == "campaign-full":
        return CampaignWorkload(root, scratch)
    if name == "topology-300":
        return TopologyWorkload()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
