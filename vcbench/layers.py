"""Per-layer attribution, measured from outside the program.

A traced repetition wraps public functions of each ``repro`` layer and
attaches a duck-typed recorder to the public ``Engine.profiler`` hook,
which reports every executed event's label and host seconds.  Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

Self time is inclusive time minus the time spent in wrapped children.
Events are children too: the recorder learns of an event only when it
ends, so wrapped calls that ended after the event started are moved from
the enclosing frame to the event.  The timed chunk is the root frame;
its own self time is the engine loop between events.  Every host second
of a traced chunk therefore lands in exactly one bucket, and each
chunk's buckets are scaled by that chunk's calibration score.

Hot functions (``MetricsRegistry.increment``, ``SpatialGrid.move_if_changed``
...) are aggregated into counts and self time; coarse boundaries (timed
chunks, ``execute_run``, ``topology_stats``) are also kept as spans with
their parent and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Event label (after normalisation) -> self-time bucket.
LABEL_BUCKETS: Dict[str, str] = {
    "beacon": "net.beacon_self_s",
    "frame-delivery": "net.delivery_self_s",
    "mobility-step": "mobility.self_s",
    "clustering": "clustering.self_s",
    "serve-arrival": "serve.arrival_self_s",
    "serve.tick": "serve.tick_self_s",
    "serve-hedge-check": "serve.hedge_self_s",
    "task-start": "core.task_event_self_s",
    "task-complete": "core.task_event_self_s",
    "task-result": "core.task_event_self_s",
    "task-requeue": "core.task_event_self_s",
    "task-retry": "core.task_event_self_s",
    "offload-compute": "core.task_event_self_s",
    "offload-retry": "core.task_event_self_s",
    "dynamic-vc-election": "core.upkeep_self_s",
    "dynamic-vc-refresh": "core.upkeep_self_s",
    "infra-vc-refresh": "core.upkeep_self_s",
    "lease-sweep": "core.upkeep_self_s",
    "anti-entropy": "core.upkeep_self_s",
    "storage-revive": "core.upkeep_self_s",
    "storage.ae-retry": "core.upkeep_self_s",
    "chaos-invariant-check": "chaos.check_self_s",
    "campaign-serving-start": "serve.arrival_self_s",
    "dag-deadline": "dag.event_self_s",
    "graph-submit": "dag.event_self_s",
    "campaign-graph-submit": "dag.event_self_s",
    "backhaul-transit": "tier.event_self_s",
    "cloud-response": "tier.event_self_s",
    "campaign-tier-task": "tier.event_self_s",
    "fault": "chaos.fault_self_s",
    "backhaul-fault": "chaos.fault_self_s",
    "storage-fault": "chaos.fault_self_s",
    "disaster-repair-start": "chaos.fault_self_s",
    "disaster-staggered-repair": "chaos.fault_self_s",
    "chaos-task": "chaos.workload_self_s",
    "chaos-storage-workload": "chaos.workload_self_s",
    "chaos-seed-files": "chaos.workload_self_s",
}

# Wrapped function -> (bucket, count name or None).
FUNCTION_BUCKETS: Dict[str, Tuple[str, Optional[str]]] = {
    "Engine.schedule_at": ("sim.self_s", "sim.schedule_calls"),
    "MetricsRegistry.increment": ("metrics.self_s", "metrics.increment_calls"),
    "MetricsRegistry.observe": ("metrics.self_s", None),
    "SpatialGrid.move_if_changed": ("spatial.self_s", "spatial.move_calls"),
    "SpatialGrid.within": ("spatial.self_s", "spatial.within_calls"),
    "WirelessChannel.broadcast": ("net.broadcast_self_s", "net.broadcasts"),
    "WirelessChannel.unicast": ("net.broadcast_self_s", "net.broadcasts"),
    "MobilityClustering.form": ("clustering.self_s", "clustering.passes"),
    "VehicularCloud.submit": ("core.submit_self_s", "core.tasks_submitted"),
    "ServiceGateway.submit": ("serve.submit_self_s", None),
    "ServiceGateway.worker_ids": ("serve.capacity_self_s", "serve.capacity_scans"),
    "ServiceGateway.aggregate_capacity_mips": ("serve.capacity_self_s", "serve.capacity_scans"),
    "DagScheduler.submit": ("dag.submit_self_s", None),
    "TieredOffloader.submit": ("tier.submit_self_s", None),
    "InvariantSuite.check_now": ("chaos.check_self_s", "chaos.checks"),
    "build_scenario": ("campaign.build_self_s", None),
    "execute_run": ("campaign.run_self_s", "campaign.runs"),
    "write_json_report": ("obs.export_self_s", None),
    "Tracer.export_jsonl": ("obs.export_self_s", None),
    "EventLog.export_jsonl": ("obs.export_self_s", None),
    "Reporter.compare": ("campaign.report_self_s", None),
    "topology_stats": ("analysis.stats_self_s", "analysis.snapshots"),
    "radio_graph": ("analysis.graph_self_s", None),
    "networkx.diameter": ("analysis.diameter_s", None),
    "networkx.articulation_points": ("analysis.articulation_s", None),
    "networkx.connected_components": ("analysis.components_s", None),
}

#: ``hook(args, kwargs, result)`` runs after a wrapped call returns.
Hook = Callable[[Sequence[Any], Dict[str, Any], Any], None]

#: Coarse boundaries kept as spans.
SPAN_FUNCTIONS = ("execute_run", "topology_stats", "build_scenario", "Reporter.compare")
#: Generator functions, materialised inside the wrapper so their time is theirs.
GENERATOR_FUNCTIONS = ("networkx.articulation_points", "networkx.connected_components")

#: Every per-layer metric, in the order ``BENCHMARK.json`` lists them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.schedule_calls", "count"),
    ("sim.self_s", "s"),
    ("sim.us_per_event", "us"),
    ("metrics.increment_calls", "count"),
    ("metrics.self_s", "s"),
    ("spatial.move_calls", "count"),
    ("spatial.within_calls", "count"),
    ("spatial.self_s", "s"),
    ("mobility.steps", "count"),
    ("mobility.self_s", "s"),
    ("net.broadcasts", "count"),
    ("net.frames_delivered", "count"),
    ("net.frames_lost", "count"),
    ("net.frames_per_broadcast", "ratio"),
    ("net.broadcast_self_s", "s"),
    ("net.delivery_self_s", "s"),
    ("net.beacon_self_s", "s"),
    ("clustering.passes", "count"),
    ("clustering.self_s", "s"),
    ("core.tasks_submitted", "count"),
    ("core.tasks_completed", "count"),
    ("core.tasks_failed", "count"),
    ("core.handovers", "count"),
    ("core.submit_self_s", "s"),
    ("core.task_event_self_s", "s"),
    ("core.upkeep_self_s", "s"),
    ("serve.offered", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.completed", "count"),
    ("serve.unresolved", "count"),
    ("serve.hedges_launched", "count"),
    ("serve.hedge_useful_ratio", "ratio"),
    ("serve.capacity_scans_per_request", "ratio"),
    ("serve.latency_samples_retained", "count"),
    ("serve.submit_self_s", "s"),
    ("serve.arrival_self_s", "s"),
    ("serve.tick_self_s", "s"),
    ("serve.hedge_self_s", "s"),
    ("serve.capacity_self_s", "s"),
    ("dag.graphs_submitted", "count"),
    ("dag.stages_completed", "count"),
    ("dag.replicas_launched", "count"),
    ("dag.replica_useful_ratio", "ratio"),
    ("dag.submit_self_s", "s"),
    ("dag.event_self_s", "s"),
    ("tier.submitted", "count"),
    ("tier.attempts", "count"),
    ("tier.speculation_useful_ratio", "ratio"),
    ("tier.backhaul_lost", "count"),
    ("tier.submit_self_s", "s"),
    ("tier.event_self_s", "s"),
    ("chaos.checks", "count"),
    ("chaos.check_self_s", "s"),
    ("chaos.violations", "count"),
    ("chaos.fault_self_s", "s"),
    ("chaos.workload_self_s", "s"),
    ("obs.spans", "count"),
    ("obs.events", "count"),
    ("obs.export_self_s", "s"),
    ("obs.bytes_written", "bytes"),
    ("campaign.runs", "count"),
    ("campaign.build_self_s", "s"),
    ("campaign.run_self_s", "s"),
    ("campaign.report_self_s", "s"),
    ("analysis.snapshots", "count"),
    ("analysis.edges", "count"),
    ("analysis.graph_self_s", "s"),
    ("analysis.stats_self_s", "s"),
    ("analysis.diameter_s", "s"),
    ("analysis.articulation_s", "s"),
    ("analysis.components_s", "s"),
    ("runtime.gc_collections", "count"),
    ("runtime.gc_pause_s", "s"),
    ("runtime.calibration_score", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.timed_s", "s"),
    ("trace.attributed_share", "ratio"),
    ("other.self_s", "s"),
)


def normalise_label(label: str) -> str:
    """Strip per-entity parts of an event label.

    ``beacon:veh-628`` -> ``beacon``, ``fault:crash-end`` -> ``fault``,
    ``serve/e16/tick`` -> ``serve.tick``, ``backhaul-fault/partition`` ->
    ``backhaul-fault``, ``e16-vc/lease-sweep`` -> ``lease-sweep``.
    """
    label = label.split(":", 1)[0]
    first, _, rest = label.partition("/")
    if not rest:
        return label
    if first in ("serve", "storage"):
        return f"{first}.{label.rsplit('/', 1)[1]}"
    if first.endswith("-fault"):
        return first
    return label.rsplit("/", 1)[1]


def bucket_for_label(label: str) -> str:
    return LABEL_BUCKETS.get(normalise_label(label), "other.self_s")


class Recorder:
    """Frames, per-function and per-label statistics of one traced repetition.

    Frames live in preallocated per-depth slots, so a wrapped call creates
    no GC-tracked object of its own: ``child[d]`` is the time the open frame
    at depth ``d`` spent in wrapped children, and ``ends[d]``/``spent[d]``
    hold the end time and inclusive time of its children that ended since
    its last event, so an event can claim those that ran inside it.
    """

    MAX_DEPTH = 256

    def __init__(self) -> None:
        self.depth = 0
        self.child = [0.0] * self.MAX_DEPTH
        self.ends: List[List[float]] = [[] for _ in range(self.MAX_DEPTH)]
        self.spent: List[List[float]] = [[] for _ in range(self.MAX_DEPTH)]
        self.functions: Dict[str, List[float]] = {
            name: [0, 0.0] for name in FUNCTION_BUCKETS
        }
        self.labels: Dict[str, List[float]] = {}
        self.chunk_stat: List[float] = [0, 0.0]
        self.buckets: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.label_counts: Dict[str, int] = {}
        self.spans: List[Tuple[str, float, float, int]] = []
        self._open_spans: List[int] = [-1]
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started: Optional[float] = None

    # -- Engine.profiler hook ------------------------------------------------

    def record(self, label: str, seconds: float) -> None:
        ended = time.perf_counter()
        started = ended - seconds
        depth = self.depth
        ends = self.ends[depth]
        spent = self.spent[depth]
        inner = 0.0
        while ends and ends[-1] > started:
            ends.pop()
            inner += spent.pop()
        ends.clear()
        spent.clear()
        self.child[depth] += seconds - inner
        stat = self.labels.get(label)
        if stat is None:
            stat = self.labels[label] = [0, 0.0]
        stat[0] += 1
        stat[1] += seconds - inner

    # -- frames ----------------------------------------------------------------

    def call(self, fn: Callable[..., Any], stat: List[float], span: Optional[str],
             args: Sequence[Any], kwargs: Dict[str, Any], materialise: bool) -> Any:
        depth = self.depth + 1
        self.depth = depth
        child = self.child
        child[depth] = 0.0
        if span is not None:
            index = len(self.spans)
            self.spans.append((span, 0.0, 0.0, self._open_spans[-1]))
            self._open_spans.append(index)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if materialise:
                result = iter(list(result))
            return result
        finally:
            ended = time.perf_counter()
            inclusive = ended - started
            self.depth = depth - 1
            self.ends[depth].clear()
            self.spent[depth].clear()
            stat[0] += 1
            stat[1] += inclusive - child[depth]
            child[depth - 1] += inclusive
            self.ends[depth - 1].append(ended)
            self.spent[depth - 1].append(inclusive)
            if span is not None:
                self._open_spans.pop()
                self.spans[index] = (span, started, ended, self.spans[index][3])

    def chunk(self, step: Callable[[], Any]) -> Any:
        """Run one timed chunk as the root frame."""
        for stat in self.functions.values():
            stat[0] = 0
            stat[1] = 0.0
        self.labels.clear()
        self.depth = 0
        self.ends[0].clear()
        self.spent[0].clear()
        return self.call(step, self.chunk_stat, "chunk", (), {}, False)

    def flush(self) -> None:
        """Move the chunk's statistics into the totals (host seconds)."""
        buckets = self.buckets
        counts = self.counts

        def add(bucket: str, seconds: float) -> None:
            buckets[bucket] = buckets.get(bucket, 0.0) + seconds

        add("sim.self_s", self.chunk_stat[1])
        self.chunk_stat[0] = 0
        self.chunk_stat[1] = 0.0
        for name, (calls, seconds) in self.functions.items():
            bucket, count = FUNCTION_BUCKETS[name]
            add(bucket, seconds)
            if count is not None:
                counts[count] = counts.get(count, 0) + calls
        for label, (calls, seconds) in self.labels.items():
            add(bucket_for_label(label), seconds)
            self.label_counts[label] = self.label_counts.get(label, 0) + int(calls)

    # -- gc ----------------------------------------------------------------------

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        """``gc.callbacks`` hook: count collections that pause a timed chunk."""
        if phase == "start":
            self._gc_started = time.perf_counter() if self.depth else None
        elif self._gc_started is not None:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_started


class Harvest:
    """Counts read from the objects the traced run touched."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {}
        self.worlds: List[Any] = []
        self.objects: Dict[str, Dict[int, Any]] = {
            "cloud": {}, "gateway": {}, "dag": {}, "tier": {}
        }

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def see(self, kind: str, obj: Any) -> None:
        self.objects[kind].setdefault(id(obj), obj)

    def collect(self) -> None:
        """Read and drop everything seen so far."""
        for world in self.worlds:
            self.add("net.frames_delivered", world.metrics.counter("channel/frames_delivered"))
            self.add("net.frames_lost", world.metrics.counter("channel/frames_lost"))
        for cloud in self.objects["cloud"].values():
            self.add("core.tasks_completed", cloud.stats.completed)
            self.add("core.tasks_failed", cloud.stats.failed)
            self.add("core.handovers", cloud.stats.handovers)
        for gateway in self.objects["gateway"].values():
            stats = gateway.stats
            self.add("serve.offered", stats.offered)
            self.add("serve.rejected", stats.rejected)
            self.add("serve.shed", stats.shed)
            self.add("serve.completed", stats.completed)
            self.add("serve.unresolved", stats.offered - stats.rejected - stats.shed
                     - stats.completed - stats.failed)
            self.add("serve.hedges_launched", stats.hedges_launched)
            self.add("serve.hedges_won", stats.hedges_won)
            self.add("serve.latency_samples_retained", len(stats.latencies_s)
                     + sum(len(v) for v in stats.tenant_latencies_s.values()))
        for scheduler in self.objects["dag"].values():
            stats = scheduler.stats
            self.add("dag.graphs_submitted", stats.graphs_submitted)
            self.add("dag.stages_completed", stats.stages_completed)
            self.add("dag.replicas_launched", stats.replicas_submitted)
        for offloader in self.objects["tier"].values():
            stats = offloader.stats
            self.add("tier.submitted", stats.submitted)
            self.add("tier.attempts", stats.attempts_submitted)
            self.add("tier.attempts_won", stats.attempts_won)
        self.worlds = []
        for seen in self.objects.values():
            seen.clear()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Installs the wrappers, owns the recorder, and builds the layer table."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.harvest = Harvest()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._removed: List[Tuple[Any, str, Any, bool]] = []

    # -- installation ----------------------------------------------------------

    def _targets(self) -> List[Tuple[str, Any, str]]:
        """``(name, class, attribute)`` for every wrapped method and
        ``(name, function, "")`` for every wrapped module-level function."""
        import networkx
        from repro.analysis import radio_graph, topology_stats
        from repro.campaign import Reporter, build_scenario, execute_run
        from repro.chaos import InvariantSuite
        from repro.core import VehicularCloud
        from repro.dag import DagScheduler
        from repro.net import WirelessChannel
        from repro.net.clustering import MobilityClustering
        from repro.obs import EventLog, Tracer as ObsTracer, write_json_report
        from repro.serve import ServiceGateway
        from repro.sim import Engine, MetricsRegistry, SpatialGrid
        from repro.tier import TieredOffloader

        classes = {
            "Engine": Engine,
            "MetricsRegistry": MetricsRegistry,
            "SpatialGrid": SpatialGrid,
            "WirelessChannel": WirelessChannel,
            "MobilityClustering": MobilityClustering,
            "VehicularCloud": VehicularCloud,
            "ServiceGateway": ServiceGateway,
            "DagScheduler": DagScheduler,
            "TieredOffloader": TieredOffloader,
            "InvariantSuite": InvariantSuite,
            "Tracer": ObsTracer,
            "EventLog": EventLog,
            "Reporter": Reporter,
        }
        functions = {
            "build_scenario": build_scenario,
            "execute_run": execute_run,
            "write_json_report": write_json_report,
            "topology_stats": topology_stats,
            "radio_graph": radio_graph,
            "networkx.diameter": networkx.diameter,
            "networkx.articulation_points": networkx.articulation_points,
            "networkx.connected_components": networkx.connected_components,
        }
        targets: List[Tuple[str, Any, str]] = []
        for name in FUNCTION_BUCKETS:
            if name in functions:
                targets.append((name, functions[name], ""))
            else:
                owner, attribute = name.split(".")
                targets.append((name, classes[owner], attribute))
        return targets

    def _wrapper(self, name: str, original: Callable[..., Any], hook: Optional[Hook]
                 ) -> Callable[..., Any]:
        stat = self.recorder.functions[name]
        span = name if name in SPAN_FUNCTIONS else None
        materialise = name in GENERATOR_FUNCTIONS
        call = self.recorder.call

        if hook is None:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return call(original, stat, span, args, kwargs, materialise)
        else:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = call(original, stat, span, args, kwargs, materialise)
                hook(args, kwargs, result)
                return result

        return wrapper

    def _hooks(self) -> Dict[str, Hook]:
        """Per-function callbacks that read counts from calls and results."""
        harvest = self.harvest

        def attach(args: Sequence[Any], kwargs: Dict[str, Any], scenario: Any) -> None:
            self.attach(scenario.world)

        def run_done(args: Sequence[Any], kwargs: Dict[str, Any], outcome: Any) -> None:
            harvest.add("tier.backhaul_lost", outcome.vector.get("tier/backhaul_lost", 0.0))
            harvest.add("chaos.violations", len(outcome.violations))
            harvest.collect()

        def exported(args: Sequence[Any], kwargs: Dict[str, Any], written: int) -> None:
            harvest.add("obs.spans" if args[0].__class__.__name__ == "Tracer" else "obs.events",
                        written)
            harvest.add("obs.bytes_written",
                        os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))

        def reported(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> None:
            harvest.add("obs.bytes_written", os.path.getsize(args[0] if args else kwargs["path"]))

        def analysed(args: Sequence[Any], kwargs: Dict[str, Any], stats: Any) -> None:
            harvest.add("analysis.edges", stats.edges)

        def seen(kind: str) -> Hook:
            return lambda args, kwargs, result: harvest.see(kind, args[0])

        return {
            "build_scenario": attach,
            "execute_run": run_done,
            "Tracer.export_jsonl": exported,
            "EventLog.export_jsonl": exported,
            "write_json_report": reported,
            "topology_stats": analysed,
            "VehicularCloud.submit": seen("cloud"),
            "ServiceGateway.submit": seen("gateway"),
            "DagScheduler.submit": seen("dag"),
            "TieredOffloader.submit": seen("tier"),
        }

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for name, owner, attribute in self._targets():
            if attribute:
                had = attribute in vars(owner)
                original = getattr(owner, attribute)
                self._patches.append((owner, attribute, vars(owner).get(attribute), had))
                setattr(owner, attribute, self._wrapper(name, original, hooks.get(name)))
            else:
                wrapper = self._wrapper(name, owner, hooks.get(name))
                for module in _modules_binding(owner):
                    for key, value in list(vars(module).items()):
                        if value is owner:
                            self._patches.append((module, key, owner, True))
                            setattr(module, key, wrapper)
        gc.callbacks.append(self.recorder.on_gc)

    def uninstall(self) -> None:
        """Put every original back; calling it again does nothing."""
        if not self._patches:
            return
        for owner, attribute, original, had in reversed(self._patches):
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._removed, self._patches = self._patches, []
        if self.recorder.on_gc in gc.callbacks:
            gc.callbacks.remove(self.recorder.on_gc)
        for world in self.harvest.worlds:
            world.engine.profiler = None

    def leaks(self) -> List[str]:
        """Wrapped attributes that :meth:`uninstall` did not restore."""
        leaked = [f"{getattr(owner, '__name__', owner)}.{attribute}"
                  for owner, attribute, original, had in self._removed
                  if vars(owner).get(attribute) is not original]
        if self.recorder.on_gc in gc.callbacks:
            leaked.append("gc callback")
        return leaked

    def write_spans(self, path: str) -> None:
        """Write the coarse spans as ``[name, start_s, end_s, parent_index]`` rows."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = self.recorder.spans
        origin = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([[name, start - origin, end - origin, parent]
                       for name, start, end, parent in spans], handle)
            handle.write("\n")

    def attach(self, world: Any) -> None:
        """Route a world's event labels to the recorder."""
        world.engine.profiler = self.recorder
        self.harvest.worlds.append(world)

    # -- results -----------------------------------------------------------------

    def metrics(self, score: float) -> Dict[str, float]:
        """The per-layer table, times calibrated by ``score``;
        ``trace.overhead_ratio`` is left to the caller, which also ran the
        untraced repetition."""
        self.harvest.collect()
        values: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
        values.update({name: seconds * score for name, seconds in self.recorder.buckets.items()})
        values.update(self.recorder.counts)
        values.update(self.harvest.counts)
        label_counts = self.recorder.label_counts
        values["sim.events"] = float(sum(label_counts.values()))
        values["mobility.steps"] = float(
            sum(n for label, n in label_counts.items() if normalise_label(label) == "mobility-step")
        )
        values["sim.us_per_event"] = _ratio(values["sim.self_s"], values["sim.events"]) * 1e6
        values["net.frames_per_broadcast"] = _ratio(
            values["net.frames_delivered"] + values["net.frames_lost"], values["net.broadcasts"]
        )
        values["serve.hedge_useful_ratio"] = _ratio(
            values.pop("serve.hedges_won", 0.0), values["serve.hedges_launched"]
        )
        values["serve.capacity_scans_per_request"] = _ratio(
            values.pop("serve.capacity_scans", 0.0), values["serve.offered"]
        )
        values["dag.replica_useful_ratio"] = _ratio(
            values["dag.stages_completed"], values["dag.replicas_launched"]
        )
        values["tier.speculation_useful_ratio"] = _ratio(
            values.pop("tier.attempts_won", 0.0), values["tier.attempts"]
        )
        recorder = self.recorder
        values["runtime.gc_collections"] = float(recorder.gc_collections)
        values["runtime.gc_pause_s"] = recorder.gc_pause_s * score
        values["runtime.calibration_score"] = score
        timed = sum(recorder.buckets.values()) * score
        values["trace.timed_s"] = timed
        values["trace.attributed_share"] = 1.0 - _ratio(values["other.self_s"], timed)
        return {name: float(values[name]) for name, _unit in PER_LAYER}

    def unknown_labels(self) -> List[str]:
        return sorted({normalise_label(label) for label in self.recorder.label_counts
                       if bucket_for_label(label) == "other.self_s"})


def _modules_binding(function: Any) -> List[Any]:
    """Loaded ``repro`` and ``networkx`` modules that bind ``function``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(("repro", "networkx")):
            continue
        if any(value is function for value in vars(module).values()):
            found.append(module)
    return found
