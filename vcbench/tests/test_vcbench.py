"""Tests of the benchmark itself, on reduced-size workloads.

Run from the root of a checkout with ``python3 -m pytest vcbench/tests -q``.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

from calibrate import ChunkClock, Yardstick
from layers import PER_LAYER, Tracer
from rep import run_steps
from workloads import (
    CampaignScene,
    RadioScene,
    ServeScene,
    TopologyScene,
    use_source_tree,
)

ROOT = use_source_tree()
BENCH_DIR = os.path.join(ROOT, "vcbench")


def small_scene(name, tmp_path):
    if name == "radio":
        return RadioScene(5, vehicles=120)
    if name == "serve":
        scene = ServeScene(5, horizon_s=60.0)
        scene.warm_up()
        return scene
    if name == "campaign":
        scene = CampaignScene(5, ROOT, str(tmp_path / "campaign"))
        # One seed of every cell: every architecture, workload and fault profile.
        scene.runs = [run for run in scene.runs if run.seed == 5]
        return scene
    return TopologyScene(5, vehicles=80)


def measure(name, tmp_path, tracer=None):
    scene = small_scene(name, tmp_path)
    try:
        if tracer is not None and hasattr(scene, "world"):
            tracer.attach(scene.world)
        clock = ChunkClock(Yardstick(iterations=2000, repeats=1))
        run_steps(scene, clock, tracer)
        return scene.digest(), scene.work(), scene.failures(), clock
    finally:
        scene.close()


def summary(name, tmp_dir, trace):
    """One reduced repetition; runs in a fresh interpreter (see ``fresh``)."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        digest, work, failures, clock = measure(name, pathlib.Path(tmp_dir), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"digest": digest, "work": work, "failures": failures,
              "runs": len(clock.runs), "calibrated_s": clock.calibrated_s}
    if tracer is not None:
        result.update(
            leaks=tracer.leaks(),
            unknown=tracer.unknown_labels(),
            metrics=tracer.metrics(clock.score),
            buckets_s=sum(tracer.recorder.buckets.values()),
            host_s=clock.host_s,
        )
    return result


def fresh(name, tmp_path, trace=False):
    """Run ``summary`` in a fresh interpreter, as the benchmark runs repetitions.

    Campaign cells do not replay byte-identically within one process: the
    RSU id counter of ``repro.infra`` is process-global and ``execute_run``
    does not rewind it.
    """
    code = (
        "import json, sys; sys.path[:0] = [{tests!r}]; import conftest, test_vcbench; "
        "print(json.dumps(test_vcbench.summary({name!r}, {tmp!r}, {trace!r})))"
    ).format(tests=os.path.dirname(os.path.abspath(__file__)), name=name,
             tmp=str(tmp_path), trace=trace)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


WORKLOADS = ("radio", "serve", "campaign", "topology")


def test_calibration_loop_leaves_gc_count_unchanged():
    yardstick = Yardstick()
    yardstick.bracket()
    before = gc.get_count()
    yardstick.bracket()
    assert gc.get_count() == before
    assert len(yardstick.history) == 2 * yardstick.repeats


def test_calibration_restores_gc_state():
    assert gc.isenabled()
    Yardstick(iterations=100).bracket()
    assert gc.isenabled()
    gc.disable()
    try:
        Yardstick(iterations=100).bracket()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", WORKLOADS)
def test_reduced_workload_runs_and_replays(name, tmp_path):
    first = fresh(name, tmp_path)
    second = fresh(name, tmp_path)
    assert first["work"] > 0
    assert first["failures"] == []
    assert first["calibrated_s"] > 0
    assert first["runs"] == {"campaign": 48, "topology": 4, "serve": 3}.get(name, 0)
    assert second["digest"] == first["digest"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_digest_equals_untraced_and_labels_are_mapped(name, tmp_path):
    untraced = fresh(name, tmp_path)
    traced = fresh(name, tmp_path, trace=True)
    assert traced["digest"] == untraced["digest"]
    assert traced["leaks"] == []
    assert traced["unknown"] == []
    metrics = traced["metrics"]
    assert list(metrics) == [metric for metric, _unit in PER_LAYER]
    assert metrics["sim.events"] > 0
    assert metrics["trace.attributed_share"] == pytest.approx(1.0)
    # Self times split the traced chunks' calibrated time, nothing counted twice.
    assert traced["buckets_s"] == pytest.approx(traced["host_s"], rel=0.02)


def test_wrappers_do_not_leak_into_untraced_runs(tmp_path):
    import networkx
    from repro.analysis import topology
    from repro.net import WirelessChannel
    from repro.sim import MetricsRegistry

    originals = (
        vars(WirelessChannel)["broadcast"],
        vars(MetricsRegistry)["increment"],
        networkx.diameter,
        topology.nx.articulation_points,
    )
    tracer = Tracer()
    tracer.install()
    assert vars(WirelessChannel)["broadcast"] is not originals[0]
    tracer.uninstall()
    assert (
        vars(WirelessChannel)["broadcast"],
        vars(MetricsRegistry)["increment"],
        networkx.diameter,
        topology.nx.articulation_points,
    ) == originals
    calls_before = tracer.recorder.functions["MetricsRegistry.increment"][0]
    measure("radio", tmp_path)
    assert tracer.recorder.functions["MetricsRegistry.increment"][0] == calls_before


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    from run import END_TO_END
    from workloads import WORKLOADS as NAMES

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)


def test_refuses_to_run_without_program_source(tmp_path):
    bench = tmp_path / "vcbench"
    bench.mkdir()
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(BENCH_DIR, name)).read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "radio-1000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
