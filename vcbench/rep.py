"""One repetition of a workload in a fresh interpreter.

``run.py`` starts this script once per set-up probe and once per
repetition, one at a time, so every repetition starts from the process
state a user's run starts from::

    python3 vcbench/rep.py --workload radio-1000 --seed 77 --scratch DIR [--setup-only] [--trace]

It times ``import repro`` plus the workload's modules, the scene build and
the warm-up (the set-up), then the scene's steps, each bracketed by
calibration loops.  With ``--trace`` the steps run under the layer
tracer.  It prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import time
from typing import Any, Dict

from calibrate import ChunkClock, Yardstick
from workloads import WORKLOADS, make_workload, mismatches, use_source_tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    root = use_source_tree()
    workload = make_workload(args.workload, root, args.scratch)
    yardstick = Yardstick()

    yardstick.bracket()
    started = time.perf_counter()
    importlib.import_module("repro")
    for module in workload.MODULES:
        importlib.import_module(module)
    imported = time.perf_counter()
    tracer = None
    if args.trace:
        # Installed before the build, so that no bound method the scene
        # keeps can bypass a wrapper; nothing untimed is counted.
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        scene = workload.build(args.seed)
        built = time.perf_counter()
        scene.warm_up()
        warmed = time.perf_counter()
        yardstick.bracket()
        score = yardstick.score()
        result: Dict[str, Any] = {
            "setup": {
                "raw_s": warmed - started,
                "score": score,
                "import_s": (imported - started) * score,
                "build_s": (built - imported) * score,
                "warm_up_s": (warmed - built) * score,
            }
        }
        try:
            if not args.setup_only:
                result.update(_measure(args, workload, scene, yardstick, root, tracer))
        finally:
            scene.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps(result))
    return 0


def run_steps(scene: Any, clock: ChunkClock, tracer: Any = None) -> None:
    """Run every step of ``scene`` as a timed chunk, traced if ``tracer`` is given."""
    for step in scene.steps():
        if tracer is None:
            clock.run(step)
        else:
            clock.run(lambda step=step: tracer.recorder.chunk(step))
            tracer.recorder.flush()


def _measure(args: argparse.Namespace, workload: Any, scene: Any, yardstick: Yardstick,
             root: str, tracer: Any) -> Dict[str, Any]:
    if tracer is not None and hasattr(scene, "world"):
        tracer.attach(scene.world)
    clock = ChunkClock(yardstick)
    run_steps(scene, clock, tracer)
    if tracer is not None:
        tracer.uninstall()
    problems = list(scene.failures())
    if args.seed == workload.oracle_seed:
        problems += mismatches(workload.seed_checks(scene))
    score = clock.score
    measured: Dict[str, Any] = {
        "work": scene.work(),
        "host_s": clock.host_s,
        "calibrated_s": clock.calibrated_s,
        "score": score,
        # A run is what the scene's steps report (an execute_run, a
        # topology_stats call), else the whole repetition.
        "runs_s": [run * score for run in clock.runs] or [clock.calibrated_s],
        "digest": scene.digest(),
        "problems": problems,
        # Includes the yardstick's 4 MB dict, the same in every run.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        measured["layers"] = tracer.metrics(score)
        measured["unknown_labels"] = tracer.unknown_labels()
        measured["leaks"] = tracer.leaks()
        tracer.write_spans(os.path.join(
            root, ".vcbench", "traces", f"{args.workload}-seed{args.seed}.json"
        ))
    return measured


if __name__ == "__main__":
    raise SystemExit(main())
