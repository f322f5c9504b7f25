"""Fixed-seed benchmark of the vehicular-cloud simulator.

Usage (from the root of a checkout)::

    python3 vcbench/run.py --workload radio-1000 --seed 77 --seconds 20 --trace 0

Workloads: ``radio-1000``, ``serve-soak``, ``campaign-full`` and
``topology-300`` (see ``workloads.py``).  Each repetition and each
set-up probe runs in a fresh interpreter (``rep.py``), one at a time on
one thread, so every repetition starts from the state a user's run starts
from; the oracle replays run in this process.

With ``--trace 0`` the run repeats the workload for about ``--seconds``
of timed work (at least one whole repetition) and reports the end-to-end
metrics; with ``--trace 1`` it
runs one untraced and one traced repetition and reports the per-layer
table.  Every host time is calibrated (see ``calibrate.py``).  Lines
starting with ``#`` are notes; the last line is the JSON result.

An operation is a set-up probe, the oracle replay, or a repetition.  It
fails if it crashes, if its seeded digest differs from the other
repetitions', if an oracle value differs from the committed result, or
if it reports an unresolved request, an invariant violation or a
campaign regression.  The exit code is 0 only when nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from layers import PER_LAYER
from workloads import WORKLOADS, make_workload, mismatches, use_source_tree

#: Set-up-only interpreters per run; repetitions add their own set-up.
SETUP_PROBES = 3
#: A run's interpreters must all have ended this many seconds after it starts.
RUN_BUDGET_S = 170
#: A run starts another repetition only if it should end by this share
#: of ``--seconds``.
OVERSHOOT = 1.3

END_TO_END = (
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("run_p50_s", "s"),
    ("run_p90_s", "s"),
)


def note(text: str) -> None:
    print(f"# {text}", flush=True)


class Bench:
    def __init__(self, args: argparse.Namespace, root: str, scratch: str) -> None:
        self.args = args
        self.root = root
        self.scratch = scratch
        self.workload = make_workload(args.workload, root, scratch)
        self.attempted = 0
        self.failed = 0
        self.digests: List[str] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    # -- operations ------------------------------------------------------------

    def operation(self, what: str, action: Callable[[], Any]) -> Any:
        """Run one counted operation; a crash counts as a failure."""
        self.attempted += 1
        try:
            return action()
        except Exception as exc:  # noqa: BLE001 - the benchmark must report, not die
            self.failed += 1
            note(f"FAILED {what}: crashed")
            traceback.print_exc()
            if isinstance(exc, subprocess.CalledProcessError):
                print(exc.stderr, file=sys.stderr)
            return None

    def judge(self, what: str, problems: List[str]) -> None:
        if problems:
            self.failed += 1
            for problem in problems:
                note(f"FAILED {what}: {problem}")

    def child(self, *flags: str) -> Dict[str, Any]:
        """Run ``rep.py`` in a fresh interpreter and return its JSON result."""
        command = [
            sys.executable,
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "rep.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--scratch", os.path.join(self.scratch, "rep"),
            *flags,
        ]
        done = subprocess.run(
            command, cwd=self.root, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()), check=True,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])

    def oracle(self) -> None:
        checks = self.workload.oracle()
        problems = mismatches(checks)
        note(f"oracle: {len(checks) - len(problems)}/{len(checks)} committed results reproduced")
        self.judge("oracle", problems)

    def repetition(self, what: str, *flags: str) -> Optional[Dict[str, Any]]:
        rep = self.operation(what, lambda: self.child(*flags))
        if rep is None:
            return None
        problems = list(rep["problems"])
        if self.digests and rep["digest"] != self.digests[0]:
            problems.append(f"digest {rep['digest'][:12]} differs from {self.digests[0][:12]}")
        self.digests.append(rep["digest"])
        self.judge(what, problems)
        return rep

    # -- the two kinds of run ----------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        setups = [
            probe["setup"]
            for probe in (
                self.operation("set-up probe", lambda: self.child("--setup-only"))
                for _ in range(SETUP_PROBES)
            )
            if probe is not None
        ]
        self.operation("oracle", self.oracle)
        reps: List[Dict[str, Any]] = []
        timed = 0.0
        while not reps or timed + timed / len(reps) <= OVERSHOOT * self.args.seconds:
            rep = self.repetition(f"repetition {len(reps) + 1}")
            if rep is None:
                break
            reps.append(rep)
            timed += rep["host_s"]
        if not reps:
            return {}
        setups += [rep["setup"] for rep in reps]
        work = sum(r["work"] for r in reps)
        samples = [s for r in reps for s in r["runs_s"]]
        metrics = {
            "work_per_s": statistics.median(r["work"] / r["calibrated_s"] for r in reps),
            "setup_s": statistics.median(
                s["import_s"] + s["build_s"] + s["warm_up_s"] for s in setups
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "run_p50_s": statistics.median(samples),
            "run_p90_s": _p90(samples),
        }
        note(f"{len(reps)} repetitions, digest {reps[0]['digest'][:16]}, work {work}")
        note(
            f"work_per_s {metrics['work_per_s']:.2f} calibrated (median of repetitions) | "
            f"raw host rate {work / sum(r['host_s'] for r in reps):.2f}/s | "
            f"runtime.calibration_score "
            f"{statistics.median(r['score'] for r in reps):.4f}"
        )
        for part in ("import_s", "build_s", "warm_up_s"):
            note(f"setup {part} {statistics.median(s[part] for s in setups):.4f} "
                 f"(calibrated median of {len(setups)})")
        note(
            f"setup raw host {statistics.median(s['raw_s'] for s in setups):.4f} s | "
            f"setup calibration_score {statistics.median(s['score'] for s in setups):.4f}"
        )
        note(f"run_p50_s/run_p90_s over {len(samples)} runs")
        return metrics

    def traced(self) -> Dict[str, float]:
        self.operation("oracle", self.oracle)
        untraced = self.repetition("untraced repetition")
        traced = self.repetition("traced repetition", "--trace")
        if untraced is None or traced is None:
            return {}
        self.judge("tracer removal", [f"{name} still wrapped" for name in traced["leaks"]])
        metrics = dict(traced["layers"])
        self.judge("traced repetition", [
            f"{name} is {metrics[name]:g}, must be 0"
            for name in ("serve.unresolved", "chaos.violations") if metrics[name]
        ])
        metrics["trace.overhead_ratio"] = traced["host_s"] / untraced["host_s"]
        width = max(len(name) for name in metrics)
        for name, value in metrics.items():
            note(f"{name:<{width}} {value:.6g}")
        note(f"attributed share {metrics['trace.attributed_share']:.4f}; labels billed to "
             f"other.self_s: {', '.join(traced['unknown_labels']) or 'none'}")
        return metrics

    def run(self) -> Dict[str, Any]:
        if self.args.trace:
            units = dict(PER_LAYER)
            metrics = self.traced()
        else:
            units = dict(END_TO_END)
            metrics = self.end_to_end()
        return {
            "correct": self.failed == 0 and bool(metrics),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }


def _p90(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Vehicular-cloud simulator benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        root = use_source_tree()
    except FileNotFoundError as exc:
        print(f"vcbench: {exc}", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".vcbench", f"run-{os.getpid()}")
    try:
        result = Bench(args, root, scratch).run()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
