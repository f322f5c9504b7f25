"""Tiered offload with speculative execution and graceful failover.

One submit API over the whole hierarchy.  The offloader classifies each
task by its remaining slack and the caller's policy:

* ``local_only``   — the local v-cloud, nothing else;
* ``prefer_local`` — local when healthy, else fail over to the best
  healthy remote tier (a ``failover`` is ledgered);
* ``speculate``    — for deadline-critical tasks: launch replicas on
  the local tier **and** the best feasible remote tier simultaneously,
  first acceptable result wins, the loser is cancelled through the
  existing typed-cancel path (``speculation_cancelled``).

Speculation degrades instead of stalling.  When every remote tier is
demoted (backhaul outage, tripped breaker, no workers) the task
collapses to local execution and ``backhaul_degraded`` is ledgered;
when a remote exists but its end-to-end estimate (uplink + queue +
run + downlink, all read-only signals) cannot beat the deadline, the
task collapses without dispatching remotely and ``no_remote_slack`` is
ledgered.  Either way the local replica always runs, so a dying WAN
costs latency, never deadline safety — the local/remote speculation
argument of "Leveraging Cloud Computing to Make Autonomous Vehicles
Safer" (PAPERS.md).

Every task roots a ``tier.lifecycle`` span with one ``tier.attempt``
child per replica; the winner's span is causally linked from the
lifecycle so traces answer "which tier actually saved this deadline".
Each task's replicas race in one :class:`~repro.core.race.Race`, which
owns first-result-wins: the winner, typed loser cancellation, late
results and the failure reason of a race nobody won.  The offloader
keeps only the policy (:meth:`TieredOffloader._plan` and degradation)
and its ledger.  The chaos ``Conservation`` invariant checks
:attr:`TieredOffloader.balances` over :meth:`TieredOffloader.accounting`
and audits every task's race as ``tier-conservation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.race import CANCELLED, FAILED, LATE, LIVE, WON, Race
from ..core.tasks import Task
from ..errors import ConfigurationError
from ..sim.metrics import Ledger
from ..sim.world import World
from .health import TierHealthTracker
from .topology import (
    SPECULATION_CANCELLED,
    ExecutionTier,
    TierAttempt,
    TierTopology,
)

#: Submission policies, in escalating aggressiveness.
POLICIES = ("local_only", "prefer_local", "speculate")

#: Degradation reasons ledgered when ``speculate`` collapses to local.
BACKHAUL_DEGRADED = "backhaul_degraded"
NO_REMOTE_SLACK = "no_remote_slack"

#: Terminal reason when no tier at all could take the task.
NO_TIER_AVAILABLE = "no_tier_available"

#: Listener fired once per task with ``(spec, reason)``.
ResolveListener = Callable[["SpeculativeTask", str], None]


@dataclass
class SpeculativeTask:
    """One submitted task and the speculative attempts racing for it."""

    task: Task
    policy: str
    submitted_at: float
    deadline_at: Optional[float]
    race: Race[TierAttempt]
    resolved_at: Optional[float] = None
    #: Degradation ledgered at submit (``backhaul_degraded`` / ``no_remote_slack``).
    degraded: Optional[str] = None
    span: Optional[object] = None

    @property
    def attempts(self) -> List[TierAttempt]:
        return self.race.attempts

    @property
    def resolved(self) -> bool:
        return self.race.resolved

    @property
    def outcome(self) -> Optional[str]:
        """``"completed"`` or a typed failure reason, once resolved."""
        return self.race.outcome

    @property
    def winner(self) -> Optional[TierAttempt]:
        return self.race.winner


@dataclass
class TierStats:
    """Offloader counters, task-level and attempt-level."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    deadline_hits: int = 0
    deadline_misses: int = 0
    speculated: int = 0
    failovers: int = 0
    degraded: Dict[str, int] = field(default_factory=dict)
    wins_by_tier: Dict[str, int] = field(default_factory=dict)
    attempts_submitted: int = 0
    attempts_won: int = 0
    attempts_cancelled: int = 0
    attempts_failed: int = 0
    attempts_late: int = 0
    latency_sum_s: float = 0.0

    def mean_latency_s(self) -> float:
        return self.latency_sum_s / self.completed if self.completed else 0.0

    def deadline_hit_rate(self) -> float:
        judged = self.deadline_hits + self.deadline_misses
        return self.deadline_hits / judged if judged else 1.0


class TieredOffloader:
    """Submit tasks across the tier hierarchy, first acceptable result wins."""

    def __init__(
        self,
        world: World,
        topology: TierTopology,
        health: Optional[TierHealthTracker] = None,
        name: str = "tiered",
    ) -> None:
        if not topology.tiers():
            raise ConfigurationError("topology has no registered tiers")
        self.world = world
        self.topology = topology
        self.health = health if health is not None else TierHealthTracker(world)
        self.name = name
        stats = self.stats = TierStats()
        self.ledger = Ledger(
            world, stats, f"tier/{name}", "tier", offloader=name,
            reasons={"failed": stats.failure_reasons, "degraded": stats.degraded,
                     "wins_by_tier": stats.wins_by_tier},
        )
        self._specs: Dict[str, SpeculativeTask] = {}
        self._resolve_listeners: List[ResolveListener] = []

    # -- listener wiring -----------------------------------------------------

    def on_task_resolved(self, listener: ResolveListener) -> None:
        """Register a listener fired once per task at resolution.

        ``reason`` is ``"completed"`` when some attempt won, else the
        typed failure reason of the last replica standing.  The serving
        gateway uses this to settle its dispatch bookkeeping.
        """
        self._resolve_listeners.append(listener)

    # -- submission ----------------------------------------------------------

    def submit(self, task: Task, policy: str = "prefer_local") -> SpeculativeTask:
        """Submit one task under ``policy``; returns its live spec."""
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}, expected one of {POLICIES}"
            )
        now = self.world.now
        deadline_at = (
            now + task.deadline_s if task.deadline_s is not None else None
        )
        race: Race[TierAttempt] = Race(
            self._cancel_attempt,
            SPECULATION_CANCELLED,
            on_resolved=lambda _race, reason: self._on_resolved(spec, reason),
            on_finished=self._on_finished,
        )
        spec = SpeculativeTask(
            task=task, policy=policy, submitted_at=now, deadline_at=deadline_at,
            race=race,
        )
        self._specs[task.task_id] = spec
        self.ledger.record("submitted")
        tracer = self.world.tracer
        if tracer is not None:
            spec.span = tracer.start_span(
                "tier.lifecycle",
                subsystem="tier",
                attrs={
                    "task_id": task.task_id,
                    "policy": policy,
                    "deadline_s": task.deadline_s,
                },
            )
        for tier in self._plan(spec):
            self._launch(spec, tier)
        race.close(NO_TIER_AVAILABLE)
        return spec

    # -- tier selection ------------------------------------------------------

    def _best_local(self) -> Optional[ExecutionTier]:
        locals_ = self.topology.local_tiers()
        if not locals_:
            return None
        healthy = [tier for tier in locals_ if self.health.healthy(tier)]
        pool = healthy if healthy else locals_
        return min(pool, key=lambda t: t.queue_delay_estimate(self.world.now))

    def _best_remote(self, task: Task) -> Optional[ExecutionTier]:
        healthy = [
            tier
            for tier in self.topology.remote_tiers()
            if self.health.healthy(tier)
        ]
        if not healthy:
            return None
        return min(
            healthy, key=lambda t: t.estimated_completion_s(task, self.world.now)
        )

    def _plan(self, spec: SpeculativeTask) -> List[ExecutionTier]:
        local = self._best_local()
        if spec.policy == "local_only":
            return [local] if local is not None else []
        remote = self._best_remote(spec.task)
        if spec.policy == "prefer_local" or spec.deadline_at is None:
            # Speculation without a deadline has no slack to protect;
            # degrade to prefer_local semantics.
            if local is not None and self.health.healthy(local):
                return [local]
            if remote is not None:
                self.ledger.record(
                    "failovers", event="tier_failover", severity="warning",
                    task_id=spec.task.task_id, to_tier=remote.name,
                )
                return [remote]
            return [local] if local is not None else []
        # speculate, with a deadline
        if local is None:
            return [remote] if remote is not None else []
        if remote is None:
            self._degrade(spec, BACKHAUL_DEGRADED)
            return [local]
        estimate = remote.estimated_completion_s(spec.task, self.world.now)
        if self.world.now + estimate > spec.deadline_at:
            self._degrade(spec, NO_REMOTE_SLACK)
            return [local]
        self.ledger.record("speculated")
        return [local, remote]

    def _degrade(self, spec: SpeculativeTask, reason: str) -> None:
        """Ledger a speculate collapse to local-only execution."""
        spec.degraded = reason
        self.ledger.record(
            "degraded", reason, event="speculation_degraded", severity="warning",
            task_id=spec.task.task_id,
        )
        tracer = self.world.tracer
        if tracer is not None and spec.span is not None:
            tracer.add_event(spec.span, "degraded", reason=reason)

    # -- attempt lifecycle ---------------------------------------------------

    def _launch(self, spec: SpeculativeTask, tier: ExecutionTier) -> None:
        span = None
        tracer = self.world.tracer
        if tracer is not None:
            span = tracer.start_span(
                "tier.attempt",
                subsystem="tier",
                parent=spec.span,
                attrs={"tier": tier.name, "level": tier.level},
            )
        self.health.note_dispatch(tier)
        self.ledger.record("attempts_submitted", tier.name, metric="attempts")
        attempt = tier.dispatch(
            spec.task,
            spec.deadline_at,
            lambda a, reason: self._on_attempt_finish(spec, a, reason),
            span=span,
        )
        spec.race.launch(attempt)

    def _cancel_attempt(self, attempt: TierAttempt, reason: str) -> None:
        self.topology.tier(attempt.tier_name).cancel(attempt, reason)

    def _on_attempt_finish(
        self, spec: SpeculativeTask, attempt: TierAttempt, reason: str
    ) -> None:
        self.health.record_outcome(self.topology.tier(attempt.tier_name), reason)
        spec.race.finish(attempt, reason)

    def _on_finished(self, attempt: TierAttempt, state: str, reason: str) -> None:
        """Per-attempt ledger, before any resolution the attempt causes."""
        if state == WON:
            self.stats.attempts_won += 1
            self._end_attempt_span(attempt, "ok", winner=True)
        elif state == LATE:
            self.ledger.record("attempts_late")
            self._end_attempt_span(attempt, "ok", late=True)
        elif state == CANCELLED:
            self.ledger.record("attempts_cancelled")
            self._end_attempt_span(attempt, "cancelled", reason=reason)
        elif state == FAILED:
            self.ledger.record("attempts_failed", reason, metric="attempt_failures")
            self._end_attempt_span(attempt, "error", reason=reason)

    def _on_resolved(self, spec: SpeculativeTask, reason: str) -> None:
        spec.resolved_at = self.world.now
        if reason == "completed":
            self._resolve(spec)
        else:
            self._fail(spec, reason)
        for listener in self._resolve_listeners:
            listener(spec, reason)

    def _resolve(self, spec: SpeculativeTask) -> None:
        now = self.world.now
        winner = spec.winner
        assert winner is not None
        latency = now - spec.submitted_at
        self.stats.latency_sum_s += latency
        self.ledger.record(
            "completed", event="task_resolved", task_id=spec.task.task_id,
            winner=winner.tier_name, latency_s=round(latency, 6),
        )
        self.ledger.record("wins_by_tier", winner.tier_name, metric="wins")
        if spec.deadline_at is not None:
            if now <= spec.deadline_at + 1e-9:
                self.ledger.record("deadline_hits")
            else:
                self.ledger.record("deadline_misses")
        tracer = self.world.tracer
        if tracer is not None and spec.span is not None:
            if winner.span is not None:
                tracer.link(spec.span, winner.span)
            tracer.end_span(
                spec.span,
                status="ok",
                attrs={"winner": winner.tier_name, "latency_s": latency},
            )

    def _fail(self, spec: SpeculativeTask, reason: str) -> None:
        self.ledger.record(
            "failed", reason, metric="task_failures", event="task_failed",
            severity="warning", task_id=spec.task.task_id,
        )
        if spec.deadline_at is not None:
            self.ledger.record("deadline_misses")
        tracer = self.world.tracer
        if tracer is not None and spec.span is not None:
            tracer.end_span(spec.span, status="error", attrs={"reason": reason})

    def _end_attempt_span(
        self, attempt: TierAttempt, status: str, **attrs: object
    ) -> None:
        tracer = self.world.tracer
        if tracer is not None and attempt.span is not None:
            tracer.end_span(attempt.span, status=status, attrs=attrs)

    # -- conservation surface ------------------------------------------------

    #: Invariant name and balance equations over :meth:`accounting`.
    conservation_name = "tier-conservation"
    balances = (
        ("submitted", ("completed", "failed", "live")),
        (
            "attempts_submitted",
            ("attempts_won", "attempts_cancelled", "attempts_failed",
             "attempts_late", "attempts_live"),
        ),
        ("completed", ("attempts_won",), "a task must have exactly one winner"),
    )

    def accounting(self) -> Dict[str, int]:
        """Task- and attempt-stream conservation counters.

        At any sim instant ``submitted == completed + failed + live``
        and ``attempts_submitted == won + cancelled + failed + late +
        live`` must hold, and ``completed == attempts_won`` (exactly one
        winner per resolved task); see :attr:`balances`.  ``live`` and
        ``attempts_live`` are counted from the races themselves, so a
        task or attempt lost without an outcome breaks a balance.
        """
        s = self.stats
        races = [spec.race for spec in self._specs.values()]
        live = sum(1 for race in races if not race.resolved)
        attempts_live = sum(race.states.count(LIVE) for race in races)
        return {
            "submitted": s.submitted,
            "completed": s.completed,
            "failed": s.failed,
            "live": live,
            "attempts_submitted": s.attempts_submitted,
            "attempts_won": s.attempts_won,
            "attempts_cancelled": s.attempts_cancelled,
            "attempts_failed": s.attempts_failed,
            "attempts_late": s.attempts_late,
            "attempts_live": attempts_live,
        }

    def races(self) -> Iterator[Tuple[str, Race[TierAttempt]]]:
        """``(task id, race)`` for every submitted task."""
        for task_id, spec in self._specs.items():
            yield f"task {task_id}", spec.race

    def specs(self) -> List[SpeculativeTask]:
        """Every submitted task's spec, in submission order."""
        return list(self._specs.values())
