"""First-result-wins races over redundant attempts.

Gateway hedging, DAG k-of-n stage replicas and cross-tier speculation
all run redundant copies of a task on unreliable vehicles (§V.A);
:class:`Race` is the one place their shared rules live:

* attempts are recorded in launch order;
* the first ``"completed"`` attempt wins; every live loser is first
  marked cancel-requested, then cancelled through the caller's
  ``cancel(attempt, reason)`` in launch order;
* a completion arriving after the race resolved is *late*, never a
  second winner;
* once the launch phase is closed, a race whose attempts are all
  terminal fails with the chronologically last failure reason that is
  not the race's cancel reason.

Callers keep their policy (what to launch, when) and hang their
accounting on ``on_finished(attempt, state, reason)``, fired for every
terminal attempt *before* any resolution it causes, and
``on_resolved(race, reason)``, fired exactly once.  A race schedules no
events, draws no randomness and writes no metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, List, Optional, TypeVar

A = TypeVar("A")

COMPLETED = "completed"

#: Per-attempt states; every launched attempt is in exactly one.
LIVE = "live"
WON = "won"
CANCELLED = "cancelled"
FAILED = "failed"
LATE = "late"
STATES = (WON, CANCELLED, FAILED, LATE, LIVE)


class Race(Generic[A]):
    """One first-result-wins race; attempts are opaque caller objects."""

    __slots__ = (
        "attempts", "states", "cancel_requested", "cancel_reason",
        "winner", "outcome", "open", "_cancel", "_on_resolved",
        "_on_finished", "_last_reason",
    )

    def __init__(
        self,
        cancel: Callable[[A, str], object],
        cancel_reason: str,
        on_resolved: Callable[["Race[A]", str], None],
        on_finished: Optional[Callable[[A, str, str], None]] = None,
    ) -> None:
        self.attempts: List[A] = []
        #: State of each attempt, parallel to :attr:`attempts`.
        self.states: List[str] = []
        self.cancel_requested: List[bool] = []
        self.cancel_reason = cancel_reason
        self.winner: Optional[A] = None
        #: ``"completed"`` or the failure reason, once resolved.
        self.outcome: Optional[str] = None
        #: True until :meth:`close` ends the launch phase.
        self.open = True
        self._cancel = cancel
        self._on_resolved = on_resolved
        self._on_finished = on_finished
        self._last_reason: Optional[str] = None

    @property
    def resolved(self) -> bool:
        return self.outcome is not None

    def _index(self, attempt: A) -> Optional[int]:
        for index, known in enumerate(self.attempts):
            if known is attempt:
                return index
        return None

    def _record(self, attempt: A) -> int:
        self.attempts.append(attempt)
        self.states.append(LIVE)
        self.cancel_requested.append(False)
        return len(self.attempts) - 1

    def launch(self, attempt: A) -> None:
        """Record a launched attempt (no-op if it already finished)."""
        if self._index(attempt) is not None:
            return
        if self.outcome is not None:
            raise ValueError("cannot launch into a resolved race")
        self._record(attempt)

    def close(self, reason_if_empty: str = "no_attempts") -> None:
        """End the launch phase; an all-terminal race now fails."""
        self.open = False
        if self.outcome is None and LIVE not in self.states:
            self._fail(self._failure_reason() if self.attempts else reason_if_empty)

    def finish(self, attempt: A, reason: str) -> str:
        """Report an attempt's terminal reason; returns its state.

        An attempt the race has not seen yet (one that terminated inside
        its own dispatch) is recorded first.  Repeat reports are dropped.
        """
        index = self._index(attempt)
        if index is None:
            index = self._record(attempt)
        elif self.states[index] != LIVE:
            return self.states[index]
        if reason == COMPLETED:
            state = LATE if self.outcome is not None else WON
        else:
            state = CANCELLED if self.cancel_requested[index] else FAILED
            if reason != self.cancel_reason:
                self._last_reason = reason
        self.states[index] = state
        if self._on_finished is not None:
            self._on_finished(attempt, state, reason)
        if state == WON:
            self.winner = attempt
            self.outcome = COMPLETED
            self.cancel_live()
            self._on_resolved(self, COMPLETED)
        elif self.outcome is None and not self.open and LIVE not in self.states:
            self._fail(self._failure_reason())
        return state

    def cancel_live(self) -> None:
        """Mark every live attempt cancel-requested, then cancel each.

        The winner path uses this for its losers; callers abandoning an
        unresolved race (graph restart or failure) use it directly.
        """
        pending = [
            index
            for index, state in enumerate(self.states)
            if state == LIVE and not self.cancel_requested[index]
        ]
        for index in pending:
            self.cancel_requested[index] = True
        for index in pending:
            if self.states[index] == LIVE:
                self._cancel(self.attempts[index], self.cancel_reason)

    def _failure_reason(self) -> str:
        return self._last_reason if self._last_reason is not None else self.cancel_reason

    def _fail(self, reason: str) -> None:
        self.outcome = reason
        self._on_resolved(self, reason)

    # -- introspection -------------------------------------------------------

    def live(self) -> Iterator[A]:
        """Attempts that have not reached a terminal state."""
        for attempt, state in zip(self.attempts, self.states):
            if state == LIVE:
                yield attempt

    def counts(self) -> Dict[str, int]:
        """Attempts per state plus ``launched``; the states always sum up."""
        counts = {state: self.states.count(state) for state in STATES}
        counts["launched"] = len(self.attempts)
        return counts

    def audit(self) -> List[str]:
        """Breaches of first-result-wins; empty when the race is sound."""
        problems: List[str] = []
        winners = self.states.count(WON)
        if winners > 1:
            problems.append(f"{winners} uncancelled winners")
        if self.outcome == COMPLETED and winners == 0:
            problems.append("resolved completed without a winner")
        if self.outcome is not None:
            unreconciled = sum(
                1
                for state, requested in zip(self.states, self.cancel_requested)
                if state == LIVE and not requested
            )
            if unreconciled:
                problems.append(
                    f"resolved with {unreconciled} losers neither terminal "
                    f"nor cancelled"
                )
        return problems
