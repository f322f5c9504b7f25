"""The first-result-wins :class:`~repro.core.race.Race` primitive."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core.race import CANCELLED, FAILED, LATE, LIVE, WON, Race

CANCEL = "test_cancelled"
FAILURES = ("deadline", "retries_exhausted", "backhaul_lost")


class _Attempt:
    def __init__(self, number: int) -> None:
        self.number = number


def _race(cancel=lambda attempt, reason: None):
    resolutions = []
    race = Race(cancel, CANCEL, on_resolved=lambda r, reason: resolutions.append(reason))
    return race, resolutions


class TestRace:
    def test_first_completion_wins_and_losers_are_cancelled_in_order(self):
        cancelled = []
        race, resolutions = _race(lambda a, reason: cancelled.append((a.number, reason)))
        attempts = [_Attempt(n) for n in range(3)]
        for attempt in attempts:
            race.launch(attempt)
        race.close()
        assert race.finish(attempts[1], "completed") == WON
        assert race.winner is attempts[1]
        assert cancelled == [(0, CANCEL), (2, CANCEL)]
        assert race.cancel_requested == [True, False, True]
        assert resolutions == ["completed"]
        assert race.finish(attempts[0], "completed") == LATE
        assert race.finish(attempts[2], CANCEL) == CANCELLED
        assert race.counts() == {
            WON: 1, CANCELLED: 1, FAILED: 0, LATE: 1, LIVE: 0, "launched": 3,
        }
        assert race.audit() == []

    def test_failure_waits_for_the_launch_phase(self):
        race, resolutions = _race()
        only = _Attempt(0)
        race.finish(only, "deadline")  # terminated inside its own dispatch
        assert race.attempts == [only] and resolutions == []
        race.close()
        assert resolutions == ["deadline"] and race.outcome == "deadline"

    def test_empty_race_fails_with_the_given_reason(self):
        race, resolutions = _race()
        race.close("no_tier_available")
        assert resolutions == ["no_tier_available"]

    def test_failure_reason_skips_cancellations(self):
        race, resolutions = _race()
        first, second = _Attempt(0), _Attempt(1)
        race.launch(first)
        race.launch(second)
        race.close()
        race.finish(first, "backhaul_lost")
        race.finish(second, CANCEL)
        assert resolutions == ["backhaul_lost"]

    def test_launch_into_a_resolved_race_is_refused(self):
        race, _ = _race()
        first = _Attempt(0)
        race.launch(first)
        race.finish(first, "completed")
        with pytest.raises(ValueError):
            race.launch(_Attempt(1))

    def test_audit_reports_a_forged_second_winner(self):
        race, _ = _race()
        first, second = _Attempt(0), _Attempt(1)
        race.launch(first)
        race.launch(second)
        race.finish(first, "completed")
        race.states[1] = WON
        assert any("2 uncancelled winners" in p for p in race.audit())

    def test_audit_reports_an_unreconciled_loser(self):
        race, _ = _race()
        first, second = _Attempt(0), _Attempt(1)
        race.launch(first)
        race.launch(second)
        race.finish(first, "completed")
        race.cancel_requested[1] = False
        assert any("neither terminal nor cancelled" in p for p in race.audit())


class RaceMachine(RuleBasedStateMachine):
    """Random interleavings of launch, finish, cancel and close."""

    @initialize()
    def setup(self):
        self.cancel_succeeds = True
        self.resolutions = []
        self.race = Race(self._cancel, CANCEL, on_resolved=self._resolved)
        self.launched = 0
        self.terminal = set()
        self.failure_reasons = []  # non-cancel failure reasons, in order

    def _cancel(self, attempt, reason):
        if self.cancel_succeeds:
            self._finish(attempt, reason)

    def _resolved(self, race, reason):
        self.resolutions.append(reason)

    def _finish(self, attempt, reason):
        if attempt.number not in self.terminal:
            self.terminal.add(attempt.number)
            if reason not in ("completed", CANCEL):
                self.failure_reasons.append(reason)
        self.race.finish(attempt, reason)

    def _pick(self, data, live_only):
        pool = [
            a for a in self.race.attempts
            if not live_only or a.number not in self.terminal
        ]
        return data.draw(st.sampled_from(pool)) if pool else None

    @precondition(lambda self: not self.race.resolved)
    @rule()
    def launch(self):
        self.race.launch(_Attempt(self.launched))
        self.launched += 1

    @precondition(lambda self: not self.race.resolved)
    @rule(reason=st.sampled_from(FAILURES))
    def fail_inside_dispatch(self, reason):
        attempt = _Attempt(self.launched)
        self.launched += 1
        self._finish(attempt, reason)

    @rule(data=st.data())
    def complete(self, data):
        attempt = self._pick(data, live_only=False)
        if attempt is not None:
            self._finish(attempt, "completed")

    @precondition(lambda self: self.race.resolved)
    @rule(data=st.data())
    def late_complete(self, data):
        attempt = self._pick(data, live_only=True)
        if attempt is not None:
            self._finish(attempt, "completed")

    @rule(data=st.data(), reason=st.sampled_from(FAILURES))
    def fail(self, data, reason):
        attempt = self._pick(data, live_only=True)
        if attempt is not None:
            self._finish(attempt, reason)

    @rule(succeeds=st.booleans())
    def cancel(self, succeeds):
        self.cancel_succeeds = succeeds
        self.race.cancel_live()
        self.cancel_succeeds = True

    @precondition(lambda self: self.race.open)
    @rule()
    def close_launch_phase(self):
        self.race.close("no_attempts")

    @invariant()
    def at_most_one_winner(self):
        assert self.race.states.count(WON) <= 1

    @invariant()
    def states_balance(self):
        counts = self.race.counts()
        assert counts["launched"] == (
            counts[WON] + counts[CANCELLED] + counts[FAILED] + counts[LATE] + counts[LIVE]
        )

    @invariant()
    def resolves_exactly_once(self):
        assert len(self.resolutions) == (1 if self.race.resolved else 0)
        if self.race.resolved:
            assert self.resolutions[0] == self.race.outcome

    @invariant()
    def failure_carries_the_last_non_cancel_reason(self):
        outcome = self.race.outcome
        if outcome is None or outcome == "completed":
            return
        if self.failure_reasons:
            assert outcome == self.failure_reasons[-1]
        elif self.race.attempts:
            assert outcome == CANCEL
        else:
            assert outcome == "no_attempts"

    @invariant()
    def audit_is_clean(self):
        assert self.race.audit() == []


TestRaceMachine = RaceMachine.TestCase
TestRaceMachine.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)
