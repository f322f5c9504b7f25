"""Events and event reports for trustworthiness evaluation.

A :class:`GroundTruthEvent` is something that actually happened on the
road (ice, a crash, a jam); an :class:`EventReport` is one vehicle's
claim about it, carried through the v-cloud.  Honest vehicles report the
truth perturbed by sensor noise; malicious vehicles fabricate or invert
claims (``repro.attacks.data_disruption``).  The trust layer never sees
ground truth — experiments use it only to score decisions.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..geometry import Vec2

_report_counter = itertools.count(1)


def reset_report_ids() -> None:
    """Rewind the process-global event-report id counter to ``rep-1``."""
    global _report_counter
    _report_counter = itertools.count(1)


class EventKind(enum.Enum):
    """Road event categories used by the validation experiments."""

    ICY_ROAD = "icy_road"
    COLLISION = "collision"
    TRAFFIC_JAM = "traffic_jam"
    ROAD_CLOSURE = "road_closure"
    EMERGENCY_BRAKE = "emergency_brake"


@dataclass(frozen=True)
class GroundTruthEvent:
    """What actually happened (visible to experiments, not to vehicles)."""

    event_id: str
    kind: EventKind
    location: Vec2
    occurred_at: float
    exists: bool = True  # False models a non-event attackers fabricate


@dataclass(frozen=True)
class EventReport:
    """One vehicle's claim about an event."""

    reporter: str  # on-air identity (pseudonym)
    kind: EventKind
    location: Vec2
    reported_at: float
    claim: bool  # "the event is real"
    confidence: float = 0.9
    path: Tuple[str, ...] = ()  # relay provenance
    report_id: str = field(default_factory=lambda: f"rep-{next(_report_counter)}")

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ConfigurationError("confidence must be in [0, 1]")

    def distance_to(self, other: "EventReport") -> float:
        """Spatial distance between two reports' claimed locations."""
        return self.location.distance_to(other.location)

    def time_gap(self, other: "EventReport") -> float:
        """Absolute time gap between two reports."""
        return abs(self.reported_at - other.reported_at)


def honest_report(
    reporter: str,
    event: GroundTruthEvent,
    now: float,
    location_noise: Optional[Vec2] = None,
    path: Tuple[str, ...] = (),
    confidence: float = 0.9,
) -> EventReport:
    """Build the report an honest observer of ``event`` would send."""
    location = event.location
    if location_noise is not None:
        location = location + location_noise
    return EventReport(
        reporter=reporter,
        kind=event.kind,
        location=location,
        reported_at=now,
        claim=event.exists,
        confidence=confidence,
        path=path,
    )


def false_report(
    reporter: str,
    kind: EventKind,
    location: Vec2,
    now: float,
    claim: bool = True,
    path: Tuple[str, ...] = (),
    confidence: float = 0.95,
) -> EventReport:
    """Build a fabricated report (data "disruption", §III threats)."""
    return EventReport(
        reporter=reporter,
        kind=kind,
        location=location,
        reported_at=now,
        claim=claim,
        confidence=confidence,
        path=path,
    )
