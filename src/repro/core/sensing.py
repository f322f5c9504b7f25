"""Data-as-a-service sensing (after Azizian et al. [6]).

"The data collected by mounted sensors is treated as service
(data-as-a-service) and can be delivered and processed by the members
and heads of the vehicular clouds."

A :class:`SensingService` answers area queries ("what is the mean speed
near the intersection?") by tasking member vehicles that (a) carry the
required sensor and (b) are physically inside the query area, collecting
their noisy readings through the aggregator, and returning a quorum
answer.  Sensing joins compute/storage/bandwidth as the fourth pooled
resource of §II.C.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import ResourceError
from ..geometry import Vec2
from ..mobility.equipment import SensorKind
from ..mobility.sensors import SensorSuite
from ..mobility.vehicle import Vehicle
from ..sim.world import World
from .aggregation import ResultAggregator

_query_counter = itertools.count(1)


def reset_query_ids() -> None:
    """Rewind the process-global sensing-query id counter to ``squery-1``."""
    global _query_counter
    _query_counter = itertools.count(1)


@dataclass(frozen=True)
class SensingQuery:
    """An area-scoped sensing request."""

    kind: SensorKind
    center: Vec2
    radius_m: float
    min_readings: int = 3
    query_id: str = ""

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ResourceError("radius_m must be positive")
        if self.min_readings < 1:
            raise ResourceError("min_readings must be >= 1")
        if not self.query_id:
            object.__setattr__(self, "query_id", f"squery-{next(_query_counter)}")


@dataclass(frozen=True)
class SensingAnswer:
    """The aggregated answer to one sensing query."""

    query_id: str
    value: Optional[float]
    readings_used: int
    contributors: int
    latency_s: float

    @property
    def answered(self) -> bool:
        """True when enough readings arrived to aggregate."""
        return self.value is not None


class SensingService:
    """Tasks in-area, sensor-equipped members and aggregates readings."""

    #: Per-reading collection latency: sample + one V2V report hop.
    PER_READING_LATENCY_S = 0.010

    def __init__(
        self,
        world: World,
        vehicles: List[Vehicle],
        combine: Callable[[List[float]], float] = None,
    ) -> None:
        self.world = world
        self.vehicles = vehicles
        self.combine = combine if combine is not None else (
            lambda values: sum(values) / len(values)
        )
        self.aggregator = ResultAggregator()
        self._suites = {}
        self.queries_served = 0
        self.queries_failed = 0

    def _suite_for(self, vehicle: Vehicle) -> SensorSuite:
        suite = self._suites.get(vehicle.vehicle_id)
        if suite is None:
            suite = SensorSuite(vehicle, self.world.rng)
            self._suites[vehicle.vehicle_id] = suite
        return suite

    def eligible_sensors(self, query: SensingQuery) -> List[Vehicle]:
        """Members inside the area carrying the requested sensor."""
        return [
            vehicle
            for vehicle in self.vehicles
            if vehicle.equipment.has_sensor(query.kind)
            and vehicle.position.distance_to(query.center) <= query.radius_m
        ]

    def _read(self, vehicle: Vehicle, query: SensingQuery) -> Optional[float]:
        suite = self._suite_for(vehicle)
        now = self.world.now
        if query.kind is SensorKind.SPEEDOMETER:
            reading = suite.read_speed(now)
            return None if reading is None else float(reading.value)
        if query.kind is SensorKind.GPS:
            reading = suite.read_gps(now)
            if reading is None:
                return None
            return reading.value.distance_to(query.center)
        if query.kind is SensorKind.RADAR:
            reading = suite.radar_sweep(self.vehicles, now)
            return None if reading is None else float(len(reading.value))
        return None

    def query(self, query: SensingQuery) -> SensingAnswer:
        """Answer one sensing query from the current fleet state."""
        contributors = self.eligible_sensors(query)
        readings: List[float] = []
        job = self.aggregator.open_job(
            query.query_id,
            expected_parts=max(len(contributors), query.min_readings),
            quorum_fraction=min(
                1.0, query.min_readings / max(1, len(contributors))
            ),
            combine=lambda values: self.combine([float(v) for v in values]),
        )
        for index, vehicle in enumerate(contributors):
            value = self._read(vehicle, query)
            if value is None:
                continue
            readings.append(value)
            self.aggregator.submit_partial(
                query.query_id, vehicle.vehicle_id, index, value, self.world.now
            )
        latency = self.PER_READING_LATENCY_S * max(1, len(readings))
        if job.result is None or len(readings) < query.min_readings:
            self.queries_failed += 1
            return SensingAnswer(
                query_id=query.query_id,
                value=None,
                readings_used=len(readings),
                contributors=len(contributors),
                latency_s=latency,
            )
        self.queries_served += 1
        return SensingAnswer(
            query_id=query.query_id,
            value=float(job.result),
            readings_used=len(readings),
            contributors=len(contributors),
            latency_s=latency,
        )
