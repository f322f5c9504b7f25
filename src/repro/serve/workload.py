"""Seeded open-loop workload generation.

An *open-loop* generator submits requests on its own arrival clock,
never waiting for completions — the regime in which an unprotected
server congestion-collapses instead of degrading gracefully (offered
load does not slow down just because the server is drowning).  Three
arrival processes cover the shapes the serving stack must survive:

* :class:`PoissonArrivals` — memoryless steady-state traffic;
* :class:`BurstyArrivals` — a two-state modulated Poisson process
  (quiet/burst phases with separate rates), the flash-crowd shape;
* :class:`DiurnalArrivals` — a sinusoidally rate-modulated day/night
  cycle.

Every draw flows through a per-tenant :class:`~repro.sim.rng.SeededRng`
substream (``serve/workload/<tenant>``), so the full arrival sequence —
times, sizes, tenants — is a pure function of ``(seed, spec)`` and two
runs with the same seed offer byte-identical load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from ..dag.templates import GraphTemplate
from ..errors import ConfigurationError
from ..sim.rng import SeededRng
from ..sim.world import World
from .gateway import ServiceGateway
from .request import ServiceRequest


class ArrivalProcess(Protocol):
    """Draws successive inter-arrival gaps for one tenant's stream."""

    def next_gap_s(self, rng: SeededRng, now: float) -> float:
        """Seconds until the next arrival after ``now``."""
        ...


class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate_per_s``."""

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError("rate_per_s must be positive")
        self.rate_per_s = rate_per_s

    def next_gap_s(self, rng: SeededRng, now: float) -> float:
        return rng.exponential(self.rate_per_s)


class BurstyArrivals:
    """Two-state modulated Poisson process (quiet phase / burst phase).

    The stream alternates between a quiet phase at ``base_rate_per_s``
    and a burst phase at ``burst_rate_per_s``; phase durations are
    exponential with the given means.  Phase transitions are driven by
    the same substream as the gaps, so the whole trajectory is seeded.
    """

    def __init__(
        self,
        base_rate_per_s: float,
        burst_rate_per_s: float,
        mean_quiet_s: float = 20.0,
        mean_burst_s: float = 5.0,
    ) -> None:
        if base_rate_per_s <= 0 or burst_rate_per_s <= 0:
            raise ConfigurationError("arrival rates must be positive")
        if mean_quiet_s <= 0 or mean_burst_s <= 0:
            raise ConfigurationError("phase durations must be positive")
        self.base_rate_per_s = base_rate_per_s
        self.burst_rate_per_s = burst_rate_per_s
        self.mean_quiet_s = mean_quiet_s
        self.mean_burst_s = mean_burst_s
        self._in_burst = False
        self._phase_ends_at: Optional[float] = None

    def next_gap_s(self, rng: SeededRng, now: float) -> float:
        if self._phase_ends_at is None:
            self._phase_ends_at = now + rng.exponential(1.0 / self.mean_quiet_s)
        while now >= self._phase_ends_at:
            self._in_burst = not self._in_burst
            mean = self.mean_burst_s if self._in_burst else self.mean_quiet_s
            self._phase_ends_at += rng.exponential(1.0 / mean)
        rate = self.burst_rate_per_s if self._in_burst else self.base_rate_per_s
        return rng.exponential(rate)


class DiurnalArrivals:
    """Sinusoidally modulated arrivals: ``rate(t)`` swings ±amplitude.

    ``rate(t) = mean_rate_per_s * (1 + amplitude * sin(2πt/period))``,
    approximated by drawing each gap at the instantaneous rate — fine
    for periods much longer than a typical gap, which is the diurnal
    regime by definition.
    """

    def __init__(
        self,
        mean_rate_per_s: float,
        amplitude: float = 0.5,
        period_s: float = 240.0,
        phase_s: float = 0.0,
    ) -> None:
        if mean_rate_per_s <= 0:
            raise ConfigurationError("mean_rate_per_s must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ConfigurationError("amplitude must be in [0, 1)")
        if period_s <= 0:
            raise ConfigurationError("period_s must be positive")
        self.mean_rate_per_s = mean_rate_per_s
        self.amplitude = amplitude
        self.period_s = period_s
        self.phase_s = phase_s

    def rate_at(self, now: float) -> float:
        """Instantaneous arrival rate at simulation time ``now``."""
        swing = math.sin(2.0 * math.pi * (now + self.phase_s) / self.period_s)
        return self.mean_rate_per_s * (1.0 + self.amplitude * swing)

    def next_gap_s(self, rng: SeededRng, now: float) -> float:
        return rng.exponential(max(self.rate_at(now), 1e-9))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's client population and task shape.

    ``clients`` scales the arrival process (each client contributes the
    process rate independently is approximated by multiplying the drawn
    gap down by the population), letting per-tenant populations reach
    realistic sizes without one event per client.

    A tenant with a ``graph`` template emits DAG jobs instead of scalar
    requests: each arrival instantiates the template through the same
    per-tenant substream and submits it via the gateway's attached
    :class:`~repro.dag.scheduler.DagScheduler` — arrival times and stage
    work draws stay a pure function of ``(seed, spec)``.
    """

    name: str
    arrivals: ArrivalProcess
    work_mi_range: Tuple[float, float] = (200.0, 200.0)
    deadline_s: Optional[float] = 10.0
    priority: int = 1
    input_bytes: int = 10_000
    output_bytes: int = 2_000
    clients: int = 1
    graph: Optional[GraphTemplate] = None

    def __post_init__(self) -> None:
        low, high = self.work_mi_range
        if low <= 0 or high < low:
            raise ConfigurationError("work_mi_range must satisfy 0 < low <= high")
        if self.priority < 0:
            raise ConfigurationError("priority must be non-negative")
        if self.clients < 1:
            raise ConfigurationError("clients must be >= 1")


#: Blended mean task size of :func:`tenant_mix` (70% bulk @200 MI +
#: 30% interactive @150 MI); sizes an open-loop rate off capacity.
MEAN_WORK_MI = 185.0


def tenant_mix(rate_per_s: float) -> List[TenantSpec]:
    """E16's open-loop mix: 70% bulk and 30% interactive at ``rate_per_s``."""
    return [
        TenantSpec(
            name="bulk",
            arrivals=PoissonArrivals(rate_per_s * 0.7),
            work_mi_range=(150.0, 250.0),
            deadline_s=8.0,
            priority=2,
        ),
        TenantSpec(
            name="interactive",
            arrivals=PoissonArrivals(rate_per_s * 0.3),
            work_mi_range=(100.0, 200.0),
            deadline_s=6.0,
            priority=1,
        ),
    ]


@dataclass
class TenantLoad:
    """Per-tenant offered-load accounting."""

    offered: int = 0
    offered_work_mi: float = 0.0


class WorkloadGenerator:
    """Drives seeded open-loop arrivals from tenant specs into a gateway.

    Each tenant owns an independent RNG substream and an independent
    arrival chain of engine events, so adding a tenant never perturbs
    another tenant's arrival times — the substream discipline the rest
    of the framework follows.
    """

    def __init__(
        self,
        world: World,
        gateway: ServiceGateway,
        tenants: List[TenantSpec],
        horizon_s: float,
    ) -> None:
        if not tenants:
            raise ConfigurationError("at least one tenant required")
        if len({spec.name for spec in tenants}) != len(tenants):
            raise ConfigurationError("tenant names must be unique")
        if horizon_s <= 0:
            raise ConfigurationError("horizon_s must be positive")
        self.world = world
        self.gateway = gateway
        self.tenants = list(tenants)
        self.horizon_s = horizon_s
        self.loads: Dict[str, TenantLoad] = {spec.name: TenantLoad() for spec in tenants}
        self._rngs: Dict[str, SeededRng] = {
            spec.name: world.rng.fork(f"serve/workload/{spec.name}") for spec in tenants
        }
        self._started = False
        self._started_at = 0.0

    def start(self) -> None:
        """Begin every tenant's arrival chain (idempotent)."""
        if self._started:
            return
        self._started = True
        self._started_at = self.world.now
        for spec in self.tenants:
            self._schedule_next(spec)

    def _schedule_next(self, spec: TenantSpec) -> None:
        rng = self._rngs[spec.name]
        gap = spec.arrivals.next_gap_s(rng, self.world.now) / spec.clients
        arrival_at = self.world.now + gap
        if arrival_at - self._started_at > self.horizon_s:
            return
        self.world.engine.schedule_at(
            arrival_at, lambda: self._arrive(spec), label="serve-arrival"
        )

    def _arrive(self, spec: TenantSpec) -> None:
        rng = self._rngs[spec.name]
        if spec.graph is not None:
            graph = spec.graph.instantiate(rng, submitter=spec.name)
            load = self.loads[spec.name]
            load.offered += 1
            load.offered_work_mi += graph.total_work_mi
            self.gateway.submit_graph(graph, tenant=spec.name)
            self._schedule_next(spec)
            return
        low, high = spec.work_mi_range
        work_mi = low if high == low else rng.uniform(low, high)
        request = ServiceRequest.build(
            work_mi=work_mi,
            tenant=spec.name,
            priority=spec.priority,
            deadline_s=spec.deadline_s,
            input_bytes=spec.input_bytes,
            output_bytes=spec.output_bytes,
        )
        load = self.loads[spec.name]
        load.offered += 1
        load.offered_work_mi += work_mi
        self.gateway.submit(request)
        self._schedule_next(spec)

    def total_offered(self) -> int:
        """Requests offered so far across every tenant."""
        return sum(load.offered for load in self.loads.values())


# Re-exported for convenience alongside the processes.
__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "TenantSpec",
    "TenantLoad",
    "WorkloadGenerator",
]
