"""The conventional central cloud endpoint.

Used as the *conventional cloud* arm of the Fig. 2 comparison (E1), as
the upstream the infrastructure-based v-cloud offloads to, and as the
``cloud`` tier of the tiered federation (``repro.tier``).  Requests
reach it through an RSU or base station, pay WAN latency both ways, and
are processed with ample-but-not-infinite capacity.

Failures are typed and ledgered (``failure_reasons``), mirroring the
:class:`~repro.core.vcloud.VehicularCloud` contract: a cancelled or
deadline-lapsed request lands in the ledger instead of vanishing, so
tier-level conservation checks can reconcile remote work exactly.  The
queue is no longer opaque — :meth:`queue_delay_estimate` exposes the
standing delay a new arrival would face, which the tier health tracker
and :class:`~repro.core.capacity.BacklogEstimator` consumers read
instead of guessing from response latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import ConfigurationError
from ..sim.engine import EventHandle
from ..sim.metrics import Ledger
from ..sim.world import World


@dataclass(frozen=True)
class CloudResponse:
    """Result of a central-cloud request."""

    request_id: str
    completed_at: float
    queue_delay_s: float
    processing_s: float


@dataclass
class _PendingRequest:
    """One accepted request awaiting its response callback."""

    request_id: str
    work_mi: float
    finish_at: float
    response_handle: EventHandle
    on_failure: Optional[Callable[[str], None]] = None


class CentralCloud:
    """A datacenter with a WAN in front and a work queue inside."""

    def __init__(
        self,
        world: World,
        compute_mips: float = 500_000.0,
        wan_delay_s: Optional[float] = None,
    ) -> None:
        if compute_mips <= 0:
            raise ConfigurationError("compute_mips must be positive")
        self.world = world
        self.compute_mips = compute_mips
        self.wan_delay_s = (
            wan_delay_s if wan_delay_s is not None else world.config.channel.wan_delay_s
        )
        #: Virtual time at which the last queued job finishes.
        self._busy_until = 0.0
        self.requests_served = 0
        self.requests_failed = 0
        #: Terminal failures broken down by typed reason (``cancelled``,
        #: ``speculation_cancelled``, ...), mirroring ``CloudStats``.
        self.failure_reasons: Dict[str, int] = {}
        self.ledger = Ledger(
            world, self, "central_cloud", "cloud", reasons={"requests_failed": self.failure_reasons}
        )
        self._pending: Dict[str, _PendingRequest] = {}

    def submit(
        self,
        request_id: str,
        work_mi: float,
        on_complete: Callable[[CloudResponse], None],
        on_failure: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Process ``work_mi`` million instructions; respond via callback.

        The response callback fires after uplink WAN delay, queueing,
        processing, and downlink WAN delay.  ``on_failure`` (optional)
        receives the typed reason if the request is cancelled before
        its response fires.
        """
        if work_mi < 0:
            raise ConfigurationError("work_mi must be non-negative")
        arrival = self.world.now + self.wan_delay_s
        start = max(arrival, self._busy_until)
        processing = work_mi / self.compute_mips
        finish = start + processing
        self._busy_until = finish
        queue_delay = start - arrival
        respond_at = finish + self.wan_delay_s
        self.world.metrics.increment("central_cloud/requests")

        def _respond() -> None:
            self._pending.pop(request_id, None)
            self.requests_served += 1
            on_complete(
                CloudResponse(
                    request_id=request_id,
                    completed_at=self.world.now,
                    queue_delay_s=queue_delay,
                    processing_s=processing,
                )
            )

        handle = self.world.engine.schedule_at(
            respond_at, _respond, label="cloud-response"
        )
        self._pending[request_id] = _PendingRequest(
            request_id=request_id,
            work_mi=work_mi,
            finish_at=finish,
            response_handle=handle,
            on_failure=on_failure,
        )

    def cancel(self, request_id: str, reason: str = "cancelled") -> bool:
        """Cancel an accepted request before its response fires.

        The cancellation is a terminal, typed failure: it lands in
        ``failure_reasons`` and the metrics ledger, and the request's
        ``on_failure`` callback (when given) is invoked with the reason
        — the same contract :meth:`~repro.core.vcloud.VehicularCloud.cancel`
        gives speculative replicas.  Returns False when the request is
        unknown or already responded.  Reserved processing time is
        reclaimed when the job had not started yet.
        """
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return False
        pending.response_handle.cancel()
        # Reclaim the queue slot if processing had not begun; work
        # already underway (or done, awaiting the downlink) is sunk.
        start = pending.finish_at - pending.work_mi / self.compute_mips
        if start >= self.world.now and pending.finish_at >= self._busy_until:
            self._busy_until = max(self.world.now, start)
        self._fail(pending, reason)
        return True

    def _fail(self, pending: _PendingRequest, reason: str) -> None:
        self.ledger.record("requests_failed", reason, metric="failures")
        if pending.on_failure is not None:
            pending.on_failure(reason)

    @property
    def backlog_s(self) -> float:
        """Seconds of work currently queued ahead of a new arrival."""
        return max(0.0, self._busy_until - self.world.now)

    def queue_delay_estimate(self) -> float:
        """Queueing delay a request submitted *now* would experience.

        The WAN transit absorbs ``wan_delay_s`` of the backlog before
        the request arrives, so the estimate is the backlog in excess of
        the uplink — exactly the ``queue_delay_s`` the eventual
        :class:`CloudResponse` would report.  Tier health trackers and
        backlog estimators read this instead of inferring load from
        response latencies.
        """
        return max(0.0, self._busy_until - (self.world.now + self.wan_delay_s))

    def pending_requests(self) -> int:
        """Accepted requests whose responses have not fired yet."""
        return len(self._pending)
